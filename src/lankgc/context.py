"""Shared id-space view of a dataset bundle.

Builds one vocabulary over every split of a bundle (unseen entities
included), the inverse-augmented training graph, and the auxiliary
graph that supplies neighborhoods for unseen entities.  Seen entities
always draw their neighbors from training facts; unseen entities only
ever see auxiliary facts.
"""

from __future__ import annotations

import numpy as np

from .kg import KnowledgeGraph, Vocabulary, augment_inverses

_EMPTY = np.zeros((0, 2), dtype=np.int64)


class BundleContext:
    def __init__(self, bundle):
        self.bundle = bundle
        self.vocab = Vocabulary(bundle.all_entities(), bundle.all_relations())
        self.train_graph = augment_inverses(
            KnowledgeGraph(self.vocab, self.to_ids(bundle.train))
        )
        self.aux_graph = None
        if bundle.aux:
            self.aux_graph = augment_inverses(KnowledgeGraph(self.vocab, self.to_ids(bundle.aux)))
        self.unseen_ids = {self.vocab.entity_id(name) for name in bundle.unseen}
        seen = bundle.seen_entities()
        self.seen_ids = np.array(sorted(self.vocab.entity_id(n) for n in seen), dtype=np.int64)

    def to_ids(self, triples):
        out = np.empty((len(triples), 3), dtype=np.int64)
        for i, (s, r, o) in enumerate(triples):
            out[i, 0] = self.vocab.entity_id(s)
            out[i, 1] = self.vocab.relation_id(r)
            out[i, 2] = self.vocab.entity_id(o)
        return out

    def neighborhood(self, e):
        """Adjacency rows for ``e``: auxiliary facts if unseen, else training facts."""
        if e in self.unseen_ids:
            if self.aux_graph is None:
                return _EMPTY
            return self.aux_graph.neighborhood(e)
        return self.train_graph.neighborhood(e)

    def known_triplets(self):
        """All bundle facts as id tuples, for filtered ranking."""
        out = set()
        for part in (self.bundle.train, self.bundle.aux, self.bundle.valid, self.bundle.test):
            for row in self.to_ids(part):
                out.add((int(row[0]), int(row[1]), int(row[2])))
        return out
