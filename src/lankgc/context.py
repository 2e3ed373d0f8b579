"""Shared id-space view of a dataset bundle.

Builds one vocabulary over every split of a bundle (unseen entities
included), the inverse-augmented training graph, and one
inverse-augmented neighborhood graph for the encoder.  The neighborhood
graph holds the training facts of every seen entity and the auxiliary
facts of every unseen entity, so seen entities always draw their
neighbors from training facts and unseen entities only ever see
auxiliary facts.

Construction reads the bundle's facts column by column: the vocabulary's
name sets (unseen entities included) are unions of per-column lists,
each part becomes (n, 3) id rows in one :meth:`Vocabulary.triplet_ids`
call, and the rest (the unseen and seen masks, the neighborhood graph's
rows, ``seen_ids``) is numpy over those id rows.  A caller builds one
context per bundle and passes it to training, ranking and scoring.
"""

from __future__ import annotations

import numpy as np

from .evaluation import KnownTriplets
from .kg import KnowledgeGraph, Vocabulary, augment_inverses


class BundleContext:
    def __init__(self, bundle):
        self.bundle = bundle
        self.vocab = Vocabulary(bundle.all_entities(), bundle.all_relations())
        self._train_ids = self.to_ids(bundle.train)
        self._aux_ids = self.to_ids(bundle.aux)
        self.train_graph = augment_inverses(KnowledgeGraph(self.vocab, self._train_ids))
        unseen = np.zeros(self.vocab.n_entities, dtype=bool)
        unseen[[self.vocab.entity_id(name) for name in bundle.unseen]] = True
        train = self.train_graph.triplets
        aux = augment_inverses(KnowledgeGraph(self.vocab, self._aux_ids)).triplets
        rows = np.concatenate([train[~unseen[train[:, 0]]], aux[unseen[aux[:, 0]]]])
        self.neighbor_graph = KnowledgeGraph(self.vocab, rows, augmented=True)
        seen = np.zeros(self.vocab.n_entities, dtype=bool)
        seen[self._train_ids[:, 0]] = True
        seen[self._train_ids[:, 2]] = True
        self.seen_ids = np.flatnonzero(seen)
        self._known = None

    def to_ids(self, triples):
        """(n, 3) id rows of (s, r, o) name triples; see :meth:`Vocabulary.triplet_ids`."""
        return self.vocab.triplet_ids(triples)

    def known_triplets(self):
        """All bundle facts (train, aux, valid, test) as a :class:`KnownTriplets`.

        Built on the first call and cached; the bundle does not change.
        """
        if self._known is None:
            parts = (self._train_ids, self._aux_ids,
                     self.to_ids(self.bundle.valid), self.to_ids(self.bundle.test))
            self._known = KnownTriplets(
                np.concatenate(parts),
                self.vocab.n_entities, self.train_graph.n_relations,
            )
        return self._known
