"""Knowledge-graph core: vocabulary, triplet storage, neighborhoods.

Triplets are (subject, relation, object) over string names on disk and
integer ids in memory.  Entity and relation ids are assigned by sorting
names lexicographically, so the same set of triplets always produces
the same ids regardless of file order.

Inverse augmentation doubles the relation vocabulary: a base relation
with id ``r`` in ``[0, m)`` gets an inverse with id ``r + m``.  Inverse
relations are serialized with the reserved name suffix ``**INV``, which
is rejected in input files.

A graph stores its neighborhoods once, in compressed sparse rows: an
``offsets`` array of N+1 entries into one ``pairs`` array of
(relation, entity) rows.  A neighborhood is its ``(k, 2)`` (relation,
entity) rows, a read-only slice of ``pairs``; the batch sampler
(:func:`lankgc.encoder.stack_samples`) gathers from the two arrays
directly.
"""

from __future__ import annotations

import hashlib

import numpy as np

INVERSE_SUFFIX = "**INV"


class ParseError(ValueError):
    """A corpus file line that does not parse; message carries the line number."""


class GraphError(ValueError):
    """A structurally invalid graph or graph operation."""


class Vocabulary:
    """Bidirectional name<->id maps for entities and base relations."""

    def __init__(self, entity_names, relation_names):
        self.entities = sorted(set(entity_names))
        self.relations = sorted(set(relation_names))
        self._ent_index = {name: i for i, name in enumerate(self.entities)}
        self._rel_index = {name: i for i, name in enumerate(self.relations)}

    @property
    def n_entities(self):
        return len(self.entities)

    @property
    def n_relations(self):
        """Number of base relations (inverses not counted)."""
        return len(self.relations)

    def entity_id(self, name):
        try:
            return self._ent_index[name]
        except KeyError:
            raise GraphError(f"unknown entity: {name!r}") from None

    def relation_id(self, name):
        """Id for a relation name; ``r**INV`` maps into the inverse block."""
        if name.endswith(INVERSE_SUFFIX):
            base = name[: -len(INVERSE_SUFFIX)]
            if base in self._rel_index:
                return self._rel_index[base] + len(self.relations)
            raise GraphError(f"unknown relation: {name!r}")
        try:
            return self._rel_index[name]
        except KeyError:
            raise GraphError(f"unknown relation: {name!r}") from None

    def triplet_ids(self, triples):
        """(n, 3) int64 ids of (s, r, o) name triples; an unknown name raises :class:`GraphError`.

        Each column is read out of the triples by one list comprehension
        and goes through its name index in one ``map`` call, not a Python
        loop per triple.  Relation names fall back to :meth:`relation_id`
        only when one is not a base relation (an inverse name, or an
        unknown one to report).
        """
        n = len(triples)
        out = np.empty((n, 3), dtype=np.int64)
        if not triples:
            return out
        try:
            for i in (0, 2):
                out[:, i] = np.fromiter(map(self._ent_index.__getitem__, [t[i] for t in triples]), np.int64, n)
        except KeyError as exc:
            raise GraphError(f"unknown entity: {exc.args[0]!r}") from None
        relations = [t[1] for t in triples]
        try:
            out[:, 1] = np.fromiter(map(self._rel_index.__getitem__, relations), np.int64, n)
        except KeyError:
            out[:, 1] = np.fromiter(map(self.relation_id, relations), np.int64, n)
        return out

    def entity_name(self, i):
        return self.entities[i]

    def relation_name(self, r):
        m = len(self.relations)
        if 0 <= r < m:
            return self.relations[r]
        if m <= r < 2 * m:
            return self.relations[r - m] + INVERSE_SUFFIX
        raise GraphError(f"relation id out of range: {r}")

    def sha256(self):
        """Hex sha256 of both vocabularies, as a checkpoint's manifest records it."""
        return hashlib.sha256("\n".join(self.entities + ["--"] + self.relations).encode("utf-8")).hexdigest()


class KnowledgeGraph:
    """Immutable triplet store with a CSR neighborhood index.

    ``triplets`` is an ``(N, 3)`` int64 array of (s, r, o) ids, in the
    deduplicated order they were supplied.  Neighborhoods are stored in
    compressed sparse rows: ``pairs`` is the ``(E, 2)`` array of
    (relation, entity) rows of every fact, sorted by subject, relation,
    then entity, and the rows of entity ``e`` are
    ``pairs[offsets[e]:offsets[e + 1]]``.  Both arrays are read-only and
    built on first read, so a graph that only supplies triplets (to
    :func:`augment_inverses`, say) never sorts them.  On an augmented
    graph a neighborhood is the full neighborhood of the paper's
    aggregators: every fact touching ``e``, with incoming facts visible
    through inverse relations.
    """

    def __init__(self, vocab, triplets, augmented=False):
        self.vocab = vocab
        self.triplets = np.asarray(triplets, dtype=np.int64).reshape(-1, 3)
        self.augmented = bool(augmented)
        self._csr = None

    def _index(self):
        if self._csr is None:
            t = self.triplets
            srt = t[np.lexsort((t[:, 2], t[:, 1], t[:, 0]))]
            offsets = np.searchsorted(srt[:, 0], np.arange(self.vocab.n_entities + 1))
            pairs = np.ascontiguousarray(srt[:, 1:])
            offsets.flags.writeable = False
            pairs.flags.writeable = False
            self._csr = offsets, pairs
        return self._csr

    @property
    def offsets(self):
        """(N + 1,) start of each entity's rows in :attr:`pairs`."""
        return self._index()[0]

    @property
    def pairs(self):
        """(E, 2) (relation, entity) rows of every fact, sorted by subject."""
        return self._index()[1]

    @property
    def n_entities(self):
        return self.vocab.n_entities

    @property
    def n_relations(self):
        """Relation id space size: m for a raw graph, 2m once augmented."""
        m = self.vocab.n_relations
        return 2 * m if self.augmented else m

    def neighborhood(self, e):
        """Outgoing (relation, entity) pairs of entity ``e`` as a read-only view."""
        if not (0 <= e < self.vocab.n_entities):
            raise GraphError(f"entity id out of range: {e}")
        offsets, pairs = self._index()
        return pairs[offsets[e]:offsets[e + 1]]


def tsv_rows(path, width):
    """Yield (line number, fields) for each non-blank line of a TSV file.

    A line without exactly ``width`` tab-separated fields raises
    :class:`ParseError` naming it.
    """
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if line:
                fields = line.split("\t")
                if len(fields) != width:
                    raise ParseError(f"{path}:{lineno}: expected {width} tab-separated fields, got {len(fields)}")
                yield lineno, fields


def parse_triplet_file(path):
    """Read a 3-column TSV of name triplets, deduplicated, order preserved.

    Malformed lines (see :func:`tsv_rows`) raise :class:`ParseError`
    naming the offending line.  The reserved inverse suffix is rejected
    in relation names.
    """
    triples = []
    seen = set()
    for lineno, (s, r, o) in tsv_rows(path, 3):
        if INVERSE_SUFFIX in r:
            raise ParseError(f"{path}:{lineno}: relation name uses reserved suffix {INVERSE_SUFFIX!r}")
        if (s, r, o) not in seen:
            seen.add((s, r, o))
            triples.append((s, r, o))
    return triples


def write_triplet_file(path, triples):
    """Write (s, r, o) name triplets as a 3-column TSV, one line each, in order."""
    with open(path, "w", encoding="utf-8") as fh:
        for s, r, o in triples:
            fh.write(f"{s}\t{r}\t{o}\n")


def graph_from_names(name_triples):
    """Build a graph from (s, r, o) name tuples, assigning sorted ids."""
    if not name_triples:
        raise GraphError("empty graph: no triplets supplied")
    subjects, relations, objects = zip(*name_triples)
    vocab = Vocabulary(subjects + objects, relations)
    return KnowledgeGraph(vocab, vocab.triplet_ids(name_triples), augmented=False)


def load_triplets(path):
    """Load a TSV corpus file into a (non-augmented) graph."""
    triples = parse_triplet_file(path)
    if not triples:
        raise GraphError(f"empty graph: {path} has no triplets")
    return graph_from_names(triples)


def load_labeled_triplets(path):
    """Read a 4-column TSV ``s r o label`` with label 1 or 0.

    Returns (s, r, o, label) name tuples; used by triplet classification.
    """
    rows = []
    for lineno, (s, r, o, label) in tsv_rows(path, 4):
        if label not in ("0", "1"):
            raise ParseError(f"{path}:{lineno}: label must be 0 or 1, got {label!r}")
        rows.append((s, r, o, int(label)))
    if not rows:
        raise ParseError(f"{path}: no labeled triplets")
    return rows


def augment_inverses(kg):
    """Add an inverse fact (o, r+m, s) for every fact (s, r, o).

    Self-loops produce a distinct inverse self-loop under the inverse
    relation id.  Augmenting twice is an error.
    """
    if kg.augmented:
        raise GraphError("graph is already inverse-augmented")
    m = kg.vocab.n_relations
    fwd = kg.triplets
    inv = np.stack([fwd[:, 2], fwd[:, 1] + m, fwd[:, 0]], axis=1)
    return KnowledgeGraph(kg.vocab, np.concatenate([fwd, inv], axis=0), augmented=True)

