"""Relation-implication mining and the logic side of the attention.

The miner estimates, for every ordered relation pair, the conditional
co-occurrence frequency over entities of the inverse-augmented training
graph:

    conf(r1 => r2) = |{e : r1 in N_R(e) and r2 in N_R(e)}|
                     / |{e : r1 in N_R(e)}|

where N_R(e) is the set of relations appearing in e's neighborhood.
The table is one dense (R, R) matrix, since every consumer gathers from
it.  Counting runs through a sparse entity x relation incidence matrix;
the per-pair counts are exact integers and the division is one
vectorized step, so the ratios match a naive per-entity scan bit for
bit.

The logic attention weight of a neighbor connected through relation r,
under query relation q, is

    conf(r => q) / max({conf(r' => r) : r' in the neighborhood, r' != r})

with an empty max defined as 1 and the denominator floored at epsilon.
A high numerator means r tends to imply the query; a high denominator
means r is implied by other present relations, i.e. redundant.

A batch arrives as CSR slots: row b owns the slots offsets[b]:offsets[b+1]
of a flat relation array.  The max only ever pairs a row's slots with
each other, so a batch costs the sum of k_i^2 over its rows' slot
counts k_i.  The max is exact, and the normalization adds each row's
slots in slot order (a running sum, as ``sum`` over a list does), so a
row's weights have the same bytes whichever rows share its batch.

A table holds ids only: :func:`export_table` and :func:`import_table`
name them through the vocabulary that each caller holds.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .kg import GraphError, tsv_rows


class ConfidenceTable:
    """conf(r1 => r2) over an augmented relation vocabulary, as an (R, R) matrix.

    Row r1, column r2 holds conf(r1 => r2); unobserved pairs are 0.  The
    matrix is C-ordered float64 and read-only.
    """

    def __init__(self, matrix):
        # C-ordered once, so logic_attention_batch's flat view never copies it; a view, so
        # freezing it leaves the caller's own array writable
        self._matrix = np.ascontiguousarray(matrix, dtype=np.float64).view()
        self._matrix.flags.writeable = False

    @property
    def n_relations(self):
        return self._matrix.shape[0]

    def dense(self):
        """The read-only (R, R) float64 confidence matrix; unobserved pairs are 0."""
        return self._matrix


def mine_confidence(kg):
    """Mine the implication table from an inverse-augmented graph.

    Every entity of the graph contributes its distinct neighbor-relation
    set, a row of the 0/1 entity x relation incidence matrix; pair counts
    come from one sparse product of that matrix with itself, and each
    row is divided by its diagonal, the count of entities carrying r1.
    """
    if not kg.augmented:
        raise GraphError("confidence mining expects an inverse-augmented graph")
    s, r = kg.triplets[:, 0], kg.triplets[:, 1]
    # the constructor sums repeated (entity, relation) cells; > 0 turns the sums into 0/1
    facts = sp.csr_matrix((np.ones(s.size, dtype=np.int32), (s, r)), shape=(kg.n_entities, kg.n_relations))
    incidence = (facts > 0).astype(np.int32)
    counts = (incidence.T @ incidence).toarray()
    support = counts.diagonal().astype(np.int64)
    # a relation no entity carries has an all-zero row, so dividing it by 1 keeps it 0
    return ConfidenceTable(counts / np.maximum(support, 1)[:, None])


def logic_attention_batch(dense, offsets, relations, queries, mode="normalized", epsilon=1e-3):
    """Logic weights for a batch of sampled neighborhoods, one per slot.

    ``dense`` is the (R, R) confidence matrix; row ``b`` of the batch is
    the slots ``offsets[b]:offsets[b + 1]`` of the (S,) ``relations``,
    under the query ``queries[b]``.  Returns the (S,) weights.  ``mode``
    is ``"raw"`` for the plain ratios or ``"normalized"`` to rescale each
    row to sum to 1 (when its sum is positive).  A query or neighbor
    relation id outside the matrix raises :class:`~lankgc.kg.GraphError`.
    """
    if mode not in ("raw", "normalized"):
        raise ValueError(f"unknown logic mode: {mode!r}")
    offsets = np.asarray(offsets, dtype=np.int64)
    rel = np.asarray(relations, dtype=np.int64)
    queries = np.asarray(queries, dtype=np.int64)
    n_rel = dense.shape[1]
    bad = queries[(queries < 0) | (queries >= n_rel)]
    if bad.size:
        raise GraphError(f"query relation id out of range: {int(bad[0])}")
    bad = rel[(rel < 0) | (rel >= dense.shape[0])]
    if bad.size:
        raise GraphError(f"neighbor relation id out of range: {int(bad[0])}")
    flat = dense.reshape(-1)  # dense[i, j] is flat[i * n_rel + j]
    counts = np.diff(offsets)
    row = np.repeat(np.arange(counts.size), counts)
    # slot s of row b owns the run of k_b pairs that starts at seg[s];
    # pair seg[s] + i partners s with slot offsets[b] + i
    size = counts[row]
    seg = np.cumsum(size) - size
    partner = np.arange(size.sum()) - np.repeat(seg - offsets[row], size)
    implier, implied = rel[partner], np.repeat(rel, size)
    # conf(r_{j'} => r_j), with identical relation ids excluded from the max
    cross = np.where(implier == implied, -np.inf, flat.take(implier * n_rel + implied))
    denom = np.maximum.reduceat(cross, seg)
    denom[np.isneginf(denom)] = 1.0
    w = flat.take(rel * n_rel + queries[row]) / np.maximum(denom, epsilon)
    if mode == "normalized":
        totals = np.bincount(row, weights=w, minlength=counts.size)
        w /= np.where(totals > 0.0, totals, 1.0)[row]  # x / 1.0 is x, so rows summing to <= 0 stay as they are
    return w


def export_table(matrix, path, vocab):
    """Write the nonzero cells of an (R, R) confidence matrix as TSV rows ``r1\tr2\tconfidence``, sorted by id.

    Relation ids are named through ``vocab``.  Confidences are written
    with ``repr`` so a float64 round-trips exactly through import.
    """
    rows, cols = np.nonzero(matrix)
    names = [vocab.relation_name(r) for r in range(matrix.shape[0])]
    with open(path, "w", encoding="utf-8") as fh:
        for r1, r2, c in zip(rows.tolist(), cols.tolist(), matrix[rows, cols].tolist()):
            fh.write(f"{names[r1]}\t{names[r2]}\t{c!r}\n")


def import_table(path, vocab):
    """Read an exported table back, resolving names through ``vocab``.

    Each row must name two relations of ``vocab``, each confidence must
    be a number in [0, 1] and each pair may appear once; a row breaking
    a rule raises ``ValueError`` naming its line.
    """
    nr = 2 * vocab.n_relations
    matrix = np.zeros((nr, nr))
    listed = np.zeros((nr, nr), dtype=bool)
    for lineno, fields in tsv_rows(path, 3):
        try:
            r1, r2 = vocab.relation_id(fields[0]), vocab.relation_id(fields[1])
        except GraphError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        try:
            c = float(fields[2])
        except ValueError:
            c = float("nan")  # reported below with the out-of-range values
        if not 0.0 <= c <= 1.0:
            raise ValueError(f"{path}:{lineno}: confidence must be a number in [0, 1], got {fields[2]!r}")
        if listed[r1, r2]:
            raise ValueError(f"{path}:{lineno}: pair {fields[0]} => {fields[1]} is listed twice")
        listed[r1, r2] = True
        matrix[r1, r2] = c
    return ConfidenceTable(matrix)
