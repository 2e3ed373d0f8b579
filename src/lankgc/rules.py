"""Relation-implication mining and the logic side of the attention.

The miner estimates, for every ordered relation pair, the conditional
co-occurrence frequency over entities of the inverse-augmented training
graph:

    conf(r1 => r2) = |{e : r1 in N_R(e) and r2 in N_R(e)}|
                     / |{e : r1 in N_R(e)}|

where N_R(e) is the set of relations appearing in e's neighborhood.
Counting runs through a sparse entity x relation incidence matrix; the
per-pair counts are exact integers, so the resulting ratios match a
naive per-entity scan bit for bit.

The logic attention weight of a neighbor connected through relation r,
under query relation q, is

    conf(r => q) / max({conf(r' => r) : r' in the neighborhood, r' != r})

with an empty max defined as 1 and the denominator floored at epsilon.
A high numerator means r tends to imply the query; a high denominator
means r is implied by other present relations, i.e. redundant.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .kg import GraphError


class ConfidenceTable:
    """Sparse conf(r1 => r2) lookup over an augmented relation vocabulary."""

    def __init__(self, n_relations, conf, support=None, relation_names=None):
        self.n_relations = int(n_relations)
        self.conf = conf
        self.support = support
        self.relation_names = relation_names

    def dense(self):
        """Materialize the table as an (R, R) float64 matrix; unobserved pairs are 0."""
        out = np.zeros((self.n_relations, self.n_relations), dtype=np.float64)
        for (r1, r2), c in self.conf.items():
            out[r1, r2] = c
        return out

    def __array__(self, dtype=None, copy=None):
        """``np.asarray(table)`` is :meth:`dense`, so the table passes where the matrix is expected."""
        return self.dense() if dtype is None else self.dense().astype(dtype)

    def __len__(self):
        return len(self.conf)


def mine_confidence(kg):
    """Mine the implication table from an inverse-augmented graph.

    Every entity of the graph contributes its distinct neighbor-relation
    set, read off the distinct ``s*R + r`` keys of its facts; pair counts
    come from one sparse product of the incidence matrix with itself.
    """
    if not kg.augmented:
        raise GraphError("confidence mining expects an inverse-augmented graph")
    n, nr = kg.n_entities, kg.n_relations
    ent_ids, rel_ids = np.divmod(np.unique(kg.triplets[:, 0] * nr + kg.triplets[:, 1]), nr)
    incidence = sp.csr_matrix(
        (np.ones(ent_ids.shape[0], dtype=np.int64), (ent_ids, rel_ids)), shape=(n, nr)
    )
    pair_counts = (incidence.T @ incidence).tocoo()
    support = np.asarray(incidence.sum(axis=0)).reshape(-1)
    conf = {}
    for r1, r2, c in zip(pair_counts.row, pair_counts.col, pair_counts.data):
        conf[(int(r1), int(r2))] = float(c) / float(support[r1])
    names = [kg.vocab.relation_name(r) for r in range(nr)]
    return ConfidenceTable(nr, conf, support={r: int(s) for r, s in enumerate(support) if s}, relation_names=names)


def logic_attention_batch(dense, relations, mask, queries, mode="normalized", epsilon=1e-3):
    """Logic weights for a batch of sampled neighborhoods.

    ``dense`` is the (R, R) confidence matrix, ``relations``/``mask``
    are (B, K) and ``queries`` is (B,).  Masked slots get weight exactly
    0.  ``mode`` is ``"raw"`` for the plain ratios or ``"normalized"``
    to rescale each row's real slots to sum to 1 (when their sum is
    positive).
    """
    if mode not in ("raw", "normalized"):
        raise ValueError(f"unknown logic mode: {mode!r}")
    relations = np.asarray(relations, dtype=np.int64)
    mask = np.asarray(mask, dtype=bool)
    queries = np.asarray(queries, dtype=np.int64)
    bad = queries[(queries < 0) | (queries >= dense.shape[1])]
    if bad.size:
        raise GraphError(f"query relation id out of range: {int(bad[0])}")
    bsz, k = relations.shape
    num = dense[relations, queries[:, None]]
    # cross[b, j', j] = conf(r_{j'} => r_j), with invalid j' and identical
    # relation ids excluded from the max
    cross = dense[relations[:, :, None], relations[:, None, :]]
    excl = (~mask[:, :, None]) | (relations[:, :, None] == relations[:, None, :])
    cross = np.where(excl, -np.inf, cross)
    denom = cross.max(axis=1)
    denom = np.where(np.isneginf(denom), 1.0, denom)
    w = np.where(mask, num / np.maximum(denom, epsilon), 0.0)
    if mode == "normalized":
        totals = w.sum(axis=1, keepdims=True)
        w = np.where(totals > 0.0, w / np.where(totals > 0.0, totals, 1.0), w)
    return w


def export_table(table, path):
    """Write the table as TSV rows ``r1\tr2\tconfidence``, sorted by id.

    Confidences are written with ``repr`` so a float64 round-trips
    exactly through import.
    """
    if table.relation_names is None:
        raise ValueError("table has no relation names; mine it from a graph first")
    with open(path, "w", encoding="utf-8") as fh:
        for (r1, r2) in sorted(table.conf):
            c = table.conf[(r1, r2)]
            fh.write(f"{table.relation_names[r1]}\t{table.relation_names[r2]}\t{c!r}\n")


def import_table(path, vocab):
    """Read an exported table back, resolving names through ``vocab``.

    Support counts are not serialized and come back as ``None``.
    """
    conf = {}
    m = vocab.n_relations
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 3:
                raise ValueError(f"{path}:{lineno}: expected 3 tab-separated fields")
            r1, r2 = vocab.relation_id(fields[0]), vocab.relation_id(fields[1])
            conf[(r1, r2)] = float(fields[2])
    names = [vocab.relation_name(r) for r in range(2 * m)]
    return ConfidenceTable(2 * m, conf, support=None, relation_names=names)
