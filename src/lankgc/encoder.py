"""Neighborhood aggregation: from sampled neighbor facts to an embedding.

An entity is encoded, under a query relation, by combining the
relation-specific projections of its neighbors' input embeddings.  The
projection removes the component along the (unit) relation transform
vector:

    T_r(e) = e - (w_r . e) w_r

Aggregator kinds:

    mean          uniform weights over the real neighbors
    lstm          an LSTM over a hashed order of the neighbors, one autodiff
                  op (:func:`~lankgc.autodiff.lstm_rows`), forward and back
    lan           logic weights plus query-aware neural attention
    query-attn    the neural attention alone
    global-attn   the neural attention alone, with the query zeroed
    logic-only    the logic weights alone

The neural attention scores a neighbor by
``u_a . tanh(W_a [z_q ; T_r(e)])`` and normalizes with a softmax over
the row's neighbors, so they sum to one.  Logic weights come from the
mined implication table (see :mod:`lankgc.rules`).  For ``lan`` the two
weight vectors are summed, not renormalized.

:func:`encode_batch` is the one forward pass, used for training,
ranking, scoring and ``inspect-weights`` alike; with ``trace`` set it
also returns the per-slot attention.  Only training passes it gradient
leaves, so only training builds a graph; over constant weights
(``store.leaves(False)``) no op keeps its operands.  It takes no rng:
every draw, a neighborhood's sample and an ``lstm`` row's order, is a
hash made by :func:`stack_samples`.  The numpy oracles in the test
suite pin it to the formulas above.

A batch arrives as CSR slots (see :func:`stack_samples`): row b owns
the slots offsets[b]:offsets[b+1] of flat (S,) relation and entity
arrays, and every per-slot quantity is an (S,) array, from the
transform (:func:`~lankgc.autodiff.transform_rows`, one op from the two
tables and the slot ids, whose graph node keeps no gathered row) and
the attention projection to the logic weights, the softmax and the
weights of the final sum (:func:`~lankgc.autodiff.weighted_block_sum`),
or for ``lstm`` the transform alone.  Each row's scalar sums add its own
slots in slot order, so an empty row simply has no slots.
``attn_proj`` is applied in two halves taken apart by column:
``W_a [z_q ; t] = W_q z_q + W_e t``.  The query half is computed once
per row and gathered to its slots, the neighbor half once per slot;
``global-attn`` has no query half.

A row's encoding does not depend on the other rows of its batch, except
through BLAS.  These products round a row's last bits differently with
the product's row count, at any size: the attention's
``transformed @ W_e^T`` and its score GEMV ``matvec(tanh(pre), u_a)``,
both over the batch's slots, the query half ``query_vec[q] @ W_q^T``
over its rows, and ``lstm_rows``' gate products over the rows still live
at each step.  So a row equals its B=1 encoding bitwise for ``mean`` and
``logic-only`` only; the other kinds agree to rounding.  Within a
scoring batch a row's encoding is shared by its repeats
(:func:`distinct_rows`): the rows with one (entity, query) key are
encoded once.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .kg import GraphError
from .rules import logic_attention_batch

AGGREGATOR_KINDS = ("mean", "lstm", "lan", "query-attn", "global-attn", "logic-only")
_LOGIC_KINDS = ("lan", "logic-only")


@dataclass
class AggregatorConfig:
    kind: str = "lan"
    neighbor_budget: int = 64
    logic_mode: str = "normalized"
    epsilon: float = 1e-3

    def __post_init__(self):
        if self.kind not in AGGREGATOR_KINDS:
            raise ValueError(f"unknown aggregator kind: {self.kind!r}")
        if self.neighbor_budget < 1:
            raise ValueError(f"neighbor budget must be >= 1, got {self.neighbor_budget}")
        if self.logic_mode not in ("raw", "normalized"):
            raise ValueError(f"unknown logic mode: {self.logic_mode!r}")
        if not np.isfinite(self.epsilon) or self.epsilon <= 0.0:
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")

    @property
    def needs_rules(self):
        return self.kind in _LOGIC_KINDS

    @property
    def uses_lstm(self):
        return self.kind == "lstm"


def _mix(x):
    """splitmix64's finalizer over a uint64 array, in place; returns ``x``."""
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


def stack_samples(graph, ent_ids, cfg, key):
    """Sample neighborhoods for a batch of entities as CSR slots, in the order the encoder reads them.

    Returns ``(offsets, relations, entities)``: row ``i`` holds the
    slots ``offsets[i]:offsets[i + 1]`` of the (S,) ``relations`` and
    ``entities``, at most ``cfg.neighbor_budget`` of them.  ``graph`` is
    a :class:`~lankgc.kg.KnowledgeGraph`, or anything with its CSR
    ``offsets`` and ``pairs`` arrays.  Every draw is made here, from
    ``key``, a tuple of ints in [0, 2^64): over uint64, neighbor ``j`` of
    entity ``e`` hashes to ``h = mix(mix(salt ^ e) + j)``, with ``mix``
    splitmix64's finalizer and ``salt = mix(salt ^ k)`` folded over the
    key from splitmix64's increment.  A neighborhood over the budget
    keeps its lowest ``h``, in neighborhood order, and an ``lstm`` row
    reads its slots by ascending ``h``; a tie goes to the lower ``j``.
    So an entity's rows under one key hold the same slots in any batch.
    A key int outside [0, 2^64) raises :class:`ValueError` first; an
    entity id outside [0, N) raises :class:`~lankgc.kg.GraphError`.
    """
    salt = np.array([0x9E3779B97F4A7C15], dtype=np.uint64)  # splitmix64's increment: the empty key's salt
    for k in key:
        if not 0 <= operator.index(k) < 1 << 64:
            raise ValueError(f"sample key {tuple(key)} holds {k}, outside [0, 2**64)")
        salt ^= np.uint64(k)
        _mix(salt)
    budget = cfg.neighbor_budget
    indptr, pairs = graph.offsets, np.asarray(graph.pairs, dtype=np.int64)
    ent_ids = np.asarray(ent_ids, dtype=np.int64).reshape(-1)
    bad = ent_ids[(ent_ids < 0) | (ent_ids >= indptr.size - 1)]
    if bad.size:
        raise GraphError(f"entity id out of range: {int(bad[0])}")
    starts = indptr[ent_ids]
    sizes = indptr[ent_ids + 1] - starts
    taken = np.minimum(sizes, budget)
    draws = (sizes > budget) | ((taken > 1) & cfg.uses_lstm)
    rows = np.flatnonzero(draws)
    n = sizes[rows]
    first = np.cumsum(n) - n
    j = np.arange(n.sum())
    j -= np.repeat(first, n)  # each drawing neighbor's index in its neighborhood
    row_of = np.repeat(np.arange(rows.size), n)
    h = _mix(salt ^ ent_ids[rows].astype(np.uint64))[row_of]
    h += j.view(np.uint64)
    order = np.lexsort((_mix(h), row_of))  # by row, then by hash, a tie in neighborhood order
    del h, row_of
    kept = order[j < budget]  # position p of a row's run in ``order`` holds its rank j[p]
    del order, j
    if not cfg.uses_lstm:
        kept.sort()
    kept += np.repeat(starts[rows] - first, taken[rows])  # into ``pairs``
    offsets = np.zeros(ent_ids.size + 1, dtype=np.int64)
    np.cumsum(taken, out=offsets[1:])
    src = np.arange(offsets[-1]) + np.repeat(starts - offsets[:-1], taken)  # slot j of row i reads pairs[starts[i] + j]
    src[np.repeat(draws, taken)] = kept
    return offsets, pairs[src, 0], pairs[src, 1]


def distinct_rows(ent_ids, queries):
    """The rows of a batch to encode, and where each row's encoding is.

    Returns ``(keep, where)``: encoding the rows ``keep`` (ascending
    indices into ``ent_ids``, the first row of each (entity, query) key)
    gives row ``i``'s encoding at ``where[i]``.  Every repeat shares:
    :func:`stack_samples` gives one entity the same slots in every row.
    """
    ent_ids = np.asarray(ent_ids, dtype=np.int64).reshape(-1)
    queries = np.asarray(queries, dtype=np.int64).reshape(-1)
    keys = ent_ids * (queries.max(initial=0) + 1) + queries  # distinct for relation ids >= 0
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    keep = np.sort(first)
    return keep, np.searchsorted(keep, first[inverse])


def encode_batch(leaves, offsets, relations, entities, queries, cfg, dense_table=None, trace=False):
    """Encode a batch of entities; returns a ``(B, d)`` Value.

    The batch is CSR, as :func:`stack_samples` returns it: row ``b``'s
    neighbors are the slots ``offsets[b]:offsets[b + 1]`` of the (S,)
    ``relations`` and ``entities``, and ``queries`` is the (B,) query
    relation per row.  Rows without a neighbor come out as zero vectors.
    It draws nothing: the encoding is a function of the slots and the
    weights, and ``lstm`` reads each row's slots in slot order, the
    order that :func:`stack_samples` drew.  With ``trace`` set the
    result is ``(Value, alpha_logic, alpha_nn)``: the (S,) logic and
    neural attention weights, zero where the kind has no such part.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    queries = np.asarray(queries, dtype=np.int64)
    counts = np.diff(offsets)
    dim = leaves["entity_emb"].data.shape[1]

    transformed = ad.transform_rows(leaves["entity_emb"], entities, leaves["transform_vec"], relations)

    if cfg.kind == "lstm":
        out = ad.lstm_rows(transformed, offsets, *([leaves[f"lstm_{p}_{g}"] for g in "fico"] for p in "wb"))
        return (out, np.zeros(offsets[-1]), np.zeros(offsets[-1])) if trace else out

    logic_w = alpha_nn = None
    if cfg.needs_rules:
        if dense_table is None:
            raise ValueError(f"aggregator {cfg.kind!r} needs a mined rule table")
        logic_w = logic_attention_batch(
            dense_table, offsets, relations, queries, mode=cfg.logic_mode, epsilon=cfg.epsilon
        )

    if cfg.kind == "mean":
        weights = ad.Value(1.0 / np.repeat(counts, counts))
    elif cfg.kind == "logic-only":
        weights = ad.Value(logic_w)
    else:
        proj = leaves["attn_proj"]
        pre = ad.matmul(transformed, ad.transpose(ad.narrow(proj, dim, 2 * dim)))
        if cfg.kind != "global-attn":
            w_q = ad.transpose(ad.narrow(proj, 0, dim))
            q_part = ad.matmul(ad.take_rows(leaves["query_vec"], queries), w_q)  # (B, d)
            pre = ad.add(pre, ad.take_rows(q_part, np.repeat(np.arange(counts.size), counts)))
        scores = ad.matvec(ad.tanh(pre), leaves["attn_score_vec"])
        alpha_nn = ad.softmax_masked(scores, offsets)
        weights = ad.add(alpha_nn, ad.Value(logic_w)) if cfg.kind == "lan" else alpha_nn
    out = ad.weighted_block_sum(transformed, weights, offsets)
    if not trace:
        return out
    zeros = np.zeros(offsets[-1])
    return out, (zeros if logic_w is None else logic_w), (zeros if alpha_nn is None else alpha_nn.data)
