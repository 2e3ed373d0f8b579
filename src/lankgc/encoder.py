"""Neighborhood aggregation: from sampled neighbor facts to an embedding.

An entity is encoded, under a query relation, by combining the
relation-specific projections of its neighbors' input embeddings.  The
projection removes the component along the (unit) relation transform
vector:

    T_r(e) = e - (w_r . e) w_r

Aggregator kinds:

    mean          uniform weights over the real neighbors
    lstm          sequence model over a random permutation of neighbors
    lan           logic weights plus query-aware neural attention
    query-attn    the neural attention alone
    global-attn   the neural attention alone, with the query zeroed
    logic-only    the logic weights alone

The neural attention scores a neighbor by
``u_a . tanh(W_a [z_q ; T_r(e)])`` and normalizes with a masked softmax,
so real slots sum to one.  Logic weights come from the mined implication
table (see :mod:`lankgc.rules`).  For ``lan`` the two weight vectors are
summed, not renormalized.

:func:`encode_batch` is the one forward pass, used for training,
ranking and scoring alike; :func:`encode_from_sample` is its B=1 form,
which also reports the per-slot attention (for ``inspect-weights``).
The numpy oracles in the test suite pin it to the formulas above.

A batch arrives as (B, K) slot grids padded to its widest row, but
every d-wide step (the gathers, the transform, the attention projection
and its tanh) runs on the S real slots only.  Only per-slot scalars
live on the grid: the logic weights, the attention scores, the softmax
and the weights of the final sum, which adds the real slots directly
(:func:`~lankgc.autodiff.weighted_block_sum`).  ``attn_proj`` is applied in two
halves taken apart by column: ``W_a [z_q ; t] = W_q z_q + W_e t``.  The
query half is computed once per row and gathered to its slots, the
neighbor half once per real slot; ``global-attn`` has no query half.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .kg import GraphError, sample_neighbors
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
        if self.epsilon <= 0.0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")

    @property
    def needs_rules(self):
        return self.kind in _LOGIC_KINDS

    @property
    def uses_lstm(self):
        return self.kind == "lstm"


@dataclass
class EncodedEntity:
    """Result of encoding one entity: embedding, attention trace, flag.

    ``trace`` rows are ``(relation, entity, alpha_logic, alpha_nn,
    alpha_total)`` for each real neighbor slot; it stays empty for the
    mean and lstm aggregators, which have no attention to report.
    ``flagged`` marks an empty neighborhood (the embedding is zero).
    """

    embedding: np.ndarray
    trace: list = field(default_factory=list)
    flagged: bool = False


def transform_batch(tape, entries, transforms):
    """Project out the transform direction row by row: ``e - (w . e) w``."""
    proj = ad.row_dot(tape, entries, transforms)
    return ad.sub(tape, entries, ad.col_scale(tape, transforms, proj))


def constant_leaves(tape, store):
    """Every parameter of ``store`` as a constant (no-gradient) leaf."""
    return {name: tape.constant(store[name]) for name in store.names()}


def encode_from_sample(store, dense, cfg, query, sample, rng):
    """Encode one entity from an already-sampled neighborhood.

    A B=1 :func:`encode_batch` over the real slots of ``sample`` on a
    private tape of constant leaves.  ``dense`` is the (R, R) confidence
    matrix, or anything numpy turns into one (a ``ConfidenceTable``
    does); kinds without logic weights accept ``None``.
    """
    mask = np.asarray(sample.mask, dtype=bool)
    if not mask.any():
        return EncodedEntity(np.zeros(store["entity_emb"].shape[1]), trace=[], flagged=True)
    rels = np.asarray(sample.relations)[mask]
    ents = np.asarray(sample.entities)[mask]
    if dense is not None:
        dense = np.asarray(dense, dtype=np.float64)
    tape = ad.Tape()
    out, alpha_logic, alpha_nn = encode_batch(
        tape, constant_leaves(tape, store), rels[None], ents[None], np.ones((1, rels.size), dtype=bool),
        np.array([query]), cfg, dense_table=dense, rng=rng, trace=True,
    )
    trace = []
    if cfg.kind not in ("mean", "lstm"):
        trace = [
            (int(r), int(e), float(lw), float(nw), float(lw + nw))
            for r, e, lw, nw in zip(rels, ents, alpha_logic[0], alpha_nn[0])
        ]
    return EncodedEntity(out.data[0].copy(), trace=trace, flagged=False)


def stack_samples(graph, ent_ids, budget, rng):
    """Sample neighborhoods for a batch of entities into (B, K) arrays.

    ``graph`` is a :class:`~lankgc.kg.KnowledgeGraph`, or anything with
    its CSR ``offsets`` and ``pairs`` arrays; rows are gathered from
    them directly.  Only neighborhoods over the budget go through
    :func:`sample_neighbors`, in row order, so the rng draws are those
    of sampling every row.  ``rng`` is one Generator, or a sequence with
    one entry per row: a Generator, or a seed from which a truncated row
    makes its own with :func:`numpy.random.default_rng` (rows that fit
    the budget never read theirs).  K is at most the budget but no larger
    than the widest sampled neighborhood (and at least 1).  An entity id
    outside [0, N) raises :class:`~lankgc.kg.GraphError`.
    """
    if budget < 1:
        raise ValueError(f"neighbor budget must be >= 1, got {budget}")
    offsets, pairs = graph.offsets, graph.pairs
    ent_ids = np.asarray(ent_ids, dtype=np.int64).reshape(-1)
    bad = ent_ids[(ent_ids < 0) | (ent_ids >= offsets.size - 1)]
    if bad.size:
        raise GraphError(f"entity id out of range: {int(bad[0])}")
    starts = offsets[ent_ids]
    sizes = offsets[ent_ids + 1] - starts
    taken = np.minimum(sizes, budget)
    width = max(1, int(taken.max(initial=0)))
    slots = np.arange(width)
    mask = slots < taken[:, None]
    src = (starts[:, None] + slots)[mask]  # slot j of row i reads pairs[starts[i] + j]
    relations = np.zeros(mask.shape, dtype=np.int64)
    entities = np.zeros(mask.shape, dtype=np.int64)
    relations[mask] = pairs[src, 0]
    entities[mask] = pairs[src, 1]
    shared = isinstance(rng, np.random.Generator)
    for i in np.flatnonzero(sizes > budget):
        row_rng = rng if shared else np.random.default_rng(rng[i])
        sample = sample_neighbors(pairs[starts[i]:starts[i] + sizes[i]], budget, row_rng)
        relations[i] = sample.relations
        entities[i] = sample.entities
    return relations, entities, mask


def encode_batch(tape, leaves, relations, entities, mask, queries, cfg, dense_table=None, rng=None,
                 trace=False):
    """Encode a batch of entities; returns a ``(B, d)`` Value.

    ``relations``/``entities``/``mask`` are (B, K) sampled neighborhoods
    with real entries first (as produced by :func:`stack_samples`), and
    ``queries`` is the (B,) query relation per row.  Rows without any
    real neighbor come out as zero vectors.  Padding slots do no d-wide
    work and get no gradient.  ``rng`` (lstm only) is one Generator or a
    sequence with one Generator or seed per row, as for
    :func:`stack_samples`.  With ``trace`` set the result is ``(Value,
    alpha_logic, alpha_nn)``: the (B, K) logic and neural attention
    weights, zero where the kind has no such part.
    """
    relations = np.asarray(relations, dtype=np.int64)
    entities = np.asarray(entities, dtype=np.int64)
    mask = np.asarray(mask, dtype=bool)
    queries = np.asarray(queries, dtype=np.int64)
    bsz, k = relations.shape
    dim = leaves["entity_emb"].data.shape[1]

    entries = ad.take_rows(tape, leaves["entity_emb"], entities[mask])
    transforms = ad.take_rows(tape, leaves["transform_vec"], relations[mask])
    transformed = transform_batch(tape, entries, transforms)  # (S, d), row-major slot order

    if cfg.kind == "lstm":
        out = _encode_batch_lstm(tape, leaves, transformed, mask, rng, bsz, dim)
        return (out, np.zeros((bsz, k)), np.zeros((bsz, k))) if trace else out

    logic_w = alpha_nn = None
    if cfg.needs_rules:
        if dense_table is None:
            raise ValueError(f"aggregator {cfg.kind!r} needs a mined rule table")
        logic_w = logic_attention_batch(
            dense_table, relations, mask, queries, mode=cfg.logic_mode, epsilon=cfg.epsilon
        )

    if cfg.kind == "mean":
        counts = np.maximum(mask.sum(axis=1), 1)
        weights = tape.constant(mask.astype(np.float64) / counts[:, None])
    elif cfg.kind == "logic-only":
        weights = tape.constant(logic_w)
    else:
        proj = leaves["attn_proj"]
        pre = ad.matmul(tape, transformed, ad.transpose(tape, ad.narrow(tape, proj, dim, 2 * dim)))
        if cfg.kind != "global-attn":
            w_q = ad.transpose(tape, ad.narrow(tape, proj, 0, dim))
            q_part = ad.matmul(tape, ad.take_rows(tape, leaves["query_vec"], queries), w_q)  # (B, d)
            pre = ad.add(tape, pre, ad.take_rows(tape, q_part, np.nonzero(mask)[0]))
        scores = ad.matvec(tape, ad.tanh(tape, pre), leaves["attn_score_vec"])
        soft_mask = mask.copy()
        soft_mask[~mask.any(axis=1), 0] = True  # an empty row's weights are never read
        alpha_nn = ad.softmax_masked(tape, ad.masked_scatter(tape, scores, mask), soft_mask)
        weights = ad.add(tape, alpha_nn, tape.constant(logic_w)) if cfg.kind == "lan" else alpha_nn
    out = ad.weighted_block_sum(tape, transformed, weights, mask)
    if not trace:
        return out
    zeros = np.zeros((bsz, k))
    nn_w = zeros if alpha_nn is None else np.where(mask, alpha_nn.data, 0.0)
    return out, (zeros if logic_w is None else logic_w), nn_w


def _encode_batch_lstm(tape, leaves, transformed, mask, rng, bsz, dim):
    """Batched LSTM aggregation with per-row freezing after the last real slot.

    ``transformed`` holds the real slots only, row-major.  Each row
    consumes its real slots in a freshly permuted order; rows that have
    run out keep their hidden state unchanged, so the final state equals
    the single-entity LSTM over the same sequence.  With one entry per
    row, each row draws its permutation from its own Generator, or from
    one made from its seed.
    """
    if rng is None:
        raise ValueError("lstm aggregation needs an rng for the neighbor permutation")
    shared = isinstance(rng, np.random.Generator)
    counts = mask.sum(axis=1)
    starts = np.cumsum(counts) - counts  # row b's real slots are transformed[starts[b]:][:counts[b]]
    order = np.zeros((bsz, mask.shape[1]), dtype=np.int64)
    for b in range(bsz):
        v = int(counts[b])
        if v:
            order[b, :v] = (rng if shared else np.random.default_rng(rng[b])).permutation(v)
    h = tape.constant(np.zeros((bsz, dim)))
    c = tape.constant(np.zeros((bsz, dim)))
    t_max = int(counts.max()) if bsz else 0
    last = transformed.data.shape[0] - 1
    for t in range(t_max):
        # a row that has run out reads any real slot; its step is dropped below
        x = ad.take_rows(tape, transformed, np.minimum(starts + order[:, t], last))
        hx = ad.concat(tape, h, x)
        gates = {}
        for g in ("f", "i", "c", "o"):
            w_t = ad.transpose(tape, leaves[f"lstm_w_{g}"])
            bias = ad.repeat_rows(tape, ad.reshape(tape, leaves[f"lstm_b_{g}"], (1, dim)), bsz)
            pre = ad.add(tape, ad.matmul(tape, hx, w_t), bias)
            gates[g] = ad.tanh(tape, pre) if g == "c" else ad.sigmoid(tape, pre)
        c_new = ad.add(tape, ad.mul(tape, gates["f"], c), ad.mul(tape, gates["i"], gates["c"]))
        h_new = ad.mul(tape, gates["o"], ad.tanh(tape, c_new))
        live = (counts > t).astype(np.float64)
        keep = tape.constant(live)
        drop = tape.constant(1.0 - live)
        h = ad.add(tape, ad.col_scale(tape, h_new, keep), ad.col_scale(tape, h, drop))
        c = ad.add(tape, ad.col_scale(tape, c_new, keep), ad.col_scale(tape, c, drop))
    return h
