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
candidate encoding and scoring alike; :func:`encode_from_sample` is its
B=1 form, which also reports the per-slot attention.  The numpy oracles
in the test suite pin it to the formulas above.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .kg import sample_neighbors
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


def stack_samples(neighborhood_fn, ent_ids, budget, rng):
    """Sample neighborhoods for a batch of entities into (B, K) arrays.

    ``neighborhood_fn(e)`` returns the (k, 2) adjacency rows of ``e``.
    Only neighborhoods over the budget go through :func:`sample_neighbors`,
    in row order, so the rng draws are those of sampling every row.
    K is at most the budget but no larger than the widest sampled
    neighborhood (and at least 1).
    """
    if budget < 1:
        raise ValueError(f"neighbor budget must be >= 1, got {budget}")
    hoods = [neighborhood_fn(int(e)) for e in ent_ids]
    sizes = np.array([h.shape[0] for h in hoods], dtype=np.int64)
    for i in np.flatnonzero(sizes > budget):
        sample = sample_neighbors(hoods[i], budget, rng)
        hoods[i] = np.stack([sample.relations, sample.entities], axis=1)
        sizes[i] = budget
    width = max(1, int(sizes.max(initial=0)))
    mask = np.arange(width) < sizes[:, None]
    flat = np.concatenate(hoods).reshape(-1, 2)
    relations = np.zeros(mask.shape, dtype=np.int64)
    entities = np.zeros(mask.shape, dtype=np.int64)
    relations[mask] = flat[:, 0]
    entities[mask] = flat[:, 1]
    return relations, entities, mask


def encode_batch(tape, leaves, relations, entities, mask, queries, cfg, dense_table=None, rng=None,
                 trace=False):
    """Encode a batch of entities; returns a ``(B, d)`` Value.

    ``relations``/``entities``/``mask`` are (B, K) sampled neighborhoods
    with real entries first (as produced by :func:`stack_samples`), and
    ``queries`` is the (B,) query relation per row.  Rows without any
    real neighbor come out as zero vectors.  With ``trace`` set the
    result is ``(Value, alpha_logic, alpha_nn)``: the (B, K) logic and
    neural attention weights, zero where the kind has no such part.
    """
    relations = np.asarray(relations, dtype=np.int64)
    entities = np.asarray(entities, dtype=np.int64)
    mask = np.asarray(mask, dtype=bool)
    queries = np.asarray(queries, dtype=np.int64)
    bsz, k = relations.shape
    dim = leaves["entity_emb"].data.shape[1]

    entries = ad.take_rows(tape, leaves["entity_emb"], entities.reshape(-1))
    transforms = ad.take_rows(tape, leaves["transform_vec"], relations.reshape(-1))
    transformed = transform_batch(tape, entries, transforms)

    valid_row = mask.any(axis=1)

    if cfg.kind == "lstm":
        out = _encode_batch_lstm(tape, leaves, transformed, mask, rng, bsz, k, dim)
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
        if cfg.kind == "global-attn":
            q_rows = tape.constant(np.zeros((bsz, dim)))
        else:
            q_rows = ad.take_rows(tape, leaves["query_vec"], queries)
        q_rep = ad.repeat_rows(tape, q_rows, k)
        hidden = ad.tanh(
            tape, ad.matmul(tape, ad.concat(tape, q_rep, transformed), ad.transpose(tape, leaves["attn_proj"]))
        )
        scores = ad.reshape(tape, ad.matvec(tape, hidden, leaves["attn_score_vec"]), (bsz, k))
        soft_mask = mask.copy()
        soft_mask[~valid_row, 0] = True
        alpha_nn = ad.softmax_masked(tape, scores, soft_mask)
        if not valid_row.all():
            alpha_nn = ad.mul(tape, alpha_nn, tape.constant(np.broadcast_to(valid_row[:, None], mask.shape).astype(np.float64).copy()))
        if cfg.kind == "lan":
            weights = ad.add(tape, alpha_nn, tape.constant(logic_w))
        else:
            weights = alpha_nn
    out = ad.weighted_block_sum(tape, transformed, weights)
    if not trace:
        return out
    zeros = np.zeros((bsz, k))
    return out, (zeros if logic_w is None else logic_w), (zeros if alpha_nn is None else alpha_nn.data)


def _encode_batch_lstm(tape, leaves, transformed, mask, rng, bsz, k, dim):
    """Batched LSTM aggregation with per-row freezing after the last real slot.

    Each row consumes its real slots in a freshly permuted order; rows
    that have run out keep their hidden state unchanged, so the final
    state equals the single-entity LSTM over the same sequence.
    """
    if rng is None:
        raise ValueError("lstm aggregation needs an rng for the neighbor permutation")
    counts = mask.sum(axis=1)
    order = np.zeros((bsz, k), dtype=np.int64)
    for b in range(bsz):
        v = int(counts[b])
        if v:
            order[b, :v] = rng.permutation(v)
    h = tape.constant(np.zeros((bsz, dim)))
    c = tape.constant(np.zeros((bsz, dim)))
    t_max = int(counts.max()) if bsz else 0
    for t in range(t_max):
        idx = np.arange(bsz) * k + order[:, t]
        x = ad.take_rows(tape, transformed, idx)
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
