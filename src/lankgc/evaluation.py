"""Link prediction and triplet classification over a trained model.

Link prediction ranks every entity seen in training as a replacement
for the seen-side endpoint of each test triplet; the unseen endpoint is
encoded from its auxiliary neighborhood.  Ranking is filtered: other
known true triplets (train, aux, valid, test) are removed from the
candidate list, except the ground truth itself.  Tied scores resolve to
the middle of the tie block, ``1 + #better + ceil(#ties / 2)``.

Ranking is numpy throughout and runs one query relation at a time.
The candidates are encoded once per relation, and the fixed-side
entities of all the relation's queries in one more pass; each pass runs
:func:`~lankgc.encoder.encode_batch` on consecutive row blocks of at
most 2^12 real slots, or one wider row.  A block's per-slot arrays are
its transient memory, and a freed block leaves its high-water mark in
the heap that the allocator keeps, so the block size bounds the peak
resident memory of ranking.  Every draw is a hash of the key ``(seed,)``
and the entity (:func:`~lankgc.encoder.stack_samples`), so an entity has
one sample in ranking, triplet classification and ``inspect-weights``.
Scores come graph-free in bounded (queries, candidates) blocks from
:func:`~lankgc.decoder.score_columns`, the candidates laid out once: transe
through one ``cdist`` city-block call per block, distmult and complex through
a running-sum loop over (d, N) factors.  Every term is a running sum over
the features from 0.0, as in training and triplet classification, so a
ranked score equals :func:`~lankgc.decoder.score_batch`'s bit for bit.  One
binary search of :class:`KnownTriplets`, sorted int64 fact keys, finds
every query's known answers.  The truth and those answers then score NaN,
which neither beats nor ties, and row sums count the better and tied scores.

Triplet classification scores up to 2^11 labeled rows at a time with
:func:`score_triplets`, the one scorer over constant weights, which a
training step's first pass also calls: it encodes the rows' distinct
endpoints in the same 2^12-slot blocks, so one bound covers the
transient memory of all three.  It tunes one score threshold per
relation on labeled validation triplets (midpoints between consecutive
sorted scores, ties broken toward the smallest threshold, with a global
fallback for unseen-at-tuning relations) and reports test accuracy.  The
tuner sorts once and counts labels cumulatively per relation; the
classifier looks up each relation's threshold once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .decoder import candidate_columns, check_scorer, score_batch, score_columns
from .encoder import distinct_rows, encode_batch, stack_samples
from .params import check_shapes, param_shapes


class EvalError(ValueError):
    """Evaluation requested something the model or bundle cannot answer."""


def _find(sorted_values, values):
    """Insertion points of ``values`` in the sorted 1-D ``sorted_values``, and whether each value is there."""
    at = np.searchsorted(sorted_values, values)
    found = at < sorted_values.size
    found[found] = sorted_values[at[found]] == values[found]
    return at, found


def _sorted_distinct(keys):
    """``np.unique(keys)`` of a 1-D array, by one sort and a neighbour compare (far faster on numpy 2.x)."""
    keys = np.sort(keys)
    keep = np.ones(keys.size, dtype=bool)
    keep[1:] = keys[1:] != keys[:-1]
    return keys[keep]


class KnownTriplets:
    """Every known (s, q, o) fact as sorted int64 keys, for filtered ranking.

    Two key arrays index the facts from either end: ``(s*R + q)*N + o``
    answers "which objects does (s, q) have" and ``(o*R + q)*N + s``
    "which subjects does (q, o) have", each as one contiguous run found
    by :func:`numpy.searchsorted`.  ``N`` is the entity count and ``R``
    the relation id space.  :meth:`contains` tests many rows at once,
    and ``(s, q, o) in known`` is its one-row form; :meth:`answer_rows`
    finds the answers of many queries at once.
    """

    def __init__(self, triplets, n_entities, n_relations):
        n, r = int(n_entities), int(n_relations)
        if n * n * r > np.iinfo(np.int64).max:
            raise EvalError(f"fact keys overflow int64 for {n} entities and {r} relations")
        t = np.asarray(triplets, dtype=np.int64).reshape(-1, 3)
        s, q, o = t[:, 0], t[:, 1], t[:, 2]
        self.n_entities, self.n_relations = n, r
        # keyed by the side being ranked: ranking objects fixes the subject
        self._keys = {
            "object": _sorted_distinct((s * r + q) * n + o),
            "subject": _sorted_distinct((o * r + q) * n + s),
        }

    def contains(self, rows):
        """Boolean (n,) membership of (s, q, o) id rows; a row with an id outside the index is no fact."""
        t = np.asarray(rows, dtype=np.int64).reshape(-1, 3)
        s, q, o = t[:, 0], t[:, 1], t[:, 2]
        n, r = self.n_entities, self.n_relations
        ok = (s >= 0) & (s < n) & (q >= 0) & (q < r) & (o >= 0) & (o < n)
        return ok & _find(self._keys["object"], (s * r + q) * n + o)[1]

    def __contains__(self, triplet):
        return bool(self.contains([triplet])[0])

    def answer_rows(self, fixed, q, rank_side):
        """Known answers of many (fixed, q) queries -> (query index, entity id) arrays.

        The answers of query i are the entities at ``index == i``,
        sorted; one :func:`numpy.searchsorted` finds every query's run.
        ``q`` is one relation id or one per query.
        """
        fixed = np.asarray(fixed, dtype=np.int64).reshape(-1)
        q = np.broadcast_to(np.asarray(q, dtype=np.int64), fixed.shape)
        n, r = self.n_entities, self.n_relations
        outside = (fixed < 0) | (fixed >= n) | (q < 0) | (q >= r)
        if outside.any():
            i = int(np.argmax(outside))
            raise EvalError(f"entity {fixed[i]} or relation {q[i]} is outside the fact index")
        keys = self._keys[rank_side]
        lo = (fixed * r + q) * n
        first, stop = np.searchsorted(keys, np.stack([lo, lo + n]))
        counts = stop - first
        index = np.repeat(np.arange(fixed.size), counts)
        at = np.arange(index.size) - np.repeat(np.cumsum(counts) - counts - first, counts)
        return index, keys[at] - lo[index]


@dataclass
class MetricsSummary:
    mr: float
    mrr: float
    hits1: float
    hits3: float
    hits10: float
    n_queries: int

    def as_row(self):
        """Hits as percentages, ranks as-is (the usual reporting convention)."""
        return {
            "MR": self.mr,
            "MRR": self.mrr,
            "hits1": 100.0 * self.hits1,
            "hits3": 100.0 * self.hits3,
            "hits10": 100.0 * self.hits10,
        }


def metrics_from_ranks(ranks):
    ranks = np.asarray(ranks, dtype=np.float64)
    if ranks.size == 0:
        raise EvalError("no ranks to summarize")
    return MetricsSummary(
        mr=float(ranks.mean()),
        mrr=float((1.0 / ranks).mean()),
        hits1=float((ranks <= 1).mean()),
        hits3=float((ranks <= 3).mean()),
        hits10=float((ranks <= 10).mean()),
        n_queries=int(ranks.size),
    )


_BLOCK_SLOTS = 1 << 12  # real neighbor slots per encode pass, which bound its per-slot arrays


def encode_entities(graph, leaves, acfg, dense, ent_ids, queries, key):
    """Forward-encode a batch of entities, each under its query relation -> (B, d).

    ``queries`` holds one query relation per entity, or one for all of
    them.  Neighborhoods come from one :func:`stack_samples` call over
    ``graph``, which makes every draw from ``key``; the blocks draw
    nothing.  Consecutive rows are encoded in blocks of at most
    ``_BLOCK_SLOTS`` real slots (a wider row is a block of its own), each
    one :func:`encode_batch` over the constant weights ``leaves``
    (``store.leaves(False)``), so only one block's arrays are alive at a
    time: this one bound covers ranking, triplet classification and
    training's constant pass alike.  Nothing is padded: a block is a run
    of the CSR slots.  Rows without neighbors are zero vectors.
    """
    offsets, rels, ents = stack_samples(graph, ent_ids, acfg, key)
    queries = np.broadcast_to(np.asarray(queries, dtype=np.int64), offsets.size - 1)
    out = np.empty((offsets.size - 1, leaves["entity_emb"].data.shape[1]))
    lo = 0
    while lo < out.shape[0]:
        # rows lo..hi-1 hold at most _BLOCK_SLOTS slots, or are a single row
        hi = max(lo + 1, int(np.searchsorted(offsets[1:], offsets[lo] + _BLOCK_SLOTS, side="right")))
        a, z = offsets[lo], offsets[hi]
        out[lo:hi] = encode_batch(
            leaves, offsets[lo:hi + 1] - a, rels[a:z], ents[a:z], queries[lo:hi], acfg, dense_table=dense,
        ).data
        lo = hi
    return out


def endpoint_rows(triplets):
    """The distinct (entity, relation) endpoints of (n, 3) ``triplets``, subjects first -> ``(ent_ids, queries, where)``.

    Endpoint ``i`` of the (2n,) endpoints is row ``where[i]``, entity
    ``ent_ids[where[i]]`` under ``queries[where[i]]``, in order of first
    appearance (:func:`~lankgc.encoder.distinct_rows`).
    """
    ent_ids = np.concatenate([triplets[:, 0], triplets[:, 2]])
    queries = np.tile(triplets[:, 1], 2)
    keep, where = distinct_rows(ent_ids, queries)
    return ent_ids[keep], queries[keep], where


def score_triplets(graph, leaves, acfg, scorer, dense, triplets, key):
    """Scores of (n, 3) id ``triplets`` over constant ``leaves`` -> ``((n,) scores, endpoint_rows(triplets))``.

    The distinct endpoints are encoded in one :func:`encode_entities`
    pass under ``key``, and :func:`score_batch` scores the rows.
    """
    n = triplets.shape[0]
    rows = ent_ids, queries, where = endpoint_rows(triplets)
    enc = encode_entities(graph, leaves, acfg, dense, ent_ids, queries, key)
    subj, obj = ad.Value(enc[where[:n]]), ad.Value(enc[where[n:]])
    q_emb = ad.Value(leaves["relation_emb"].data[triplets[:, 1]])
    return score_batch(subj, q_emb, obj, scorer).data, rows


_SCORE_CELLS = 1 << 18  # (query, candidate) scores held at once: 2 MB of float64


def rank_relation(ctx, store, acfg, scorer, dense, triplets, rank_side, filter_set, seed):
    """Filtered ranks of (Q, 3) id queries that share one relation, and the empty fixed sides.

    ``triplets`` holds (s, q, o) id rows; ``rank_side`` names the slot to
    rank over the seen-entity candidates.  ``filter_set`` is the
    :class:`KnownTriplets` of the bundle; ``None`` or an empty set ranks
    raw.  :func:`~lankgc.encoder.stack_samples` makes every draw, of the
    candidates and the fixed sides alike, from the key ``(seed,)``, so
    results do not depend on query order.  Returns the (Q,) int64 ranks and the
    number of queries whose fixed entity has no neighbors, so that it is
    scored from a zero vector.  The candidates are encoded
    and laid out once per call.  Each score is a running sum over the
    features, equal to :func:`~lankgc.decoder.score_batch`'s bit for bit;
    transe scores a block of queries with one ``cdist`` call.
    :func:`link_prediction` calls this once per query relation; no
    queries, queries of more than one relation, or an id outside the
    model raise :class:`EvalError`.
    """
    if rank_side not in ("subject", "object"):
        raise EvalError(f"rank_side must be subject or object, got {rank_side!r}")
    if filter_set and not isinstance(filter_set, KnownTriplets):
        raise EvalError(
            f"filter_set must be a KnownTriplets index, got {type(filter_set).__name__}"
        )
    triplets = _checked_ids(ctx, store, acfg, triplets, "query")
    if triplets.shape[0] == 0:
        raise EvalError("no queries to rank")
    q = int(triplets[0, 1])
    mixed = triplets[triplets[:, 1] != q, 1]
    if mixed.size:
        raise EvalError(f"queries mix relations {q} and {int(mixed[0])}; rank_relation ranks one relation")
    s, o = triplets[:, 0], triplets[:, 2]
    truth, fixed = (s, o) if rank_side == "subject" else (o, s)
    candidates = ctx.seen_ids
    truth_pos, found = _find(candidates, truth)
    if not found.all():
        raise EvalError(f"ground-truth entity {truth[np.argmin(found)]} is not in the candidate set")

    q_vec, leaves = store["relation_emb"][q], store.leaves(False)
    cand_embs = encode_entities(ctx.neighbor_graph, leaves, acfg, dense, candidates, q, (seed,))
    columns = candidate_columns(cand_embs, q_vec, scorer, rank_side)
    del cand_embs  # only the layout is read from here

    fixed_embs = encode_entities(ctx.neighbor_graph, leaves, acfg, dense, fixed, q, (seed,))

    drop_query = drop_cand = np.zeros(0, dtype=np.int64)
    if filter_set:
        drop_query, known = filter_set.answer_rows(fixed, q, rank_side)
        drop_cand, found = _find(candidates, known)
        drop_query, drop_cand = drop_query[found], drop_cand[found]

    ranks = np.empty(triplets.shape[0], dtype=np.int64)
    step = max(1, _SCORE_CELLS // max(candidates.size, 1))
    for top in range(0, ranks.size, step):
        scores = score_columns(columns, q_vec, fixed_embs[top:top + step], scorer, rank_side)
        nb = scores.shape[0]
        at = (np.arange(nb), truth_pos[top:top + nb])
        truth_score = scores[at][:, None]
        # the truth and the known answers leave the block: NaN neither beats nor ties a score
        scores[at] = np.nan
        a, b = np.searchsorted(drop_query, [top, top + nb])
        scores[drop_query[a:b] - top, drop_cand[a:b]] = np.nan
        better = (scores > truth_score).sum(axis=1)
        ties = (scores == truth_score).sum(axis=1)
        ranks[top:top + nb] = 1 + better + (ties + 1) // 2  # (ties + 1) // 2 == ceil(ties / 2)
    return ranks, int((np.diff(ctx.neighbor_graph.offsets)[fixed] == 0).sum())


@dataclass
class LinkPredictionResult:
    """Ranks in query order and their summary.

    ``empty_fixed`` counts the queries whose fixed-side entity had no
    neighbors and was scored from a zero vector.
    """

    metrics: MetricsSummary
    ranks: list = field(default_factory=list)
    empty_fixed: int = 0


def _checked_ids(ctx, store, acfg, rows, what):
    """(s, q, o) id rows as (n, 3) int64; a store unfit for ``acfg``'s model, or an id outside it, is an EvalError."""
    rows = np.asarray(rows, dtype=np.int64).reshape(-1, 3)
    n, r = ctx.vocab.n_entities, ctx.train_graph.n_relations
    emb = store.arrays["entity_emb"].shape if "entity_emb" in store.arrays else ()
    if len(emb) == 2 and emb[0] != n:
        raise EvalError(f"the parameter store embeds {emb[0]} entities, but the bundle's vocabulary has {n}")
    try:
        check_shapes({name: "x".join(map(str, arr.shape)) for name, arr in store.arrays.items()},
                     param_shapes(n, r, emb[-1] if len(emb) == 2 else 0, acfg.uses_lstm), acfg.kind, "holds", True)
    except ValueError as exc:
        raise EvalError(f"the parameter store {exc}") from None
    outside = ((rows < 0) | (rows >= np.array([n, r, n]))).any(axis=1)
    if outside.any():
        i = int(np.argmax(outside))
        raise EvalError(f"{what} row {i} {tuple(rows[i].tolist())} has an id outside {n} entities and {r} relations")
    return rows


def link_prediction(ctx, store, acfg, scorer, dense, seed=0, triplets=None, rank_side=None):
    """Filtered ranking metrics over the bundle's test triplets.

    The ranked slot defaults to the seen side of the bundle strategy:
    subject-strategy bundles rank objects, object-strategy bundles rank
    subjects.  Queries are ranked one relation at a time, all of a
    relation's queries together: the candidate encodings of a relation
    are computed once and dropped before the next, so at most one
    (N, d) block is held.  Every draw is keyed on ``(seed,)`` and the
    entity, so the ranks do not depend on query order.  An id outside the model raises
    :class:`EvalError` before any encoding.
    """
    check_scorer(scorer, store["entity_emb"].shape[1])
    triplets = _checked_ids(ctx, store, acfg, ctx.to_ids(ctx.bundle.test) if triplets is None else triplets, "query")
    if triplets.shape[0] == 0:
        raise EvalError("no test triplets to rank")
    if rank_side is None:
        rank_side = "object" if ctx.bundle.spec.strategy == "subject" else "subject"
    filter_set = ctx.known_triplets()

    ranks = np.zeros(triplets.shape[0], dtype=np.int64)
    empty_fixed = 0
    for q in np.unique(triplets[:, 1]).tolist():
        idx = np.flatnonzero(triplets[:, 1] == q)
        ranks[idx], empty = rank_relation(
            ctx, store, acfg, scorer, dense, triplets[idx], rank_side, filter_set, seed
        )
        empty_fixed += empty
    ranks = ranks.tolist()
    return LinkPredictionResult(metrics=metrics_from_ranks(ranks), ranks=ranks, empty_fixed=empty_fixed)


@dataclass
class ThresholdTable:
    """Per-relation decision thresholds plus a global fallback."""

    per_relation: dict
    default: float

    def threshold(self, relation):
        return self.per_relation.get(relation, self.default)


def _best_threshold(scores, labels):
    """Accuracy-maximizing threshold over the midpoints, smallest wins ties.

    The candidates are the midpoints between consecutive distinct sorted
    scores plus one below and one above all of them.  A threshold
    ``delta`` classifies correctly the negatives below it and the
    positives at or above it; cumulative positive counts over the sorted
    scores give both for every candidate at once.
    """
    order = np.argsort(scores, kind="stable")
    xs = np.asarray(scores, dtype=np.float64)[order]
    ys = np.asarray(labels, dtype=np.int64)[order]
    starts = np.flatnonzero(xs[1:] > xs[:-1]) + 1  # first index of each new distinct score
    cands = np.concatenate([[xs[0] - 1.0], (xs[starts - 1] + xs[starts]) / 2.0, [xs[-1] + 1.0]])
    pos_before = np.concatenate([[0], np.cumsum(ys == 1)])
    below = np.searchsorted(xs, cands, side="left")
    acc = (below - pos_before[below]) + (pos_before[-1] - pos_before[below])
    return float(cands[np.argmax(acc)])


def tune_thresholds(valid_scores):
    """Fit thresholds from (relation, score, label) validation rows.

    A triplet classifies positive when its score is >= the threshold of
    its relation.  Relations absent from the validation data fall back
    to a single threshold fitted on all rows pooled.
    """
    if not valid_scores:
        raise EvalError("no validation scores to tune on")
    rels, scores, labels = (np.asarray(col) for col in zip(*valid_scores))
    bad = ~np.isin(labels, (0, 1))
    if bad.any():
        raise EvalError(f"labels must be 0 or 1, got {labels[np.argmax(bad)].item()!r}")
    rels = rels.astype(np.int64)
    scores = scores.astype(np.float64)
    labels = labels.astype(np.int64)
    order = np.argsort(rels, kind="stable")
    uniq, starts = np.unique(rels[order], return_index=True)
    per_relation = {
        int(rel): _best_threshold(xs, ys)
        for rel, xs, ys in zip(uniq, np.split(scores[order], starts[1:]), np.split(labels[order], starts[1:]))
    }
    return ThresholdTable(per_relation=per_relation, default=_best_threshold(scores, labels))


def score_labeled(ctx, store, acfg, scorer, dense, labeled_ids, seed=0):
    """Output-embedding scores of (s, q, o) id rows -> (n,) float64.

    Rows go in batches of ``_BLOCK_SLOTS // 2``, so a batch has at most as
    many endpoints as a block has slots, and :func:`score_triplets` scores
    each batch under the bound that also covers ranking.  Every draw is
    keyed on ``(seed,)`` and the entity, as in ranking, so a row's score
    does not depend on the other rows, their order or the batch size.  An
    id outside the model raises :class:`EvalError`.
    """
    labeled_ids = _checked_ids(ctx, store, acfg, labeled_ids, "labeled")
    out = np.empty(labeled_ids.shape[0], dtype=np.float64)
    leaves = store.leaves(False)
    step = max(1, _BLOCK_SLOTS // 2)
    for lo in range(0, out.size, step):
        batch = labeled_ids[lo:lo + step]
        out[lo:lo + step] = score_triplets(ctx.neighbor_graph, leaves, acfg, scorer, dense, batch, (seed,))[0]
    return out


def classify(test_scores, table):
    """Accuracy of thresholded classification on (relation, score, label) rows.

    A row is predicted positive when its score is >= its relation's
    threshold; each relation's threshold is looked up once.
    """
    if not test_scores:
        raise EvalError("no test scores to classify")
    rels, scores, labels = (np.asarray(col) for col in zip(*test_scores))
    uniq, inverse = np.unique(rels.astype(np.int64), return_inverse=True)
    thresholds = np.array([table.threshold(int(rel)) for rel in uniq], dtype=np.float64)
    pred = scores.astype(np.float64) >= thresholds[inverse]
    return int(np.count_nonzero(pred == labels.astype(np.int64))) / len(test_scores)
