"""Link prediction and triplet classification over a trained model.

Link prediction ranks every entity seen in training as a replacement
for the seen-side endpoint of each test triplet; the unseen endpoint is
encoded from its auxiliary neighborhood.  Ranking is filtered: other
known true triplets (train, aux, valid, test) are removed from the
candidate list, except the ground truth itself.  Tied scores resolve to
the middle of the tie block, ``1 + #better + ceil(#ties / 2)``.

Ranking is numpy throughout.  Candidates are encoded once per query
relation, one :func:`~lankgc.encoder.encode_batch` per group of equal
sampled degree, so no slot is padding.  Each query scores all
candidates with :func:`~lankgc.decoder.score_candidates`, without a
tape, and filters through :class:`KnownTriplets`, sorted int64 fact
keys that yield a query's known answers by binary search.

Triplet classification tunes one score threshold per relation on
labeled validation triplets (midpoints between consecutive sorted
scores, ties broken toward the smallest threshold, with a global
fallback for unseen-at-tuning relations) and reports test accuracy.
The tuner sorts once and counts labels cumulatively per relation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .decoder import check_scorer, score_batch, score_candidates
from .encoder import constant_leaves, encode_batch, encode_from_sample, stack_samples
from .kg import sample_neighbors


class EvalError(ValueError):
    """Evaluation requested something the model or bundle cannot answer."""


class KnownTriplets:
    """Every known (s, q, o) fact as sorted int64 keys, for filtered ranking.

    Two key arrays index the facts from either end: ``(s*R + q)*N + o``
    answers "which objects does (s, q) have" and ``(o*R + q)*N + s``
    "which subjects does (q, o) have", each as one contiguous run found
    by :func:`numpy.searchsorted`.  ``N`` is the entity count and ``R``
    the relation id space.  ``(s, q, o) in known`` tests membership.
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
            "object": np.unique((s * r + q) * n + o),
            "subject": np.unique((o * r + q) * n + s),
        }

    def _in_range(self, e, q):
        return 0 <= e < self.n_entities and 0 <= q < self.n_relations

    def __contains__(self, triplet):
        s, q, o = (int(x) for x in triplet)
        if not (self._in_range(s, q) and 0 <= o < self.n_entities):
            return False
        keys = self._keys["object"]
        key = (s * self.n_relations + q) * self.n_entities + o
        i = np.searchsorted(keys, key)
        return bool(i < keys.size and keys[i] == key)

    def answers(self, fixed, q, rank_side):
        """Sorted ids of the known entities in the ``rank_side`` slot of (fixed, q)."""
        fixed, q = int(fixed), int(q)
        if not self._in_range(fixed, q):
            raise EvalError(f"entity {fixed} or relation {q} is outside the fact index")
        keys = self._keys[rank_side]
        lo = (fixed * self.n_relations + q) * self.n_entities
        a, b = np.searchsorted(keys, [lo, lo + self.n_entities])
        return keys[a:b] - lo


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


def encode_entities(ctx, store, acfg, dense, ent_ids, query_rel, rng):
    """Forward-encode a batch of entities under one query relation -> (B, d).

    Rows are grouped by sampled degree, and each group runs one
    :func:`encode_batch` at exactly its width on its own tape, so no
    slot is padding and the tape holds one group at a time.  Identical
    neighborhoods share a degree, so they share a matmul and tie exactly.
    """
    rels, ents, mask = stack_samples(ctx.neighborhood, ent_ids, acfg.neighbor_budget, rng)
    degree = mask.sum(axis=1)
    out = np.empty((degree.size, store["entity_emb"].shape[1]))
    for k in np.unique(degree):
        rows = np.flatnonzero(degree == k)
        width = max(int(k), 1)
        tape = ad.Tape()
        enc = encode_batch(
            tape, constant_leaves(tape, store), rels[rows, :width], ents[rows, :width],
            mask[rows, :width], np.full(rows.size, query_rel, dtype=np.int64), acfg,
            dense_table=dense, rng=rng,
        )
        out[rows] = enc.data
    return out


def rank_query(ctx, store, acfg, scorer, dense, triplet, rank_side, filter_set, seed, cand_cache=None):
    """Filtered rank of the true entity in one slot of ``triplet``.

    ``triplet`` is an (s, q, o) id tuple; ``rank_side`` names the slot
    to rank over the seen-entity candidates.  ``filter_set`` is the
    :class:`KnownTriplets` of the bundle; ``None`` or an empty set ranks
    raw.  The per-query neighbor sampling rng is keyed on (seed, s, q,
    o), so results do not depend on query order.
    """
    s, q, o = (int(x) for x in triplet)
    if rank_side not in ("subject", "object"):
        raise EvalError(f"rank_side must be subject or object, got {rank_side!r}")
    truth = s if rank_side == "subject" else o
    fixed = o if rank_side == "subject" else s
    candidates = ctx.seen_ids
    truth_pos = np.searchsorted(candidates, truth)
    if truth_pos >= candidates.size or candidates[truth_pos] != truth:
        raise EvalError(f"ground-truth entity {truth} is not in the candidate set")

    if cand_cache is not None and q in cand_cache:
        cand_embs = cand_cache[q]
    else:
        cand_embs = encode_entities(
            ctx, store, acfg, dense, candidates, q, np.random.default_rng([seed, q])
        )
        if cand_cache is not None:
            cand_cache[q] = cand_embs

    rng = np.random.default_rng([seed, s, q, o])
    sample = sample_neighbors(ctx.neighborhood(fixed), acfg.neighbor_budget, rng)
    fixed_emb = encode_from_sample(store, dense, acfg, q, sample, rng).embedding

    scores = score_candidates(cand_embs, store["relation_emb"][q], fixed_emb, scorer, rank_side)

    keep = np.ones(candidates.size, dtype=bool)
    if isinstance(filter_set, KnownTriplets):
        answers = filter_set.answers(fixed, q, rank_side)
        answers = answers[answers != truth]
        pos = np.minimum(np.searchsorted(candidates, answers), candidates.size - 1)
        keep[pos[candidates[pos] == answers]] = False
    elif filter_set:
        raise EvalError(
            f"filter_set must be a KnownTriplets index, got {type(filter_set).__name__}"
        )
    truth_score = scores[truth_pos]
    others = scores[keep]
    better = int((others > truth_score).sum())
    ties = int((others == truth_score).sum()) - 1  # the truth ties itself
    return 1 + better + math.ceil(ties / 2)


@dataclass
class LinkPredictionResult:
    metrics: MetricsSummary
    ranks: list = field(default_factory=list)


def link_prediction(ctx, store, acfg, scorer, dense, seed=0, triplets=None, rank_side=None):
    """Filtered ranking metrics over the bundle's test triplets.

    The ranked slot defaults to the seen side of the bundle strategy:
    subject-strategy bundles rank objects, object-strategy bundles rank
    subjects.  Queries are ranked one relation at a time: the candidate
    encodings of a relation are computed once and dropped before the
    next, so at most one (N, d) block is held.  Each query has its own
    keyed rng, so the ranks do not depend on query order.
    """
    check_scorer(scorer, store["entity_emb"].shape[1])
    if triplets is None:
        triplets = ctx.to_ids(ctx.bundle.test)
    triplets = np.asarray(triplets, dtype=np.int64).reshape(-1, 3)
    if triplets.shape[0] == 0:
        raise EvalError("no test triplets to rank")
    if rank_side is None:
        rank_side = "object" if ctx.bundle.spec.strategy == "subject" else "subject"
    filter_set = ctx.known_triplets()

    ranks = [0] * triplets.shape[0]
    for q in np.unique(triplets[:, 1]).tolist():
        cand_cache = {q: encode_entities(
            ctx, store, acfg, dense, ctx.seen_ids, q, np.random.default_rng([seed, q])
        )}
        for i in np.flatnonzero(triplets[:, 1] == q).tolist():
            ranks[i] = rank_query(
                ctx, store, acfg, scorer, dense, tuple(triplets[i]), rank_side, filter_set, seed, cand_cache
            )
    return LinkPredictionResult(metrics=metrics_from_ranks(ranks), ranks=ranks)


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


def score_labeled(ctx, store, acfg, scorer, dense, labeled_ids, seed=0, batch_size=512):
    """Output-embedding scores for (s, q, o) id rows, batched."""
    labeled_ids = np.asarray(labeled_ids, dtype=np.int64).reshape(-1, 3)
    out = np.empty(labeled_ids.shape[0], dtype=np.float64)
    rng = np.random.default_rng([seed, labeled_ids.shape[0]])
    for lo in range(0, labeled_ids.shape[0], batch_size):
        rows = labeled_ids[lo:lo + batch_size]
        b = rows.shape[0]
        tape = ad.Tape()
        leaves = constant_leaves(tape, store)
        ent_ids = np.concatenate([rows[:, 0], rows[:, 2]])
        q2 = np.tile(rows[:, 1], 2)
        rels, ents, mask = stack_samples(ctx.neighborhood, ent_ids, acfg.neighbor_budget, rng)
        enc = encode_batch(tape, leaves, rels, ents, mask, q2, acfg, dense_table=dense, rng=rng)
        subj = ad.take_rows(tape, enc, np.arange(b))
        obj = ad.take_rows(tape, enc, np.arange(b) + b)
        q_emb = ad.take_rows(tape, leaves["relation_emb"], rows[:, 1])
        out[lo:lo + b] = score_batch(tape, subj, q_emb, obj, scorer).data
    return out


def classify(test_scores, table):
    """Accuracy of thresholded classification on (relation, score, label) rows."""
    if not test_scores:
        raise EvalError("no test scores to classify")
    hits = 0
    for rel, sc, lab in test_scores:
        pred = 1 if sc >= table.threshold(int(rel)) else 0
        hits += int(pred == int(lab))
    return hits / len(test_scores)
