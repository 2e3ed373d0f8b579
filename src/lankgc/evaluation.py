"""Link prediction and triplet classification over a trained model.

Link prediction ranks every entity seen in training as a replacement
for the seen-side endpoint of each test triplet; the unseen endpoint is
encoded from its auxiliary neighborhood.  Ranking is filtered: other
known true triplets (train, aux, valid, test) are removed from the
candidate list, except the ground truth itself.  Tied scores resolve to
the middle of the tie block, ``1 + #better + ceil(#ties / 2)``.

Triplet classification tunes one score threshold per relation on
labeled validation triplets (midpoints between consecutive sorted
scores, ties broken toward the smallest threshold, with a global
fallback for unseen-at-tuning relations) and reports test accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .decoder import check_scorer, score_batch
from .encoder import constant_leaves, encode_batch, encode_from_sample, stack_samples
from .kg import sample_neighbors


class EvalError(ValueError):
    """Evaluation requested something the model or bundle cannot answer."""


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
    """Forward-encode a batch of entities under one query relation -> (B, d)."""
    tape = ad.Tape()
    leaves = constant_leaves(tape, store)
    rels, ents, mask = stack_samples(ctx.neighborhood, ent_ids, acfg.neighbor_budget, rng)
    queries = np.full(len(ent_ids), query_rel, dtype=np.int64)
    enc = encode_batch(tape, leaves, rels, ents, mask, queries, acfg, dense_table=dense, rng=rng)
    return enc.data.copy()


def _scores_against_candidates(cands, q_vec, fixed, scorer, rank_side):
    """Score candidates in the ranked slot against the fixed endpoint."""
    tape = ad.Tape()
    n = cands.shape[0]
    c_val = tape.constant(cands)
    q_val = tape.constant(np.tile(q_vec, (n, 1)))
    f_val = tape.constant(np.tile(fixed, (n, 1)))
    if rank_side == "subject":
        out = score_batch(tape, c_val, q_val, f_val, scorer)
    else:
        out = score_batch(tape, f_val, q_val, c_val, scorer)
    return out.data.copy()


def rank_query(ctx, store, acfg, scorer, dense, triplet, rank_side, filter_set, seed, cand_cache=None):
    """Filtered rank of the true entity in one slot of ``triplet``.

    ``triplet`` is an (s, q, o) id tuple; ``rank_side`` names the slot
    to rank over the seen-entity candidates.  The per-query neighbor
    sampling rng is keyed on (seed, s, q, o), so results do not depend
    on query order.
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

    q_vec = store["relation_emb"][q]
    scores = _scores_against_candidates(cand_embs, q_vec, fixed_emb, scorer, rank_side)

    keep = np.ones(candidates.size, dtype=bool)
    if filter_set:
        for i, c in enumerate(candidates):
            c = int(c)
            if c == truth:
                continue
            known = (c, q, o) if rank_side == "subject" else (s, q, c)
            if known in filter_set:
                keep[i] = False
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
    subjects.  Candidate encodings are computed once per distinct query
    relation; queries are then ranked one after another, each with its
    own keyed rng, so the ranks do not depend on query order.
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

    cand_cache = {}
    for q in sorted({int(q) for q in triplets[:, 1]}):
        cand_cache[q] = encode_entities(
            ctx, store, acfg, dense, ctx.seen_ids, q, np.random.default_rng([seed, q])
        )

    ranks = [
        rank_query(ctx, store, acfg, scorer, dense, tuple(row), rank_side, filter_set, seed, cand_cache)
        for row in triplets
    ]
    return LinkPredictionResult(metrics=metrics_from_ranks(ranks), ranks=ranks)


@dataclass
class ThresholdTable:
    """Per-relation decision thresholds plus a global fallback."""

    per_relation: dict
    default: float

    def threshold(self, relation):
        return self.per_relation.get(relation, self.default)


def _best_threshold(scores, labels):
    """Exhaustive-over-midpoints threshold maximizing accuracy, smallest wins ties."""
    order = np.argsort(scores, kind="stable")
    xs = np.asarray(scores, dtype=np.float64)[order]
    ys = np.asarray(labels, dtype=np.int64)[order]
    cands = [xs[0] - 1.0]
    for a, b in zip(xs[:-1], xs[1:]):
        if a < b:
            cands.append((a + b) / 2.0)
    cands.append(xs[-1] + 1.0)
    best_acc, best_delta = -1, None
    for delta in sorted(cands):
        acc = int(((xs >= delta) == (ys == 1)).sum())
        if acc > best_acc:
            best_acc, best_delta = acc, delta
    return float(best_delta)


def tune_thresholds(valid_scores):
    """Fit thresholds from (relation, score, label) validation rows.

    A triplet classifies positive when its score is >= the threshold of
    its relation.  Relations absent from the validation data fall back
    to a single threshold fitted on all rows pooled.
    """
    if not valid_scores:
        raise EvalError("no validation scores to tune on")
    by_rel = {}
    for rel, sc, lab in valid_scores:
        if lab not in (0, 1):
            raise EvalError(f"labels must be 0 or 1, got {lab!r}")
        by_rel.setdefault(int(rel), []).append((float(sc), int(lab)))
    per_relation = {}
    for rel in sorted(by_rel):
        xs, ys = zip(*by_rel[rel])
        per_relation[rel] = _best_threshold(np.array(xs), np.array(ys))
    all_x = np.array([sc for _, sc, _ in valid_scores], dtype=np.float64)
    all_y = np.array([lab for _, _, lab in valid_scores], dtype=np.int64)
    return ThresholdTable(per_relation=per_relation, default=_best_threshold(all_x, all_y))


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
