import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    max_degree,
    oracle_metrics,
    oracle_rank,
    oracle_threshold,
    oracle_threshold_table,
    random_bundles,
)
from lankgc.context import BundleContext
from lankgc.encoder import AggregatorConfig
from lankgc.evaluation import (
    EvalError,
    ThresholdTable,
    _best_threshold,
    classify,
    encode_entities,
    link_prediction,
    metrics_from_ranks,
    rank_query,
    score_labeled,
    tune_thresholds,
)
from lankgc.params import init_params
from lankgc.rules import mine_confidence
from lankgc.splits import DatasetBundle, SplitSpec


def bundle_fixture(seed=0, **kw):
    [bundle] = random_bundles(1, start_seed=seed, **kw)
    ctx = BundleContext(bundle)
    acfg = AggregatorConfig(kind="lan", neighbor_budget=max(64, max_degree(ctx)))
    table = mine_confidence(ctx.train_graph)
    store = init_params(ctx.vocab.n_entities, ctx.train_graph.n_relations, 8, seed)
    return ctx, acfg, table, store


# --- rank summaries -------------------------------------------------------------

def test_metrics_frozen_values():
    m = metrics_from_ranks([1, 2, 4])
    assert m.mr == pytest.approx(7 / 3)
    assert m.mrr == pytest.approx(7 / 12)
    assert m.hits1 == pytest.approx(1 / 3)
    assert m.hits3 == pytest.approx(2 / 3)
    assert m.hits10 == 1.0
    assert m.n_queries == 3
    row = m.as_row()
    assert row["hits3"] == pytest.approx(100 * 2 / 3)


def test_metrics_empty_raises():
    with pytest.raises(EvalError, match="no ranks"):
        metrics_from_ranks([])


@given(st.lists(st.integers(min_value=1, max_value=500), min_size=1, max_size=40))
def test_metrics_consistency(ranks):
    m = metrics_from_ranks(ranks)
    assert m.mr >= 1.0
    assert 0.0 < m.mrr <= 1.0
    assert m.hits1 <= m.hits3 <= m.hits10
    assert m.mrr >= 1.0 / m.mr - 1e-12  # Jensen
    assert m.n_queries == len(ranks)


# --- single-query ranking --------------------------------------------------------

def hand_bundle():
    train = [("a", "r", "b"), ("a", "r", "c"), ("b", "r", "d"), ("d", "r", "a")]
    test = [("a", "r", "d")]
    return DatasetBundle(train=train, aux=[], valid=[], test=test,
                         unseen=[], spec=SplitSpec("subject", 1.0, 0))


def test_filtering_removes_known_competitors():
    bundle = hand_bundle()
    ctx = BundleContext(bundle)
    acfg = AggregatorConfig(kind="mean", neighbor_budget=8)
    store = init_params(ctx.vocab.n_entities, ctx.train_graph.n_relations, 6, seed=1)
    trip = tuple(ctx.to_ids(bundle.test)[0])
    filtered = rank_query(ctx, store, acfg, "transe", None, trip, "object",
                          ctx.known_triplets(), seed=0)
    raw = rank_query(ctx, store, acfg, "transe", None, trip, "object", set(), seed=0)
    assert (filtered, raw) == (2, 3)


def test_rank_side_validation():
    bundle = hand_bundle()
    ctx = BundleContext(bundle)
    acfg = AggregatorConfig(kind="mean", neighbor_budget=8)
    store = init_params(ctx.vocab.n_entities, ctx.train_graph.n_relations, 6, 0)
    trip = tuple(ctx.to_ids(bundle.test)[0])
    with pytest.raises(EvalError, match="rank_side"):
        rank_query(ctx, store, acfg, "transe", None, trip, "both", set(), 0)


def test_truth_outside_candidates_raises():
    ctx, acfg, table, store = bundle_fixture(seed=2)
    trip = tuple(ctx.to_ids(ctx.bundle.test)[0])
    assert trip[0] not in ctx.seen_ids  # subject strategy leaves subjects unseen
    with pytest.raises(EvalError, match="candidate set"):
        rank_query(ctx, store, acfg, "transe", table.dense(), trip, "subject",
                   ctx.known_triplets(), 0)


def test_structurally_tied_candidates_split_the_rank():
    # e2, e3, e4 have byte-identical neighborhoods, so their encodings and
    # scores tie exactly; the tie is split upward (ceil of half)
    train = [("e1", "r", "h"), ("e2", "r", "h"), ("e3", "r", "h"),
             ("e4", "r", "h"), ("x", "r2", "e1")]
    test = [("x", "r2", "e2")]
    bundle = DatasetBundle(train=train, aux=[], valid=[], test=test,
                           unseen=[], spec=SplitSpec("subject", 1.0, 0))
    ctx = BundleContext(bundle)
    acfg = AggregatorConfig(kind="mean", neighbor_budget=8)
    store = init_params(ctx.vocab.n_entities, ctx.train_graph.n_relations, 6, 3)
    q = ctx.vocab.relation_id("r2")
    embs = encode_entities(ctx, store, acfg, None, ctx.seen_ids, q,
                           np.random.default_rng([0, q]))
    rows = {name: embs[np.searchsorted(ctx.seen_ids, ctx.vocab.entity_id(name))]
            for name in ("e2", "e3", "e4")}
    np.testing.assert_array_equal(rows["e2"], rows["e3"])
    np.testing.assert_array_equal(rows["e2"], rows["e4"])

    trip = tuple(ctx.to_ids(bundle.test)[0])
    got = rank_query(ctx, store, acfg, "transe", None, trip, "object",
                     ctx.known_triplets(), seed=0)
    want = oracle_rank(ctx, store.arrays, None, "mean", "transe", trip,
                       "object", ctx.known_triplets())
    assert got == want


@pytest.mark.parametrize("kind,scorer", [
    ("mean", "transe"), ("lan", "distmult"), ("logic-only", "complex"),
    ("query-attn", "transe"), ("global-attn", "distmult"),
])
def test_rank_query_matches_oracle(kind, scorer):
    ctx, acfg, table, store = bundle_fixture(seed=5)
    acfg = AggregatorConfig(kind=kind, neighbor_budget=acfg.neighbor_budget)
    dense = table.dense() if acfg.needs_rules else None
    known = ctx.known_triplets()
    for row in ctx.to_ids(ctx.bundle.test)[:10]:
        trip = tuple(int(x) for x in row)
        got = rank_query(ctx, store, acfg, scorer, dense, trip, "object", known, seed=9)
        want = oracle_rank(ctx, store.arrays, dense, kind, scorer, trip,
                           "object", known)
        assert got == want


# --- whole-test-set ranking -------------------------------------------------------

def test_link_prediction_matches_oracle_metrics():
    ctx, acfg, table, store = bundle_fixture(seed=7)
    dense = table.dense()
    res = link_prediction(ctx, store, acfg, "transe", dense, seed=3)
    known = ctx.known_triplets()
    cache = {}
    want = [
        oracle_rank(ctx, store.arrays, dense, "lan", "transe",
                    tuple(int(x) for x in row), "object", known,
                    cand_cache=cache)
        for row in ctx.to_ids(ctx.bundle.test)
    ]
    assert res.ranks == want
    om = oracle_metrics(want)
    assert res.metrics.mr == om["mr"]
    assert res.metrics.mrr == om["mrr"]
    assert res.metrics.hits10 == om["hits10"]


def test_link_prediction_default_side_follows_strategy():
    ctx, acfg, table, store = bundle_fixture(seed=8)
    assert ctx.bundle.spec.strategy == "subject"
    dense = table.dense()
    auto = link_prediction(ctx, store, acfg, "transe", dense, seed=1)
    explicit = link_prediction(ctx, store, acfg, "transe", dense, seed=1,
                               rank_side="object")
    assert auto.ranks == explicit.ranks


def test_link_prediction_empty_test_raises():
    ctx, acfg, table, store = bundle_fixture(seed=10)
    with pytest.raises(EvalError, match="no test triplets"):
        link_prediction(ctx, store, acfg, "transe", table.dense(),
                        triplets=np.zeros((0, 3), dtype=np.int64))


# --- thresholded classification ----------------------------------------------------

def test_best_threshold_frozen():
    assert _best_threshold(np.array([5.0, 1.0]), np.array([1, 0])) == 3.0


def test_best_threshold_prefers_smallest_tie():
    # both candidate regions below 2 classify everything correctly
    scores = np.array([2.0, 4.0])
    labels = np.array([1, 1])
    assert _best_threshold(scores, labels) == 1.0


def test_best_threshold_matches_oracle_scan():
    rng = np.random.default_rng(0)
    for _ in range(30):
        n = int(rng.integers(1, 25))
        scores = np.round(rng.normal(size=n), 2)
        labels = rng.integers(0, 2, size=n)
        got = _best_threshold(scores, labels)
        assert got == oracle_threshold(scores, labels)


def test_tune_thresholds_matches_oracle_table():
    rng = np.random.default_rng(1)
    for _ in range(20):
        rows = [
            (int(rng.integers(0, 4)), float(np.round(rng.normal(), 2)), int(rng.integers(0, 2)))
            for _ in range(int(rng.integers(1, 40)))
        ]
        table = tune_thresholds(rows)
        per, default = oracle_threshold_table(rows)
        assert table.per_relation == per
        assert table.default == default


def test_tune_thresholds_fallback_and_validation():
    table = tune_thresholds([(0, 1.0, 1), (0, -1.0, 0)])
    assert table.threshold(0) == 0.0
    assert table.threshold(99) == table.default
    with pytest.raises(EvalError, match="labels"):
        tune_thresholds([(0, 1.0, 2)])
    with pytest.raises(EvalError, match="no validation"):
        tune_thresholds([])


def test_threshold_table_values_are_finite():
    table = tune_thresholds([(0, 3.0, 1), (1, -2.0, 0)])
    for v in list(table.per_relation.values()) + [table.default]:
        assert np.isfinite(v)


def test_classify_recount():
    table = ThresholdTable(per_relation={0: 0.0, 1: 5.0}, default=1.0)
    rows = [(0, 1.0, 1), (0, -1.0, 1), (1, 4.0, 0), (1, 6.0, 1), (7, 2.0, 1)]
    want = sum(
        int((1 if sc >= table.threshold(rel) else 0) == lab) for rel, sc, lab in rows
    ) / len(rows)
    assert classify(rows, table) == want
    with pytest.raises(EvalError, match="no test scores"):
        classify([], table)


# --- batched scoring ---------------------------------------------------------------

def test_score_labeled_shape_and_determinism():
    ctx, acfg, table, store = bundle_fixture(seed=12)
    rows = ctx.to_ids(ctx.bundle.valid)
    dense = table.dense()
    a = score_labeled(ctx, store, acfg, "distmult", dense, rows, seed=4)
    b = score_labeled(ctx, store, acfg, "distmult", dense, rows, seed=4)
    assert a.shape == (rows.shape[0],)
    np.testing.assert_array_equal(a, b)


def test_score_labeled_batch_size_is_immaterial_within_budget():
    ctx, acfg, table, store = bundle_fixture(seed=13)
    rows = ctx.to_ids(ctx.bundle.valid)
    dense = table.dense()
    whole = score_labeled(ctx, store, acfg, "transe", dense, rows, seed=0, batch_size=512)
    pieces = score_labeled(ctx, store, acfg, "transe", dense, rows, seed=0, batch_size=3)
    np.testing.assert_allclose(whole, pieces, rtol=1e-9, atol=1e-12)
