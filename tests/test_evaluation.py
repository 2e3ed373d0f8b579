import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    max_degree,
    oracle_metrics,
    oracle_rank,
    oracle_threshold,
    oracle_threshold_table,
    random_bundles,
)
from lankgc import autodiff as ad
from lankgc.context import BundleContext
from lankgc.encoder import AGGREGATOR_KINDS, AggregatorConfig, constant_leaves, encode_batch, stack_samples
from lankgc.evaluation import (
    EvalError,
    KnownTriplets,
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


def test_rank_query_rejects_a_filter_that_is_not_an_index():
    bundle = hand_bundle()
    ctx = BundleContext(bundle)
    acfg = AggregatorConfig(kind="mean", neighbor_budget=8)
    store = init_params(ctx.vocab.n_entities, ctx.train_graph.n_relations, 6, seed=1)
    trip = tuple(ctx.to_ids(bundle.test)[0])
    tuples = {tuple(int(x) for x in row) for row in ctx.to_ids(bundle.train)}
    with pytest.raises(EvalError, match="KnownTriplets"):
        rank_query(ctx, store, acfg, "transe", None, trip, "object", tuples, seed=0)
    raw = [rank_query(ctx, store, acfg, "transe", None, trip, "object", f, seed=0)
           for f in (None, set())]
    assert raw == [3, 3]


def test_known_triplets_match_brute_force_on_random_bundles():
    bundles = random_bundles(3, start_seed=40, strategy="subject")
    bundles += random_bundles(3, start_seed=80, strategy="object")
    for bundle in bundles:
        ctx = BundleContext(bundle)
        known = ctx.known_triplets()
        assert ctx.known_triplets() is known
        facts = {tuple(int(x) for x in row)
                 for part in (bundle.train, bundle.aux, bundle.valid, bundle.test)
                 for row in ctx.to_ids(part)}
        n, r = ctx.vocab.n_entities, ctx.train_graph.n_relations
        for e in range(n):
            for q in range(r):
                objs = known.answers(e, q, "object")
                subs = known.answers(e, q, "subject")
                assert objs.tolist() == sorted(o for s, qq, o in facts if (s, qq) == (e, q))
                assert subs.tolist() == sorted(s for s, qq, o in facts if (qq, o) == (q, e))
        rng = np.random.default_rng(0)
        probes = list(facts) + [tuple(int(x) for x in t) for t in rng.integers(-1, n + 1, size=(200, 3))]
        for t in probes:
            assert (t in known) == (t in facts)


def test_known_triplets_refuse_overflowing_keys_and_bad_queries():
    with pytest.raises(EvalError, match="overflow"):
        KnownTriplets(np.zeros((1, 3), dtype=np.int64), 3_100_000_000, 1)
    known = KnownTriplets(np.array([[0, 1, 2]]), 3, 2)
    assert known.answers(0, 1, "object").tolist() == [2]
    assert known.answers(2, 1, "subject").tolist() == [0]
    assert (0, 1, 2) in known and (0, 0, 2) not in known and (0, 2, 2) not in known
    with pytest.raises(EvalError, match="outside"):
        known.answers(0, 2, "object")
    with pytest.raises(EvalError, match="outside"):
        known.answers(3, 0, "subject")


@pytest.mark.parametrize("kind", [k for k in AGGREGATOR_KINDS if k != "lstm"])
def test_grouped_encode_entities_matches_one_padded_batch(kind):
    ctx, acfg, table, store = bundle_fixture(seed=5)
    dense = table.dense()
    degrees = [ctx.neighborhood(int(e)).shape[0] for e in ctx.seen_ids]
    budget = int(np.median(degrees))  # truncates the larger half
    acfg = AggregatorConfig(kind=kind, neighbor_budget=budget)
    q = 1
    got = encode_entities(ctx, store, acfg, dense, ctx.seen_ids, q, np.random.default_rng([2, q]))
    rng = np.random.default_rng([2, q])
    rels, ents, mask = stack_samples(ctx.neighborhood, ctx.seen_ids, budget, rng)
    assert mask.shape[1] == budget and len(set(mask.sum(axis=1))) > 2
    tape = ad.Tape()
    want = encode_batch(tape, constant_leaves(tape, store), rels, ents, mask,
                        np.full(len(ctx.seen_ids), q), acfg, dense_table=dense, rng=rng).data
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


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


@settings(max_examples=40)
@given(st.integers(1, 2000), st.integers(1, 30), st.integers(0, 2**32 - 1))
@example(2000, 2, 0)
@example(2000, 30, 1)
def test_best_threshold_matches_oracle_with_heavy_ties(n, distinct, seed):
    rng = np.random.default_rng(seed)
    levels = np.round(rng.normal(size=distinct), 1)
    scores = rng.choice(levels, size=n)
    labels = (rng.random(n) < rng.random()).astype(np.int64)
    assert _best_threshold(scores, labels) == oracle_threshold(scores, labels)


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
