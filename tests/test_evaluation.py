import math
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
from helpers import (
    encode_one,
    max_degree,
    oracle_metrics,
    oracle_rank,
    oracle_threshold,
    oracle_threshold_table,
    output_scores,
    random_bundles,
    reference_sample,
)
from lankgc import autodiff as ad
from lankgc import evaluation
from lankgc.context import BundleContext
from lankgc.decoder import candidate_columns, score_columns
from lankgc.encoder import (
    AGGREGATOR_KINDS,
    AggregatorConfig,
    distinct_rows,
    encode_batch,
    stack_samples,
)
from lankgc.evaluation import (
    EvalError,
    KnownTriplets,
    ThresholdTable,
    _best_threshold,
    classify,
    encode_entities,
    link_prediction,
    metrics_from_ranks,
    rank_relation,
    score_labeled,
    tune_thresholds,
)
from lankgc.kg import GraphError
from lankgc.params import ParamStore, init_params
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
    trip = ctx.to_ids(bundle.test)[:1]
    [filtered], _ = rank_relation(ctx, store, acfg, "transe", None, trip, "object",
                                  ctx.known_triplets(), seed=0)
    [raw], _ = rank_relation(ctx, store, acfg, "transe", None, trip, "object", set(), seed=0)
    assert (filtered, raw) == (2, 3)


def test_rank_side_validation():
    bundle = hand_bundle()
    ctx = BundleContext(bundle)
    acfg = AggregatorConfig(kind="mean", neighbor_budget=8)
    store = init_params(ctx.vocab.n_entities, ctx.train_graph.n_relations, 6, 0)
    trip = ctx.to_ids(bundle.test)[:1]
    with pytest.raises(EvalError, match="rank_side"):
        rank_relation(ctx, store, acfg, "transe", None, trip, "both", set(), 0)


def test_truth_outside_candidates_raises():
    ctx, acfg, table, store = bundle_fixture(seed=2)
    trip = ctx.to_ids(ctx.bundle.test)[:1]
    assert trip[0, 0] not in ctx.seen_ids  # subject strategy leaves subjects unseen
    with pytest.raises(EvalError, match="candidate set"):
        rank_relation(ctx, store, acfg, "transe", table.dense(), trip, "subject",
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
    embs = encode_entities(ctx.neighbor_graph, store.leaves(False), acfg, None, ctx.seen_ids, q, (0,))
    rows = {name: embs[np.searchsorted(ctx.seen_ids, ctx.vocab.entity_id(name))]
            for name in ("e2", "e3", "e4")}
    np.testing.assert_array_equal(rows["e2"], rows["e3"])
    np.testing.assert_array_equal(rows["e2"], rows["e4"])

    trip = tuple(ctx.to_ids(bundle.test)[0])
    [got], _ = rank_relation(ctx, store, acfg, "transe", None, np.array([trip]), "object",
                             ctx.known_triplets(), seed=0)
    want = oracle_rank(ctx, store.arrays, None, "mean", "transe", trip,
                       "object", ctx.known_triplets())
    assert got == want


@pytest.mark.parametrize("twins", [1, 2, 3])
def test_batched_ranker_splits_ties_that_include_the_known_truth(twins):
    # the truth is itself a known fact; it must stay in its own tie block,
    # which an odd number of tied twins shows
    tied = [f"e{i}" for i in range(2, 3 + twins)]
    train = [("e1", "r", "h")] + [(name, "r", "h") for name in tied] + [("x", "r2", "e1")]
    bundle = DatasetBundle(train=train, aux=[], valid=[], test=[("x", "r2", "e2")],
                           unseen=[], spec=SplitSpec("subject", 1.0, 0))
    ctx = BundleContext(bundle)
    acfg = AggregatorConfig(kind="mean", neighbor_budget=8)
    store = init_params(ctx.vocab.n_entities, ctx.train_graph.n_relations, 6, 3)
    trip = tuple(int(x) for x in ctx.to_ids(bundle.test)[0])
    want = oracle_rank(ctx, store.arrays, None, "mean", "transe", trip, "object", ctx.known_triplets())
    assert link_prediction(ctx, store, acfg, "transe", None, seed=0).ranks == [want]
    unfiltered_ties = oracle_rank(ctx, store.arrays, None, "mean", "transe", trip, "object", set())
    assert want - unfiltered_ties in (0, -1)  # only e1 is filtered


@pytest.mark.parametrize("twins", [0, 1, 2])
def test_a_filtered_answer_that_ties_the_truth_leaves_the_tie_block(twins):
    # e3 is a known answer (from valid) with exactly the truth e2's neighborhood, so it ties the
    # truth; filtering removes it from the tie block, while the unfiltered twins stay in it
    tied = [f"t{i}" for i in range(twins)]
    train = [(name, "r", "h") for name in ["e1", "e2", "e3", *tied]] + [("e1", "r", "x"), ("x", "r3", "h")]
    bundle = DatasetBundle(train=train, aux=[], valid=[("x", "r2", "e3")], test=[("x", "r2", "e2")],
                           unseen=[], spec=SplitSpec("subject", 1.0, 0))
    ctx = BundleContext(bundle)
    acfg = AggregatorConfig(kind="mean", neighbor_budget=8)
    store = init_params(ctx.vocab.n_entities, ctx.train_graph.n_relations, 6, 3)
    trip = tuple(int(x) for x in ctx.to_ids(bundle.test)[0])
    known = ctx.known_triplets()
    assert (trip[0], trip[1], ctx.vocab.entity_id("e3")) in known
    ranks = [rank_relation(ctx, store, acfg, "transe", None, np.array([trip]), "object", f, seed=0)[0].tolist()
             for f in (known, set())]
    want = [[oracle_rank(ctx, store.arrays, None, "mean", "transe", trip, "object", f)] for f in (known, set())]
    assert ranks == want
    assert want[1][0] - want[0][0] == (twins + 2) // 2 - (twins + 1) // 2  # e3 left the tie block


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
        [got], _ = rank_relation(ctx, store, acfg, scorer, dense, row[None], "object", known, seed=9)
        want = oracle_rank(ctx, store.arrays, dense, kind, scorer, trip,
                           "object", known)
        assert got == want


def test_rank_query_rejects_a_filter_that_is_not_an_index():
    bundle = hand_bundle()
    ctx = BundleContext(bundle)
    acfg = AggregatorConfig(kind="mean", neighbor_budget=8)
    store = init_params(ctx.vocab.n_entities, ctx.train_graph.n_relations, 6, seed=1)
    trip = ctx.to_ids(bundle.test)[:1]
    tuples = {tuple(int(x) for x in row) for row in ctx.to_ids(bundle.train)}
    with pytest.raises(EvalError, match="KnownTriplets"):
        rank_relation(ctx, store, acfg, "transe", None, trip, "object", tuples, seed=0)
    raw = [rank_relation(ctx, store, acfg, "transe", None, trip, "object", f, seed=0)[0].tolist()
           for f in (None, set())]
    assert raw == [[3], [3]]


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
                objs = known.answer_rows(e, q, "object")[1]
                subs = known.answer_rows(e, q, "subject")[1]
                assert objs.tolist() == sorted(o for s, qq, o in facts if (s, qq) == (e, q))
                assert subs.tolist() == sorted(s for s, qq, o in facts if (qq, o) == (q, e))
        rng = np.random.default_rng(0)
        probes = list(facts) + [tuple(int(x) for x in t) for t in rng.integers(-1, n + 1, size=(200, 3))]
        for t in probes:
            assert (t in known) == (t in facts)


def test_known_triplets_contains_matches_brute_force_on_random_bundles():
    bundles = random_bundles(3, start_seed=120, strategy="subject")
    bundles += random_bundles(2, start_seed=160, strategy="object")
    for i, bundle in enumerate(bundles):
        ctx = BundleContext(bundle)
        known = ctx.known_triplets()
        facts = {tuple(int(x) for x in row)
                 for part in (bundle.train, bundle.aux, bundle.valid, bundle.test)
                 for row in ctx.to_ids(part)}
        n, r = ctx.vocab.n_entities, ctx.train_graph.n_relations
        rng = np.random.default_rng(i)
        known_rows = np.array(sorted(facts), dtype=np.int64)
        unknown = rng.integers(0, [n, r, n], size=(300, 3))
        out_of_range = rng.integers(-3, [n + 3, r + 3, n + 3], size=(300, 3))
        out_of_range = out_of_range[((out_of_range < 0) | (out_of_range >= [n, r, n])).any(axis=1)]
        assert out_of_range.shape[0] > 0
        rows = np.concatenate([known_rows, unknown, out_of_range])
        rows = rows[rng.permutation(rows.shape[0])]
        want = [tuple(t) in facts for t in rows.tolist()]
        assert known.contains(rows).tolist() == want
        assert [tuple(t) in known for t in rows.tolist()] == want
    assert KnownTriplets(np.zeros((0, 3), dtype=np.int64), 4, 2).contains([[0, 0, 1]]).tolist() == [False]
    assert known.contains(np.zeros((0, 3), dtype=np.int64)).shape == (0,)


def test_known_triplets_keys_equal_np_unique():
    rng = np.random.default_rng(2)
    facts = rng.integers(0, [9, 4, 9], size=(400, 3))  # many duplicate rows
    for rows in (facts, facts[:1], np.zeros((0, 3), dtype=np.int64)):
        known = KnownTriplets(rows, 9, 4)
        s, q, o = rows[:, 0], rows[:, 1], rows[:, 2]
        assert known._keys["object"].tobytes() == np.unique((s * 4 + q) * 9 + o).tobytes()
        assert known._keys["subject"].tobytes() == np.unique((o * 4 + q) * 9 + s).tobytes()
    assert known._keys["object"].dtype == np.int64


def test_known_triplets_refuse_overflowing_keys_and_bad_queries():
    with pytest.raises(EvalError, match="overflow"):
        KnownTriplets(np.zeros((1, 3), dtype=np.int64), 3_100_000_000, 1)
    known = KnownTriplets(np.array([[0, 1, 2]]), 3, 2)
    assert known.answer_rows(0, 1, "object")[1].tolist() == [2]
    assert known.answer_rows(2, 1, "subject")[1].tolist() == [0]
    assert (0, 1, 2) in known and (0, 0, 2) not in known and (0, 2, 2) not in known
    with pytest.raises(EvalError, match="outside"):
        known.answer_rows(0, 2, "object")
    with pytest.raises(EvalError, match="outside"):
        known.answer_rows(3, 0, "subject")


@pytest.mark.parametrize("kind", AGGREGATOR_KINDS)
def test_grouped_encode_entities_matches_one_padded_batch(kind, monkeypatch):
    ctx, acfg, table, store = bundle_fixture(seed=5)
    dense = table.dense()
    degrees = [ctx.neighbor_graph.neighborhood(int(e)).shape[0] for e in ctx.seen_ids]
    budget = int(np.median(degrees))  # truncates the larger half
    acfg = AggregatorConfig(kind=kind, neighbor_budget=budget)
    if acfg.uses_lstm:
        store = init_params(ctx.vocab.n_entities, ctx.train_graph.n_relations, 8, 5, with_lstm=True)
    q = 1
    # a bound of one budget plus one slot splits the candidates into many passes
    monkeypatch.setattr(evaluation, "_BLOCK_SLOTS", budget + 1)
    passes = []
    monkeypatch.setattr(evaluation, "encode_batch", lambda *a, **kw: passes.append(a[1].size - 1) or encode_batch(*a, **kw))
    got = encode_entities(ctx.neighbor_graph, store.leaves(False), acfg, dense, ctx.seen_ids, q, (2,))
    assert len(passes) > 3 and sum(passes) == len(ctx.seen_ids)
    offsets, rels, ents = stack_samples(ctx.neighbor_graph, ctx.seen_ids, acfg, (2,))
    assert np.diff(offsets).max() == budget and len(set(np.diff(offsets))) > 2
    want = encode_batch(store.leaves(False), offsets, rels, ents,
                        np.full(len(ctx.seen_ids), q), acfg, dense_table=dense).data
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def traced_encode(kind, n, deg, dim, r):
    """``encode_entities`` over n entities of ``deg`` neighbors each -> (output, tracemalloc peak in bytes)."""
    rng = np.random.default_rng(4)
    graph = SimpleNamespace(offsets=np.arange(n + 1) * deg,
                            pairs=np.stack([rng.integers(0, r, n * deg), rng.integers(0, n, n * deg)], axis=1))
    store = init_params(n, r, dim, 4, with_lstm=True)
    acfg = AggregatorConfig(kind=kind, neighbor_budget=64)
    tracemalloc.start()
    try:
        out = encode_entities(graph, store.leaves(False), acfg, rng.random((r, r)), np.arange(n), 1, (5,))
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kind", AGGREGATOR_KINDS)
def test_encode_entities_holds_one_block_of_slots_at_a_time(kind):
    # every entity has 12 neighbors, within the budget, so the candidates span more than 4 blocks
    n, deg, dim, r = 2000, 12, 32, 6
    assert n * deg > 4 * evaluation._BLOCK_SLOTS
    out, peak = traced_encode(kind, n, deg, dim, r)
    # a block's per-slot (S, d) arrays: the gathers, the transform and the attention steps
    assert peak <= out.nbytes + 6 * evaluation._BLOCK_SLOTS * dim * 8


@pytest.mark.parametrize("kind", AGGREGATOR_KINDS)
def test_encode_entities_frees_each_block_before_the_next(kind, monkeypatch):
    # 2^6-slot blocks: 375 of them, so arrays that outlive their block add up past the bound
    n, deg, dim, r = 2000, 12, 32, 6
    monkeypatch.setattr(evaluation, "_BLOCK_SLOTS", 1 << 6)
    assert n * deg > 300 * evaluation._BLOCK_SLOTS
    out, peak = traced_encode(kind, n, deg, dim, r)
    # the (n, d) output and the (n * deg,) CSR slot arrays, plus one block's per-slot (S, d) arrays
    assert peak <= out.nbytes + 3 * n * deg * 8 + 6 * evaluation._BLOCK_SLOTS * dim * 8


def traced_score_labeled(kind, n, deg, dim, r, rows):
    """``score_labeled`` over ``rows`` random rows of n entities of ``deg`` neighbors each -> (output, traced peak).

    One row is scored first, untraced, so the peak leaves out what numpy
    and scipy set up once per process.
    """
    rng = np.random.default_rng(4)
    graph = SimpleNamespace(offsets=np.arange(n + 1) * deg,
                            pairs=np.stack([rng.integers(0, r, n * deg), rng.integers(0, n, n * deg)], axis=1))
    ctx = SimpleNamespace(neighbor_graph=graph, vocab=SimpleNamespace(n_entities=n),
                          train_graph=SimpleNamespace(n_relations=r))
    store = init_params(n, r, dim, 4, with_lstm=True)
    labeled = np.stack([rng.integers(0, n, rows), rng.integers(0, r, rows), rng.integers(0, n, rows)], axis=1)
    acfg = AggregatorConfig(kind=kind, neighbor_budget=64)
    dense = rng.random((r, r))
    score_labeled(ctx, store, acfg, "transe", dense, labeled[:1], seed=1)
    tracemalloc.start()
    try:
        out = score_labeled(ctx, store, acfg, "transe", dense, labeled, seed=1)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def one_batch_bound(deg, dim):
    """Bytes a scoring batch may hold beside the (rows,) scores: its (S,) CSR slot arrays over at most
    _BLOCK_SLOTS endpoints, their (E, d) encodings with the scorer's (rows, d) operands, and one block's
    per-slot (S, d) arrays."""
    slots = evaluation._BLOCK_SLOTS
    return 4 * slots * deg * 8 + 4 * slots * dim * 8 + 6 * slots * dim * 8


@pytest.mark.parametrize("kind", AGGREGATOR_KINDS)
def test_score_labeled_holds_one_block_of_slots_at_a_time(kind):
    # 48 neighbors per endpoint: a batch of _BLOCK_SLOTS // 2 rows spans 48 blocks of slots
    n, deg, dim, r, rows = 6000, 48, 32, 6, 3000
    assert rows > evaluation._BLOCK_SLOTS // 2
    out, peak = traced_score_labeled(kind, n, deg, dim, r, rows)
    assert peak <= out.nbytes + one_batch_bound(deg, dim)


@pytest.mark.parametrize("kind", AGGREGATOR_KINDS)
def test_score_labeled_frees_each_batch_before_the_next(kind, monkeypatch):
    # 64-row batches, 94 of them over the call's one set of constant leaves, so arrays that outlive their batch add up past the bound
    n, deg, dim, r, rows = 2000, 12, 32, 6, 6000
    monkeypatch.setattr(evaluation, "_BLOCK_SLOTS", 128)
    out, peak = traced_score_labeled(kind, n, deg, dim, r, rows)
    assert peak <= out.nbytes + one_batch_bound(deg, dim)


@pytest.mark.parametrize("kind", ["lan", "lstm", "mean"])
def test_constant_leaves_are_made_once_per_call_and_build_no_graph(kind, monkeypatch):
    ctx, acfg, table, store = bundle_fixture(seed=5)
    acfg = AggregatorConfig(kind=kind, neighbor_budget=acfg.neighbor_budget)
    if acfg.uses_lstm:
        store = init_params(ctx.vocab.n_entities, ctx.train_graph.n_relations, 8, 5, with_lstm=True)
    monkeypatch.setattr(evaluation, "_BLOCK_SLOTS", 8)  # and so 4-row scoring batches
    made, passes = [], []
    leaves = ParamStore.leaves

    def capture(store, requires_grad):
        made.append(leaves(store, requires_grad))
        return made[-1]
    monkeypatch.setattr(ParamStore, "leaves", capture)
    start = next(ad._created)
    monkeypatch.setattr(evaluation, "encode_batch", lambda *a, **kw: passes.append(a[0]) or encode_batch(*a, **kw))
    encode_entities(ctx.neighbor_graph, store.leaves(False), acfg, table.dense(), ctx.seen_ids, 1, (0,))
    blocks = len(passes)
    rows = ctx.to_ids(ctx.bundle.valid)
    score_labeled(ctx, store, acfg, "transe", table.dense(), rows, seed=0)
    want = 0  # a pass per block of at most 8 slots (or one wider row) over each batch's distinct endpoints
    degrees = np.minimum(np.diff(ctx.neighbor_graph.offsets), acfg.neighbor_budget)
    for lo in range(0, rows.shape[0], 4):
        ent_ids, queries = np.concatenate([rows[lo:lo + 4, 0], rows[lo:lo + 4, 2]]), np.tile(rows[lo:lo + 4, 1], 2)
        filled = None
        for k in degrees[ent_ids[distinct_rows(ent_ids, queries)[0]]]:
            want, filled = (want, filled + k) if filled is not None and filled + k <= 8 else (want + 1, k)
    assert len(made) == 2 and blocks > 3 and len(passes) - blocks == want > math.ceil(rows.shape[0] / 4)
    assert next(ad._created) == start + 1 and not any(v.requires_grad for m in made for v in m.values())
    assert all(any(p is m for m in made) for p in passes)


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


def per_query_rank(ctx, store, acfg, scorer, dense, triplet, rank_side, known, seed):
    """One query ranked on its own: the reference sample under ``(seed,)``, B=1 encode, one filter search."""
    s, q, o = triplet
    truth, fixed = (s, o) if rank_side == "subject" else (o, s)
    cands = encode_entities(ctx.neighbor_graph, store.leaves(False), acfg, dense, ctx.seen_ids, q, (seed,))
    rows = reference_sample(ctx.neighbor_graph, fixed, acfg, (seed,))
    emb = encode_one(store, dense, acfg, q, rows).embedding
    q_vec = store["relation_emb"][q]
    [scores] = score_columns(candidate_columns(cands, q_vec, scorer, rank_side), q_vec, emb, scorer, rank_side)
    _, answers = known.answer_rows(fixed, q, rank_side)
    keep = ~np.isin(ctx.seen_ids, answers[answers != truth])
    truth_score = scores[np.searchsorted(ctx.seen_ids, truth)]
    better = int((scores[keep] > truth_score).sum())
    ties = int((scores[keep] == truth_score).sum()) - 1
    return 1 + better + math.ceil(ties / 2)


@pytest.mark.parametrize("kind", AGGREGATOR_KINDS)
@pytest.mark.parametrize("strategy", ["subject", "object"])
def test_batched_ranks_match_per_query_ranks_on_truncated_neighborhoods(kind, strategy):
    [bundle] = random_bundles(1, start_seed=5, strategy=strategy)
    ctx = BundleContext(bundle)
    rank_side = "object" if strategy == "subject" else "subject"
    test = ctx.to_ids(bundle.test)
    fixed = test[:, 0] if rank_side == "object" else test[:, 2]
    degrees = np.array([ctx.neighbor_graph.neighborhood(int(e)).shape[0] for e in fixed])
    budget = int(np.median(degrees))  # truncates the larger half of the fixed sides
    assert (degrees > budget).sum() >= 2 and len(set(degrees.tolist())) > 2
    acfg = AggregatorConfig(kind=kind, neighbor_budget=budget)
    dense = mine_confidence(ctx.train_graph).dense()
    store = init_params(ctx.vocab.n_entities, ctx.train_graph.n_relations, 8, seed=4,
                        with_lstm=acfg.uses_lstm)
    known = ctx.known_triplets()
    for scorer in ("transe", "distmult", "complex"):
        res = link_prediction(ctx, store, acfg, scorer, dense, seed=6, triplets=test, rank_side=rank_side)
        want = [per_query_rank(ctx, store, acfg, scorer, dense, tuple(int(x) for x in row), rank_side, known, 6)
                for row in test]
        assert res.ranks == want
        assert res.empty_fixed == int((degrees == 0).sum())


@pytest.mark.parametrize("kind", ["lan", "lstm"])
def test_batched_ranks_match_per_query_ranks_across_encode_passes(kind, monkeypatch):
    monkeypatch.setattr(evaluation, "_BLOCK_SLOTS", 8)
    sampled, keyed = [], []  # whether each sample, and each pass over it, is of fixed sides
    # rank_relation samples its candidates, then its fixed sides
    monkeypatch.setattr(evaluation, "stack_samples", lambda *a: sampled.append(len(sampled) % 2 == 1)
                        or stack_samples(*a))
    monkeypatch.setattr(evaluation, "encode_batch", lambda *a, **kw: keyed.append(sampled[-1])
                        or encode_batch(*a, **kw))
    test_batched_ranks_match_per_query_ranks_on_truncated_neighborhoods(kind, "subject")
    assert sum(keyed) > 3


def test_empty_fixed_side_is_counted_and_scored_from_zero():
    train = [("a", "r", "b"), ("a", "r", "c"), ("b", "r", "d"), ("d", "r", "a")]
    aux = [("v", "r", "a")]
    test = [("u", "r", "b"), ("v", "r", "c")]  # u is unseen and has no auxiliary facts
    bundle = DatasetBundle(train=train, aux=aux, valid=[], test=test,
                           unseen=["u", "v"], spec=SplitSpec("subject", 1.0, 0))
    ctx = BundleContext(bundle)
    acfg = AggregatorConfig(kind="lan", neighbor_budget=8)
    dense = mine_confidence(ctx.train_graph).dense()
    store = init_params(ctx.vocab.n_entities, ctx.train_graph.n_relations, 6, seed=2)
    res = link_prediction(ctx, store, acfg, "transe", dense, seed=0)
    assert res.empty_fixed == 1
    q = ctx.vocab.relation_id("r")
    cands = encode_entities(ctx.neighbor_graph, store.leaves(False), acfg, dense, ctx.seen_ids, q, (0,))
    q_vec = store["relation_emb"][q]
    [scores] = score_columns(candidate_columns(cands, q_vec, "transe", "object"), q_vec, np.zeros(6), "transe", "object")
    truth = scores[np.searchsorted(ctx.seen_ids, ctx.vocab.entity_id("b"))]
    known = ctx.known_triplets()
    keep = ~np.isin(ctx.seen_ids, known.answer_rows(ctx.vocab.entity_id("u"), q, "object")[1])
    keep[np.searchsorted(ctx.seen_ids, ctx.vocab.entity_id("b"))] = True
    ties = int((scores[keep] == truth).sum()) - 1
    assert res.ranks[0] == 1 + int((scores[keep] > truth).sum()) + math.ceil(ties / 2)
    full = link_prediction(ctx, store, acfg, "transe", dense, seed=0, triplets=ctx.to_ids(test[1:]))
    assert full.empty_fixed == 0 and full.ranks == res.ranks[1:]


def test_known_answer_rows_match_one_query_answers():
    ctx, acfg, table, store = bundle_fixture(seed=5)
    known = ctx.known_triplets()
    rng = np.random.default_rng(1)
    n, r = ctx.vocab.n_entities, ctx.train_graph.n_relations
    fixed, q = rng.integers(0, n, size=60), rng.integers(0, r, size=60)
    for side in ("object", "subject"):
        index, ents = known.answer_rows(fixed, q, side)
        assert np.all(np.diff(index) >= 0)
        for i in range(fixed.size):
            assert ents[index == i].tolist() == known.answer_rows(fixed[i], q[i], side)[1].tolist()
        one_rel, _ = known.answer_rows(fixed, 1, side)
        assert one_rel.size == sum(known.answer_rows(e, 1, side)[1].size for e in fixed)
    assert [a.shape for a in known.answer_rows([], 0, "object")] == [(0,), (0,)]
    with pytest.raises(EvalError, match="outside"):
        known.answer_rows([0, n], 0, "object")


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


@pytest.mark.parametrize("case", ["fewer-entities", "lstm-without-gates", "no-attn_score_vec", "narrow-transform_vec"])
@pytest.mark.parametrize("entry", ["link_prediction", "score_labeled"])
def test_a_store_smaller_than_the_vocabulary_is_refused_before_any_encoding(entry, case, monkeypatch):
    ctx, acfg, table, _ = bundle_fixture(seed=9)
    n, r = ctx.vocab.n_entities, ctx.train_graph.n_relations
    small = init_params(n, r, 8, 9)
    if case == "fewer-entities":
        small = init_params(n - 1, r, 8, 9)
        message = f"embeds {n - 1} entities, but the bundle's vocabulary has {n}"
    elif case == "lstm-without-gates":
        acfg = AggregatorConfig(kind="lstm", neighbor_budget=acfg.neighbor_budget)
        message = "the parameter store holds no parameter lstm_b_c, which the lstm aggregator needs"
    elif case == "no-attn_score_vec":
        del small.arrays["attn_score_vec"]
        message = "the parameter store holds no parameter attn_score_vec, which the lan aggregator needs"
    else:
        small.arrays["transform_vec"] = small["transform_vec"][:, :4]
        message = f"the parameter store holds parameter transform_vec of shape {r}x4, where the lan aggregator needs {r}x8"
    encoded = []
    monkeypatch.setattr(evaluation, "encode_batch", lambda *a, **kw: encoded.append(a) or encode_batch(*a, **kw))
    with pytest.raises(EvalError, match=re.escape(message)):
        if entry == "link_prediction":
            link_prediction(ctx, small, acfg, "transe", table.dense(), seed=0)
        else:
            score_labeled(ctx, small, acfg, "transe", table.dense(), ctx.to_ids(ctx.bundle.valid), seed=0)
    assert not encoded


def test_rank_relation_rejects_an_empty_query_set():
    ctx, acfg, table, store = bundle_fixture(seed=7)
    with pytest.raises(EvalError, match="no queries"):
        rank_relation(ctx, store, acfg, "transe", table.dense(), np.zeros((0, 3), dtype=np.int64),
                      "object", ctx.known_triplets(), 0)


def test_rank_relation_rejects_queries_of_mixed_relations():
    ctx, acfg, table, store = bundle_fixture(seed=7)
    test = ctx.to_ids(ctx.bundle.test)
    other = int(np.argmax(test[:, 1] != test[0, 1]))
    assert test[other, 1] != test[0, 1]
    with pytest.raises(EvalError, match=f"mix relations {test[0, 1]} and {test[other, 1]}"):
        rank_relation(ctx, store, acfg, "transe", table.dense(), test[[0, other]], "object", ctx.known_triplets(), 0)


@pytest.mark.parametrize("kind", ["mean", "logic-only"])
def test_ranks_do_not_depend_on_how_queries_are_split_into_calls(kind):
    [bundle] = random_bundles(1, start_seed=5)
    ctx = BundleContext(bundle)
    test = ctx.to_ids(bundle.test)
    degrees = np.array([ctx.neighbor_graph.neighborhood(int(e)).shape[0] for e in test[:, 0]])
    acfg = AggregatorConfig(kind=kind, neighbor_budget=int(np.median(degrees)))  # truncates some fixed sides
    dense = mine_confidence(ctx.train_graph).dense()
    store = init_params(ctx.vocab.n_entities, ctx.train_graph.n_relations, 8, seed=4)

    def ranks(triplets):
        return link_prediction(ctx, store, acfg, "transe", dense, seed=6, triplets=triplets).ranks

    whole = ranks(test)
    assert whole == [r for part in np.array_split(test, 3) for r in ranks(part)]
    assert whole == [ranks(row[None])[0] for row in test]


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


def test_score_labeled_batch_size_is_immaterial_within_budget(monkeypatch):
    ctx, acfg, table, store = bundle_fixture(seed=13)
    rows = ctx.to_ids(ctx.bundle.valid)
    dense = table.dense()
    whole = score_labeled(ctx, store, acfg, "transe", dense, rows, seed=0)
    monkeypatch.setattr(evaluation, "_BLOCK_SLOTS", 6)  # 3-row batches
    pieces = score_labeled(ctx, store, acfg, "transe", dense, rows, seed=0)
    np.testing.assert_allclose(whole, pieces, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("kind", AGGREGATOR_KINDS)
def test_eval_tc_scores_do_not_depend_on_row_order_or_batch_size(kind, monkeypatch):
    ctx, _, table, store = bundle_fixture(seed=13)
    store = init_params(ctx.vocab.n_entities, ctx.train_graph.n_relations, 8, 13, with_lstm=True)
    degrees = np.diff(ctx.neighbor_graph.offsets)
    acfg = AggregatorConfig(kind=kind, neighbor_budget=int(np.median(degrees[degrees > 0])))
    rows = np.concatenate([ctx.to_ids(ctx.bundle.valid), ctx.to_ids(ctx.bundle.test)])
    assert (degrees[rows[:, [0, 2]]] > acfg.neighbor_budget).sum() > 10  # truncated endpoints, many repeated
    whole = score_labeled(ctx, store, acfg, "transe", table.dense(), rows, seed=2)
    perm = np.random.default_rng(0).permutation(rows.shape[0])
    for block in (evaluation._BLOCK_SLOTS, 64, 6):  # 2^11-, 32- and 3-row batches
        monkeypatch.setattr(evaluation, "_BLOCK_SLOTS", block)
        got = score_labeled(ctx, store, acfg, "transe", table.dense(), rows[perm], seed=2)
        if kind in ("mean", "logic-only"):
            assert got.tobytes() == whole[perm].tobytes()
        else:
            np.testing.assert_allclose(got, whole[perm], rtol=0, atol=1e-12)


# --- one encoding per distinct (entity, query) row -------------------------------

def repeated_rows(ctx):
    """Training triplets with every row twice, and rows sharing a subject or an object under one relation."""
    t = ctx.train_graph.triplets[:12]
    flipped = t[::-1].copy()
    flipped[:, 0] = t[:, 0]  # the subjects of t, under their own relation, with other objects
    flipped[:, 1] = t[:, 1]
    return np.concatenate([t, t[::-1], flipped])


def scores_of(ctx, store, acfg, dense, triplets, scorer="transe"):
    return output_scores(store.leaves(False), triplets, ctx.neighbor_graph, dense, acfg, scorer, (3,)).data


@pytest.mark.parametrize("kind", AGGREGATOR_KINDS)
@pytest.mark.parametrize("scorer", ["transe", "distmult", "complex"])
def test_output_scores_of_repeated_rows_equal_one_row_at_a_time(kind, scorer):
    ctx, acfg, table, store = bundle_fixture(seed=7)
    acfg = AggregatorConfig(kind=kind, neighbor_budget=acfg.neighbor_budget)
    store = init_params(ctx.vocab.n_entities, ctx.train_graph.n_relations, 8, 7, with_lstm=True)
    dense = table.dense()
    rows = repeated_rows(ctx)
    got = scores_of(ctx, store, acfg, dense, rows, scorer)
    want = np.concatenate([scores_of(ctx, store, acfg, dense, row[None], scorer) for row in rows])
    if kind in ("mean", "logic-only"):
        np.testing.assert_array_equal(got, want)
    else:
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("kind", AGGREGATOR_KINDS)
def test_output_scores_encode_each_distinct_row_once(kind, monkeypatch):
    ctx, acfg, table, store = bundle_fixture(seed=8)
    acfg = AggregatorConfig(kind=kind, neighbor_budget=acfg.neighbor_budget)
    store = init_params(ctx.vocab.n_entities, ctx.train_graph.n_relations, 8, 8, with_lstm=acfg.uses_lstm)
    rows = repeated_rows(ctx)
    encoded = []
    monkeypatch.setattr(helpers, "encode_batch", lambda *a, **kw: encoded.append(a[1].size - 1)
                        or encode_batch(*a, **kw))
    scores_of(ctx, store, acfg, table.dense(), rows)
    keys = {(int(e), int(q)) for e, q in zip(np.concatenate([rows[:, 0], rows[:, 2]]), np.tile(rows[:, 1], 2))}
    assert len(keys) < 2 * rows.shape[0]
    assert encoded == [len(keys)]


@pytest.mark.parametrize("kind", ["lan", "mean", "lstm"])
def test_truncated_repeats_are_sampled_once(kind, monkeypatch):
    ctx, _, table, store = bundle_fixture(seed=9)
    store = init_params(ctx.vocab.n_entities, ctx.train_graph.n_relations, 8, 9, with_lstm=True)
    graph = ctx.neighbor_graph
    degrees = np.diff(graph.offsets)
    hub, small = int(np.argmax(degrees)), int(np.argmin(degrees))
    acfg = AggregatorConfig(kind=kind, neighbor_budget=int(degrees[hub]) - 1)
    assert degrees[small] <= acfg.neighbor_budget
    rows = np.array([[hub, 0, small], [small, 1, hub], [hub, 0, hub], [small, 1, small], [hub, 0, small]])
    sampled = []
    monkeypatch.setattr(helpers, "stack_samples", lambda g, ids, *a: sampled.append(np.array(ids))
                        or stack_samples(g, ids, *a))
    got = scores_of(ctx, store, acfg, table.dense(), rows)
    # the hub ends rows under relations 0 and 1, and so does the small entity: each is sampled once per relation
    assert (sampled[0] == hub).sum() == 2
    assert (sampled[0] == small).sum() == 2
    want = np.concatenate([scores_of(ctx, store, acfg, table.dense(), row[None]) for row in rows])
    if kind == "mean":
        np.testing.assert_array_equal(got, want)
    else:
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("bad", [-1, "n"])
def test_output_scores_refuse_an_entity_id_out_of_range(bad):
    ctx, acfg, table, store = bundle_fixture(seed=10)
    bad = ctx.vocab.n_entities if bad == "n" else bad
    row = ctx.train_graph.triplets[0]
    rows = np.array([row, row, [row[0], row[1], bad]])
    with pytest.raises(GraphError, match="out of range"):
        scores_of(ctx, store, acfg, table.dense(), rows)


@pytest.mark.parametrize("kind", ["mean", "lan"])
@pytest.mark.parametrize("column, bad", [(0, -1), (2, "n"), (1, -1), (1, "r")])
def test_score_labeled_refuses_an_id_out_of_range(kind, column, bad):
    ctx, acfg, table, store = bundle_fixture(seed=10)
    acfg = AggregatorConfig(kind=kind, neighbor_budget=acfg.neighbor_budget)
    limit = {"n": ctx.vocab.n_entities, "r": store["relation_emb"].shape[0]}
    row = ctx.train_graph.triplets[0]
    rows = np.array([row, row, row])
    rows[2, column] = limit.get(bad, bad)
    with pytest.raises(EvalError, match=r"labeled row 2 .* has an id outside"):
        score_labeled(ctx, store, acfg, "transe", table.dense(), rows, seed=0)


@pytest.mark.parametrize("kind", ["mean", "lan"])
@pytest.mark.parametrize("entry", ["link_prediction", "rank_relation"])
@pytest.mark.parametrize("column, bad", [(1, -1), (1, "r"), (0, -1), (2, "n")])
def test_ranking_refuses_an_id_out_of_range_before_any_encoding(kind, entry, column, bad, monkeypatch):
    ctx, acfg, table, store = bundle_fixture(seed=10)
    acfg = AggregatorConfig(kind=kind, neighbor_budget=acfg.neighbor_budget)
    limit = {"n": ctx.vocab.n_entities, "r": store["relation_emb"].shape[0]}
    rows = np.repeat(ctx.to_ids(ctx.bundle.test)[:1], 3, axis=0)
    rows[2, column] = limit.get(bad, bad)
    first = 2
    if entry == "rank_relation" and column == 1:
        rows[:, 1], first = rows[2, 1], 0  # rank_relation takes the queries of one relation
    encoded = []
    monkeypatch.setattr(evaluation, "encode_batch", lambda *a, **kw: encoded.append(a) or encode_batch(*a, **kw))
    with pytest.raises(EvalError, match=rf"query row {first} .* has an id outside"):
        if entry == "link_prediction":
            link_prediction(ctx, store, acfg, "transe", table.dense(), seed=0, triplets=rows)
        else:
            rank_relation(ctx, store, acfg, "transe", table.dense(), rows, "object", ctx.known_triplets(), 0)
    assert not encoded
