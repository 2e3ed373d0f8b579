"""End-to-end contract checks for the whole package.

Each test here pins one of the package's core guarantees: gradient
correctness of the full training objective, exact agreement of the
vectorized paths with brute-force reimplementations, the aggregator
permutation properties, split invariants, and two desk-scale training
results (the planted-rule advantage of logic attention and a plain
memorization check).  Tolerances and runtime ceilings are part of the
contract and asserted explicitly.
"""

import math
import os
import re
import time
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    encode_one,
    finite_difference_check,
    make_graph,
    max_degree,
    naive_confidence,
    oracle_metrics,
    oracle_rank,
    oracle_threshold_table,
    output_scores,
    random_bundles,
    random_name_triples,
)
from test_splits import check_bundle_invariants
from lankgc import autodiff as ad
from lankgc.config import aggregator_config_from, resolve_config, train_config_from
from lankgc.context import BundleContext
from lankgc.encoder import AGGREGATOR_KINDS, AggregatorConfig
from lankgc.evaluation import link_prediction, tune_thresholds
from lankgc.params import init_params
from lankgc.rules import ConfidenceTable, mine_confidence
from lankgc.splits import DatasetBundle, SplitSpec, build_split, load_corpus, split_stats
from lankgc.synth import gen_synthetic
from lankgc.training import TrainConfig, batch_objective, input_scores, train

REPO_ROOT = Path(__file__).resolve().parents[1]

SCORERS = ("transe", "distmult", "complex")


# --- gradient correctness ----------------------------------------------------

def _corrupt_object(triplet, known, n_entities):
    s, q, o = (int(x) for x in triplet)
    for cand in range(n_entities):
        if cand != o and cand != s and (s, q, cand) not in known:
            return (s, q, cand)
    raise AssertionError("graph too dense to corrupt")


def _loss_fn(kg, dense, pos, neg, tcfg, acfg, scorer):
    """Full-objective closure for the finite-difference checker.

    One sample key on every call keeps neighbor sampling and LSTM
    orders fixed, so the loss is a deterministic function of the
    parameter arrays alone.
    """

    def fn(arrays):
        leaves = {k: ad.Value(v, requires_grad=True) for k, v in arrays.items()}
        loss, _ = batch_objective(leaves, pos, neg, kg, dense, tcfg, acfg, scorer, (0,))
        ad.backward(loss)
        grads = {
            k: (l.grad if l.grad is not None else np.zeros_like(arrays[k]))
            for k, l in leaves.items()
        }
        return float(loss.data), grads

    return fn


def _kink_distance(arrays, kg, dense, pos, neg, tcfg, acfg, scorer):
    """Smallest |margin - phi_p + phi_n| across both hinge terms.

    The hinge is the only non-smooth piece of the objective, so a
    comfortable distance from its corner guarantees the central
    differences in the checker never straddle a kink.
    """
    leaves = {k: ad.Value(v) for k, v in arrays.items()}
    both = np.concatenate([np.asarray(pos), np.asarray(neg)], axis=0)
    b = len(pos)
    phi = output_scores(leaves, both, kg, dense, acfg, scorer, (0,)).data
    psi = input_scores(leaves, both, scorer).data
    args = np.concatenate([
        tcfg.margin - phi[:b] + phi[b:],
        tcfg.margin - psi[:b] + psi[b:],
    ])
    return float(np.min(np.abs(args)))


def test_gradients_match_finite_differences_for_every_aggregator_and_scorer():
    started = time.perf_counter()
    rng = np.random.default_rng(3)
    kg = make_graph(random_name_triples(rng, 8, 3, 18))
    dense = mine_confidence(kg).dense()
    known = {tuple(int(x) for x in t) for t in kg.triplets}
    pos = [tuple(int(x) for x in t) for t in kg.triplets[:2]]
    neg = [_corrupt_object(t, known, kg.n_entities) for t in pos]
    tcfg = TrainConfig(
        learning_rate=0.001, margin=1.0, dim=8, neighbor_budget=64,
        l2_rate=0.001, subtask_enabled=True,
    )
    for kind in AGGREGATOR_KINDS:
        acfg = AggregatorConfig(kind=kind, neighbor_budget=64)
        for scorer in SCORERS:
            for seed in range(12):
                store = init_params(kg.n_entities, kg.n_relations, 8, seed,
                                    with_lstm=(kind == "lstm"))
                gap = _kink_distance(store.arrays, kg, dense, pos, neg, tcfg, acfg, scorer)
                if gap > 1e-3:
                    break
            else:
                pytest.fail(f"no kink-free init found for {kind}+{scorer}")
            fn = _loss_fn(kg, dense, pos, neg, tcfg, acfg, scorer)
            ok, report = finite_difference_check(fn, store.arrays, tol=1e-4)
            assert ok, f"{kind}+{scorer}: worst relative errors {report}"
    assert time.perf_counter() - started <= 120.0


# --- rule miner vs naive double loop -----------------------------------------

def test_rule_miner_matches_naive_double_loop_on_random_graphs():
    started = time.perf_counter()
    for i in range(50):
        rng = np.random.default_rng(100 + i)
        n_e = int(rng.integers(5, 51))
        n_r = int(rng.integers(1, 11))
        n_t = int(rng.integers(n_e, 3 * n_e + 1))
        kg = make_graph(random_name_triples(rng, n_e, n_r, n_t))
        dense = mine_confidence(kg).dense()
        naive = naive_confidence(kg)
        for r1 in range(kg.n_relations):
            for r2 in range(kg.n_relations):
                assert dense[r1, r2] == naive.get((r1, r2), 0.0)
    assert time.perf_counter() - started <= 10.0


# --- permutation properties --------------------------------------------------

def test_permutation_invariance_and_lstm_order_sensitivity():
    n_entities, n_relations, dim = 40, 5, 16
    store = init_params(n_entities, n_relations, dim, seed=7, with_lstm=True)
    conf_rng = np.random.default_rng(13)
    matrix = np.zeros((n_relations, n_relations))
    for r1 in range(n_relations):
        for r2 in range(n_relations):
            if conf_rng.random() < 0.7:
                matrix[r1, r2] = conf_rng.random()
    table = ConfidenceTable(matrix)
    dense = table.dense()
    cfgs = {
        "lan": AggregatorConfig(kind="lan", neighbor_budget=64),
        "mean": AggregatorConfig(kind="mean", neighbor_budget=64),
        "lstm": AggregatorConfig(kind="lstm", neighbor_budget=64),
    }
    rng = np.random.default_rng(29)
    worst_lstm_diff = 0.0
    for _ in range(100):
        k = int(rng.integers(1, 65))
        rels = rng.integers(0, n_relations, size=k)
        ents = rng.integers(0, n_entities, size=k)
        sample = np.stack([rels, ents], axis=1)
        query = int(rng.integers(n_relations))
        base = {
            kind: encode_one(store, dense, cfg, query, sample).embedding
            for kind, cfg in cfgs.items()
        }
        for _ in range(10):
            perm = rng.permutation(k)
            shuffled = sample[perm]
            for kind in ("lan", "mean"):
                out = encode_one(store, dense, cfgs[kind], query, shuffled).embedding
                scale = np.linalg.norm(base[kind])
                assert scale > 0.0
                assert np.linalg.norm(out - base[kind]) <= 1e-9 * scale
            out = encode_one(store, dense, cfgs["lstm"], query, shuffled).embedding
            worst_lstm_diff = max(worst_lstm_diff,
                                  float(np.abs(out - base["lstm"]).max()))
    assert worst_lstm_diff > 1e-6


# --- ranking metrics vs brute force -------------------------------------------

def test_ranking_metrics_match_brute_force_on_random_bundles():
    combos = [(k, s) for k in ("mean", "lan", "query-attn", "global-attn", "logic-only")
              for s in SCORERS]
    bundles = random_bundles(10, start_seed=300, strategy="subject",
                             n_entities=80, n_relations=5, n_triples=320)
    bundles += random_bundles(10, start_seed=600, strategy="object",
                              n_entities=80, n_relations=5, n_triples=320)
    for i, bundle in enumerate(bundles):
        kind, scorer = combos[i % len(combos)]
        ctx = BundleContext(bundle)
        acfg = AggregatorConfig(kind=kind, neighbor_budget=max(64, max_degree(ctx)))
        dense = mine_confidence(ctx.train_graph).dense()
        store = init_params(ctx.vocab.n_entities, ctx.train_graph.n_relations, 8, seed=i)
        res = link_prediction(ctx, store, acfg, scorer, dense, seed=5)
        rank_side = "object" if bundle.spec.strategy == "subject" else "subject"
        known = ctx.known_triplets()
        cache = {}
        expected = [
            oracle_rank(ctx, store.arrays, dense, kind, scorer, trip, rank_side,
                        known, cand_cache=cache)
            for trip in ctx.to_ids(bundle.test)
        ]
        assert res.ranks == expected, f"bundle {i} ({kind}+{scorer})"
        want = oracle_metrics(expected)
        assert res.metrics.mr == want["mr"]
        assert res.metrics.mrr == want["mrr"]
        assert res.metrics.hits1 == want["hits1"]
        assert res.metrics.hits3 == want["hits3"]
        assert res.metrics.hits10 == want["hits10"]


# --- split invariants ---------------------------------------------------------

def test_split_invariants_hold_on_generated_corpora():
    for seed, strategy, rate in [(2, "subject", 0.2), (2, "object", 0.2),
                                 (3, "subject", 0.5), (4, "object", 0.5),
                                 (5, "subject", 1.0)]:
        corpus = gen_synthetic(300, 0.9, seed=seed)
        bundle = build_split(corpus, SplitSpec(strategy, rate, seed))
        check_bundle_invariants(corpus, bundle)


# statistics reported for the 10% subject benchmark split of FB15K
_FB15K_SUBJECT10 = {"n_seen": 10336, "n_unseen": 2082, "avg_neighbors": 31.6}


def _fb15k_dir():
    env = os.environ.get("LANKGC_FB15K_DIR")
    if env:
        return Path(env)
    return REPO_ROOT / "data" / "fb15k"


def test_fb15k_subject_split_statistics_when_corpus_present():
    directory = _fb15k_dir()
    if not directory.is_dir():
        pytest.skip("FB15K corpus not present (set LANKGC_FB15K_DIR or data/fb15k)")
    corpus = load_corpus(str(directory))
    bundle = build_split(corpus, SplitSpec("subject", 0.10, seed=0))
    check_bundle_invariants(corpus, bundle)
    stats = split_stats(bundle)
    for field, want in _FB15K_SUBJECT10.items():
        got = getattr(stats, field)
        assert abs(got - want) <= 0.10 * want, f"{field}: {got} vs {want}"


# --- threshold tuner vs exhaustive scan ----------------------------------------

def test_threshold_tuner_matches_exhaustive_scan():
    for i in range(100):
        rng = np.random.default_rng(1000 + i)
        n = int(rng.integers(1, 41))
        rows = [
            (int(rng.integers(0, 3)),
             float(np.round(rng.normal(), 1)),
             int(rng.integers(0, 2)))
            for _ in range(n)
        ]
        table = tune_thresholds(rows)
        per, default = oracle_threshold_table(rows)
        assert table.per_relation == per
        assert table.default == default


# --- desk-scale training results ------------------------------------------------

def test_logic_attention_beats_mean_aggregation_on_planted_rule():
    started = time.perf_counter()
    corpus = gen_synthetic(1000, 0.9, seed=0)
    bundle = build_split(corpus, SplitSpec("subject", 1.0, seed=0))
    ctx = BundleContext(bundle)
    dense = mine_confidence(ctx.train_graph).dense()

    def mean_test_mrr(kind):
        vals = []
        for seed in (0, 1, 2):
            tcfg = TrainConfig(learning_rate=0.01, margin=1.0, dim=32,
                               neighbor_budget=64, epochs=10, batch_size=256,
                               optimizer="adam", seed=seed)
            acfg = AggregatorConfig(kind=kind, neighbor_budget=64)
            store, _ = train(bundle, tcfg, acfg, scorer="transe")
            d = dense if acfg.needs_rules else None
            vals.append(link_prediction(ctx, store, acfg, "transe", d, seed=0).metrics.mrr)
        return float(np.mean(vals))

    baseline = mean_test_mrr("mean")
    assert mean_test_mrr("lan") >= baseline + 0.02
    assert mean_test_mrr("logic-only") >= baseline + 0.02
    assert time.perf_counter() - started <= 900.0


def test_mean_transe_memorizes_a_small_graph():
    chain = [(f"e{k:03d}", f"r{k % 2}", f"e{k + 1:03d}") for k in range(50)]
    acfg = AggregatorConfig(kind="mean", neighbor_budget=64)
    for seed in (0, 1, 2):
        bundle = DatasetBundle(train=chain, aux=[], valid=[], test=[],
                               unseen=[], spec=SplitSpec("subject", 1.0, seed))
        tcfg = TrainConfig(learning_rate=0.01, margin=1.0, dim=32,
                           neighbor_budget=64, epochs=500, batch_size=32,
                           optimizer="adam", seed=seed, negatives_per_positive=2)
        store, _ = train(bundle, tcfg, acfg, scorer="transe")
        ctx = BundleContext(bundle)
        res = link_prediction(ctx, store, acfg, "transe", None, seed=0,
                              triplets=ctx.to_ids(chain), rank_side="object")
        assert res.metrics.hits1 >= 0.9, f"seed {seed}: hits@1 {res.metrics.hits1}"


# --- preset configs and scope statement ------------------------------------------

def test_preset_configs_parse_with_reported_hyperparameters():
    path = REPO_ROOT / "configs" / "classification.cfg"
    resolved = resolve_config(config_path=str(path))
    assert resolved["learning_rate"] == 0.001
    assert resolved["dim"] == 100
    assert resolved["margin"] == 300.0
    assert resolved["neighbor_budget"] == 64
    assert resolved["l2_rate"] == 0.001
    train_config_from(resolved)
    aggregator_config_from(resolved)

    path = REPO_ROOT / "configs" / "link_prediction.cfg"
    resolved = resolve_config(config_path=str(path))
    assert resolved["learning_rate"] == 0.001
    assert resolved["dim"] == 100
    assert resolved["margin"] == 1.0
    assert resolved["neighbor_budget"] == 64
    train_config_from(resolved)
    aggregator_config_from(resolved)


def test_readme_scopes_out_published_benchmark_numbers():
    text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    assert re.search(r"not\s+acceptance\s+targets", text, flags=re.IGNORECASE)
    assert "FB15K" in text
