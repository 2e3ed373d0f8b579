"""Tiny-scale tests of the benchmark's own code.

    PYTHONPATH=src python3 -m pytest benchmark/tests -q
"""

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import gates  # noqa: E402
import generators  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from lankgc import encoder, evaluation, kg  # noqa: E402
from lankgc.encoder import AggregatorConfig  # noqa: E402

HUB = dict(n_entities=300, n_relations=6, n_facts=900, test_per_relation=3)
TINY_TC = dict(negatives=8, tc_rows=(16, 32))
TINY = {
    "train-1k": dict(n_entities=120, epochs=2, mrr_floor=0.0, **TINY_TC),
    "eval-20k": dict(n_entities=300, epochs=2, train_subset=64, lp_chunk=16, **TINY_TC),
    "hub-3k": dict(n_entities=HUB["n_entities"], epochs=2, **TINY_TC,
                   hub={k: v for k, v in HUB.items() if k != "n_entities"}),
}


@pytest.fixture
def tiny_workloads(monkeypatch, tmp_path):
    tiny = {name: dataclasses.replace(w, **TINY[name]) for name, w in workloads.WORKLOADS.items()}
    monkeypatch.setattr(workloads, "WORKLOADS", tiny)
    monkeypatch.setattr(run, "HERE", tmp_path)
    return tiny


def _hub_setup(seed=0):
    corpus = generators.hub_corpus(seed, **HUB)
    bundle, ctx, table, dense, store = workloads.set_up(corpus, seed)
    return bundle, ctx, dense, store, gates.Facts(bundle, ctx.vocab)


def test_hub_corpus_is_deterministic_per_seed_and_skewed():
    a, b, c = (generators.hub_corpus(s, **HUB) for s in (4, 4, 5))
    assert (a.train, a.valid, a.test) == (b.train, b.valid, b.test)
    assert a.train != c.train
    assert len({r for _, r, _ in a.test}) == HUB["n_relations"]
    indegree = {}
    for _, _, o in a.train:
        indegree[o] = indegree.get(o, 0) + 1
    assert max(indegree.values()) > 64


def test_labeled_rows_are_deterministic_and_negatives_are_not_facts():
    bundle, ctx, dense, store, facts = _hub_setup()
    pos = np.array(facts.test)
    rows, labels = generators.labeled_rows(pos, facts.known, facts.candidates, 3, 1, negatives=2)
    again, _ = generators.labeled_rows(pos, facts.known, facts.candidates, 3, 1, negatives=2)
    other, _ = generators.labeled_rows(pos, facts.known, facts.candidates, 4, 1, negatives=2)
    assert np.array_equal(rows, again) and not np.array_equal(rows, other)
    assert rows.shape == (3 * len(pos), 3) and labels.tolist() == [1, 0, 0] * len(pos)
    assert all(tuple(r) not in facts.known for r in rows[labels == 0].tolist())


def test_filtered_rank_uses_the_ceil_tie_rule():
    scores = np.array([3.0, 5.0, 3.0, 3.0, 1.0, 9.0])
    keep = np.array([True, True, True, True, True, False])
    # one better, two ties besides the truth -> 1 + 1 + ceil(2 / 2)
    assert gates.filtered_rank(scores, 0, keep) == (3, 3)
    assert gates.filtered_rank(scores, 0, keep, unknown=2) == (3, 5)


def test_rank_gates_fire_on_a_corrupted_rank():
    bundle, ctx, dense, store, facts = _hub_setup()
    acfg = AggregatorConfig(kind="lan", neighbor_budget=workloads.BUDGET)
    queries = ctx.to_ids(bundle.test)
    ranks = evaluation.link_prediction(ctx, store, acfg, "transe", dense, seed=0, triplets=queries).ranks
    ranked = dict(zip(map(tuple, queries.tolist()), ranks))
    checked, bad = gates.check_ranks(facts, store.arrays, dense, workloads.BUDGET, ranked, 6)
    assert checked == 6 and bad == []
    first = next(q for q in ranked if facts.degree(q[0]) <= 64 and facts.degree(q[2]) <= 64)
    ranked[first] += facts.candidates.size
    _, bad = gates.check_ranks(facts, store.arrays, dense, workloads.BUDGET, ranked, 6)
    assert [q for q, _, _ in bad] == [first]
    n = facts.candidates.size
    assert gates.out_of_range([1, n], n) == 0
    assert gates.out_of_range([0, 1, n + 1], n) == 2


def test_threshold_gates_fire_on_a_wrong_table():
    rows = [(0, 0.1, 0), (0, 0.2, 0), (0, 0.8, 1), (0, 0.9, 1), (1, 0.5, 1), (1, 0.4, 0)]
    table = evaluation.tune_thresholds(rows)
    assert gates.check_thresholds(rows, table) == []
    assert gates.accuracy(rows, table.per_relation, table.default) == evaluation.classify(rows, table)
    table.per_relation[0] = 0.95
    assert gates.check_thresholds(rows, table) == [0]


def test_tracer_restores_the_program_and_nests_spans():
    original = kg.sample_neighbors
    bundle, ctx, dense, store, facts = _hub_setup()
    acfg = AggregatorConfig(kind="lan", neighbor_budget=workloads.BUDGET)
    with tracer.Tracer() as tr:
        assert encoder.sample_neighbors is not original
        evaluation.link_prediction(ctx, store, acfg, "transe", dense, seed=0, triplets=ctx.to_ids(bundle.test)[:4])
    assert encoder.sample_neighbors is original and kg.sample_neighbors is original
    assert tr.missing == [] and tr.hook_errors == []
    table = tr.table()
    calls, total, own = table["evaluation.rank_query"]
    assert calls == 4 and 0.0 < own < total
    lp = [s for s in tr.spans if s[1] == "evaluation.link_prediction"]
    assert len(lp) == 1
    assert all(s[6] == lp[0][0] for s in tr.spans if s[1] == "evaluation.rank_query")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_metric_is_emitted_and_every_gate_passes(tiny_workloads, name):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        line, details = run.measure(name, 0, 1.0, trace)
        want = {m["name"]: m["unit"] for m in spec[key]}
        assert {k: v["unit"] for k, v in line["metrics"].items()} == want
        assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0, details
        assert all(np.isfinite(v["value"]) for v in line["metrics"].values())
