"""The three workloads and the measured run of one of them.

Every workload uses the ``lan`` aggregator with the ``transe`` scorer,
d=32, neighbor budget K=64, batch 256 and learning rate 0.01, and calls
the public functions the CLI commands call.  A run generates its inputs
from the seed, sets up several times (the median is ``setup_s``),
trains for a fixed number of epochs, then repeats eval-lp calls and
eval-tc rounds until each phase's share of ``--seconds`` is used up.
Training is fixed work because the train-1k quality gate needs a model
trained for a known number of epochs.

Each phase is timed in short units: a set-up, an epoch (from the
``log`` callback of ``train``), one ``link_prediction`` call, one
eval-tc round.  On a shared host other tenants slow identical work by
a third or more for seconds at a time, so each unit's wall time is
adjusted by probes of host speed timed around it (:class:`HostClock`),
and a phase reports the median adjusted unit.

A run can instead replay the unit counts of an earlier run (``plan``),
which is how the traced pass repeats exactly the work of the untraced
pass it is compared with.
"""

from __future__ import annotations

import functools
import math
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

import gates
import generators
from lankgc import context, evaluation, params, rules, splits, synth, training
from lankgc.encoder import AggregatorConfig

DIM = 32
BUDGET = 64
BATCH = 256
LEARNING_RATE = 0.01
AGGREGATOR = "lan"
SCORER = "transe"
RULE_STRENGTH = 0.9
SYNTHETIC_SEED = 0  # the roadmap's fixed synthetic bundles
SETUP_MIN_REPS = 7
SETUP_MAX_REPS = 40
SETUP_TARGET_S = 2.5
REFERENCE_S = 0.010  # typical probe time on the host the benchmark was built on; sets the scale only
MEMORY_PROBE_WORDS = 4_000_000  # 32 MB of float64 for the memory kernel


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    corpus: str  # "synthetic": gen_synthetic; "hub": generators.hub_corpus
    n_entities: int
    epochs: int
    train_subset: int = 0  # train on this many bundle facts; 0 means all of them
    eval_trained: bool = True  # False: eval-lp and eval-tc use the init_params weights
    lp_chunk: int = 0  # queries per link_prediction call; 0 means one relation's queries
    lp_share: float = 0.2  # shares of --seconds for the time-boxed eval phases
    tc_share: float = 0.2
    negatives: int = 1  # labeled negatives per positive in eval-tc
    tc_rows: tuple = (512, 1024)  # labeled valid and test rows per round, fixed across seeds
    mrr_floor: float = 0.0
    gate_queries: int = 0
    hub: dict = field(default_factory=dict)


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="train-1k",
            why="acceptance bundle; training dominates and no neighborhood is truncated",
            corpus="synthetic", n_entities=1000, epochs=10,
            # over 60 seeds lan scored 0.33-0.51 (mean 0.44, sd 0.037) and the
            # mean aggregator 0.16-0.26 over 15: the floor lies between the two
            lp_share=0.15, tc_share=0.15, negatives=16, mrr_floor=0.28,
        ),
        Workload(
            name="eval-20k",
            why="20k bundle, one query relation, untrained weights; ranking 18k candidates dominates",
            corpus="synthetic", n_entities=20000, epochs=10, train_subset=1024, eval_trained=False,
            lp_chunk=128, lp_share=0.6, tc_share=0.2, tc_rows=(1024, 2048), gate_queries=8,
        ),
        Workload(
            name="hub-3k",
            why="Zipf hubs overflow K=64 and queries span 30 relations; truncated sampling, padded batches",
            corpus="hub", n_entities=3000, epochs=4,
            lp_share=0.3, tc_share=0.15, negatives=8, tc_rows=(128, 256), gate_queries=8,
            hub=dict(n_relations=30, n_facts=2500, test_per_relation=6),
        ),
    )
}


@dataclass
class Result:
    metrics: dict = field(default_factory=dict)  # end-to-end name -> value
    details: dict = field(default_factory=dict)
    gates: dict = field(default_factory=dict)  # gate name -> (passed, detail)
    errors: list = field(default_factory=list)
    plan: dict = field(default_factory=dict)
    probes: list = field(default_factory=list)  # every probe time of the run
    attempted: int = 0
    failed: int = 0

    @property
    def correct(self):
        return self.failed == 0 and all(ok for ok, _ in self.gates.values())

    def gate(self, name, ok, detail=""):
        self.gates[name] = (bool(ok), detail)

    def fail(self, phase, count, exc):
        self.failed += count
        self.errors.append(f"{phase}: {type(exc).__name__}: {exc}")


def reference_kernel():
    """Fixed interpreter and small-array numpy work, no BLAS: a probe of host speed."""
    x = np.arange(4096, dtype=np.float64) / 4096.0
    acc = {}
    for i in range(200):
        y = np.tanh(x * (1.0 + i / 200.0))
        idx = np.argsort(y[::5])[:32]
        acc[i % 7] = acc.get(i % 7, 0.0) + float(y[idx].sum())
        for j in range(100):
            acc[(i, j)] = i * j
    return acc


@functools.cache
def _memory_probe_data():
    rng = np.random.default_rng(0)
    data = rng.random(MEMORY_PROBE_WORDS)
    return data, rng.integers(0, data.size, size=MEMORY_PROBE_WORDS // 8)


def memory_kernel():
    """A random gather and a strided pass over 32 MB: a probe of shared-cache speed."""
    data, index = _memory_probe_data()
    return float(data[index].sum()) + float(data[::3].sum())


class HostClock:
    """Times units of work between probes of host speed.

    A probe times the best of two runs of :func:`reference_kernel` and
    of :func:`memory_kernel` and keeps their geometric mean.  A unit's
    adjusted seconds are its wall seconds times ``REFERENCE_S / k``,
    where ``k`` is the mean of the probes just before and after it: the
    time the unit would have taken on a host whose probe reads
    ``REFERENCE_S``.
    """

    def __init__(self, probes):
        self.units = []  # (items, wall seconds, adjusted seconds)
        self.probes = probes
        self._last = self.probe()

    def probe(self):
        product = 1.0
        for kernel in (reference_kernel, memory_kernel):
            best = math.inf
            for _ in range(2):
                t0 = time.perf_counter()
                kernel()
                best = min(best, time.perf_counter() - t0)
            product *= best
        k = math.sqrt(product)
        self.probes.append(k)
        return k

    def record(self, items, seconds):
        k = self.probe()
        self.units.append((items, seconds, seconds * REFERENCE_S / ((self._last + k) / 2.0)))
        self._last = k

    def throughput(self):
        """Mean items per unit over the median adjusted seconds per unit."""
        if not self.units:
            return 0.0
        return statistics.mean(u[0] for u in self.units) / statistics.median(u[2] for u in self.units)


def make_corpus(w, seed):
    if w.corpus == "hub":
        return generators.hub_corpus(seed, n_entities=w.n_entities, **w.hub)
    return synth.gen_synthetic(w.n_entities, RULE_STRENGTH, SYNTHETIC_SEED)


def set_up(corpus, seed):
    """The program's set-up calls: split, context, rule mining, parameter init."""
    bundle = splits.build_split(corpus, splits.SplitSpec("subject", 1.0, seed))
    ctx = context.BundleContext(bundle)
    table = rules.mine_confidence(ctx.train_graph)
    dense = table.dense()
    store = params.init_params(ctx.vocab.n_entities, ctx.train_graph.n_relations, DIM, seed)
    return bundle, ctx, table, dense, store


def _boxed(box_s, units, step):
    """Call ``step(i)`` ``units`` times, or until the next call would overrun ``box_s``."""
    spent, i = 0.0, 0
    while True:
        t0 = time.perf_counter()
        step(i)
        last = time.perf_counter() - t0
        spent += last
        i += 1
        if units is not None:
            if i >= units:
                return i
        elif spent + last > box_s:
            return i


def run(w, seed, seconds, plan=None):
    """Run workload ``w`` once; ``plan`` replays the unit counts of an earlier run."""
    res = Result()
    started = time.perf_counter()
    acfg = AggregatorConfig(kind=AGGREGATOR, neighbor_budget=BUDGET)

    t0 = time.perf_counter()
    corpus = make_corpus(w, seed)
    res.details["inputs_s"] = time.perf_counter() - t0

    clock = HostClock(res.probes)
    reps = plan["setup_reps"] if plan else None
    while True:
        state = None  # drop the previous set-up before building the next
        t0 = time.perf_counter()
        state = set_up(corpus, seed)
        clock.record(1, time.perf_counter() - t0)
        done = len(clock.units)
        if reps is not None:
            if done >= reps:
                break
        elif done >= SETUP_MAX_REPS or (
                done >= SETUP_MIN_REPS and sum(u[1] for u in clock.units) >= SETUP_TARGET_S):
            break
    bundle, ctx, table, dense, store = state
    res.plan["setup_reps"] = len(clock.units)
    res.metrics["setup_s"] = statistics.median(u[2] for u in clock.units)
    facts = gates.Facts(bundle, ctx.vocab)
    res.details.update(
        setup_units=clock.units, train_facts=len(bundle.train), test_queries=len(bundle.test),
        candidates=int(facts.candidates.size), relations=ctx.vocab.n_relations,
        truncated_candidates=int(sum(facts.degree(int(c)) > BUDGET for c in facts.candidates)),
    )

    trained = _train_phase(w, seed, bundle, table, acfg, res)
    if w.eval_trained and trained is not None:
        store = trained
    ranked = _lp_phase(w, seed, seconds, plan, bundle, ctx, dense, store, acfg, facts, res)
    _tc_phase(w, seed, seconds, plan, ctx, dense, store, acfg, facts, res)
    res.metrics["wall_s"] = time.perf_counter() - started
    res.details["wall_adjusted_s"] = res.metrics["wall_s"] * REFERENCE_S / statistics.median(res.probes)

    if w.gate_queries:
        checked, bad = gates.check_ranks(facts, store.arrays, dense, BUDGET, ranked, w.gate_queries)
        res.gate("rank_oracle", checked > 0 and not bad, f"{checked} checked, mismatches {bad[:3]}")
    if w.corpus == "hub":
        n = res.details["truncated_candidates"]
        res.gate("hub_truncation", n > 0, f"{n} candidates over the budget")
    return res


def _train_phase(w, seed, bundle, table, acfg, res):
    """Fixed-work training timed per epoch; returns the trained weights or None."""
    train_bundle = bundle
    if w.train_subset:
        rng = np.random.default_rng([seed, 5])
        pick = np.sort(rng.choice(len(bundle.train), size=min(w.train_subset, len(bundle.train)), replace=False))
        train_bundle = splits.DatasetBundle(
            train=[bundle.train[i] for i in pick.tolist()], aux=bundle.aux, valid=bundle.valid,
            test=bundle.test, unseen=bundle.unseen, spec=bundle.spec,
        )
    positives = 2 * len(train_bundle.train)  # train() fits the inverse-augmented facts
    batches = math.ceil(positives / BATCH) * w.epochs
    res.attempted += batches
    tcfg = training.TrainConfig(
        learning_rate=LEARNING_RATE, dim=DIM, neighbor_budget=BUDGET, epochs=w.epochs,
        batch_size=BATCH, seed=seed,
    )
    clock = HostClock(res.probes)
    epoch_start = [0.0]

    def log(message):
        # the probe runs between epochs, outside their timing
        if message.startswith("epoch ") and "loss" in message:
            clock.record(positives, time.perf_counter() - epoch_start[0])
            epoch_start[0] = time.perf_counter()

    t0 = epoch_start[0] = time.perf_counter()
    try:
        trained, report = training.train(train_bundle, tcfg, acfg, scorer=SCORER, rules_table=table, log=log)
    except Exception as exc:
        res.fail("train", batches, exc)
        res.metrics["train_facts_per_s"] = 0.0
        return None
    res.metrics["train_facts_per_s"] = clock.throughput()
    res.details.update(train_s=time.perf_counter() - t0, train_units=clock.units, epoch_losses=report.epoch_losses)
    finite = len(report.epoch_losses) == w.epochs and all(math.isfinite(x) for x in report.epoch_losses)
    res.gate("losses_finite", finite, f"{report.epoch_losses}")
    return trained


def _lp_chunks(w, seed, queries):
    """Query chunks, one link_prediction call each, in a seeded order."""
    rng = np.random.default_rng([seed, 7])
    queries = queries[rng.permutation(len(queries))]
    if w.lp_chunk:
        return [queries[lo:lo + w.lp_chunk] for lo in range(0, len(queries), w.lp_chunk)]
    rels = np.unique(queries[:, 1])
    return [queries[queries[:, 1] == r] for r in rels[rng.permutation(rels.size)]]


def _lp_phase(w, seed, seconds, plan, bundle, ctx, dense, store, acfg, facts, res):
    """Time-boxed link_prediction calls over chunks of the test queries."""
    chunks = _lp_chunks(w, seed, ctx.to_ids(bundle.test))
    n_cand = int(facts.candidates.size)
    ranked, first_pass = {}, []
    clock = HostClock(res.probes)

    def step(i):
        rows = chunks[i % len(chunks)]
        res.attempted += len(rows)
        t0 = time.perf_counter()
        try:
            out = evaluation.link_prediction(ctx, store, acfg, SCORER, dense, seed=seed, triplets=rows)
        except Exception as exc:
            res.fail("eval-lp", len(rows), exc)
            return
        clock.record(len(rows), time.perf_counter() - t0)
        ranks = [int(r) for r in out.ranks]
        if len(ranks) != len(rows):
            res.fail("eval-lp", len(rows), ValueError(f"{len(ranks)} ranks for {len(rows)} queries"))
            return
        res.failed += gates.out_of_range(ranks, n_cand)
        for row, rank in zip(map(tuple, rows.tolist()), ranks):
            if ranked.setdefault(row, rank) != rank:
                res.fail("eval-lp", 1, ValueError(f"rank of {row} changed from {ranked[row]} to {rank}"))
        if i < len(chunks):
            first_pass.extend(ranks)

    count = _boxed(w.lp_share * seconds, plan["lp_units"] if plan else None, step)
    res.plan["lp_units"] = count
    res.metrics["lp_queries_per_s"] = clock.throughput()
    res.details.update(lp_units=clock.units)
    if w.mrr_floor:
        mrr = float(np.mean(1.0 / np.array(first_pass))) if first_pass else 0.0
        res.details["mrr"] = mrr
        res.gate("mrr_floor", len(first_pass) == len(bundle.test) and mrr >= w.mrr_floor,
                 f"MRR {mrr:.4f} over {len(first_pass)} queries, floor {w.mrr_floor}")
    return ranked


def _tc_phase(w, seed, seconds, plan, ctx, dense, store, acfg, facts, res):
    """Time-boxed eval-tc rounds: score both labeled sets, tune, classify."""
    labeled = []
    for stream, part, n in ((1, facts.valid, w.tc_rows[0]), (2, facts.test, w.tc_rows[1])):
        rows, labels = generators.labeled_rows(
            np.array(part).reshape(-1, 3), facts.known, facts.candidates, seed, stream, w.negatives)
        if len(rows) < n:
            raise ValueError(f"{w.name}: {len(rows)} labeled rows, want {n}; raise the negatives")
        labeled.append((rows[:n], labels[:n]))
    (v_rows, v_lab), (t_rows, t_lab) = labeled
    n_rows = len(v_rows) + len(t_rows)
    outcomes = []
    clock = HostClock(res.probes)

    def step(i):
        res.attempted += n_rows
        t0 = time.perf_counter()
        try:
            v_scores = evaluation.score_labeled(ctx, store, acfg, SCORER, dense, v_rows, seed=seed)
            t_scores = evaluation.score_labeled(ctx, store, acfg, SCORER, dense, t_rows, seed=seed)
            valid_rows = list(zip(v_rows[:, 1].tolist(), v_scores.tolist(), v_lab.tolist()))
            test_rows = list(zip(t_rows[:, 1].tolist(), t_scores.tolist(), t_lab.tolist()))
            table = evaluation.tune_thresholds(valid_rows)
            acc = evaluation.classify(test_rows, table)
        except Exception as exc:
            res.fail("eval-tc", n_rows, exc)
            return
        clock.record(n_rows, time.perf_counter() - t0)
        res.failed += int((~np.isfinite(v_scores)).sum() + (~np.isfinite(t_scores)).sum())
        if not outcomes:
            outcomes.append((valid_rows, test_rows, table, acc))
        elif acc != outcomes[0][3]:
            res.fail("eval-tc", 1, ValueError(f"accuracy changed from {outcomes[0][3]} to {acc}"))

    count = _boxed(w.tc_share * seconds, plan["tc_rounds"] if plan else None, step)
    res.plan["tc_rounds"] = count
    res.metrics["tc_triplets_per_s"] = clock.throughput()
    res.details.update(tc_units=clock.units)
    if outcomes:
        valid_rows, test_rows, table, acc = outcomes[0]
        again = gates.accuracy(test_rows, table.per_relation, table.default)
        res.details["tc_accuracy"] = acc
        res.gate("tc_accuracy", again == acc, f"classify {acc!r}, recomputed {again!r}")
        bad = gates.check_thresholds(valid_rows, table)
        res.gate("tc_thresholds", not bad, f"non-optimal thresholds for relations {bad}")
    else:
        res.gate("tc_accuracy", False, "no eval-tc round completed")
