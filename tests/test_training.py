import gc
import tracemalloc
import warnings
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from helpers import (
    graph_nodes,
    kept_arrays,
    make_graph,
    one_pass_objective,
    output_scores,
    random_bundles,
    random_name_triples,
)
from lankgc import autodiff as ad
from lankgc import evaluation, training
from lankgc.context import BundleContext
from lankgc.decoder import SCORER_KINDS
from lankgc.encoder import AGGREGATOR_KINDS, AggregatorConfig, distinct_rows
from lankgc.evaluation import KnownTriplets
from lankgc.params import ParamStore, collect_gradients, init_params, read_checkpoint, write_checkpoint
from lankgc.rules import import_table, mine_confidence
from lankgc.splits import DatasetBundle, SplitSpec
from lankgc.training import (
    Adam,
    Sgd,
    TrainConfig,
    TrainError,
    batch_objective,
    corrupt,
    hinge,
    make_optimizer,
    train,
)
from lankgc.util import read_kv, write_kv


def tiny_bundle(seed=0, n_entities=14, n_triples=40):
    rng = np.random.default_rng(seed)
    triples = random_name_triples(rng, n_entities, 2, n_triples)
    return DatasetBundle(
        train=triples, aux=[], valid=[], test=[],
        unseen=[], spec=SplitSpec("subject", 1.0, seed),
    )


def quick_cfg(**kw):
    base = dict(
        learning_rate=0.05, margin=1.0, dim=6, neighbor_budget=8,
        epochs=2, batch_size=16, optimizer="sgd", seed=0, eval_every=0,
    )
    base.update(kw)
    return TrainConfig(**base)


# --- negative sampling ---------------------------------------------------------

def fact_index(facts, n_entities, n_relations=4):
    """The :class:`KnownTriplets` index that ``corrupt`` tests candidates against."""
    return KnownTriplets(np.array(facts, dtype=np.int64).reshape(-1, 3), n_entities, n_relations)


def test_corrupt_side_ratio_is_balanced():
    rng = np.random.default_rng(0)
    neg, _ = corrupt(np.tile([3, 1, 7], (10_000, 1)), fact_index([], 100), 100, rng)
    flips = int((neg[:, 0] != 3).sum())
    assert 0.47 <= flips / 10_000 <= 0.53


def test_corrupt_avoids_known_facts():
    known = fact_index([(0, 0, 1), (0, 0, 2), (2, 0, 1)], 4)
    rng = np.random.default_rng(1)
    neg, _ = corrupt(np.tile([0, 0, 1], (500, 1)), known, 4, rng)
    for cand in map(tuple, neg.tolist()):
        assert cand not in known


def test_corrupt_keeps_query_and_other_endpoint():
    rng = np.random.default_rng(2)
    neg, _ = corrupt(np.tile([5, 3, 9], (200, 1)), fact_index([], 50), 50, rng)
    for s, q, o in neg.tolist():
        assert q == 3
        assert (s, o).count(5) + (s, o).count(9) >= 1
        assert s == 5 or o == 9


def test_corrupt_two_entity_graph_forced_choice():
    known = fact_index([(0, 0, 1)], 2)
    rng = np.random.default_rng(3)
    neg, _ = corrupt(np.tile([0, 0, 1], (200, 1)), known, 2, rng)
    got = set(map(tuple, neg.tolist()))
    assert got == {(1, 0, 1), (0, 0, 0)}


def test_corrupt_counts_rows_left_known_after_every_redraw():
    known = fact_index([(s, 0, o) for s in range(2) for o in range(2)], 2)
    pos = np.tile([0, 0, 1], (7, 1))
    neg, fallbacks = corrupt(pos, known, 2, np.random.default_rng(4))
    assert fallbacks == 7
    assert known.contains(neg).all() and (neg[:, 1] == 0).all()


def test_train_counts_and_warns_on_negative_fallbacks():
    # every (s, r, o) over two entities is a fact, so no corruption can escape
    triples = [(f"e{s}", "r", f"e{o}") for s in range(2) for o in range(2)]
    bundle = DatasetBundle(train=triples, aux=[], valid=[], test=[], unseen=[],
                           spec=SplitSpec("subject", 1.0, 0))
    with pytest.warns(RuntimeWarning, match="known facts after 100 redraws") as caught:
        _, report = train(bundle, quick_cfg(epochs=2, dim=4), AggregatorConfig(kind="mean"))
    assert [str(w.message).split(":")[0] for w in caught] == ["epoch 1", "epoch 2"]
    positives = BundleContext(bundle).train_graph.triplets.shape[0]
    assert report.neg_fallbacks == 2 * positives


def test_train_on_an_ordinary_bundle_has_no_fallbacks():
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        _, report = train(tiny_bundle(), quick_cfg(), AggregatorConfig(kind="mean"))
    assert report.neg_fallbacks == 0


# --- loss pieces ----------------------------------------------------------------

def test_hinge_frozen_values():
    easy = hinge(1.0, ad.Value(np.array([-1.0])), ad.Value(np.array([-5.0])))
    assert easy.data[0] == 0.0
    hard = hinge(1.0, ad.Value(np.array([0.0])), ad.Value(np.array([0.5])))
    assert hard.data[0] == 1.5


def objective_on(bundle, tcfg, acfg, scorer="transe"):
    ctx = BundleContext(bundle)
    store = init_params(ctx.vocab.n_entities, ctx.train_graph.n_relations,
                        tcfg.dim, tcfg.seed, with_lstm=acfg.uses_lstm)
    rng = np.random.default_rng(0)
    pos = ctx.train_graph.triplets[:8]
    known = fact_index(ctx.train_graph.triplets, ctx.vocab.n_entities, ctx.train_graph.n_relations)
    neg, _ = corrupt(pos, known, ctx.vocab.n_entities, rng)
    leaves = store.leaves(True)
    loss, parts = batch_objective(
        leaves, pos, neg, ctx.neighbor_graph, None, tcfg, acfg, scorer, (0,)
    )
    return store, float(loss.data), parts


def test_objective_parts_split_cleanly():
    bundle = tiny_bundle()
    acfg = AggregatorConfig(kind="mean", neighbor_budget=8)

    _, loss_off, parts_off = objective_on(bundle, quick_cfg(subtask_enabled=False), acfg)
    assert parts_off["subtask"] == 0.0
    assert loss_off == parts_off["main"]

    _, loss_on, parts_on = objective_on(bundle, quick_cfg(subtask_enabled=True), acfg)
    assert parts_on["main"] == parts_off["main"]
    assert loss_on == pytest.approx(parts_on["main"] + parts_on["subtask"], rel=1e-12)
    assert parts_on["subtask"] > 0.0


def test_objective_l2_term_is_exact():
    bundle = tiny_bundle()
    acfg = AggregatorConfig(kind="mean", neighbor_budget=8)
    store, base, _ = objective_on(bundle, quick_cfg(l2_rate=0.0), acfg)
    _, penalized, _ = objective_on(bundle, quick_cfg(l2_rate=0.5), acfg)
    norms = sum(
        float(np.sum(store[name] ** 2))
        for name in ("attn_proj", "attn_score_vec", "query_vec")
    )
    assert penalized - base == pytest.approx(0.5 * norms, rel=1e-12)


def test_batch_objective_matches_per_pair_losses():
    bundle = tiny_bundle()
    tcfg = quick_cfg(subtask_enabled=True, neighbor_budget=64)
    acfg = AggregatorConfig(kind="mean", neighbor_budget=64)
    ctx = BundleContext(bundle)
    store = init_params(ctx.vocab.n_entities, ctx.train_graph.n_relations, tcfg.dim, 0)
    pos = ctx.train_graph.triplets[:4]
    neg = ctx.train_graph.triplets[4:8]

    leaves = store.leaves(True)
    loss, _ = batch_objective(leaves, pos, neg, ctx.neighbor_graph, None, tcfg, acfg, "transe", (0,))

    single = 0.0
    for p, n in zip(pos, neg):
        l2 = store.leaves(True)
        pair, _ = batch_objective(l2, [p], [n], ctx.neighbor_graph, None, tcfg, acfg, "transe", (0,))
        single += pair.item()
    assert float(loss.data) == pytest.approx(single / 4, rel=1e-12)


@pytest.mark.parametrize("kind", AGGREGATOR_KINDS)
def test_batch_objective_gradients_with_repeated_rows_match_encoding_every_row(kind, monkeypatch):
    ctx = BundleContext(tiny_bundle(seed=3))
    tcfg = quick_cfg(subtask_enabled=True, l2_rate=0.01, neighbor_budget=6)
    acfg = AggregatorConfig(kind=kind, neighbor_budget=tcfg.neighbor_budget)
    graph = ctx.neighbor_graph
    assert np.diff(graph.offsets).max() > acfg.neighbor_budget  # truncated rows ride along
    dense = mine_confidence(ctx.train_graph).dense()
    store = init_params(ctx.vocab.n_entities, ctx.train_graph.n_relations, tcfg.dim, 3,
                        with_lstm=acfg.uses_lstm)
    pos = np.concatenate([ctx.train_graph.triplets[:10]] * 2)
    known = fact_index(ctx.train_graph.triplets, ctx.vocab.n_entities, ctx.train_graph.n_relations)
    neg, _ = corrupt(pos, known, ctx.vocab.n_entities, np.random.default_rng(1))

    def gradients():
        leaves = store.leaves(True)
        loss, _ = batch_objective(leaves, pos, neg, graph, dense, tcfg, acfg, "transe", (2,))
        ad.backward(loss)
        return loss.item(), collect_gradients(leaves)

    merged_loss, merged = gradients()
    monkeypatch.setattr(evaluation, "distinct_rows", lambda ids, q: (np.arange(ids.size),) * 2)
    every_loss, every = gradients()
    assert merged_loss == pytest.approx(every_loss, rel=0, abs=1e-12)
    assert merged.keys() == every.keys()
    for name in every:
        np.testing.assert_allclose(merged[name], every[name], rtol=0, atol=1e-12, err_msg=name)


def scored_batch(kind, scorer):
    """A tiny-bundle batch at K=3, each positive twice, with its negatives and their gaps ``phi(pos) - phi(neg)``.

    The gaps are scored over constant weights under the key ``(2,)``; at
    margin ``m`` a pair's hinge is positive where its gap is below ``m``.
    Returns ``(graph, dense, store, acfg, pos, neg, gap)``.
    """
    ctx = BundleContext(tiny_bundle(seed=3))
    acfg = AggregatorConfig(kind=kind, neighbor_budget=3)
    dense = mine_confidence(ctx.train_graph).dense()
    store = init_params(ctx.vocab.n_entities, ctx.train_graph.n_relations, 6, 3, with_lstm=acfg.uses_lstm)
    pos = np.concatenate([ctx.train_graph.triplets[:10]] * 2)
    known = fact_index(ctx.train_graph.triplets, ctx.vocab.n_entities, ctx.train_graph.n_relations)
    neg, _ = corrupt(pos, known, ctx.vocab.n_entities, np.random.default_rng(1))
    phi = output_scores(store.leaves(False), np.concatenate([pos, neg]), ctx.neighbor_graph, dense, acfg, scorer,
                        (2,)).data
    return ctx.neighbor_graph, dense, store, acfg, pos, neg, phi[:pos.shape[0]] - phi[pos.shape[0]:]


def objective_gradients(objective, store, pos, neg, graph, dense, tcfg, acfg, scorer):
    """``objective``'s loss value, parts and gradients on one batch under the key ``(2,)``."""
    leaves = store.leaves(True)
    loss, parts = objective(leaves, pos, neg, graph, dense, tcfg, acfg, scorer, (2,))
    value = loss.item()
    ad.backward(loss)
    return value, parts, collect_gradients(leaves)


@pytest.mark.parametrize("scorer", SCORER_KINDS)
@pytest.mark.parametrize("kind", AGGREGATOR_KINDS)
def test_two_pass_gradients_equal_a_graph_over_every_pair(kind, scorer):
    graph, dense, store, acfg, pos, neg, gap = scored_batch(kind, scorer)
    b = pos.shape[0]
    above = np.sort(gap[gap > 0.0])
    margin = (above[0] + above[1]) / 2  # positive, and no gap on it: the pairs whose gap is below it are active
    active = gap < margin
    assert 0 < active.sum() < b
    ent_ids, queries = np.concatenate([pos[:, 0], neg[:, 0], pos[:, 2], neg[:, 2]]), np.tile(pos[:, 1], 4)
    keep, where = distinct_rows(ent_ids, queries)
    pair = np.arange(ent_ids.size) % b  # endpoint i belongs to pair i mod b
    assert keep.size < ent_ids.size  # repeated rows
    assert (np.diff(graph.offsets)[ent_ids] > acfg.neighbor_budget).any()  # truncated rows
    assert (active[pair] & ~active[pair[keep[where]]]).any()  # an active pair's row first met in an inactive one
    tcfg = quick_cfg(margin=margin, subtask_enabled=True, l2_rate=0.01, neighbor_budget=acfg.neighbor_budget)

    two = objective_gradients(batch_objective, store, pos, neg, graph, dense, tcfg, acfg, scorer)
    one = objective_gradients(one_pass_objective, store, pos, neg, graph, dense, tcfg, acfg, scorer)
    assert two[:2] == one[:2] and two[1]["active"] == active.sum()  # pass 1 is the one pass's forward
    assert two[2].keys() == one[2].keys()
    for name in one[2]:
        if kind in ("mean", "logic-only"):  # per-row arithmetic: the same sums of the same terms
            np.testing.assert_array_equal(two[2][name], one[2][name], err_msg=name)
        else:  # BLAS products round with their row count
            np.testing.assert_allclose(two[2][name], one[2][name], rtol=0, atol=1e-12, err_msg=name)


@pytest.mark.parametrize("scorer", SCORER_KINDS)
@pytest.mark.parametrize("kind", AGGREGATOR_KINDS)
def test_a_first_pass_over_several_blocks_equals_a_graph_over_every_pair(kind, scorer, monkeypatch):
    graph, dense, store, acfg, pos, neg, gap = scored_batch(kind, scorer)
    above = np.sort(gap[gap > 0.0])
    tcfg = quick_cfg(margin=(above[0] + above[1]) / 2, subtask_enabled=True, l2_rate=0.01,
                     neighbor_budget=acfg.neighbor_budget)
    monkeypatch.setattr(evaluation, "_BLOCK_SLOTS", 8)
    blocks = []  # the slots of each constant block
    encode = evaluation.encode_batch
    monkeypatch.setattr(evaluation, "encode_batch", lambda *a, **kw: blocks.append(int(a[1][-1])) or encode(*a, **kw))
    two = objective_gradients(batch_objective, store, pos, neg, graph, dense, tcfg, acfg, scorer)
    assert len(blocks) > 3 and max(blocks) <= 8
    one = objective_gradients(one_pass_objective, store, pos, neg, graph, dense, tcfg, acfg, scorer)
    assert two[1]["active"] == one[1]["active"] and 0 < one[1]["active"] < pos.shape[0]
    assert two[2].keys() == one[2].keys()
    if kind in ("mean", "logic-only"):  # per-row arithmetic: a row's encoding is its block's and the batch's
        assert two[:2] == one[:2]
        for name in one[2]:
            np.testing.assert_array_equal(two[2][name], one[2][name], err_msg=name)
    else:  # BLAS products round with their row count, here each block's
        assert two[0] == pytest.approx(one[0], rel=0, abs=1e-12)
        for part in ("main", "subtask"):
            assert two[1][part] == pytest.approx(one[1][part], rel=0, abs=1e-12)
        for name in one[2]:
            np.testing.assert_allclose(two[2][name], one[2][name], rtol=0, atol=1e-12, err_msg=name)


@pytest.mark.parametrize("kind", AGGREGATOR_KINDS)
def test_a_first_pass_holds_one_block_of_slots_at_a_time(kind, monkeypatch):
    # 32 neighbors per entity, within the budget: the batch's distinct endpoints span over 10 blocks
    n, deg, dim, r, b = 4000, 32, 32, 6, 512
    rng = np.random.default_rng(6)
    graph = SimpleNamespace(offsets=np.arange(n + 1) * deg,
                            pairs=np.stack([rng.integers(0, r, n * deg), rng.integers(0, n, n * deg)], axis=1))
    store, dense = init_params(n, r, dim, 6, with_lstm=True), rng.random((r, r))
    pos, neg = (np.stack([rng.integers(0, n, b), rng.integers(0, r, b), rng.integers(0, n, b)], axis=1)
                for _ in range(2))
    tcfg = TrainConfig(dim=dim, neighbor_budget=64, subtask_enabled=False)
    acfg = AggregatorConfig(kind=kind, neighbor_budget=64)
    traced = []  # (endpoint rows, peak bytes over those traced before) of each first pass
    score = training.score_triplets

    def measured(*args):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = score(*args)
            traced.append((out[1][0].size, tracemalloc.get_traced_memory()[1] - before))
        finally:
            tracemalloc.stop()
        return out

    monkeypatch.setattr(training, "score_triplets", measured)
    batch_objective(store.leaves(True), pos[:1], neg[:1], graph, dense, tcfg, acfg, "transe", (3,))  # numpy's setup
    batch_objective(store.leaves(True), pos, neg, graph, dense, tcfg, acfg, "transe", (3,))
    rows, peak = traced[-1]
    slots = rows * deg
    assert slots > 10 * evaluation._BLOCK_SLOTS
    # the (E, d) encodings and the scorer's (2b, d) operands, the sampler's (S,) slot and scratch arrays, and one
    # block's per-slot (S, d) arrays: one (S, d) array over the batch's slots is past it
    bound = rows * dim * 8 + 3 * 2 * b * dim * 8 + 8 * slots * 8 + 6 * evaluation._BLOCK_SLOTS * dim * 8
    assert slots * dim * 8 > bound and peak <= bound


def easy_batch(kind, scorer="transe"):
    """:func:`scored_batch` with each pair whose gap is negative swapped, so every gap is positive."""
    graph, dense, store, acfg, pos, neg, gap = scored_batch(kind, scorer)
    flip = gap < 0.0
    pos, neg = np.where(flip[:, None], neg, pos), np.where(flip[:, None], pos, neg)
    assert (np.abs(gap) > 0.0).all()
    return graph, dense, store, acfg, pos, neg, np.abs(gap)


@pytest.mark.parametrize("kind", AGGREGATOR_KINDS)
def test_a_batch_without_an_active_pair_builds_no_encoder_graph(kind, monkeypatch):
    graph, dense, store, acfg, pos, neg, gap = easy_batch(kind)
    tcfg = quick_cfg(margin=gap.min() / 2, subtask_enabled=True, neighbor_budget=acfg.neighbor_budget)
    passes = []  # whether each encode pass reads gradient leaves
    encode = training.encode_batch
    for module in (training, evaluation):  # the graph pass, and the constant pass's blocks
        monkeypatch.setattr(module, "encode_batch", lambda leaves, *args, **kwargs:
                            passes.append(leaves["entity_emb"].requires_grad) or encode(leaves, *args, **kwargs))
    leaves = store.leaves(True)
    loss, parts = batch_objective(leaves, pos, neg, graph, dense, tcfg, acfg, "transe", (2,))
    assert passes == [False] and parts["active"] == 0 and parts["main"] == 0.0
    nodes = graph_nodes(loss)
    ops = {vjp.__qualname__.split(".")[0] for node in nodes for vjp in node.vjps}
    assert ops.isdisjoint({"transform_rows", "matmul", "matvec", "tanh", "softmax_masked", "weighted_block_sum"})
    assert {name for name, leaf in leaves.items() if leaf.node in nodes} == {"entity_emb", "relation_emb"}
    one = objective_gradients(one_pass_objective, store, pos, neg, graph, dense, tcfg, acfg, "transe")
    ad.backward(loss)
    assert loss.item() == one[0] and parts == one[1]
    for name, g in collect_gradients(leaves).items():  # the graph over every pair passes only zeros to the encoder
        np.testing.assert_array_equal(g, one[2][name], err_msg=name)


def test_a_lan_graph_over_few_active_pairs_holds_fewer_bytes_than_over_all():
    graph, dense, store, acfg, pos, neg, gap = easy_batch("lan")
    ordered = np.sort(gap)
    held = {}
    for margin in ((ordered[1] + ordered[2]) / 2, ordered[-1] + 1.0):
        tcfg = quick_cfg(margin=margin, subtask_enabled=False, neighbor_budget=acfg.neighbor_budget)
        loss, parts = batch_objective(store.leaves(True), pos, neg, graph, dense, tcfg, acfg, "transe", (2,))
        held[parts["active"]] = sum(arr.nbytes for arr in kept_arrays(graph_nodes(loss)))
    b = pos.shape[0]
    assert sorted(held) == [2, b] and held[2] < held[b] / 2


def test_active_shares_recount_each_epochs_batches(monkeypatch):
    counts = {}  # epoch -> [active pairs, pairs], recounted by the one-pass objective before each step

    def objective(leaves, pos, neg, *args):
        fixed = {name: ad.Value(leaf.data) for name, leaf in leaves.items()}
        _, parts = one_pass_objective(fixed, pos, neg, *args)
        tally = counts.setdefault(args[-1][1], [0, 0])
        tally[0] += parts["active"]
        tally[1] += len(pos)
        return batch_objective(leaves, pos, neg, *args)

    monkeypatch.setattr(training, "batch_objective", objective)
    _, report = train(tiny_bundle(seed=4), quick_cfg(epochs=4, negatives_per_positive=2), AggregatorConfig(kind="lan"))
    assert report.active_shares == [active / pairs for active, pairs in counts.values()]
    assert list(counts) == [1, 2, 3, 4] and 0.0 < min(report.active_shares) < max(report.active_shares) <= 1.0


def graph_refs(leaves, loss):
    """Weak references to ``loss``'s data, its graph's VJPs and the arrays they keep beside the ``leaves``' data."""
    nodes = graph_nodes(loss)
    kept = [arr for arr in kept_arrays(nodes) if not any(arr is leaf.data for leaf in leaves.values())]
    return [weakref.ref(obj) for obj in [loss.data, *kept, *(vjp for node in nodes for vjp in node.vjps)]]


@pytest.mark.parametrize("kind", AGGREGATOR_KINDS)
def test_a_batch_graph_is_freed_before_the_next_batch_starts(kind, monkeypatch):
    refs = []  # weak references to the last batch's loss data, its nodes' VJPs, the arrays they keep and its gradients
    alive_at_start = []

    def objective(leaves, *args):
        alive_at_start.append(sum(ref() is not None for ref in refs))
        loss, parts = batch_objective(leaves, *args)
        refs[:] = graph_refs(leaves, loss)
        return loss, parts

    def gradients(leaves):
        grads = collect_gradients(leaves)
        refs.extend(weakref.ref(g) for g in grads.values())
        return grads

    monkeypatch.setattr(training, "batch_objective", objective)
    monkeypatch.setattr(training, "collect_gradients", gradients)
    gc.disable()  # reference counting alone must free a batch
    try:
        train(tiny_bundle(seed=4), quick_cfg(), AggregatorConfig(kind=kind))
    finally:
        gc.enable()
    assert len(alive_at_start) > 2 and alive_at_start == [0] * len(alive_at_start)
    assert len(refs) > 20


@pytest.mark.parametrize("kind", AGGREGATOR_KINDS)
def test_a_step_frees_its_graph_before_the_optimizer_runs(kind, monkeypatch):
    refs = []  # weak references to the batch's graph
    freed_at_step = []

    def objective(leaves, *args):
        loss, parts = batch_objective(leaves, *args)
        refs[:] = graph_refs(leaves, loss)
        return loss, parts

    def step(opt, store, grads, lr):
        freed_at_step.append(all(ref() is None for ref in refs))
        return sgd_step(opt, store, grads, lr)

    sgd_step = Sgd.step
    monkeypatch.setattr(training, "batch_objective", objective)
    monkeypatch.setattr(Sgd, "step", step)
    gc.disable()  # reference counting alone must free the graph
    try:
        train(tiny_bundle(seed=4), quick_cfg(), AggregatorConfig(kind=kind))
    finally:
        gc.enable()
    assert len(freed_at_step) > 2 and all(freed_at_step) and len(refs) > 20


def _traced_lan_batch(monkeypatch):
    """One traced ``batch_objective`` on a ``lan`` batch after an untraced one, and its backward pass.

    Returns the bytes the graph holds, the backward pass's peak over the
    bytes traced before the forward pass, the per-slot and named bytes of
    the rows and slots the graph encodes, and the stored parameter bytes.
    """
    graph = make_graph(random_name_triples(np.random.default_rng(8), 400, 6, 4000))
    n, dim, b = graph.vocab.n_entities, 32, 128
    tcfg, acfg = TrainConfig(dim=dim, neighbor_budget=64), AggregatorConfig(kind="lan", neighbor_budget=64)
    store, dense = init_params(n, graph.n_relations, dim, 0), mine_confidence(graph).dense()
    pos = graph.triplets[:b]
    neg, _ = corrupt(pos, KnownTriplets(graph.triplets, n, graph.n_relations), n, np.random.default_rng(1))
    encoded = []  # (rows, slots) of each pass that builds a graph
    encode = training.encode_batch

    def record(leaves, offsets, *args, **kwargs):
        if leaves["entity_emb"].requires_grad:
            encoded.append((offsets.size - 1, int(offsets[-1])))
        return encode(leaves, offsets, *args, **kwargs)

    monkeypatch.setattr(training, "encode_batch", record)
    leaves = store.leaves(True)
    batch_objective(leaves, pos, neg, graph, dense, tcfg, acfg, "transe", (2,))  # untraced warm-up
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        loss, _ = batch_objective(leaves, pos, neg, graph, dense, tcfg, acfg, "transe", (2,))
        held = tracemalloc.get_traced_memory()[0] - before
        tracemalloc.reset_peak()
        ad.backward(loss)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    (rows, slots), = encoded[1:]
    assert loss.requires_grad and slots > 10 * rows  # the per-slot arrays dominate
    # (S,): the transform's entity and relation ids and its projections, the query half's slot rows, the
    # softmax's weights and rows, and the final sum's weights and rows
    slot_vectors = 8 * slots * 8
    # (B, d): the query gather over the encoded rows, and the two scorers' (2b, d) differences
    row_blocks = (rows + 2 * 2 * b) * dim * 8
    return held, peak, slots * dim * 8, slot_vectors + row_blocks, sum(a.nbytes for a in store.arrays.values())


def test_a_lan_batch_graph_holds_under_three_per_slot_arrays(monkeypatch):
    # the graph keeps two (S, d) arrays, the transformed slots and the tanh output: the transform keeps ids and
    # projections, and every other (S, d) output is freed while the forward pass runs, as no product reads it
    held, _, per_slot, named, _ = _traced_lan_batch(monkeypatch)
    assert held <= 3 * per_slot + named


def test_a_lan_backward_pass_peaks_under_five_per_slot_arrays(monkeypatch):
    # at its peak, tanh's product, the pass holds the graph's two (S, d) arrays, the gradients of both and the
    # product's one scratch array: the nodes before it freed what their products kept, and the gathers are gone
    held, peak, per_slot, named, parameters = _traced_lan_batch(monkeypatch)
    assert peak <= 5 * per_slot + named + parameters  # the leaves' gradients are at most the parameters' size
    assert peak - held <= 3 * per_slot + parameters


# --- optimizers -----------------------------------------------------------------

@pytest.mark.parametrize("name", ["sgd", "adam"])
def test_zero_learning_rate_step_is_identity(name):
    store = init_params(5, 4, 6, seed=0, with_lstm=True)
    before = {k: v.copy() for k, v in store.arrays.items()}
    grads = {k: np.random.default_rng(1).normal(size=v.shape) for k, v in store.arrays.items()}
    opt = make_optimizer(name, store)
    opt.step(store, grads, 0.0)
    for k, v in store.arrays.items():
        np.testing.assert_array_equal(v, before[k])


def test_sgd_step_direction():
    store = init_params(3, 2, 4, seed=0)
    before = store["entity_emb"].copy()
    g = np.ones_like(before)
    Sgd(store).step(store, {"entity_emb": g}, 0.1)
    np.testing.assert_allclose(store["entity_emb"], before - 0.1, rtol=1e-15)


def test_adam_first_step_size():
    # with a constant gradient the bias-corrected first step is lr * g/|g|
    store = init_params(3, 2, 4, seed=0)
    before = store["entity_emb"].copy()
    g = np.full_like(before, 2.0)
    Adam(store).step(store, {"entity_emb": g}, 0.01)
    np.testing.assert_allclose(store["entity_emb"], before - 0.01, rtol=1e-6)


def test_adam_in_place_step_is_the_written_out_update():
    store = init_params(6, 4, 5, seed=2, with_lstm=True)
    want = {k: v.copy() for k, v in store.arrays.items()}
    m = {k: np.zeros_like(p) for k, p in want.items()}
    v = {k: np.zeros_like(p) for k, p in want.items()}
    lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
    opt = Adam(store)
    rng = np.random.default_rng(3)
    for t in range(1, 6):
        leaves = store.leaves(True)
        rows = rng.integers(0, 3, size=4)  # entity rows 3 to 5 get zero gradients
        picked = ad.take_rows(leaves["entity_emb"], rows)
        loss = ad.add(ad.sum_all(ad.mul(picked, ad.Value(rng.normal(size=picked.shape)))),
                      ad.l2_norm_sq(leaves["relation_emb"]))
        ad.backward(loss)
        grads = collect_gradients(leaves)
        assert leaves["attn_proj"].grad is None and not grads["attn_proj"].any()
        assert grads["entity_emb"][rows].all() and not grads["entity_emb"][3:].any()
        opt.step(store, grads, lr)
        b1c, b2c = 1.0 - b1 ** t, 1.0 - b2 ** t
        for k, g in grads.items():
            m[k] *= b1
            m[k] += (1 - b1) * g
            v[k] *= b2
            v[k] += (1 - b2) * g * g
            want[k] -= lr * (m[k] / b1c) / (np.sqrt(v[k] / b2c) + eps)
        for k in want:
            assert store.arrays[k].tobytes() == want[k].tobytes(), k
            assert opt.m[k].tobytes() == m[k].tobytes() and opt.v[k].tobytes() == v[k].tobytes(), k


def test_adam_step_holds_two_scratch_arrays_per_parameter():
    store = ParamStore({"p": np.random.default_rng(4).normal(size=(2000, 16))})
    grads = {"p": np.random.default_rng(5).normal(size=(2000, 16))}
    opt = Adam(store)
    opt.step(store, grads, 0.01)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        opt.step(store, grads, 0.01)
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    array = grads["p"].nbytes
    assert peak - before <= 2 * array + array // 8 and after - before <= array // 8


def test_make_optimizer_dispatch():
    store = init_params(2, 2, 4, seed=0)
    assert isinstance(make_optimizer("adam", store), Adam)
    assert isinstance(make_optimizer("sgd", store), Sgd)


# --- config ----------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError, match="learning rate"):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError, match="margin"):
        TrainConfig(margin=-1.0)
    with pytest.raises(ValueError, match="l2 rate"):
        TrainConfig(l2_rate=-0.1)
    with pytest.raises(ValueError, match="optimizer"):
        TrainConfig(optimizer="rmsprop")
    with pytest.raises(ValueError, match="batch size"):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError, match="negatives"):
        TrainConfig(negatives_per_positive=0)
    with pytest.raises(ValueError, match="patience"):
        TrainConfig(patience=0)
    for bad in (0, -3):  # no validation query at all, or a slice that drops the last rows
        with pytest.raises(ValueError, match="valid max queries"):
            TrainConfig(valid_max_queries=bad)
    with pytest.raises(ValueError, match="eval every"):
        TrainConfig(eval_every=-1)
    with pytest.raises(ValueError, match="checkpoint every"):
        TrainConfig(checkpoint_every=-2)
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        TrainConfig(seed=-1)
    for bad in (np.nan, np.inf, -np.inf):  # nan compares false with any bound
        for key in ("learning_rate", "margin", "l2_rate"):
            with pytest.raises(ValueError, match=f"{key.replace('_', ' ')} must be finite"):
                TrainConfig(**{key: bad})
    TrainConfig(l2_rate=0.0)  # disabled regularization is allowed
    TrainConfig(patience=1, valid_max_queries=1)
    TrainConfig(eval_every=0, checkpoint_every=0)  # 0 turns either off


# --- the training loop -------------------------------------------------------------

def test_train_is_deterministic():
    bundle = tiny_bundle()
    reports = []
    for _ in range(2):
        _, rep = train(bundle, quick_cfg(epochs=3), AggregatorConfig(kind="mean"))
        reports.append(rep)
    assert reports[0].epoch_losses == reports[1].epoch_losses
    assert reports[0].grad_norms == reports[1].grad_norms


def test_train_stores_match_across_runs():
    bundle = tiny_bundle()
    s1, _ = train(bundle, quick_cfg(epochs=2), AggregatorConfig(kind="lan"))
    s2, _ = train(bundle, quick_cfg(epochs=2), AggregatorConfig(kind="lan"))
    for name in s1.names():
        np.testing.assert_array_equal(s1[name], s2[name])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_loss_decreases_on_small_graph(seed):
    bundle = tiny_bundle(seed=seed)
    tcfg = quick_cfg(epochs=12, learning_rate=0.05, seed=seed, batch_size=128)
    _, rep = train(bundle, tcfg, AggregatorConfig(kind="mean", neighbor_budget=8))
    head = np.mean(rep.epoch_losses[:2])
    tail = np.mean(rep.epoch_losses[-2:])
    assert tail < head


def test_report_traces_are_complete():
    bundle = tiny_bundle()
    tcfg = quick_cfg(epochs=4, subtask_enabled=True)
    _, rep = train(bundle, tcfg, AggregatorConfig(kind="mean"))
    assert len(rep.epoch_losses) == 4
    assert len(rep.epoch_main_losses) == 4
    assert len(rep.epoch_subtask_losses) == 4
    assert len(rep.grad_norms) == 4
    assert all(n > 0 for n in rep.grad_norms)
    assert all(isinstance(x, float) for x in rep.epoch_losses)
    for total, main, sub in zip(rep.epoch_losses, rep.epoch_main_losses, rep.epoch_subtask_losses):
        assert total == pytest.approx(main + sub, rel=1e-9)
    assert rep.seconds > 0


def test_subtask_disabled_trace_is_zero():
    bundle = tiny_bundle()
    _, rep = train(bundle, quick_cfg(epochs=2, subtask_enabled=False),
                   AggregatorConfig(kind="mean"))
    assert rep.epoch_subtask_losses == [0.0, 0.0]


def test_transform_rows_stay_unit_norm():
    bundle = tiny_bundle()
    store, _ = train(bundle, quick_cfg(epochs=3), AggregatorConfig(kind="lan"))
    norms = np.linalg.norm(store["transform_vec"], axis=1)
    np.testing.assert_allclose(norms, 1.0, atol=1e-12)


def test_empty_train_raises():
    bundle = DatasetBundle(train=[], aux=[], valid=[], test=[],
                           unseen=[], spec=SplitSpec("subject", 1.0, 0))
    with pytest.raises(TrainError, match="no training triplets"):
        train(bundle, quick_cfg())


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_raises_train_error():
    bundle = tiny_bundle()
    tcfg = quick_cfg(learning_rate=1e12, epochs=20, optimizer="sgd")
    with pytest.raises(TrainError, match="non-finite"):
        train(bundle, tcfg, AggregatorConfig(kind="mean"), scorer="distmult")


def test_mismatched_budget_is_reconciled():
    bundle = tiny_bundle()
    tcfg = quick_cfg(epochs=1, neighbor_budget=5)
    _, rep = train(bundle, tcfg, AggregatorConfig(kind="mean", neighbor_budget=64))
    assert len(rep.epoch_losses) == 1


def test_negatives_per_positive():
    bundle = tiny_bundle()
    tcfg = quick_cfg(epochs=1, negatives_per_positive=3)
    _, rep = train(bundle, tcfg, AggregatorConfig(kind="mean"))
    assert np.isfinite(rep.epoch_losses[0])


def test_checkpoint_round_trip(tmp_path):
    bundle = tiny_bundle()
    out = tmp_path / "ckpt"
    tcfg = quick_cfg(epochs=2, dim=6)
    store, _ = train(bundle, tcfg, AggregatorConfig(kind="lan"), out_dir=str(out))
    ctx = BundleContext(bundle)
    loaded, *_ = read_checkpoint(str(out), ctx.vocab)
    meta = read_kv(str(out / "manifest"))
    assert set(loaded.names()) == set(store.names())
    for name in store.names():
        np.testing.assert_array_equal(loaded[name], store[name])
    assert meta["aggregator"] == "lan"
    assert meta["dim"] == "6"
    assert meta["scorer"] == "transe"
    assert "vocab_sha256" in meta
    assert meta["n_entities"] == str(ctx.vocab.n_entities)
    # the mined table travels with the weights, bit for bit
    mined = mine_confidence(ctx.train_graph).dense()
    assert import_table(str(out / "rules.tsv"), ctx.vocab).dense().tobytes() == mined.tobytes()


@pytest.mark.parametrize("kind", AGGREGATOR_KINDS)
def test_a_checkpoint_reads_back_the_model_it_was_written_from(kind, tmp_path):
    ctx = BundleContext(tiny_bundle())
    acfg = AggregatorConfig(kind=kind, neighbor_budget=3, logic_mode="raw", epsilon=0.25)
    store = init_params(ctx.vocab.n_entities, ctx.train_graph.n_relations, 6, 1, with_lstm=acfg.uses_lstm)
    dense = mine_confidence(ctx.train_graph).dense() if acfg.needs_rules else None
    write_checkpoint(str(tmp_path), store, ctx.vocab, acfg, "distmult", dense, {"epoch": "1"})
    loaded, loaded_acfg, scorer, loaded_dense = read_checkpoint(str(tmp_path), ctx.vocab)
    assert loaded_acfg == acfg and scorer == "distmult"
    assert loaded.names() == store.names()
    assert all(loaded[name].tobytes() == store[name].tobytes() for name in store.names())
    if dense is None:
        assert loaded_dense is None and not (tmp_path / "rules.tsv").exists()
    else:
        assert loaded_dense.tobytes() == dense.tobytes()


@pytest.mark.parametrize("kind, keys", [
    ("lan", [
        "aggregator", "artifact_version", "dim", "epoch", "epsilon", "logic_mode", "margin", "n_entities",
        "n_relations", "neighbor_budget", "scorer", "seed", "sha256.attn_proj.f64", "sha256.attn_score_vec.f64",
        "sha256.entity_emb.f64", "sha256.query_vec.f64", "sha256.relation_emb.f64", "sha256.rules.tsv",
        "sha256.transform_vec.f64", "shape.attn_proj", "shape.attn_score_vec", "shape.entity_emb",
        "shape.query_vec", "shape.relation_emb", "shape.transform_vec", "vocab_sha256",
    ]),
    ("lstm", [
        "aggregator", "artifact_version", "dim", "epoch", "epsilon", "logic_mode", "margin", "n_entities",
        "n_relations", "neighbor_budget", "scorer", "seed", "sha256.attn_proj.f64", "sha256.attn_score_vec.f64",
        "sha256.entity_emb.f64", "sha256.lstm_b_c.f64", "sha256.lstm_b_f.f64", "sha256.lstm_b_i.f64",
        "sha256.lstm_b_o.f64", "sha256.lstm_w_c.f64", "sha256.lstm_w_f.f64", "sha256.lstm_w_i.f64",
        "sha256.lstm_w_o.f64", "sha256.query_vec.f64", "sha256.relation_emb.f64", "sha256.transform_vec.f64",
        "shape.attn_proj", "shape.attn_score_vec", "shape.entity_emb", "shape.lstm_b_c", "shape.lstm_b_f",
        "shape.lstm_b_i", "shape.lstm_b_o", "shape.lstm_w_c", "shape.lstm_w_f", "shape.lstm_w_i",
        "shape.lstm_w_o", "shape.query_vec", "shape.relation_emb", "shape.transform_vec", "vocab_sha256",
    ]),
], ids=["lan", "lstm"])
def test_a_trained_checkpoints_manifest_has_these_keys(kind, keys, tmp_path):
    train(tiny_bundle(), quick_cfg(epochs=1), AggregatorConfig(kind=kind), out_dir=str(tmp_path))
    assert sorted(read_kv(str(tmp_path / "manifest"))) == keys


def test_checkpoint_rejects_corrupted_parameter_file(tmp_path):
    out = tmp_path / "ckpt"
    train(tiny_bundle(), quick_cfg(epochs=1), AggregatorConfig(kind="mean"), out_dir=str(out))
    path = out / "entity_emb.f64"
    raw = bytearray(path.read_bytes())
    raw[3] ^= 0x01  # same size, one bit off
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="checksum mismatch"):
        read_checkpoint(str(out), BundleContext(tiny_bundle()).vocab)


def test_checkpoint_refuses_a_manifest_without_a_checksum_line(tmp_path):
    out = tmp_path / "ckpt"
    train(tiny_bundle(), quick_cfg(epochs=1), AggregatorConfig(kind="mean"), out_dir=str(out))
    manifest = read_kv(str(out / "manifest"))
    del manifest["sha256.entity_emb.f64"]
    write_kv(str(out / "manifest"), manifest)
    with pytest.raises(ValueError, match="no sha256.entity_emb.f64 line for .*entity_emb.f64"):
        read_checkpoint(str(out), BundleContext(tiny_bundle()).vocab)


def test_periodic_checkpoints(tmp_path):
    bundle = tiny_bundle()
    tcfg = quick_cfg(epochs=4, checkpoint_every=2)
    train(bundle, tcfg, AggregatorConfig(kind="mean"), out_dir=str(tmp_path))
    assert (tmp_path / "epoch-0002" / "manifest").exists()
    assert (tmp_path / "epoch-0004" / "manifest").exists()


def test_validation_probe_and_early_stop():
    [bundle] = random_bundles(1, start_seed=4, strategy="subject",
                              n_entities=40, n_triples=160)
    tcfg = quick_cfg(epochs=30, learning_rate=1e-6, eval_every=1, patience=1)
    store, rep = train(bundle, tcfg, AggregatorConfig(kind="mean"))
    assert rep.valid_mrr, "validation trace should be populated"
    epochs_run = len(rep.epoch_losses)
    assert rep.stopped_early and epochs_run < 30
    assert rep.best_epoch == rep.valid_mrr[0][0]
    assert rep.best_mrr == max(m for _, m in rep.valid_mrr)


def checkpoint_files(root):
    """Every file under a checkpoint directory, ``epoch-NNNN/`` included -> {relative path: bytes}."""
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def context_arrays(ctx):
    """What a :class:`BundleContext` holds: names, id rows and graph triplets."""
    return [ctx.vocab.entities, ctx.vocab.relations, ctx.seen_ids.tobytes(),
            ctx.train_graph.triplets.tobytes(), ctx.neighbor_graph.triplets.tobytes()]


@pytest.mark.parametrize("budget", [2, 64])
@pytest.mark.parametrize("kind", AGGREGATOR_KINDS)
def test_train_on_a_context_equals_train_on_its_bundle(kind, budget, tmp_path):
    [bundle] = random_bundles(1, start_seed=4, strategy="subject", n_entities=40, n_triples=160)
    assert len(bundle.valid) > 5
    tcfg = quick_cfg(neighbor_budget=budget, eval_every=1, checkpoint_every=1, valid_max_queries=5)
    ctx = BundleContext(bundle)
    before = context_arrays(ctx)
    runs = []
    for name, given in (("bundle", bundle), ("context", ctx), ("context-again", ctx)):
        store, report = train(given, tcfg, AggregatorConfig(kind=kind), out_dir=str(tmp_path / name))
        report.seconds = 0.0
        runs.append(({k: v.tobytes() for k, v in store.arrays.items()}, report, checkpoint_files(tmp_path / name)))
    assert "epoch-0002/manifest" in runs[0][2] and runs[0][1].valid_mrr
    assert runs[1] == runs[0] and runs[2] == runs[0]
    assert context_arrays(ctx) == before


def test_rules_mined_on_demand_for_lan():
    bundle = tiny_bundle()
    _, rep = train(bundle, quick_cfg(epochs=1), AggregatorConfig(kind="lan"))
    assert len(rep.epoch_losses) == 1
