import re
from types import SimpleNamespace

import numpy as np
import pytest

from helpers import (
    encode_one, grid_to_csr, make_graph, oracle_encode, oracle_logic, random_name_triples, reference_sample,
)
from lankgc import autodiff as ad
from lankgc import evaluation
from lankgc.encoder import (
    AGGREGATOR_KINDS,
    AggregatorConfig,
    encode_batch,
    stack_samples,
)
from lankgc.kg import GraphError
from lankgc.params import init_params
from lankgc.rules import ConfidenceTable, logic_attention_batch, mine_confidence


@pytest.fixture(scope="module")
def world():
    rng = np.random.default_rng(11)
    triples = random_name_triples(rng, 12, 3, 40)
    kg = make_graph(triples)
    table = mine_confidence(kg)
    store = init_params(kg.n_entities, kg.n_relations, 10, seed=5, with_lstm=True)
    return kg, table, store


def grab_sample(kg, entity, budget=64, seed=0):
    _, rels, nbs = stack_samples(kg, [entity], AggregatorConfig(neighbor_budget=budget), (seed,))
    return np.stack([rels, nbs], axis=1)


# --- config ------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError, match="kind"):
        AggregatorConfig(kind="avg")
    with pytest.raises(ValueError, match="budget"):
        AggregatorConfig(neighbor_budget=0)
    with pytest.raises(ValueError, match="mode"):
        AggregatorConfig(logic_mode="softmax")
    for bad in (0.0, np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="epsilon"):
            AggregatorConfig(epsilon=bad)


def test_config_flags():
    assert AggregatorConfig(kind="lan").needs_rules
    assert AggregatorConfig(kind="logic-only").needs_rules
    for kind in ("mean", "lstm", "query-attn", "global-attn"):
        assert not AggregatorConfig(kind=kind).needs_rules
    assert AggregatorConfig(kind="lstm").uses_lstm


# --- the relation-specific projection ----------------------------------------

def test_transform_output_orthogonal_to_direction():
    rng = np.random.default_rng(0)
    for _ in range(20):
        w = rng.normal(size=6)
        w /= np.linalg.norm(w)
        e = rng.normal(size=6)
        out = ad.transform_rows(ad.Value(e[None]), [0], ad.Value(w[None]), [0])
        assert abs(np.dot(w, out.data[0])) <= 1e-12


def test_transform_annihilates_its_direction():
    w = np.zeros(4)
    w[1] = 1.0
    out = ad.transform_rows(ad.Value(w[None].copy()), [0], ad.Value(w[None]), [0])
    np.testing.assert_allclose(out.data[0], np.zeros(4), atol=1e-15)


def test_transform_keeps_perpendicular_component():
    w = np.array([1.0, 0.0, 0.0])
    e = np.array([0.0, 2.0, -3.0])
    out = ad.transform_rows(ad.Value(e[None]), [0], ad.Value(w[None]), [0])
    np.testing.assert_array_equal(out.data[0], e)


def test_transform_rows_matches_single():
    rng = np.random.default_rng(1)
    E = rng.normal(size=(4, 4))
    W = rng.normal(size=(3, 4))
    W /= np.linalg.norm(W, axis=1, keepdims=True)
    ids, rels = [3, 0, 3, 1, 2], [2, 2, 0, 1, 2]  # slots gathered from the tables, with repeats
    batch = ad.transform_rows(ad.Value(E), ids, ad.Value(W), rels)
    for j, (i, q) in enumerate(zip(ids, rels)):
        single = E[i] - np.dot(W[q], E[i]) * W[q]
        np.testing.assert_allclose(batch.data[j], single, rtol=1e-14, atol=1e-15)


# --- mean --------------------------------------------------------------------

def test_mean_divides_by_real_count_not_budget(world):
    kg, table, store = world
    e = 0
    nb = kg.neighborhood(e)
    sample = grab_sample(kg, e, budget=64)
    assert sample.shape[0] == nb.shape[0] < 64
    cfg = AggregatorConfig(kind="mean", neighbor_budget=64)
    out = encode_one(store, None, cfg, 0, sample).embedding
    manual = np.zeros(10)
    for r, v in nb:
        w = store["transform_vec"][r]
        x = store["entity_emb"][v]
        manual += x - np.dot(w, x) * w
    np.testing.assert_allclose(out, manual / nb.shape[0], rtol=1e-12, atol=1e-14)


def test_mean_of_opposite_neighbors_is_zero():
    # two neighbors carrying +v and -v through the same relation
    store = init_params(2, 2, 6, seed=0)
    v = np.random.default_rng(3).normal(size=6)
    store.arrays["entity_emb"][0] = v
    store.arrays["entity_emb"][1] = -v
    sample = np.array([[0, 0], [0, 1]])
    cfg = AggregatorConfig(kind="mean", neighbor_budget=2)
    out = encode_one(store, None, cfg, 0, sample)
    np.testing.assert_allclose(out.embedding, np.zeros(6), atol=1e-15)


def test_empty_neighborhood_is_flagged_zero(world):
    kg, table, store = world
    empty = np.zeros((0, 2), np.int64)
    for kind in AGGREGATOR_KINDS:
        cfg = AggregatorConfig(kind=kind, neighbor_budget=4)
        out = encode_one(store, table.dense(), cfg, 0, empty)
        assert out.flagged
        assert out.trace == []
        np.testing.assert_array_equal(out.embedding, np.zeros(10))


# --- neural attention --------------------------------------------------------

def test_attention_weights_sum_to_one(world):
    kg, table, store = world
    for e in range(kg.n_entities):
        sample = grab_sample(kg, e)
        if len(sample) == 0:
            continue
        cfg = AggregatorConfig(kind="query-attn", neighbor_budget=64)
        out = encode_one(store, table.dense(), cfg, 1, sample)
        total = sum(row[3] for row in out.trace)
        assert abs(total - 1.0) <= 1e-12


def test_zero_score_vector_gives_uniform_attention(world):
    kg, table, store = world
    flat = store.copy()
    flat.arrays["attn_score_vec"][:] = 0.0
    sample = grab_sample(kg, 0)
    cfg = AggregatorConfig(kind="query-attn", neighbor_budget=64)
    out = encode_one(flat, table.dense(), cfg, 1, sample)
    k = len(sample)
    for row in out.trace:
        assert row[3] == pytest.approx(1.0 / k, abs=1e-15)


def test_single_neighbor_attention_is_one(world):
    kg, table, store = world
    sample = np.array([[0, 1]])
    cfg = AggregatorConfig(kind="query-attn", neighbor_budget=2)
    out = encode_one(store, table.dense(), cfg, 1, sample)
    assert len(out.trace) == 1
    assert out.trace[0][3] == 1.0


def test_attention_depends_on_query(world):
    kg, table, store = world
    sample = grab_sample(kg, 0)
    cfg = AggregatorConfig(kind="query-attn", neighbor_budget=64)
    a = encode_one(store, table.dense(), cfg, 0, sample)
    b = encode_one(store, table.dense(), cfg, 1, sample)
    assert np.abs(a.embedding - b.embedding).max() > 1e-9


def test_global_attention_ignores_query(world):
    kg, table, store = world
    sample = grab_sample(kg, 0)
    cfg = AggregatorConfig(kind="global-attn", neighbor_budget=64)
    a = encode_one(store, table.dense(), cfg, 0, sample)
    b = encode_one(store, table.dense(), cfg, 1, sample)
    np.testing.assert_array_equal(a.embedding, b.embedding)


def test_global_equals_query_attention_at_zero_query_row(world):
    kg, table, store = world
    zeroed = store.copy()
    zeroed.arrays["query_vec"][2] = 0.0
    sample = grab_sample(kg, 0)
    g = encode_one(zeroed, table.dense(), AggregatorConfig(kind="global-attn"), 2, sample)
    q = encode_one(zeroed, table.dense(), AggregatorConfig(kind="query-attn"), 2, sample)
    np.testing.assert_array_equal(g.embedding, q.embedding)


# --- logic weights in the aggregate ------------------------------------------

def test_lan_single_neighbor_composition(world):
    kg, table, store = world
    # pick a (relation, query) pair with positive implication confidence
    r1, q = np.argwhere(table.dense())[0].tolist()
    sample = np.array([[r1, 3]])
    cfg = AggregatorConfig(kind="lan", neighbor_budget=1)
    out = encode_one(store, table.dense(), cfg, q, sample)
    w = store["transform_vec"][r1]
    x = store["entity_emb"][3]
    t = x - np.dot(w, x) * w
    w_logic = logic_attention_batch(table.dense(), [0, 1], np.array([r1]), np.array([q]))[0]
    np.testing.assert_allclose(out.embedding, (w_logic + 1.0) * t, rtol=1e-12)
    assert w_logic == 1.0  # positive single-neighbor weight normalizes to one


def test_lan_single_neighbor_zero_confidence(world):
    kg, table, store = world
    dead = np.zeros((table.n_relations, table.n_relations))
    sample = np.array([[0, 3]])
    cfg = AggregatorConfig(kind="lan", neighbor_budget=1)
    out = encode_one(store, dead, cfg, 1, sample)
    w = store["transform_vec"][0]
    x = store["entity_emb"][3]
    t = x - np.dot(w, x) * w
    np.testing.assert_allclose(out.embedding, t, rtol=1e-12)


def test_redundancy_demotion_in_trace():
    # b is implied by a more than a is implied by b, so the a-neighbor
    # (the redundant one, standing in for the implied relation) loses
    table = ConfidenceTable([
        [0.0, 0.2, 0.5],
        [0.8, 0.0, 0.5],
        [0.0, 0.0, 0.0],
    ])
    store = init_params(4, 3, 6, seed=1)
    sample = np.array([[0, 2], [1, 3]])
    cfg = AggregatorConfig(kind="logic-only", neighbor_budget=2)
    out = encode_one(store, table.dense(), cfg, 2, sample)
    weights = {row[0]: row[2] for row in out.trace}
    assert weights[1] > weights[0]


def test_rules_required_for_logic_kinds(world):
    kg, table, store = world
    sample = grab_sample(kg, 0)
    for kind in ("lan", "logic-only"):
        with pytest.raises(ValueError, match="rule table"):
            encode_one(store, None, AggregatorConfig(kind=kind), 0, sample)


def test_trace_reports_total_as_sum(world):
    kg, table, store = world
    sample = grab_sample(kg, 0)
    cfg = AggregatorConfig(kind="lan", neighbor_budget=64)
    out = encode_one(store, table.dense(), cfg, 1, sample)
    assert len(out.trace) == len(sample)
    for _, _, a_logic, a_nn, a_total in out.trace:
        assert a_total == a_logic + a_nn


# --- permutation behaviour ----------------------------------------------------

@pytest.mark.parametrize("kind", ["mean", "lan", "query-attn", "global-attn", "logic-only"])
def test_permutation_invariance(world, kind):
    kg, table, store = world
    cfg = AggregatorConfig(kind=kind, neighbor_budget=64)
    rng = np.random.default_rng(99)
    for e in range(kg.n_entities):
        sample = grab_sample(kg, e)
        if len(sample) < 2:
            continue
        base = encode_one(store, table.dense(), cfg, 1, sample)
        scale = max(np.abs(base.embedding).max(), 1e-30)
        for _ in range(5):
            perm = rng.permutation(len(sample))
            other = encode_one(store, table.dense(), cfg, 1, sample[perm])
            rel = np.abs(other.embedding - base.embedding).max() / scale
            assert rel <= 1e-9


def test_lstm_is_order_sensitive(world):
    kg, table, store = world
    e = max(range(kg.n_entities), key=lambda x: kg.neighborhood(x).shape[0])
    assert kg.neighborhood(e).shape[0] >= 3
    cfg = AggregatorConfig(kind="lstm", neighbor_budget=64)
    outs = []
    for s in (0, 1):  # two keys, two neighbor orders
        _, rels, nbs = stack_samples(kg, [e], cfg, (s,))
        outs.append(encode_one(store, table.dense(), cfg, 1, np.stack([rels, nbs], axis=1)).embedding)
    assert np.abs(outs[0] - outs[1]).max() > 1e-6


def lstm_oracle(store, xs):
    """Hand-rolled gate arithmetic for a sequence of input vectors."""
    d = xs[0].shape[0]
    h = np.zeros(d)
    c = np.zeros(d)
    sig = lambda z: 1.0 / (1.0 + np.exp(-z))
    for x in xs:
        hx = np.concatenate([h, x])
        f = sig(store["lstm_w_f"] @ hx + store["lstm_b_f"])
        i = sig(store["lstm_w_i"] @ hx + store["lstm_b_i"])
        g = np.tanh(store["lstm_w_c"] @ hx + store["lstm_b_c"])
        o = sig(store["lstm_w_o"] @ hx + store["lstm_b_o"])
        c = f * c + i * g
        h = o * np.tanh(c)
    return h


def test_lstm_matches_hand_rolled_gates(world):
    kg, table, store = world
    # non-zero biases so all four gate paths are exercised
    st2 = store.copy()
    rng = np.random.default_rng(8)
    for g in ("f", "i", "c", "o"):
        st2.arrays[f"lstm_b_{g}"] = rng.normal(size=10) * 0.1
    cfg = AggregatorConfig(kind="lstm", neighbor_budget=64)
    _, rels, nbs = stack_samples(kg, [0], cfg, (21,))
    out = encode_one(st2, None, cfg, 0, np.stack([rels, nbs], axis=1))
    xs = []
    for rel, ent in reference_sample(kg, 0, cfg, (21,)):  # the neighbors in hash order
        w = st2["transform_vec"][rel]
        x = st2["entity_emb"][ent]
        xs.append(x - np.dot(w, x) * w)
    np.testing.assert_allclose(out.embedding, lstm_oracle(st2, xs), rtol=1e-10, atol=1e-12)


# --- single path vs batch path ------------------------------------------------

@pytest.mark.parametrize("kind", ["mean", "lan", "query-attn", "global-attn", "logic-only"])
def test_encode_batch_matches_single(world, kind):
    kg, table, store = world
    cfg = AggregatorConfig(kind=kind, neighbor_budget=64)
    dense = table.dense()
    ents = np.arange(kg.n_entities)
    queries = np.arange(kg.n_entities) % kg.n_relations
    offsets, rels, nbs = stack_samples(kg, ents, cfg, (0,))
    leaves = {n: ad.Value(store[n]) for n in store.names()}
    batch = encode_batch(leaves, offsets, rels, nbs, queries, cfg, dense_table=dense)
    for i, e in enumerate(ents):
        sample = grab_sample(kg, int(e))
        single = encode_one(store, table.dense(), cfg, int(queries[i]), sample)
        np.testing.assert_allclose(batch.data[i], single.embedding, rtol=1e-9, atol=1e-12)


def test_encode_batch_matches_single_lstm(world):
    kg, table, store = world
    cfg = AggregatorConfig(kind="lstm", neighbor_budget=64)
    for e in range(4):
        offsets, rels, nbs = stack_samples(kg, [e], cfg, (5,))
        single = encode_one(store, None, cfg, 0, np.stack([rels, nbs], axis=1))
        leaves = {n: ad.Value(store[n]) for n in store.names()}
        batch = encode_batch(leaves, offsets, rels, nbs, np.array([0]), cfg)
        np.testing.assert_allclose(batch.data[0], single.embedding, rtol=1e-9, atol=1e-12)


def test_lstm_gates_run_over_the_live_rows_only(world):
    kg, table, store = world
    counts = np.array([3, 0, 5, 3, 1, 5, 2])  # an empty row, and tied widths
    offsets = np.concatenate([[0], np.cumsum(counts)])
    rng = np.random.default_rng(4)
    rels, nbs = rng.integers(kg.n_relations, size=counts.sum()), rng.integers(kg.n_entities, size=counts.sum())
    gate_rows = []

    class RowCounted(np.ndarray):
        """A gate's weights, recording the row count of every left operand they multiply."""

        def __rmatmul__(self, other):
            gate_rows.append(other.shape[0])
            return other @ self.view(np.ndarray)

    leaves = store.leaves(False)
    for g in "fico":  # each gate product is (live rows, 2d) times a gate's transposed weights
        leaves[f"lstm_w_{g}"].data = leaves[f"lstm_w_{g}"].data.view(RowCounted)
    out = encode_batch(leaves, offsets, rels, nbs, np.zeros(counts.size, np.int64), AggregatorConfig(kind="lstm"))
    # longest first and right-aligned: the two 5-slot rows step alone until the 3-slot rows join
    assert gate_rows == np.repeat([2, 2, 4, 5, 6], 4).tolist()
    assert sum(gate_rows) == 4 * counts.sum()  # stepping every row to the widest would give 4 * 7 * 5
    np.testing.assert_array_equal(out.data[1], 0.0)


@pytest.mark.parametrize("kind", AGGREGATOR_KINDS)
def test_every_batch_row_equals_its_single_encoding(kind, monkeypatch):
    kg = make_graph(random_name_triples(np.random.default_rng(2), 10, 4, 70))
    table = mine_confidence(kg)
    store = init_params(kg.n_entities, kg.n_relations, 10, seed=5, with_lstm=True)
    cfg = AggregatorConfig(kind=kind, neighbor_budget=64)
    ents = np.concatenate([np.arange(kg.n_entities), [3, 0, 3]])  # every entity, some twice
    widths = np.diff(kg.offsets)[ents]
    assert len(set(widths.tolist())) > 3 and widths.max() > 8  # mixed widths, some past numpy's 8 sum lanes
    offsets, rels, nbs = stack_samples(kg, ents, cfg, (9,))
    single = np.stack([
        encode_one(store, table.dense(), cfg, 1, np.stack([rels[a:z], nbs[a:z]], axis=1)).embedding
        for a, z in zip(offsets[:-1], offsets[1:])
    ])
    batch = encode_batch(store.leaves(True), offsets, rels, nbs, np.ones(ents.size, np.int64), cfg,
                         dense_table=table.dense()).data
    monkeypatch.setattr(evaluation, "_BLOCK_SLOTS", 5)  # blocks of one to a few rows
    blocks = evaluation.encode_entities(kg, store.leaves(False), cfg, table.dense(), ents, 1, (9,))
    for got in (batch, blocks):
        if kind in ("mean", "logic-only"):
            assert got.tobytes() == single.tobytes()
        else:
            np.testing.assert_allclose(got, single, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("key", [(-1,), (3, -2), (1 << 64,), (5, 0, -7)])
def test_a_sample_key_int_outside_uint64_is_refused_before_anything_else(world, key):
    kg, table, store = world
    bad = next(k for k in key if not 0 <= k < 1 << 64)
    with pytest.raises(ValueError, match=rf"sample key {re.escape(str(key))} holds {bad}, outside") as err:
        stack_samples(kg, [0, -1], AggregatorConfig(neighbor_budget=2), key)  # -1: no entity, checked later
    assert not isinstance(err.value, GraphError)


def _row_objective(kind, store, table, rels, nbs, mask, queries, weights):
    """Encode a batch, dot each row with ``weights``; returns (outputs, leaf gradients)."""
    leaves = store.leaves(True)
    out = encode_batch(leaves, *grid_to_csr(mask, rels, nbs), queries, AggregatorConfig(kind=kind),
                       dense_table=table.dense())
    ad.backward(ad.sum_all(ad.mul(out, ad.Value(weights))))
    grads = {n: (leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data))
             for n, leaf in leaves.items()}
    return out.data, grads


@pytest.mark.parametrize("kind", AGGREGATOR_KINDS)
def test_padding_never_leaks_into_outputs_or_gradients(world, kind):
    kg, table, store = world
    wide = int(np.argmax(np.diff(kg.offsets)))
    # narrow rows: the first one, two and three neighbors of other entities
    rows = [kg.neighborhood((wide + 1) % kg.n_entities)[:1], kg.neighborhood(wide),
            kg.neighborhood((wide + 2) % kg.n_entities)[:3], np.zeros((0, 2), np.int64),
            kg.neighborhood((wide + 3) % kg.n_entities)[:2]]
    width = max(len(nb) for nb in rows)
    assert width > 3 and sorted(len(nb) for nb in rows)[:4] == [0, 1, 2, 3]
    rels = np.zeros((len(rows), width), np.int64)
    nbs = np.zeros((len(rows), width), np.int64)
    mask = np.zeros((len(rows), width), bool)
    for b, nb in enumerate(rows):
        rels[b, :len(nb)], nbs[b, :len(nb)], mask[b, :len(nb)] = nb[:, 0], nb[:, 1], True
    rels[~mask], nbs[~mask] = 2, 5  # padding ids that would show if they were read
    queries = np.arange(len(rows)) % kg.n_relations
    weights = np.random.default_rng(3).normal(size=(len(rows), store["entity_emb"].shape[1]))

    out, grads = _row_objective(kind, store, table, rels, nbs, mask, queries, weights)
    summed = {n: np.zeros_like(g) for n, g in grads.items()}
    for b, nb in enumerate(rows):
        k = max(len(nb), 1)
        one, g1 = _row_objective(kind, store, table, rels[b:b + 1, :k], nbs[b:b + 1, :k], mask[b:b + 1, :k],
                                 queries[b:b + 1], weights[b:b + 1])
        np.testing.assert_allclose(out[b], one[0], rtol=1e-12, atol=1e-12)
        for n in summed:
            summed[n] += g1[n]
    np.testing.assert_array_equal(out[3], 0.0)
    for n, g in grads.items():
        np.testing.assert_allclose(g, summed[n], rtol=1e-12, atol=1e-12, err_msg=n)


@pytest.mark.parametrize("kind", AGGREGATOR_KINDS)
def test_an_encode_over_constant_leaves_records_only_leaves(world, kind):
    kg, table, store = world
    ents = np.arange(kg.n_entities)
    cfg = AggregatorConfig(kind=kind)
    offsets, rels, nbs = stack_samples(kg, ents, cfg, (0,))
    queries = ents % kg.n_relations
    # nothing needs a gradient, so no value draws a creation number, be it the store's constants,
    # the constants the pass makes (uniform, logic or lstm state) or an op's output
    start = next(ad._created)
    out = encode_batch(store.leaves(False), offsets, rels, nbs, queries, cfg, dense_table=table.dense())
    assert not out.requires_grad and next(ad._created) == start + 1
    recorded = encode_batch(store.leaves(True), offsets, rels, nbs, queries, cfg, dense_table=table.dense())
    assert recorded.requires_grad and recorded.node.parents
    assert out.data.tobytes() == recorded.data.tobytes()


def test_encode_batch_zero_neighbor_rows(world):
    kg, table, store = world
    for kind in AGGREGATOR_KINDS:
        cfg = AggregatorConfig(kind=kind, neighbor_budget=4)
        rels = np.zeros((2, 3), dtype=np.int64)
        nbs = np.zeros((2, 3), dtype=np.int64)
        mask = np.array([[True, True, False], [False, False, False]])
        leaves = {n: ad.Value(store[n]) for n in store.names()}
        out = encode_batch(leaves, *grid_to_csr(mask, rels, nbs), np.array([0, 0]), cfg, dense_table=table.dense())
        np.testing.assert_array_equal(out.data[1], np.zeros(10))
        assert np.abs(out.data[0]).max() > 0


def test_encode_batch_requires_rules(world):
    kg, table, store = world
    leaves = {n: ad.Value(store[n]) for n in store.names()}
    with pytest.raises(ValueError, match="rule table"):
        encode_batch(leaves, [0, 2], np.zeros(2, np.int64), np.zeros(2, np.int64),
                     np.array([0]), AggregatorConfig(kind="lan"))


def test_encode_samples_deterministically(world):
    kg, table, store = world
    e = max(range(kg.n_entities), key=lambda x: kg.neighborhood(x).shape[0])
    cfg = AggregatorConfig(kind="lan", neighbor_budget=2)
    encoded = []
    for _ in range(2):
        sample = grab_sample(kg, e, cfg.neighbor_budget, seed=3)
        encoded.append(encode_one(store, table.dense(), cfg, 0, sample))
    a, b = encoded
    np.testing.assert_array_equal(a.embedding, b.embedding)


# --- against the plain numpy oracle -------------------------------------------

@pytest.mark.parametrize("kind", ["mean", "lan", "query-attn", "global-attn", "logic-only"])
def test_encode_matches_numpy_oracle(world, kind):
    kg, table, store = world
    dense = table.dense()
    cfg = AggregatorConfig(kind=kind, neighbor_budget=64)
    for e in range(kg.n_entities):
        nb = kg.neighborhood(e)
        if nb.shape[0] == 0:
            continue
        sample = grab_sample(kg, e)
        got = encode_one(store, table.dense(), cfg, 1, sample)
        want = oracle_encode(store.arrays, dense, kind, 1, nb)
        np.testing.assert_allclose(got.embedding, want, rtol=1e-9, atol=1e-12)


def test_trace_matches_oracle_attention(world):
    kg, table, store = world
    dense = table.dense()
    arrays = store.arrays
    cfg = AggregatorConfig(kind="lan", neighbor_budget=64)
    for e in range(kg.n_entities):
        nb = kg.neighborhood(e)
        if nb.shape[0] == 0:
            continue
        got = encode_one(store, dense, cfg, 1, grab_sample(kg, e))
        rels = np.array([row[0] for row in got.trace])
        ents = np.array([row[1] for row in got.trace])
        assert sorted(zip(rels.tolist(), ents.tolist())) == sorted(map(tuple, nb.tolist()))
        np.testing.assert_allclose([row[2] for row in got.trace], oracle_logic(dense, rels, 1),
                                   rtol=1e-12, atol=1e-15)
        w = arrays["transform_vec"][rels]
        x = arrays["entity_emb"][ents]
        transformed = x - np.sum(w * x, axis=1, keepdims=True) * w
        scores = np.array([
            arrays["attn_score_vec"] @ np.tanh(arrays["attn_proj"] @ np.concatenate([arrays["query_vec"][1], t]))
            for t in transformed
        ])
        ex = np.exp(scores - scores.max())
        np.testing.assert_allclose([row[3] for row in got.trace], ex / ex.sum(), rtol=1e-12, atol=1e-15)


def test_stack_samples_trims_width(world):
    kg, table, store = world
    widest = max(kg.neighborhood(e).shape[0] for e in range(kg.n_entities))
    offsets, rels, nbs = stack_samples(kg, np.arange(kg.n_entities), AggregatorConfig(neighbor_budget=64), (0,))
    assert np.diff(offsets).max() == widest
    assert rels.size == nbs.size == offsets[-1] == sum(kg.neighborhood(e).shape[0] for e in range(kg.n_entities))


@pytest.mark.parametrize("kind", ["lan", "lstm"])
def test_stack_samples_matches_per_entity_sampling(kind):
    # degrees 0..9 under budgets 1 to 64: empty, one-slot, whole and truncated rows mixed, some entities repeated
    rng = np.random.default_rng(3)
    degrees = rng.integers(0, 10, size=60)
    graph = SimpleNamespace(offsets=np.concatenate([[0], np.cumsum(degrees)]),
                            pairs=np.stack([rng.integers(0, 5, degrees.sum()), rng.integers(0, 30, degrees.sum())], axis=1))
    ents = np.concatenate([np.arange(60), [5, 7, 7, 59, 0]])
    assert {0, 1, 9} <= set(degrees.tolist())
    for budget in (1, 4, 9, 64):
        cfg = AggregatorConfig(kind=kind, neighbor_budget=budget)
        for key in ((8,), (0,), (2**64 - 1, 3, 0), ()):
            samples = [reference_sample(graph, e, cfg, key) for e in ents]
            offsets, rels, nbs = stack_samples(graph, ents, cfg, key)
            kept = np.concatenate(samples)
            want = (np.cumsum([0] + [len(rows) for rows in samples]), kept[:, 0], kept[:, 1])
            for got, expect in zip((offsets, rels, nbs), want):
                np.testing.assert_array_equal(got, expect)
    with pytest.raises(ValueError, match="budget"):
        stack_samples(graph, ents, AggregatorConfig(neighbor_budget=0), (8,))


# (entity, key) -> the neighbor entities of its slots, budget 3, over the graph of test_stack_samples_slots_are_pinned;
# the hash is integer arithmetic on uint64, so numpy 1.24 and 2.x agree on every value
GOLDEN_SLOTS = {
    "lan": {(0, (0,)): [7, 11, 12], (0, (1, 2)): [7, 9, 10], (3, (0,)): [17, 18, 21],
            (3, (2**64 - 1,)): [17, 18, 21], (2, (0,)): [14, 15, 16], (1, (0,)): []},
    "lstm": {(0, (0,)): [12, 11, 7], (0, (1, 2)): [10, 9, 7], (3, (0,)): [21, 17, 18],
             (3, (2**64 - 1,)): [17, 21, 18], (2, (0,)): [16, 15, 14], (1, (0,)): []},
}


@pytest.mark.parametrize("kind", ["lan", "lstm"])
def test_stack_samples_slots_are_pinned(kind):
    # entity 0 has 7 neighbors, 1 none, 2 three and 3 five; neighbor entity x has relation x % 4
    graph = SimpleNamespace(offsets=np.array([0, 7, 7, 10, 15]),
                            pairs=np.stack([np.arange(7, 22) % 4, np.arange(7, 22)], axis=1))
    cfg = AggregatorConfig(kind=kind, neighbor_budget=3)
    for (e, key), want in GOLDEN_SLOTS[kind].items():
        _, rels, nbs = stack_samples(graph, [e], cfg, key)
        assert nbs.tolist() == want and rels.tolist() == [x % 4 for x in want]
    ents = [e for e, _ in GOLDEN_SLOTS[kind] if _ == (0,)]
    offsets, _, nbs = stack_samples(graph, ents, cfg, (0,))  # a batch holds each row's own slots
    assert nbs.tolist() == sum((GOLDEN_SLOTS[kind][e, (0,)] for e in ents), [])


def test_stack_samples_keeps_each_neighbor_and_lstm_order_uniformly():
    # neighbor j of every entity is entity j, so a slot's entity is its neighbor index
    n = 20000
    for degree, kind, budget in ((10, "lan", 3), (3, "lstm", 64)):
        graph = SimpleNamespace(offsets=np.arange(n + 1) * degree,
                                pairs=np.stack([np.zeros(n * degree, np.int64), np.tile(np.arange(degree), n)], axis=1))
        _, _, nbs = stack_samples(graph, np.arange(n), AggregatorConfig(kind=kind, neighbor_budget=budget), (4,))
        if kind == "lan":
            counts, p = np.bincount(nbs, minlength=degree), budget / degree  # each neighbor kept at 3/10
        else:
            _, counts = np.unique(nbs.reshape(n, 3), axis=0, return_counts=True)
            p = 1 / 6  # each of the 3! orders at 1/6
            assert counts.size == 6
        # binomial counts over n entities, each within five standard deviations of n p
        assert np.abs(counts - n * p).max() < 5 * np.sqrt(n * p * (1 - p)), counts


def test_stack_samples_rejects_out_of_range_entities(world):
    kg, table, store = world
    for bad in (-1, kg.n_entities):
        with pytest.raises(GraphError, match="out of range"):
            stack_samples(kg, [0, bad], AggregatorConfig(), (0,))
