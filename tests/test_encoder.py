import numpy as np
import pytest

from helpers import make_graph, oracle_encode, oracle_logic, random_name_triples
from lankgc import autodiff as ad
from lankgc.encoder import (
    AGGREGATOR_KINDS,
    AggregatorConfig,
    encode_batch,
    encode_from_sample,
    stack_samples,
    transform_batch,
)
from lankgc.kg import NeighborSample, sample_neighbors
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
    return sample_neighbors(kg.neighborhood(entity), budget, np.random.default_rng(seed))


def permute_valid(sample, perm):
    """Reorder the valid slots of a sample, leaving the padding in place."""
    v = sample.n_valid
    idx = np.concatenate([np.asarray(perm), np.arange(v, sample.mask.shape[0])])
    return NeighborSample(sample.relations[idx], sample.entities[idx], sample.mask[idx])


# --- config ------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError, match="kind"):
        AggregatorConfig(kind="avg")
    with pytest.raises(ValueError, match="budget"):
        AggregatorConfig(neighbor_budget=0)
    with pytest.raises(ValueError, match="mode"):
        AggregatorConfig(logic_mode="softmax")
    with pytest.raises(ValueError, match="epsilon"):
        AggregatorConfig(epsilon=0.0)


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
        tape = ad.Tape()
        out = transform_batch(tape, tape.constant(e[None]), tape.constant(w[None]))
        assert abs(np.dot(w, out.data[0])) <= 1e-12


def test_transform_annihilates_its_direction():
    w = np.zeros(4)
    w[1] = 1.0
    tape = ad.Tape()
    out = transform_batch(tape, tape.constant(w[None].copy()), tape.constant(w[None]))
    np.testing.assert_allclose(out.data[0], np.zeros(4), atol=1e-15)


def test_transform_keeps_perpendicular_component():
    w = np.array([1.0, 0.0, 0.0])
    e = np.array([0.0, 2.0, -3.0])
    tape = ad.Tape()
    out = transform_batch(tape, tape.constant(e[None]), tape.constant(w[None]))
    np.testing.assert_array_equal(out.data[0], e)


def test_transform_batch_matches_single():
    rng = np.random.default_rng(1)
    E = rng.normal(size=(5, 4))
    W = rng.normal(size=(5, 4))
    W /= np.linalg.norm(W, axis=1, keepdims=True)
    tape = ad.Tape()
    batch = transform_batch(tape, tape.constant(E), tape.constant(W))
    for j in range(5):
        single = E[j] - np.dot(W[j], E[j]) * W[j]
        np.testing.assert_allclose(batch.data[j], single, rtol=1e-14, atol=1e-15)


# --- mean --------------------------------------------------------------------

def test_mean_divides_by_real_count_not_budget(world):
    kg, table, store = world
    e = 0
    nb = kg.neighborhood(e)
    sample = grab_sample(kg, e, budget=64)
    assert sample.n_valid == nb.shape[0] < 64
    cfg = AggregatorConfig(kind="mean", neighbor_budget=64)
    out = encode_from_sample(store, None, cfg, 0, sample, np.random.default_rng(0)).embedding
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
    sample = NeighborSample(
        np.array([0, 0]), np.array([0, 1]), np.array([True, True])
    )
    cfg = AggregatorConfig(kind="mean", neighbor_budget=2)
    out = encode_from_sample(store, None, cfg, 0, sample, np.random.default_rng(0))
    np.testing.assert_allclose(out.embedding, np.zeros(6), atol=1e-15)


def test_empty_neighborhood_is_flagged_zero(world):
    kg, table, store = world
    empty = NeighborSample(np.zeros(4, np.int64), np.zeros(4, np.int64), np.zeros(4, bool))
    for kind in AGGREGATOR_KINDS:
        cfg = AggregatorConfig(kind=kind, neighbor_budget=4)
        out = encode_from_sample(store, table, cfg, 0, empty, np.random.default_rng(0))
        assert out.flagged
        assert out.trace == []
        np.testing.assert_array_equal(out.embedding, np.zeros(10))


# --- neural attention --------------------------------------------------------

def test_attention_weights_sum_to_one(world):
    kg, table, store = world
    for e in range(kg.n_entities):
        sample = grab_sample(kg, e)
        if sample.n_valid == 0:
            continue
        cfg = AggregatorConfig(kind="query-attn", neighbor_budget=64)
        out = encode_from_sample(store, table, cfg, 1, sample, np.random.default_rng(0))
        total = sum(row[3] for row in out.trace)
        assert abs(total - 1.0) <= 1e-12


def test_zero_score_vector_gives_uniform_attention(world):
    kg, table, store = world
    flat = store.copy()
    flat.arrays["attn_score_vec"][:] = 0.0
    sample = grab_sample(kg, 0)
    cfg = AggregatorConfig(kind="query-attn", neighbor_budget=64)
    out = encode_from_sample(flat, table, cfg, 1, sample, np.random.default_rng(0))
    k = sample.n_valid
    for row in out.trace:
        assert row[3] == pytest.approx(1.0 / k, abs=1e-15)


def test_single_neighbor_attention_is_one(world):
    kg, table, store = world
    sample = NeighborSample(np.array([0, 0]), np.array([1, 0]), np.array([True, False]))
    cfg = AggregatorConfig(kind="query-attn", neighbor_budget=2)
    out = encode_from_sample(store, table, cfg, 1, sample, np.random.default_rng(0))
    assert len(out.trace) == 1
    assert out.trace[0][3] == 1.0


def test_attention_depends_on_query(world):
    kg, table, store = world
    sample = grab_sample(kg, 0)
    cfg = AggregatorConfig(kind="query-attn", neighbor_budget=64)
    a = encode_from_sample(store, table, cfg, 0, sample, np.random.default_rng(0))
    b = encode_from_sample(store, table, cfg, 1, sample, np.random.default_rng(0))
    assert np.abs(a.embedding - b.embedding).max() > 1e-9


def test_global_attention_ignores_query(world):
    kg, table, store = world
    sample = grab_sample(kg, 0)
    cfg = AggregatorConfig(kind="global-attn", neighbor_budget=64)
    a = encode_from_sample(store, table, cfg, 0, sample, np.random.default_rng(0))
    b = encode_from_sample(store, table, cfg, 1, sample, np.random.default_rng(0))
    np.testing.assert_array_equal(a.embedding, b.embedding)


def test_global_equals_query_attention_at_zero_query_row(world):
    kg, table, store = world
    zeroed = store.copy()
    zeroed.arrays["query_vec"][2] = 0.0
    sample = grab_sample(kg, 0)
    g = encode_from_sample(zeroed, table, AggregatorConfig(kind="global-attn"),
                           2, sample, np.random.default_rng(0))
    q = encode_from_sample(zeroed, table, AggregatorConfig(kind="query-attn"),
                           2, sample, np.random.default_rng(0))
    np.testing.assert_array_equal(g.embedding, q.embedding)


# --- logic weights in the aggregate ------------------------------------------

def test_lan_single_neighbor_composition(world):
    kg, table, store = world
    # pick a (relation, query) pair with positive implication confidence
    (r1, q), _ = next(iter(sorted(table.conf.items())))
    sample = NeighborSample(np.array([r1]), np.array([3]), np.array([True]))
    cfg = AggregatorConfig(kind="lan", neighbor_budget=1)
    out = encode_from_sample(store, table, cfg, q, sample, np.random.default_rng(0))
    w = store["transform_vec"][r1]
    x = store["entity_emb"][3]
    t = x - np.dot(w, x) * w
    w_logic = logic_attention_batch(table.dense(), np.array([[r1]]), np.ones((1, 1), bool), np.array([q]))[0, 0]
    np.testing.assert_allclose(out.embedding, (w_logic + 1.0) * t, rtol=1e-12)
    assert w_logic == 1.0  # positive single-neighbor weight normalizes to one


def test_lan_single_neighbor_zero_confidence(world):
    kg, table, store = world
    dead = ConfidenceTable(table.n_relations, {})
    sample = NeighborSample(np.array([0]), np.array([3]), np.array([True]))
    cfg = AggregatorConfig(kind="lan", neighbor_budget=1)
    out = encode_from_sample(store, dead, cfg, 1, sample, np.random.default_rng(0))
    w = store["transform_vec"][0]
    x = store["entity_emb"][3]
    t = x - np.dot(w, x) * w
    np.testing.assert_allclose(out.embedding, t, rtol=1e-12)


def test_redundancy_demotion_in_trace():
    # b is implied by a more than a is implied by b, so the a-neighbor
    # (the redundant one, standing in for the implied relation) loses
    conf = {(0, 2): 0.5, (1, 2): 0.5, (1, 0): 0.8, (0, 1): 0.2}
    table = ConfidenceTable(3, conf)
    store = init_params(4, 3, 6, seed=1)
    sample = NeighborSample(np.array([0, 1]), np.array([2, 3]), np.ones(2, bool))
    cfg = AggregatorConfig(kind="logic-only", neighbor_budget=2)
    out = encode_from_sample(store, table, cfg, 2, sample, np.random.default_rng(0))
    weights = {row[0]: row[2] for row in out.trace}
    assert weights[1] > weights[0]


def test_rules_required_for_logic_kinds(world):
    kg, table, store = world
    sample = grab_sample(kg, 0)
    for kind in ("lan", "logic-only"):
        with pytest.raises(ValueError, match="rule table"):
            encode_from_sample(store, None, AggregatorConfig(kind=kind),
                               0, sample, np.random.default_rng(0))


def test_trace_reports_total_as_sum(world):
    kg, table, store = world
    sample = grab_sample(kg, 0)
    cfg = AggregatorConfig(kind="lan", neighbor_budget=64)
    out = encode_from_sample(store, table, cfg, 1, sample, np.random.default_rng(0))
    assert len(out.trace) == sample.n_valid
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
        if sample.n_valid < 2:
            continue
        base = encode_from_sample(store, table, cfg, 1, sample, np.random.default_rng(0))
        scale = max(np.abs(base.embedding).max(), 1e-30)
        for _ in range(5):
            perm = rng.permutation(sample.n_valid)
            other = encode_from_sample(
                store, table, cfg, 1, permute_valid(sample, perm), np.random.default_rng(0)
            )
            rel = np.abs(other.embedding - base.embedding).max() / scale
            assert rel <= 1e-9


def test_lstm_is_order_sensitive(world):
    kg, table, store = world
    e = max(range(kg.n_entities), key=lambda x: kg.neighborhood(x).shape[0])
    sample = grab_sample(kg, e)
    assert sample.n_valid >= 3
    cfg = AggregatorConfig(kind="lstm", neighbor_budget=64)
    outs = [
        encode_from_sample(store, table, cfg, 1, sample, np.random.default_rng(s)).embedding
        for s in (0, 1)
    ]
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
    sample = grab_sample(kg, 0)
    seed = 21
    cfg = AggregatorConfig(kind="lstm", neighbor_budget=64)
    out = encode_from_sample(st2, None, cfg, 0, sample, np.random.default_rng(seed))
    order = np.random.default_rng(seed).permutation(sample.n_valid)
    xs = []
    for j in order:
        w = st2["transform_vec"][sample.relations[j]]
        x = st2["entity_emb"][sample.entities[j]]
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
    rels, nbs, mask = stack_samples(kg.neighborhood, ents, 64, np.random.default_rng(0))
    tape = ad.Tape()
    leaves = {n: tape.constant(store[n]) for n in store.names()}
    batch = encode_batch(tape, leaves, rels, nbs, mask, queries, cfg,
                         dense_table=dense, rng=np.random.default_rng(0))
    for i, e in enumerate(ents):
        sample = grab_sample(kg, int(e))
        single = encode_from_sample(store, table, cfg, int(queries[i]), sample,
                                    np.random.default_rng(0))
        np.testing.assert_allclose(batch.data[i], single.embedding, rtol=1e-9, atol=1e-12)


def test_encode_batch_matches_single_lstm(world):
    kg, table, store = world
    cfg = AggregatorConfig(kind="lstm", neighbor_budget=64)
    for e in range(4):
        sample = grab_sample(kg, e)
        single = encode_from_sample(store, None, cfg, 0, sample, np.random.default_rng(5))
        rels, nbs, mask = stack_samples(kg.neighborhood, [e], 64, np.random.default_rng(0))
        tape = ad.Tape()
        leaves = {n: tape.constant(store[n]) for n in store.names()}
        batch = encode_batch(tape, leaves, rels, nbs, mask, np.array([0]), cfg,
                             rng=np.random.default_rng(5))
        np.testing.assert_allclose(batch.data[0], single.embedding, rtol=1e-9, atol=1e-12)


def test_encode_batch_zero_neighbor_rows(world):
    kg, table, store = world
    for kind in AGGREGATOR_KINDS:
        cfg = AggregatorConfig(kind=kind, neighbor_budget=4)
        rels = np.zeros((2, 3), dtype=np.int64)
        nbs = np.zeros((2, 3), dtype=np.int64)
        mask = np.array([[True, True, False], [False, False, False]])
        tape = ad.Tape()
        leaves = {n: tape.constant(store[n]) for n in store.names()}
        out = encode_batch(tape, leaves, rels, nbs, mask, np.array([0, 0]), cfg,
                           dense_table=table.dense(), rng=np.random.default_rng(0))
        np.testing.assert_array_equal(out.data[1], np.zeros(10))
        assert np.abs(out.data[0]).max() > 0


def test_encode_batch_requires_rules(world):
    kg, table, store = world
    tape = ad.Tape()
    leaves = {n: tape.constant(store[n]) for n in store.names()}
    with pytest.raises(ValueError, match="rule table"):
        encode_batch(tape, leaves, np.zeros((1, 2), np.int64), np.zeros((1, 2), np.int64),
                     np.ones((1, 2), bool), np.array([0]), AggregatorConfig(kind="lan"))


def test_encode_samples_deterministically(world):
    kg, table, store = world
    e = max(range(kg.n_entities), key=lambda x: kg.neighborhood(x).shape[0])
    cfg = AggregatorConfig(kind="lan", neighbor_budget=2)
    encoded = []
    for _ in range(2):
        rng = np.random.default_rng(3)
        sample = sample_neighbors(kg.neighborhood(e), cfg.neighbor_budget, rng)
        encoded.append(encode_from_sample(store, table.dense(), cfg, 0, sample, rng))
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
        got = encode_from_sample(store, table, cfg, 1, sample, np.random.default_rng(0))
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
        got = encode_from_sample(store, dense, cfg, 1, grab_sample(kg, e), np.random.default_rng(0))
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
    rels, nbs, mask = stack_samples(
        kg.neighborhood, np.arange(kg.n_entities), 64, np.random.default_rng(0)
    )
    assert rels.shape[1] == widest
    assert mask.sum() == sum(kg.neighborhood(e).shape[0] for e in range(kg.n_entities))


def test_stack_samples_matches_per_entity_sampling():
    # degrees 0..9 under budgets 1 to 64: empty, whole and truncated rows mixed
    rng = np.random.default_rng(3)
    hoods = [np.stack([rng.integers(0, 5, size=k), rng.integers(0, 30, size=k)], axis=1)
             for k in rng.integers(0, 10, size=60)]
    hoods[5] = np.zeros((0, 2), dtype=np.int64)
    ents = np.concatenate([np.arange(60), [5, 7, 7]])
    for budget in (1, 4, 9, 64):
        ref_rng, got_rng = np.random.default_rng(8), np.random.default_rng(8)
        samples = [sample_neighbors(hoods[e], budget, ref_rng) for e in ents]
        width = max(1, max(s.n_valid for s in samples))
        rels, nbs, mask = stack_samples(lambda e: hoods[e], ents, budget, got_rng)
        np.testing.assert_array_equal(rels, np.stack([s.relations[:width] for s in samples]))
        np.testing.assert_array_equal(nbs, np.stack([s.entities[:width] for s in samples]))
        np.testing.assert_array_equal(mask, np.stack([s.mask[:width] for s in samples]))
        assert got_rng.bit_generator.state == ref_rng.bit_generator.state
    with pytest.raises(ValueError, match="budget"):
        stack_samples(lambda e: hoods[e], ents, 0, got_rng)
