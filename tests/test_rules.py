import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import grid_to_csr, make_graph, naive_confidence, oracle_logic, random_name_triples
from lankgc.encoder import AggregatorConfig, stack_samples
from lankgc.kg import GraphError, Vocabulary, graph_from_names
from lankgc.rules import (
    ConfidenceTable,
    export_table,
    import_table,
    logic_attention_batch,
    mine_confidence,
)


def three_entity_graph():
    """a carries both base relations, b only r1, c only r2."""
    return make_graph([
        ("a", "r1", "x1"),
        ("a", "r2", "x2"),
        ("b", "r1", "x3"),
        ("c", "r2", "x4"),
    ])


def carriers(kg, r):
    """The number of distinct entities that carry relation ``r`` in ``kg.triplets``."""
    return np.unique(kg.triplets[kg.triplets[:, 1] == r, 0]).size


def test_confidence_frozen_three_entity_case():
    kg = three_entity_graph()
    r1 = kg.vocab.relation_id("r1")
    r2 = kg.vocab.relation_id("r2")
    table = mine_confidence(kg)
    assert table.dense()[r1, r2] == 0.5
    assert table.dense()[r2, r1] == 0.5
    assert table.dense()[r1, r1] == 1.0
    assert carriers(kg, r1) == 2
    assert carriers(kg, r2) == 2


def test_self_implication_is_always_one():
    kg = three_entity_graph()
    table = mine_confidence(kg)
    for r in range(kg.n_relations):
        if carriers(kg, r) > 0:
            assert table.dense()[r, r] == 1.0


def test_inverse_relations_take_part():
    kg = three_entity_graph()
    table = mine_confidence(kg)
    r1_inv = kg.vocab.relation_id("r1**INV")
    # x1 and x3 each carry exactly the inverse of r1
    assert carriers(kg, r1_inv) == 2
    assert table.dense()[r1_inv, r1_inv] == 1.0
    assert table.dense()[r1_inv, kg.vocab.relation_id("r1")] == 0.0


def test_mine_requires_augmented_graph():
    raw = graph_from_names([("a", "r", "b")])
    with pytest.raises(GraphError, match="augmented"):
        mine_confidence(raw)


def test_lookup_range_checked():
    table = mine_confidence(three_entity_graph())
    with pytest.raises(GraphError, match="out of range"):
        logic_row(table, np.array([0]), np.ones(1, bool), table.n_relations)


def test_dense_matches_sparse():
    kg = three_entity_graph()
    table = mine_confidence(kg)
    naive = naive_confidence(kg)
    dense = table.dense()
    assert dense.shape == (table.n_relations, table.n_relations)
    for r1 in range(table.n_relations):
        for r2 in range(table.n_relations):
            assert dense[r1, r2] == naive.get((r1, r2), 0.0)


def test_table_matrix_is_read_only():
    source = np.array([[0.0, 0.5], [0.25, 0.0]])
    table = ConfidenceTable(source)
    assert table.n_relations == 2
    assert not table.dense().flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        table.dense()[0, 0] = 1.0
    assert source.flags.writeable  # freezing the table leaves the caller's array alone


def test_mined_matrix_is_c_ordered_so_a_logic_call_reads_it_in_place():
    # the sparse product comes back Fortran-ordered, which a logic call's flat view would copy whole
    kg = make_graph(random_name_triples(np.random.default_rng(4), 120, 300, 1500))
    dense = mine_confidence(kg).dense()
    assert dense.flags.c_contiguous and not dense.flags.writeable
    offsets, rels, _ = stack_samples(kg, np.arange(8), AggregatorConfig(neighbor_budget=16), (0,))
    tracemalloc.start()
    try:
        logic_attention_batch(dense, offsets, rels, rels[offsets[:-1]])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < dense.nbytes // 10


def assert_matches_naive(dense, naive):
    """Every cell equals the naive scan's, and the nonzero cells are exactly its pairs."""
    n = dense.shape[0]
    assert all(dense[r1, r2] == naive.get((r1, r2), 0.0) for r1 in range(n) for r2 in range(n))
    assert {tuple(pair) for pair in np.argwhere(dense).tolist()} == set(naive)


def seeded_graph(seed):
    """A random augmented graph of 5-39 entities and 1-7 relations, or ``None`` if it has no triples."""
    rng = np.random.default_rng(seed)
    triples = random_name_triples(
        rng, int(rng.integers(5, 40)), int(rng.integers(1, 8)), int(rng.integers(5, 120))
    )
    return make_graph(triples) if triples else None


@pytest.mark.parametrize("seed", range(10))
def test_miner_matches_naive_double_loop_exactly(seed):
    kg = seeded_graph(seed)
    if kg is None:
        return
    assert_matches_naive(mine_confidence(kg).dense(), naive_confidence(kg))


@given(st.integers(0, 10_000))
@settings(max_examples=30)
def test_miner_matches_naive_property(seed):
    rng = np.random.default_rng(seed)
    triples = random_name_triples(rng, 10, 4, 25)
    if not triples:
        return
    kg = make_graph(triples)
    assert_matches_naive(mine_confidence(kg).dense(), naive_confidence(kg))


# --- logic attention ---------------------------------------------------------

def logic_grid(dense, relations, mask, queries, **kw):
    """:func:`logic_attention_batch` of (B, K) slot grids, its weights laid back on the grid (0 at padding)."""
    mask = np.asarray(mask, dtype=bool)
    offsets, rels = grid_to_csr(mask, relations)
    w = np.zeros(mask.shape)
    w[mask] = logic_attention_batch(dense, offsets, rels, queries, **kw)
    return w


def logic_row(table, relations, mask, query, **kw):
    """Logic weights of one neighborhood: a B=1 :func:`logic_attention_batch`."""
    return logic_grid(table.dense(), relations[None], mask[None], np.array([query]), **kw)[0]


def two_relation_table():
    """conf(r1=>q)=conf(r2=>q)=0.6, conf(r2=>r1)=0.9, conf(r1=>r2)=0.1."""
    return ConfidenceTable([
        [0.0, 0.1, 0.6],
        [0.9, 0.0, 0.6],
        [0.0, 0.0, 0.0],
    ])


def test_logic_attention_frozen_raw():
    table = two_relation_table()
    rels = np.array([0, 1])
    mask = np.ones(2, bool)
    w = logic_row(table, rels, mask, query=2, mode="raw")
    assert w[0] == 0.6 / 0.9
    assert w[1] == 0.6 / 0.1  # denominator above the floor
    np.testing.assert_allclose(w, [0.6667, 6.0], atol=5e-5)


def test_logic_attention_frozen_normalized():
    table = two_relation_table()
    w = logic_row(table, np.array([0, 1]), np.ones(2, bool), query=2)
    np.testing.assert_allclose(w, [0.1, 0.9], atol=1e-12)
    assert w.sum() == pytest.approx(1.0, abs=1e-15)


def test_logic_attention_single_neighbor_empty_max():
    # nothing implies the lone relation, so the denominator defaults to 1
    table = ConfidenceTable([[0.0, 0.8], [0.0, 0.0]])
    w = logic_row(table, np.array([0]), np.ones(1, bool), query=1, mode="raw")
    assert w[0] == 0.8
    w = logic_row(table, np.array([0]), np.ones(1, bool), query=1)
    assert w[0] == 1.0


def test_logic_attention_epsilon_floor():
    table = ConfidenceTable([[0.0, 0.0, 0.5], [1e-9, 0.0, 0.0], [0.0, 0.0, 0.0]])
    w = logic_row(table, np.array([0, 1]), np.ones(2, bool), query=2,
                  mode="raw", epsilon=1e-3)
    assert w[0] == 0.5 / 1e-3


def test_logic_attention_zero_numerator_stays_zero():
    table = ConfidenceTable([[0.0, 0.0, 0.0], [0.9, 0.0, 0.0], [0.0, 0.0, 0.0]])
    w = logic_row(table, np.array([0, 1]), np.ones(2, bool), query=2)
    np.testing.assert_array_equal(w, [0.0, 0.0])


def test_logic_attention_masked_slots_are_zero():
    table = two_relation_table()
    rels = np.array([0, 1, 0])
    mask = np.array([True, True, False])
    w = logic_row(table, rels, mask, query=2)
    assert w[2] == 0.0
    np.testing.assert_allclose(w[:2], [0.1, 0.9], atol=1e-12)


def test_logic_attention_duplicate_relation_slots_share_weight():
    table = two_relation_table()
    w = logic_row(table, np.array([0, 1, 0]), np.ones(3, bool), query=2, mode="raw")
    assert w[0] == w[2]


def test_logic_attention_permutes_with_slots():
    table = two_relation_table()
    w = logic_row(table, np.array([0, 1]), np.ones(2, bool), query=2)
    v = logic_row(table, np.array([1, 0]), np.ones(2, bool), query=2)
    np.testing.assert_array_equal(w, v[::-1])


def test_logic_attention_validates_inputs():
    table = two_relation_table()
    with pytest.raises(ValueError, match="mode"):
        logic_row(table, np.array([0]), np.ones(1, bool), query=2, mode="softmax")
    with pytest.raises(GraphError, match="out of range"):
        logic_row(table, np.array([0]), np.ones(1, bool), query=5)


def test_batch_rejects_unknown_mode():
    dense = two_relation_table().dense()
    with pytest.raises(ValueError, match="mode"):
        logic_grid(dense, np.zeros((2, 1), np.int64), np.ones((2, 1), bool),
                   np.array([2, 2]), mode="softmax")


@pytest.mark.parametrize("bad", [-1, 3])
def test_batch_rejects_out_of_range_query(bad):
    dense = two_relation_table().dense()
    with pytest.raises(GraphError, match="out of range"):
        logic_grid(dense, np.zeros((2, 1), np.int64), np.ones((2, 1), bool),
                   np.array([2, bad]))


@given(st.integers(0, 10_000), st.sampled_from(["raw", "normalized"]))
@settings(max_examples=40)
def test_batch_matches_single(seed, mode):
    rng = np.random.default_rng(seed)
    n_rel = int(rng.integers(2, 7))
    dense = np.where(rng.random((n_rel, n_rel)) < 0.5, rng.random((n_rel, n_rel)), 0.0)
    bsz, k = int(rng.integers(1, 5)), int(rng.integers(1, 65))
    rels = rng.integers(0, n_rel, size=(bsz, k))
    counts = rng.integers(1, k + 1, size=bsz)
    mask = np.arange(k)[None, :] < counts[:, None]
    queries = rng.integers(0, n_rel, size=bsz)
    batch = logic_grid(dense, rels, mask, queries, mode=mode)
    for b in range(bsz):
        single = np.zeros(k)
        single[mask[b]] = oracle_logic(dense, rels[b][mask[b]], int(queries[b]), mode=mode)
        np.testing.assert_array_equal(batch[b], single)


def padded_grid_logic(dense, relations, mask, queries, mode="normalized", epsilon=1e-3):
    """The logic weights computed over the whole padded (B, K, K) grid: the reference form."""
    num = dense[relations, queries[:, None]]
    # cross[b, j', j] = conf(r_{j'} => r_j), with padding j' and identical
    # relation ids excluded from the max
    cross = dense[relations[:, :, None], relations[:, None, :]]
    excl = (~mask[:, :, None]) | (relations[:, :, None] == relations[:, None, :])
    cross = np.where(excl, -np.inf, cross)
    denom = cross.max(axis=1)
    denom = np.where(np.isneginf(denom), 1.0, denom)
    w = np.where(mask, num / np.maximum(denom, epsilon), 0.0)
    if mode == "normalized":
        totals = np.add.accumulate(w, axis=1)[:, -1:]  # a running sum over each row's slots; padding adds +0.0
        w = np.where(totals > 0.0, w / np.where(totals > 0.0, totals, 1.0), w)
    return w


@st.composite
def logic_batches(draw, max_width=8):
    """A confidence matrix with some zero columns and a (B, K) batch over it, with any mask."""
    n_rel = draw(st.integers(1, 12))
    bsz, k = draw(st.integers(1, 6)), draw(st.integers(1, max_width))

    def ints(hi, size):
        return np.array(draw(st.lists(st.integers(0, hi), min_size=size, max_size=size)), dtype=np.int64)

    cells = st.sampled_from([0.0, 1e-4, 0.2, 0.5, 1.0]) | st.floats(0.0, 1.0)
    dense = np.array(draw(st.lists(cells, min_size=n_rel * n_rel, max_size=n_rel * n_rel))).reshape(n_rel, n_rel)
    dense[:, draw(st.lists(st.integers(0, n_rel - 1), max_size=2))] = 0.0
    # a few distinct ids per batch, so rows repeat relations
    pool = ints(n_rel - 1, draw(st.integers(1, 4)))
    relations = pool[ints(pool.size - 1, bsz * k)].reshape(bsz, k)
    mask = np.array(draw(st.lists(st.booleans(), min_size=bsz * k, max_size=bsz * k))).reshape(bsz, k)
    return dense, relations, mask, ints(n_rel - 1, bsz)


@given(logic_batches(), st.sampled_from(["raw", "normalized"]), st.sampled_from([1e-3, 0.3, 0.6]))
@settings(max_examples=300, deadline=None)
def test_batch_equals_padded_grid_form_bitwise(batch, mode, epsilon):
    dense, relations, mask, queries = batch
    got = logic_grid(dense, relations, mask, queries, mode=mode, epsilon=epsilon)
    want = padded_grid_logic(dense, relations, mask, queries, mode=mode, epsilon=epsilon)
    assert got.tobytes() == want.tobytes()


@given(logic_batches(max_width=64), st.sampled_from(["raw", "normalized"]))
@settings(max_examples=200, deadline=None)
def test_each_row_has_the_same_bytes_alone_as_in_any_batch(batch, mode):
    dense, relations, mask, queries = batch
    offsets, rels = grid_to_csr(mask, relations)
    got = logic_attention_batch(dense, offsets, rels, queries, mode=mode)
    assert got.shape == rels.shape
    for b in range(queries.size):
        a, z = offsets[b], offsets[b + 1]
        alone = logic_attention_batch(dense, [0, z - a], rels[a:z], queries[b:b + 1], mode=mode)
        assert alone.tobytes() == got[a:z].tobytes()


def test_batch_equals_padded_grid_form_on_named_cases():
    # rows: duplicates, a single slot, empty, a mask that is no prefix, one id alone twice
    dense = np.array([
        [1.0, 0.5, 0.0, 0.2],
        [0.9, 1.0, 0.0, 0.0005],
        [0.4, 0.3, 0.0, 0.7],
        [0.0, 0.0, 0.0, 1.0],
    ])
    relations = np.array([[0, 1, 0, 3], [2, 0, 0, 0], [1, 1, 1, 1], [3, 0, 1, 2], [1, 3, 1, 0]])
    mask = np.array([[1, 1, 1, 1], [1, 0, 0, 0], [0, 0, 0, 0], [0, 1, 0, 1], [1, 0, 1, 0]], dtype=bool)
    queries = np.array([3, 0, 1, 3, 2])
    for mode in ("raw", "normalized"):
        for epsilon in (1e-3, 0.25):
            got = logic_grid(dense, relations, mask, queries, mode=mode, epsilon=epsilon)
            want = padded_grid_logic(dense, relations, mask, queries, mode=mode, epsilon=epsilon)
            assert got.tobytes() == want.tobytes()
            assert not got[2].any() and not got[~mask].any()


def test_batch_equals_padded_grid_form_on_truncated_samples():
    rng = np.random.default_rng(4)
    kg = make_graph(random_name_triples(rng, 25, 5, 150))
    dense = mine_confidence(kg).dense()
    degree = np.diff(kg.offsets)
    budget = int(degree.max()) - 3
    ents = np.arange(kg.n_entities)
    offsets, rels, _ = stack_samples(kg, ents, AggregatorConfig(neighbor_budget=budget), (0,))
    counts = np.diff(offsets)
    mask = np.arange(counts.max())[None, :] < counts[:, None]
    relations = np.zeros(mask.shape, dtype=np.int64)
    relations[mask] = rels
    assert mask.shape[1] == budget and (degree > budget).sum() > 1
    queries = rng.integers(0, kg.n_relations, size=ents.size)
    for mode in ("raw", "normalized"):
        got = logic_grid(dense, relations, mask, queries, mode=mode)
        assert got.tobytes() == padded_grid_logic(dense, relations, mask, queries, mode=mode).tobytes()


@pytest.mark.parametrize("bad", [-1, 3])
def test_batch_rejects_out_of_range_relation_of_a_real_slot(bad):
    dense = two_relation_table().dense()
    relations = np.array([[0, 1], [bad, 0]])
    with pytest.raises(GraphError, match=f"relation id out of range: {bad}"):
        logic_grid(dense, relations, np.ones((2, 2), bool), np.array([2, 2]))


def test_batch_ignores_relation_ids_of_padding():
    dense = two_relation_table().dense()
    mask = np.array([[True, True, False], [True, False, False]])
    queries = np.array([2, 2])
    want = logic_grid(dense, np.array([[0, 1, 0], [1, 0, 0]]), mask, queries)
    got = logic_grid(dense, np.array([[0, 1, -7], [1, 3, 99]]), mask, queries)
    assert got.tobytes() == want.tobytes()


def test_export_import_round_trip(tmp_path):
    kg = three_entity_graph()
    table = mine_confidence(kg)
    path = tmp_path / "rules.tsv"
    export_table(table.dense(), path, kg.vocab)
    back = import_table(path, kg.vocab)
    assert back.n_relations == table.n_relations
    np.testing.assert_array_equal(back.dense(), table.dense())


@pytest.mark.parametrize("seed", range(10))
def test_export_writes_naive_rows_sorted_by_id(seed, tmp_path):
    kg = seeded_graph(seed)
    if kg is None:
        return
    path = tmp_path / "rules.tsv"
    export_table(mine_confidence(kg).dense(), path, kg.vocab)
    name = kg.vocab.relation_name
    want = "".join(f"{name(r1)}\t{name(r2)}\t{c!r}\n" for (r1, r2), c in sorted(naive_confidence(kg).items()))
    assert path.read_bytes() == want.encode("utf-8")


def test_import_rejects_malformed_rows(tmp_path):
    vocab = Vocabulary(["a"], ["r"])
    path = tmp_path / "rules.tsv"
    path.write_text("r\tr\n")
    with pytest.raises(ValueError, match="expected 3"):
        import_table(path, vocab)


@pytest.mark.parametrize("row, message", [
    *[(f"r\tr\t{value}", f"confidence must be a number in [0, 1], got {value!r}")
      for value in ("nan", "inf", "-inf", "-0.5", "7.0", "1.0000001", "high")],
    ("r**INV\tr\t0.25", "pair r**INV => r is listed twice"),
    ("r\tq\t0.5", "unknown relation: 'q'"),
])
def test_import_rejects_bad_rows_naming_their_line(tmp_path, row, message):
    vocab = Vocabulary(["a"], ["r"])
    path = tmp_path / "rules.tsv"
    path.write_text("r**INV\tr\t0.5\n" + row + "\n")
    with pytest.raises(ValueError) as err:
        import_table(path, vocab)
    assert str(err.value) == f"{path}:2: {message}"
