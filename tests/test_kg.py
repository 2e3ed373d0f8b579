from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import random_name_triples
from lankgc.encoder import AggregatorConfig, stack_samples
from lankgc.kg import (
    GraphError,
    INVERSE_SUFFIX,
    KnowledgeGraph,
    ParseError,
    Vocabulary,
    augment_inverses,
    graph_from_names,
    load_labeled_triplets,
    load_triplets,
    parse_triplet_file,
    write_triplet_file,
)


def test_parse_dedup_keeps_first_occurrence(tmp_path):
    p = tmp_path / "t.tsv"
    p.write_text("a\tr\tb\nc\tr\td\na\tr\tb\n")
    assert parse_triplet_file(p) == [("a", "r", "b"), ("c", "r", "d")]


def test_parse_reports_line_number(tmp_path):
    p = tmp_path / "t.tsv"
    p.write_text("a\tr\tb\na\tb\n")
    with pytest.raises(ParseError, match=r":2: expected 3"):
        parse_triplet_file(p)


def test_parse_rejects_reserved_suffix(tmp_path):
    p = tmp_path / "t.tsv"
    p.write_text(f"a\tr{INVERSE_SUFFIX}\tb\n")
    with pytest.raises(ParseError, match="reserved"):
        parse_triplet_file(p)


def test_parse_skips_blank_lines(tmp_path):
    p = tmp_path / "t.tsv"
    p.write_text("a\tr\tb\n\nc\tr\td\n")
    assert len(parse_triplet_file(p)) == 2


def test_write_triplet_file_writes_one_line_per_triplet_and_parses_back(tmp_path):
    p = tmp_path / "t.tsv"
    write_triplet_file(p, [("a", "r", "b"), ("c", "r", "d"), ("a", "r", "b")])
    assert p.read_bytes() == b"a\tr\tb\nc\tr\td\na\tr\tb\n"
    assert parse_triplet_file(p) == [("a", "r", "b"), ("c", "r", "d")]


def test_load_triplets_rejects_empty(tmp_path):
    p = tmp_path / "t.tsv"
    p.write_text("")
    with pytest.raises(GraphError, match="empty"):
        load_triplets(p)


def test_load_labeled_triplets(tmp_path):
    p = tmp_path / "t.tsv"
    p.write_text("a\tr\tb\t1\nc\tr\td\t0\n")
    assert load_labeled_triplets(p) == [("a", "r", "b", 1), ("c", "r", "d", 0)]
    p.write_text("a\tr\tb\t2\n")
    with pytest.raises(ParseError, match="label"):
        load_labeled_triplets(p)


def test_vocabulary_ids_are_lexicographic():
    vocab = Vocabulary(["zeta", "alpha", "mid"], ["r2", "r1"])
    assert vocab.entities == ["alpha", "mid", "zeta"]
    assert vocab.entity_id("alpha") == 0
    assert vocab.entity_id("zeta") == 2
    assert vocab.relation_id("r1") == 0
    assert vocab.relation_name(0) == "r1"


def test_vocabulary_inverse_relation_ids():
    vocab = Vocabulary(["a"], ["r1", "r2"])
    assert vocab.relation_id("r1" + INVERSE_SUFFIX) == 2
    assert vocab.relation_name(3) == "r2" + INVERSE_SUFFIX
    with pytest.raises(GraphError):
        vocab.relation_id("nope" + INVERSE_SUFFIX)
    with pytest.raises(GraphError):
        vocab.relation_name(4)


def test_vocabulary_unknown_names_rejected():
    vocab = Vocabulary(["a"], ["r"])
    with pytest.raises(GraphError, match="unknown entity"):
        vocab.entity_id("b")
    with pytest.raises(GraphError, match="unknown relation"):
        vocab.relation_id("s")


def facts(g):
    """The graph's facts as a set of (s, r, o) int tuples."""
    return {tuple(t) for t in g.triplets.tolist()}


def test_same_triples_same_ids_regardless_of_order():
    triples = [("a", "r1", "b"), ("c", "r2", "a"), ("b", "r1", "c")]
    g1 = graph_from_names(triples)
    g2 = graph_from_names(list(reversed(triples)))
    assert g1.vocab.entities == g2.vocab.entities
    assert set(facts(g1)) == set(facts(g2))


def test_augmentation_adds_inverse_facts():
    g = graph_from_names([("a", "r1", "b"), ("c", "r2", "a")])
    aug = augment_inverses(g)
    m = g.vocab.n_relations
    assert aug.n_relations == 2 * m
    assert aug.triplets.shape[0] == 2 * g.triplets.shape[0]
    for s, r, o in g.triplets:
        assert (int(o), int(r) + m, int(s)) in facts(aug)
    with pytest.raises(GraphError, match="already"):
        augment_inverses(aug)


def test_augmentation_self_loop():
    g = graph_from_names([("a", "r", "a"), ("a", "r", "b")])
    aug = augment_inverses(g)
    a = g.vocab.entity_id("a")
    assert (a, 0, a) in facts(aug)
    assert (a, 1, a) in facts(aug)


def test_neighborhood_frozen_example():
    # N(a) holds the outgoing fact through r1 and the incoming fact
    # through the inverse of r2.
    aug = augment_inverses(graph_from_names([("a", "r1", "b"), ("c", "r2", "a")]))
    v = aug.vocab
    nb = aug.neighborhood(v.entity_id("a"))
    expect = np.array([
        [v.relation_id("r1"), v.entity_id("b")],
        [v.relation_id("r2" + INVERSE_SUFFIX), v.entity_id("c")],
    ])
    np.testing.assert_array_equal(nb, expect)


def test_neighborhood_bounds_checked():
    g = graph_from_names([("a", "r", "b")])
    with pytest.raises(GraphError, match="out of range"):
        g.neighborhood(99)


def test_neighborhood_views_are_read_only():
    aug = augment_inverses(graph_from_names([("a", "r1", "b"), ("c", "r2", "a")]))
    nb = aug.neighborhood(aug.vocab.entity_id("a"))
    before = nb.copy()
    with pytest.raises(ValueError, match="read-only"):
        nb[0, 1] = 99
    np.testing.assert_array_equal(aug.neighborhood(aug.vocab.entity_id("a")), before)


def test_csr_arrays_are_built_on_first_read_and_stay_read_only():
    raw = graph_from_names([("a", "r1", "b"), ("c", "r2", "a"), ("a", "r1", "c")])
    aug = augment_inverses(raw)
    assert raw._csr is None and aug._csr is None  # augmenting reads triplets only
    offsets, pairs = aug.offsets, aug.pairs
    assert aug.offsets is offsets and aug.pairs is pairs
    assert not offsets.flags.writeable and not pairs.flags.writeable
    assert offsets.tolist() == [0, 3, 4, 6]
    assert pairs.tolist() == [[0, 1], [0, 2], [3, 2], [2, 0], [1, 0], [2, 0]]


def test_triplet_ids_match_per_name_lookups():
    vocab = Vocabulary(["a", "b", "c"], ["r1", "r2"])
    triples = [("c", "r2", "a"), ("a", "r1" + INVERSE_SUFFIX, "b"), ("b", "r1", "b")]
    want = [[vocab.entity_id(s), vocab.relation_id(r), vocab.entity_id(o)] for s, r, o in triples]
    assert vocab.triplet_ids(triples).tolist() == want == [[2, 1, 0], [0, 2, 1], [1, 0, 1]]
    assert vocab.triplet_ids([]).shape == (0, 3)
    for bad, message in (("x", "r1", "a"), "unknown entity: 'x'"), (("a", "r1", "y"), "unknown entity: 'y'"), \
            (("a", "r3", "b"), "unknown relation: 'r3'"), (("a", "r3" + INVERSE_SUFFIX, "b"), "unknown relation"):
        with pytest.raises(GraphError, match=message):
            vocab.triplet_ids(triples + [bad])


@given(st.integers(0, 10_000))
def test_adjacency_matches_naive_scan(seed):
    rng = np.random.default_rng(seed)
    triples = random_name_triples(rng, 12, 3, 30)
    if not triples:
        return
    aug = augment_inverses(graph_from_names(triples))
    for e in range(aug.n_entities):
        naive = sorted(
            (int(r), int(o)) for s, r, o in aug.triplets if int(s) == e
        )
        got = [tuple(row) for row in aug.neighborhood(e)]
        assert got == naive


def test_empty_graph_rejected():
    with pytest.raises(GraphError, match="empty"):
        graph_from_names([])


# --- neighbor sampling -------------------------------------------------------

def big_neighborhood(n):
    """n distinct (relation, entity) rows in adjacency order."""
    rng = np.random.default_rng(7)
    flat = rng.choice(5 * 50, size=n, replace=False)
    nb = np.stack([flat // 50, flat % 50], axis=1).astype(np.int64)
    return nb[np.lexsort((nb[:, 1], nb[:, 0]))]


def sample_neighbors(nb, budget, key):
    """The slots :func:`stack_samples` keeps of one ``(k, 2)`` neighborhood, as (relation, entity) rows."""
    graph = SimpleNamespace(offsets=np.array([0, len(nb)]), pairs=np.asarray(nb, dtype=np.int64).reshape(-1, 2))
    _, rels, ents = stack_samples(graph, [0], AggregatorConfig(neighbor_budget=budget), key)
    return np.stack([rels, ents], axis=1)


def test_sample_within_budget_is_identity():
    nb = big_neighborhood(10)
    for key in ((0,), (1,)):  # a neighborhood that fits draws nothing, whatever the key
        s = sample_neighbors(nb, 16, key)
        assert s.shape == (10, 2)
        np.testing.assert_array_equal(s, nb)


def test_sample_over_budget_draws_distinct_subset_in_order():
    nb = big_neighborhood(100)
    s = sample_neighbors(nb, 64, (1,))
    assert s.shape == (64, 2)
    rows = {tuple(row) for row in nb}
    got = [tuple(row) for row in s.tolist()]
    assert all(g in rows for g in got)
    # subset stays in adjacency order, i.e. sorted by (relation, entity)
    assert got == sorted(got)
    # without replacement: 64 distinct rows
    assert len(set(got)) == 64


def test_sample_same_seed_is_bit_identical():
    nb = big_neighborhood(100)
    a = sample_neighbors(nb, 16, (42,))
    b = sample_neighbors(nb, 16, (42,))
    np.testing.assert_array_equal(a, b)


def test_sample_empty_neighborhood_has_no_rows():
    s = sample_neighbors(np.zeros((0, 2), dtype=np.int64), 4, (0,))
    assert s.shape == (0, 2)


def test_sample_budget_validated():
    with pytest.raises(ValueError, match="budget"):
        sample_neighbors(np.zeros((0, 2), dtype=np.int64), 0, (0,))


@given(st.integers(1, 20), st.integers(1, 30), st.integers(0, 1000))
def test_sample_shape_properties(budget, n, seed):
    nb = big_neighborhood(n)
    s = sample_neighbors(nb, budget, (seed,))
    assert s.shape == (min(n, budget), 2)
    assert {tuple(row) for row in s.tolist()} <= {tuple(row) for row in nb.tolist()}
