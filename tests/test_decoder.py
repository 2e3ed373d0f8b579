from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from helpers import finite_difference_check, oracle_score
from lankgc import autodiff as ad
from lankgc import decoder
from lankgc.decoder import SCORER_KINDS, candidate_columns, check_scorer, score_batch, score_columns


def run(kind, s, q, o):
    out = score_batch(
        ad.Value(np.atleast_2d(np.asarray(s, dtype=float))),
        ad.Value(np.atleast_2d(np.asarray(q, dtype=float))),
        ad.Value(np.atleast_2d(np.asarray(o, dtype=float))),
        kind,
    )
    return float(out.data[0])


def with_negative_zeros(rng, x):
    """``x`` with about a third of its entries set to -0.0 and a few to 0.0."""
    x = x.copy()
    pick = rng.random(x.shape)
    x[pick < 0.3] = -0.0
    x[pick > 0.95] = 0.0
    return x


def batch_scores(cands, q, end, kind, rank_side):
    """:func:`score_batch` of every candidate against one fixed endpoint, the tiled rows."""
    n = cands.shape[0]
    c, qs, e = (ad.Value(x) for x in (cands, np.tile(q, (n, 1)), np.tile(end, (n, 1))))
    s, o = (c, e) if rank_side == "subject" else (e, c)
    return score_batch(s, qs, o, kind).data


def test_check_scorer():
    with pytest.raises(ValueError, match="unknown scorer"):
        check_scorer("rotate", 4)
    with pytest.raises(ValueError, match="even"):
        check_scorer("complex", 5)
    check_scorer("complex", 6)


def test_transe_frozen():
    # |(0,0) + (1,0) - (0,1)|_1 = 2, negated
    assert run("transe", [0.0, 0.0], [1.0, 0.0], [0.0, 1.0]) == -2.0


def test_distmult_frozen():
    assert run("distmult", [1.0, 2.0], [1.0, 1.0], [3.0, 4.0]) == 11.0


def test_hand_case_all_kinds():
    s, q, o = [1.0, 2.0], [0.5, -1.0], [1.0, 0.0]
    assert run("transe", s, q, o) == pytest.approx(-1.5)
    assert run("distmult", s, q, o) == pytest.approx(0.5)
    # complex with d=2: re half (1,), im half (2,); q (0.5, -1), o (1, 0)
    # t1 = 0.5, t2 = -2, t3 = 0, t4 = 0
    assert run("complex", s, q, o) == pytest.approx(2.5)


def test_transe_peaks_at_exact_translation():
    rng = np.random.default_rng(0)
    s = rng.normal(size=5)
    q = rng.normal(size=5)
    assert run("transe", s, q, s + q) == 0.0
    assert run("transe", s, q, s + q + 0.1) < 0.0


def test_distmult_is_endpoint_symmetric_transe_is_not():
    rng = np.random.default_rng(1)
    s, q, o = rng.normal(size=(3, 4))
    assert run("distmult", s, q, o) == pytest.approx(run("distmult", o, q, s))
    assert run("transe", s, q, o) != pytest.approx(run("transe", o, q, s))


def test_complex_with_zero_imaginary_parts_is_distmult():
    rng = np.random.default_rng(2)
    re = rng.normal(size=(3, 3))
    full = np.concatenate([re, np.zeros_like(re)], axis=1)
    got = run("complex", full[0], full[1], full[2])
    want = float(np.sum(re[0] * re[1] * re[2]))
    assert got == want


def test_complex_object_conjugation_witness():
    # swapping endpoints conjugates the product, which flips the sign of
    # the imaginary cross terms; pick values where that matters
    s = [0.0, 1.0]
    q = [0.0, 1.0]
    o = [1.0, 1.0]
    assert run("complex", s, q, o) != run("complex", o, q, s)


@pytest.mark.parametrize("kind", SCORER_KINDS)
def test_batch_matches_oracle(kind):
    rng = np.random.default_rng(7)
    S, Q, O = rng.normal(size=(3, 16, 8))
    out = score_batch(ad.Value(S), ad.Value(Q), ad.Value(O), kind)
    for i in range(16):
        assert out.data[i] == pytest.approx(oracle_score(S[i], Q[i], O[i], kind), rel=1e-12)


@pytest.mark.parametrize("kind", SCORER_KINDS)
def test_score_is_differentiable(kind):
    rng = np.random.default_rng(9)
    S, Q, O = rng.normal(size=(3, 4, 6)) + 0.05  # nudge off transe kinks

    def build(arrays):
        leaves = {k: ad.Value(arrays[k], requires_grad=True) for k in ("s", "q", "o")}
        loss = ad.sum_all(score_batch(leaves["s"], leaves["q"], leaves["o"], kind))
        ad.backward(loss)
        return float(loss.data), {k: v.grad for k, v in leaves.items()}

    ok, report = finite_difference_check(build, {"s": S, "q": Q, "o": O})
    assert ok, report


@given(
    hnp.arrays(np.float64, (3, 6), elements=st.floats(-3, 3,
               allow_nan=False, allow_infinity=False))
)
def test_transe_never_positive(rows):
    assert run("transe", rows[0], rows[1], rows[2]) <= 0.0


@pytest.mark.parametrize("kind", SCORER_KINDS)
@pytest.mark.parametrize("rank_side", ["subject", "object"])
def test_score_candidates_bitwise_equals_score_batch(kind, rank_side):
    rng = np.random.default_rng(21)
    # 7 queries over 2500 candidates take query tiles of 2, 2, 2 and a ragged 1;
    # 13000 candidates take two full and a ragged column tile per query.  The
    # cases after the first five cover d < 8, d not a multiple of 8 and d > 128
    # (where numpy's pairwise np.sum would split its halves), with -0.0 entries
    # on both sides.
    cases = ((1, 2), (7, 6), (300, 32), (1000, 50), (2500, 8),
             (40, 1), (50, 5), (30, 9), (20, 15), (60, 24), (25, 100), (10, 130), (12, 256), (13000, 9))
    for case, (n, dim) in enumerate(cases):
        if kind == "complex" and dim % 2:
            continue
        cands = rng.normal(size=(n, dim))
        q, fixed = rng.normal(size=dim), rng.normal(size=dim)
        if case >= 5:
            cands, fixed = with_negative_zeros(rng, cands), with_negative_zeros(rng, fixed)
        c, qs, fs = (ad.Value(x) for x in (cands, np.tile(q, (n, 1)), np.tile(fixed, (n, 1))))
        s, o = (c, fs) if rank_side == "subject" else (fs, c)
        want = score_batch(s, qs, o, kind).data
        columns = candidate_columns(cands, q, kind, rank_side)
        got = score_columns(columns, q, fixed, kind, rank_side)[0]
        assert got.shape == (n,)
        assert got.tobytes() == want.tobytes()

        ends = np.concatenate([fixed[None], rng.normal(size=(6, dim))])
        block = score_columns(columns, q, ends, kind, rank_side)
        assert block.shape == (7, n)
        assert block[0].tobytes() == want.tobytes()
        for end, row in zip(ends, block):
            e = ad.Value(np.tile(end, (n, 1)))
            s, o = (c, e) if rank_side == "subject" else (e, c)
            assert row.tobytes() == score_batch(s, qs, o, kind).data.tobytes()
        for top, width in ((0, 7), (0, 3), (3, 3), (6, 3)):  # whole, then 3-query blocks, the last ragged
            part = score_columns(columns, q, ends[top:top + width], kind, rank_side)
            for i, row in enumerate(part):
                assert row.tobytes() == score_columns(columns, q, ends[top + i], kind, rank_side)[0].tobytes()
                assert row.tobytes() == block[top + i].tobytes()


@pytest.mark.parametrize("kind", SCORER_KINDS)
@pytest.mark.parametrize("rank_side", ["subject", "object"])
@pytest.mark.parametrize("cells", [1, 5, 12])
def test_score_candidate_block_bitwise_across_small_tiles(kind, rank_side, cells, monkeypatch):
    # 1 cell: one query and one candidate per tile; 5: ragged column tiles of 5
    # over 23 candidates; 12 over 3 candidates: query tiles of 4, the last ragged.
    # d = 300 gives complex halves of 150, running sums of 150 products
    monkeypatch.setattr(decoder, "_TILE_CELLS", cells)
    rng = np.random.default_rng(cells)
    for n, nq, dim in ((23, 6, 2), (23, 3, 10), (3, 7, 34), (5, 9, 130), (4, 3, 300), (23, 2, 1), (3, 5, 9)):
        if kind == "complex" and dim % 2:
            continue
        cands = with_negative_zeros(rng, rng.normal(size=(n, dim)))
        ends = with_negative_zeros(rng, rng.normal(size=(nq, dim)))
        q = rng.normal(size=dim)
        block = score_columns(candidate_columns(cands, q, kind, rank_side), q, ends, kind, rank_side)
        assert block.shape == (nq, n)
        for end, row in zip(ends, block):
            assert row.tobytes() == batch_scores(cands, q, end, kind, rank_side).tobytes()


@settings(max_examples=150, deadline=None)
@given(data=st.data(), kind=st.sampled_from(SCORER_KINDS), rank_side=st.sampled_from(["subject", "object"]),
       cells=st.sampled_from([1, 7, 64, decoder._TILE_CELLS]))
def test_score_candidate_block_bitwise_hypothesis(data, kind, rank_side, cells):
    dim = data.draw(st.integers(1, 150).map(lambda d: 2 * d if kind == "complex" else d), label="dim")
    n, nq = data.draw(st.integers(1, 30), label="n"), data.draw(st.integers(1, 5), label="nq")
    entries = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-3, 3, allow_nan=False, width=64))
    cands = data.draw(hnp.arrays(np.float64, (n, dim), elements=entries), label="cands")
    ends = data.draw(hnp.arrays(np.float64, (nq, dim), elements=entries), label="ends")
    q = data.draw(hnp.arrays(np.float64, dim, elements=entries), label="q")
    with mock.patch.object(decoder, "_TILE_CELLS", cells):
        block = score_columns(candidate_columns(cands, q, kind, rank_side), q, ends, kind, rank_side)
    for end, row in zip(ends, block):
        assert row.tobytes() == batch_scores(cands, q, end, kind, rank_side).tobytes()


@pytest.mark.parametrize("rank_side", ["foo", None])
def test_scorer_rejects_an_unknown_rank_side(rank_side):
    cands, q = np.ones((3, 4)), np.ones(4)
    with pytest.raises(ValueError, match=f"rank_side must be subject or object, got {rank_side!r}"):
        candidate_columns(cands, q, "transe", rank_side)
    columns = candidate_columns(cands, q, "distmult", "object")
    with pytest.raises(ValueError, match=f"got {rank_side!r}"):
        score_columns(columns, q, np.ones(4), "distmult", rank_side)


@pytest.mark.parametrize("dim", [3, 9, 200])
def test_score_candidate_block_sums_negative_zeros_to_zero(dim):
    # every product is -0.0; a running sum from 0.0 gives +0.0
    cands, q, ends = np.full((4, dim), -0.0), np.ones(dim), np.ones((2, dim))
    for rank_side in ("subject", "object"):
        block = score_columns(candidate_columns(cands, q, "distmult", rank_side), q, ends, "distmult", rank_side)
        assert not np.signbit(block).any()
        assert block[0].tobytes() == batch_scores(cands, q, ends[0], "distmult", rank_side).tobytes()


def running_score(s, q, o, kind):
    """One score with each term added one Python float at a time, from 0.0 in feature order."""

    def running(terms):
        acc = 0.0
        for x in terms:
            acc += x
        return acc

    d = len(s)
    if kind == "transe":
        return -running(abs((s[k] + q[k]) - o[k]) for k in range(d))
    if kind == "distmult":
        return running((s[k] * q[k]) * o[k] for k in range(d))
    h = d // 2
    re, im = range(h), range(h, d)
    t1 = running((s[a] * q[a]) * o[a] for a in re)
    t2 = running((s[b] * q[b]) * o[a] for a, b in zip(re, im))
    t3 = running((s[a] * q[b]) * o[b] for a, b in zip(re, im))
    t4 = running((s[b] * q[a]) * o[b] for a, b in zip(re, im))
    return (t1 - t2) + (t3 + t4)


@pytest.mark.parametrize("kind", SCORER_KINDS)
@pytest.mark.parametrize("rank_side", ["subject", "object"])
@pytest.mark.parametrize("dim", [9, 32, 130])
def test_every_score_is_a_running_sum_in_feature_order(kind, rank_side, dim):
    # at these sizes numpy's pairwise np.sum adds in another order and differs in the last bits
    dim = 2 * dim if kind == "complex" and dim % 2 else dim
    rng = np.random.default_rng(dim)
    cands = with_negative_zeros(rng, rng.normal(size=(20, dim)) * 10.0 ** rng.integers(-3, 4, size=(20, dim)))
    ends = with_negative_zeros(rng, rng.normal(size=(3, dim)))
    q = with_negative_zeros(rng, rng.normal(size=dim))
    block = score_columns(candidate_columns(cands, q, kind, rank_side), q, ends, kind, rank_side)
    for end, row in zip(ends, block):
        pairs = [(c, end) if rank_side == "subject" else (end, c) for c in cands.tolist()]
        want = np.array([running_score(s, q.tolist(), o, kind) for s, o in pairs])
        assert batch_scores(cands, q, end, kind, rank_side).tobytes() == want.tobytes()
        assert row.tobytes() == want.tobytes()
