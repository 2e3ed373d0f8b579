import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from helpers import oracle_score
from lankgc import autodiff as ad
from lankgc.decoder import SCORER_KINDS, check_scorer, score_batch, score_candidate_block, score_candidates


def run(kind, s, q, o):
    tape = ad.Tape()
    out = score_batch(
        tape,
        tape.constant(np.atleast_2d(np.asarray(s, dtype=float))),
        tape.constant(np.atleast_2d(np.asarray(q, dtype=float))),
        tape.constant(np.atleast_2d(np.asarray(o, dtype=float))),
        kind,
    )
    return float(out.data[0])


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
    tape = ad.Tape()
    out = score_batch(tape, tape.constant(S), tape.constant(Q), tape.constant(O), kind)
    for i in range(16):
        assert out.data[i] == pytest.approx(oracle_score(S[i], Q[i], O[i], kind), rel=1e-12)


@pytest.mark.parametrize("kind", SCORER_KINDS)
def test_score_is_differentiable(kind):
    rng = np.random.default_rng(9)
    S, Q, O = rng.normal(size=(3, 4, 6)) + 0.05  # nudge off transe kinks

    def build(arrays):
        tape = ad.Tape()
        leaves = {k: tape.leaf(arrays[k], requires_grad=True) for k in ("s", "q", "o")}
        loss = ad.sum_all(tape, score_batch(tape, leaves["s"], leaves["q"], leaves["o"], kind))
        tape.backward(loss)
        return float(loss.data), {k: v.grad for k, v in leaves.items()}

    ok, report = ad.finite_difference_check(build, {"s": S, "q": Q, "o": O})
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
    # 2500 candidates take a full and a ragged candidate pass; 7 queries over
    # 1000 candidates take passes of 2, 2, 2 and a ragged 1 query
    for n, dim in ((1, 2), (7, 6), (300, 32), (1000, 50), (2500, 8)):
        cands = rng.normal(size=(n, dim))
        q, fixed = rng.normal(size=dim), rng.normal(size=dim)
        tape = ad.Tape()
        c, qs, fs = (tape.constant(x) for x in (cands, np.tile(q, (n, 1)), np.tile(fixed, (n, 1))))
        s, o = (c, fs) if rank_side == "subject" else (fs, c)
        want = score_batch(tape, s, qs, o, kind).data
        got = score_candidates(cands, q, fixed, kind, rank_side)
        assert got.shape == (n,)
        assert got.tobytes() == want.tobytes()

        ends = np.concatenate([fixed[None], rng.normal(size=(6, dim))])
        block = score_candidate_block(cands, q, ends, kind, rank_side)
        assert block.shape == (7, n)
        assert block[0].tobytes() == want.tobytes()
        for end, row in zip(ends, block):
            e = tape.constant(np.tile(end, (n, 1)))
            s, o = (c, e) if rank_side == "subject" else (e, c)
            assert row.tobytes() == score_batch(tape, s, qs, o, kind).data.tobytes()
        for top, width in ((0, 7), (0, 3), (3, 3), (6, 3)):  # whole, then 3-query blocks, the last ragged
            part = score_candidate_block(cands, q, ends[top:top + width], kind, rank_side)
            for i, row in enumerate(part):
                assert row.tobytes() == score_candidates(cands, q, ends[top + i], kind, rank_side).tobytes()
                assert row.tobytes() == block[top + i].tobytes()
