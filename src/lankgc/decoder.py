"""Triplet scorers over encoded embeddings.  Higher score = more plausible.

    transe     -|s + q - o|_L1
    distmult   sum_k s_k q_k o_k
    complex    Re(sum_k s_k q_k conj(o_k)) with each embedding split into
               real (first d/2) and imaginary (last d/2) halves

Relation embeddings are looked up per query; inverse relations have
their own independent rows.

:func:`score_batch` scores rows on an autodiff tape, for training and
batched scoring.  :func:`score_columns` is the ranking scorer: it
scores many candidates against many fixed endpoints in plain numpy,
the candidates laid out (d, N) once by :func:`candidate_columns`, 8
feature rows added at a time in numpy's pairwise order, so that every
score equals :func:`score_batch`'s per-row ``np.sum(axis=1)``, the
reference, bit for bit.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad

SCORER_KINDS = ("transe", "distmult", "complex")


def check_scorer(kind, dim):
    if kind not in SCORER_KINDS:
        raise ValueError(f"unknown scorer: {kind!r}")
    if kind == "complex" and dim % 2 != 0:
        raise ValueError(f"complex scorer needs an even embedding dimension, got {dim}")


def score_batch(tape, subjects, queries, objects, kind):
    """Score (B,) triplets from (B, d) embedding Values."""
    dim = subjects.data.shape[1]
    check_scorer(kind, dim)
    if kind == "transe":
        diff = ad.sub(tape, ad.add(tape, subjects, queries), objects)
        return ad.scale(tape, ad.l1_norm(tape, diff), -1.0)
    if kind == "distmult":
        return ad.row_dot(tape, ad.mul(tape, subjects, queries), objects)
    half = dim // 2
    s_re, s_im = ad.narrow(tape, subjects, 0, half), ad.narrow(tape, subjects, half, dim)
    q_re, q_im = ad.narrow(tape, queries, 0, half), ad.narrow(tape, queries, half, dim)
    o_re, o_im = ad.narrow(tape, objects, 0, half), ad.narrow(tape, objects, half, dim)
    # Re((s_re + i s_im)(q_re + i q_im)(o_re - i o_im)) summed over components
    t1 = ad.row_dot(tape, ad.mul(tape, s_re, q_re), o_re)
    t2 = ad.row_dot(tape, ad.mul(tape, s_im, q_im), o_re)
    t3 = ad.row_dot(tape, ad.mul(tape, s_re, q_im), o_im)
    t4 = ad.row_dot(tape, ad.mul(tape, s_im, q_re), o_im)
    return ad.add(tape, ad.sub(tape, t1, t2), ad.add(tape, t3, t4))


_TILE_CELLS = 6144  # (query, candidate) scores per tile; its (8, tile) temporaries stay in cache
_LANES, _RUN = 8, 128  # numpy's pairwise sum: 8 running sums over runs of at most 128 values


def candidate_columns(candidates, query, kind, rank_side):
    """The (d, N) layout of (N, d) candidates for :func:`score_columns`; a ranker makes it once."""
    check_scorer(kind, candidates.shape[1])
    return _factors(candidates, query, kind, _is_subject(rank_side))


def score_columns(columns, query, fixed, kind, rank_side):
    """Score candidates laid out by :func:`candidate_columns` against (Q, d) fixed endpoints -> (Q, N).

    ``query`` is the (d,) relation vector, and ``rank_side`` (``"subject"`` or
    ``"object"``) the slot the candidates fill.  The columns are contiguous (d, N)
    factors (``s + q``, ``s * q`` or complex's four products for subjects).  Scores
    come in tiles of at most ``_TILE_CELLS`` (query, candidate) pairs, adding a
    tile's features 8 rows at a time in numpy's pairwise order: 8 running lanes,
    then ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))``, then the leftover features one by
    one; below 8 features a running sum from 0.0; above 128 the halves split at
    ``n//2 - (n//2) % 8``; the total is added to 0.0.  Each score equals
    :func:`score_batch`'s ``np.sum(axis=1)`` on the tiled rows bit for bit.
    """
    fixed = _factors(np.reshape(fixed, (-1, query.size)), query, kind, not _is_subject(rank_side))
    n, nq = columns[0].shape[1], fixed[0].shape[1]
    out = np.empty((nq, n))
    cols = max(1, min(n, _TILE_CELLS))
    rows = max(1, min(nq, _TILE_CELLS // cols))
    for lo in range(0, n, cols):
        for top in range(0, nq, rows):
            t = [_pairwise_sum(f[:, top:top + rows], c[:, lo:lo + cols], kind) for f, c in zip(fixed, columns)]
            tile = t[0] * -1.0 if kind == "transe" else (t[0] - t[1]) + (t[2] + t[3]) if kind == "complex" else t[0]
            out[top:top + tile.shape[0], lo:lo + tile.shape[1]] = tile
    return out


def _is_subject(rank_side):
    if rank_side not in ("subject", "object"):
        raise ValueError(f"rank_side must be subject or object, got {rank_side!r}")
    return rank_side == "subject"


def _factors(x, query, kind, subject):
    """The (k, M) factors of each score term from (M, d) rows ``x``, as in :func:`score_batch`:
    ``s + q``, ``s * q`` or complex's four products for subjects, the rows or their halves for objects."""
    xt = np.ascontiguousarray(np.transpose(x))
    half = xt.shape[0] // 2
    if subject and kind == "complex":
        s_re, s_im, q_re, q_im = xt[:half], xt[half:], query[:half, None], query[half:, None]
        return [s_re * q_re, s_im * q_im, s_re * q_im, s_im * q_re]
    if subject:
        return [xt + query[:, None] if kind == "transe" else xt * query[:, None]]
    return [xt[:half], xt[:half], xt[half:], xt[half:]] if kind == "complex" else [xt]


def _pairwise_sum(fixed, cands, kind):
    """One term of a tile, the sum over k of ``|f - c|`` (transe) or ``f * c`` -> (q, n).

    ``fixed`` is (k, q) and ``cands`` (k, n).  ``|f - c|`` is ``|(s + q) - o|``
    whichever side is fixed, as ``a - b`` is ``-(b - a)``.
    """

    def terms(k, width):  # features k..k+width-1 as a fresh (width, q, n) array
        f, c = fixed[k:k + width, :, None], cands[k:k + width, None, :]
        if kind == "transe":
            diff = f - c
            return np.abs(diff, out=diff)
        return f * c

    res = _pairwise(terms, 0, fixed.shape[0], (fixed.shape[1], cands.shape[1]))
    res += 0.0  # numpy adds the sum to its identity 0.0, which turns -0.0 into 0.0
    return res


def _pairwise(terms, lo, n, shape):
    """Features lo..lo+n-1 of ``terms`` added in numpy's pairwise order -> ``shape``.

    Not a closure: a recursive closure is a reference cycle that holds the columns until gc runs.
    """
    if n > _RUN:
        half = n // 2 - (n // 2) % _LANES
        return _pairwise(terms, lo, half, shape) + _pairwise(terms, lo + half, n - half, shape)
    stop = lo + n - n % _LANES
    if n < _LANES:
        res = np.zeros(shape)
    else:
        lanes = terms(lo, _LANES)
        for k in range(lo + _LANES, stop, _LANES):
            lanes += terms(k, _LANES)
        pairs = lanes[0::2] + lanes[1::2]
        res = (pairs[0] + pairs[1]) + (pairs[2] + pairs[3])
    for k in range(stop, lo + n):
        res += terms(k, 1)[0]
    return res
