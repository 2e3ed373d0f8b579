"""Triplet scorers over encoded embeddings.  Higher score = more plausible.

    transe     -|s + q - o|_L1
    distmult   sum_k s_k q_k o_k
    complex    Re(sum_k s_k q_k conj(o_k)) with each embedding split into
               real (first d/2) and imaginary (last d/2) halves

Relation embeddings are looked up per query; inverse relations have
their own independent rows.

:func:`score_batch` scores rows on an autodiff tape, for training and
batched scoring.  :func:`score_candidates` scores many candidates against
one fixed endpoint in plain numpy, for ranking; it performs the same
element operations in the same order, so the two agree bit for bit.
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


_BLOCK_ROWS = 2048  # candidate rows per scoring pass: a (2048, d) buffer stays in cache


def score_candidates(candidates, query, fixed, kind, rank_side):
    """Score (N, d) candidates in the ``rank_side`` slot against one fixed endpoint.

    ``query`` and ``fixed`` are (d,) vectors, broadcast over the
    candidate rows; ``rank_side`` is ``"subject"`` or ``"object"``.
    Rows go through in blocks, each block's element operations in one
    preallocated buffer small enough to stay in cache.  The result
    equals :func:`score_batch` on the tiled rows bit for bit.
    """
    n, dim = candidates.shape
    check_scorer(kind, dim)
    out = np.empty(n)
    buf = np.empty((min(n, _BLOCK_ROWS), dim // 2 if kind == "complex" else dim))
    for lo in range(0, n, _BLOCK_ROWS):
        block = candidates[lo:lo + _BLOCK_ROWS]
        subj, obj = (block, fixed) if rank_side == "subject" else (fixed, block)
        out[lo:lo + block.shape[0]] = _score_rows(subj, query, obj, kind, buf[:block.shape[0]])
    return out


def _score_rows(subj, query, obj, kind, buf):
    """Scores of one block; either ``subj`` or ``obj`` is the (d,) fixed side."""
    if kind == "transe":
        head = np.add(subj, query, out=buf if subj.ndim == 2 else None)
        return np.abs(np.subtract(head, obj, out=buf), out=buf).sum(axis=1) * -1.0
    if kind == "distmult":
        return _product_sum(subj, query, obj, buf)
    half = subj.shape[-1] // 2
    re, im = slice(0, half), slice(half, None)

    def term(s_part, q_part, o_part):
        return _product_sum(subj[..., s_part], query[q_part], obj[..., o_part], buf)

    t1, t2 = term(re, re, re), term(im, im, re)
    t3, t4 = term(re, im, im), term(im, re, im)
    return (t1 - t2) + (t3 + t4)


def _product_sum(s, q, o, buf):
    """Row sums of ``(s * q) * o``, the element order of ``row_dot(mul(s, q), o)``."""
    head = np.multiply(s, q, out=buf if s.ndim == 2 else None)
    return np.multiply(head, o, out=buf).sum(axis=1)
