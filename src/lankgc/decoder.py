"""Triplet scorers over encoded embeddings.  Higher score = more plausible.

    transe     -|s + q - o|_L1
    distmult   sum_k s_k q_k o_k
    complex    Re(sum_k s_k q_k conj(o_k)) with each embedding split into
               real (first d/2) and imaginary (last d/2) halves

Relation embeddings are looked up per query; inverse relations have
their own independent rows.

:func:`score_batch` scores rows on an autodiff tape, for training and
batched scoring.  :func:`score_candidate_block` scores many candidates
against many fixed endpoints in plain numpy, for ranking, and
:func:`score_candidates` is its one-endpoint form; they perform the same
element operations in the same order as :func:`score_batch`, so all of
them agree bit for bit.
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


_BLOCK_ROWS = 2048  # (query, candidate) rows per scoring pass: a (2048, d) buffer stays in cache


def score_candidates(candidates, query, fixed, kind, rank_side):
    """Score (N, d) candidates in the ``rank_side`` slot against one fixed endpoint.

    The one-query form of :func:`score_candidate_block`: ``query`` and
    ``fixed`` are (d,) vectors, and the result is (N,).
    """
    return score_candidate_block(candidates, query, np.reshape(fixed, (1, -1)), kind, rank_side)[0]


def score_candidate_block(candidates, query, fixed, kind, rank_side):
    """Score (N, d) candidates against each of (Q, d) fixed endpoints -> (Q, N).

    ``query`` is the (d,) relation vector shared by every row, and
    ``rank_side`` (``"subject"`` or ``"object"``) names the slot the
    candidates fill.  A pass covers at most ``_BLOCK_ROWS`` (query,
    candidate) pairs: a few queries against every candidate when N is
    small, one query against a slice of the candidates when it is large.
    The subject-times-relation half of each score is computed once per
    subject row, before the passes, and each pass combines it with the
    objects in one preallocated buffer small enough to stay in cache.
    Each row equals :func:`score_batch` on the tiled rows bit for bit.
    """
    n, dim = candidates.shape
    check_scorer(kind, dim)
    fixed = np.asarray(fixed).reshape(-1, dim)
    out = np.empty((fixed.shape[0], n))
    cols = max(1, min(n, _BLOCK_ROWS))
    rows = max(1, _BLOCK_ROWS // cols)
    buf = np.empty((min(rows, fixed.shape[0]), cols, dim // 2 if kind == "complex" else dim))
    if rank_side == "object":
        fixed_heads = _heads(fixed, query, kind)
    for lo in range(0, n, cols):
        block = candidates[lo:lo + cols]
        if rank_side == "subject":
            heads = _heads(block, query, kind)
        for top in range(0, fixed.shape[0], rows):
            ends = fixed[top:top + rows, None, :]
            nq, nc = ends.shape[0], block.shape[0]
            if rank_side == "subject":
                scores = _combine(heads, ends, kind, buf[:nq, :nc])
            else:
                scores = _combine([h[top:top + rows, None, :] for h in fixed_heads], block, kind, buf[:nq, :nc])
            out[top:top + nq, lo:lo + nc] = scores
    return out


def _heads(subj, query, kind):
    """The subject-and-relation factors of each score: ``s + q``, ``s * q``, or complex's four products."""
    if kind == "transe":
        return [subj + query]
    if kind == "distmult":
        return [subj * query]
    half = subj.shape[-1] // 2
    s_re, s_im, q_re, q_im = subj[:, :half], subj[:, half:], query[:half], query[half:]
    return [s_re * q_re, s_im * q_im, s_re * q_im, s_im * q_re]


def _combine(heads, obj, kind, buf):
    """Scores of one pass: :func:`_heads` and ``obj`` broadcast to the (q, n, d) ``buf``.

    The element order is that of :func:`score_batch`: ``(s + q) - o``,
    and ``(s * q) * o`` summed per row, one such sum per complex term.
    """
    if kind == "transe":
        return np.abs(np.subtract(heads[0], obj, out=buf), out=buf).sum(axis=-1) * -1.0
    if kind == "distmult":
        return np.multiply(heads[0], obj, out=buf).sum(axis=-1)
    half = obj.shape[-1] // 2
    o_re, o_im = obj[..., :half], obj[..., half:]
    t1, t2, t3, t4 = (np.multiply(h, o, out=buf).sum(axis=-1) for h, o in zip(heads, (o_re, o_re, o_im, o_im)))
    return (t1 - t2) + (t3 + t4)
