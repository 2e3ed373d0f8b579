"""Triplet scorers over encoded embeddings.  Higher score = more plausible.

    transe     -|s + q - o|_L1
    distmult   sum_k s_k q_k o_k
    complex    Re(sum_k s_k q_k conj(o_k)) with each embedding split into
               real (first d/2) and imaginary (last d/2) halves

Relation embeddings are looked up per query; inverse relations have
their own independent rows.
"""

from __future__ import annotations

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

