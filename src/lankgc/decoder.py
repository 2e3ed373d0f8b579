"""Triplet scorers over encoded embeddings.  Higher score = more plausible.

    transe     -|s + q - o|_L1
    distmult   sum_k s_k q_k o_k
    complex    Re(sum_k s_k q_k conj(o_k)) with each embedding split into
               real (first d/2) and imaginary (last d/2) halves

Relation embeddings are looked up per query; inverse relations have
their own independent rows.

Every score term is a running sum over the features, from 0.0 in
feature order, in training, triplet classification and ranking alike.
:func:`score_batch` scores rows as autodiff values, for training and
batched scoring, through :func:`~lankgc.autodiff.l1_norm` and
:func:`~lankgc.autodiff.row_sum`.  :func:`score_columns` is the ranking
scorer: it scores many candidates against many fixed endpoints in plain
numpy, the candidates laid out once by :func:`candidate_columns`.  It
ranks transe with one ``scipy.spatial.distance.cdist(..., "cityblock")``
call, which adds the same running sum in C, and distmult and complex with
a running-sum loop over the features of bounded tiles.  So every score
equals :func:`score_batch`'s bit for bit.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial.distance import cdist

from . import autodiff as ad

SCORER_KINDS = ("transe", "distmult", "complex")


def check_scorer(kind, dim):
    if kind not in SCORER_KINDS:
        raise ValueError(f"unknown scorer: {kind!r}")
    if kind == "complex" and dim % 2 != 0:
        raise ValueError(f"complex scorer needs an even embedding dimension, got {dim}")


def score_batch(subjects, queries, objects, kind):
    """Score (B,) triplets from (B, d) embedding Values."""
    dim = subjects.data.shape[1]
    check_scorer(kind, dim)
    if kind == "transe":
        diff = ad.sub(ad.add(subjects, queries), objects)
        return ad.scale(ad.l1_norm(diff), -1.0)
    if kind == "distmult":
        return _product_sum(subjects, queries, objects)
    half = dim // 2
    s_re, s_im = ad.narrow(subjects, 0, half), ad.narrow(subjects, half, dim)
    q_re, q_im = ad.narrow(queries, 0, half), ad.narrow(queries, half, dim)
    o_re, o_im = ad.narrow(objects, 0, half), ad.narrow(objects, half, dim)
    # Re((s_re + i s_im)(q_re + i q_im)(o_re - i o_im)) summed over components
    t1 = _product_sum(s_re, q_re, o_re)
    t2 = _product_sum(s_im, q_im, o_re)
    t3 = _product_sum(s_re, q_im, o_im)
    t4 = _product_sum(s_im, q_re, o_im)
    return ad.add(ad.sub(t1, t2), ad.add(t3, t4))


def _product_sum(s, q, o):
    """``sum_k (s_k q_k) o_k`` of each row, a running sum over k."""
    return ad.row_sum(ad.mul(ad.mul(s, q), o))


_TILE_CELLS = 6144  # (query, candidate) scores per distmult or complex tile; a tile stays in cache


def candidate_columns(candidates, query, kind, rank_side):
    """The layout of (N, d) candidates for :func:`score_columns`; a ranker makes it once.

    transe keeps the (N, d) rows (``s + q`` for subjects); distmult and
    complex lay out the contiguous (d, N) factors of each score term.
    """
    check_scorer(kind, candidates.shape[1])
    return _factors(candidates, query, kind, _is_subject(rank_side))


def score_columns(columns, query, fixed, kind, rank_side):
    """Score candidates laid out by :func:`candidate_columns` against (Q, d) fixed endpoints -> (Q, N).

    ``query`` is the (d,) relation vector, and ``rank_side`` (``"subject"`` or
    ``"object"``) the slot the candidates fill.  transe is one ``cdist``
    city-block call: ``|(s + q) - o|`` whichever side is fixed, as
    ``|a - b|`` is ``|b - a|``.  distmult and complex come in tiles of at
    most ``_TILE_CELLS`` (query, candidate) pairs, each term a running sum
    of its feature products from 0.0.  Each score equals
    :func:`score_batch` on the tiled rows bit for bit.
    """
    fixed = _factors(np.reshape(fixed, (-1, query.size)), query, kind, not _is_subject(rank_side))
    if kind == "transe":
        out = cdist(fixed[0], columns[0], "cityblock")
        return np.negative(out, out=out)
    n, nq = columns[0].shape[1], fixed[0].shape[1]
    out = np.empty((nq, n))
    cols = max(1, min(n, _TILE_CELLS))
    rows = max(1, min(nq, _TILE_CELLS // cols))
    for lo in range(0, n, cols):
        for top in range(0, nq, rows):
            t = [_running_dot(f[:, top:top + rows], c[:, lo:lo + cols]) for f, c in zip(fixed, columns)]
            tile = (t[0] - t[1]) + (t[2] + t[3]) if kind == "complex" else t[0]
            out[top:top + tile.shape[0], lo:lo + tile.shape[1]] = tile
    return out


def _is_subject(rank_side):
    if rank_side not in ("subject", "object"):
        raise ValueError(f"rank_side must be subject or object, got {rank_side!r}")
    return rank_side == "subject"


def _factors(x, query, kind, subject):
    """What each score term reads of (M, d) rows ``x``, as in :func:`score_batch`.

    transe: the rows, ``s + q`` for subjects.  Otherwise the (k, M)
    factors: ``s * q`` or complex's four products for subjects, the rows
    or their halves for objects.
    """
    if kind == "transe":
        return [x + query if subject else x]
    xt = np.ascontiguousarray(np.transpose(x))
    half = xt.shape[0] // 2
    if subject and kind == "complex":
        s_re, s_im, q_re, q_im = xt[:half], xt[half:], query[:half, None], query[half:, None]
        return [s_re * q_re, s_im * q_im, s_re * q_im, s_im * q_re]
    if subject:
        return [xt * query[:, None]]
    return [xt[:half], xt[:half], xt[half:], xt[half:]] if kind == "complex" else [xt]


def _running_dot(fixed, cands):
    """``sum_k fixed[k, i] * cands[k, j]`` of (k, q) and (k, n) factors, added from 0.0 in k order -> (q, n)."""
    acc = np.zeros((fixed.shape[1], cands.shape[1]))
    for f, c in zip(fixed, cands):
        acc += f[:, None] * c
    return acc
