"""Correctness gates, computed independently of the program's code paths.

The rank oracle rebuilds every neighborhood from the bundle's name
triples and encodes with the ``lan`` formulas in plain numpy (see the
``lankgc.encoder`` module docstring), then scores with TransE and ranks
with the filter and ceil-tie rule.  It needs no program function beyond
the vocabulary's name -> id map, so it survives refactors of the
sampler, encoder and ranker.

A neighborhood wider than the neighbor budget is sampled at random by
the program, so the oracle cannot know its embedding.  Queries whose
own endpoints are such hubs are skipped; a hub candidate is left
unscored and widens the expected rank to an interval, which is exact
whenever no hub candidate survives the filter.
"""

from __future__ import annotations

import math

import numpy as np


class Facts:
    """Id-space view of a bundle rebuilt from its name triples."""

    def __init__(self, bundle, vocab):
        m = vocab.n_relations

        def ids(triples):
            return [(vocab.entity_id(s), vocab.relation_id(r), vocab.entity_id(o)) for s, r, o in triples]

        self.train, self.aux = ids(bundle.train), ids(bundle.aux)
        self.valid, self.test = ids(bundle.valid), ids(bundle.test)
        self.known = set(self.train) | set(self.aux) | set(self.valid) | set(self.test)
        self.unseen = {vocab.entity_id(name) for name in bundle.unseen}
        self.candidates = np.array(sorted({e for s, _, o in self.train for e in (s, o)}), dtype=np.int64)
        self.answers = {}
        for s, r, o in self.known:
            self.answers.setdefault((s, r), set()).add(o)
        self._train_adj = _adjacency(self.train, m)
        self._aux_adj = _adjacency(self.aux, m)

    def neighborhood(self, e):
        """(k, 2) (relation, entity) rows: aux facts for unseen entities, else train facts."""
        adj = self._aux_adj if e in self.unseen else self._train_adj
        return adj.get(e, np.zeros((0, 2), dtype=np.int64))

    def degree(self, e):
        return self.neighborhood(e).shape[0]


def _adjacency(triples, m):
    rows = {}
    for s, r, o in triples:
        rows.setdefault(s, []).append((r, o))
        rows.setdefault(o, []).append((r + m, s))
    return {e: np.array(sorted(v), dtype=np.int64) for e, v in rows.items()}


def lan_embedding(arrays, dense, nbrs, query, epsilon=1e-3):
    """Logic plus neural attention aggregate of one whole neighborhood."""
    dim = arrays["entity_emb"].shape[1]
    if nbrs.shape[0] == 0:
        return np.zeros(dim)
    rels, ents = nbrs[:, 0], nbrs[:, 1]
    emb = arrays["entity_emb"][ents]
    w = arrays["transform_vec"][rels]
    t = emb - np.sum(w * emb, axis=1)[:, None] * w

    present = set(rels.tolist())
    logic = np.zeros(rels.shape[0])
    for j, r in enumerate(rels.tolist()):
        others = [dense[rp, r] for rp in present if rp != r]
        logic[j] = dense[r, query] / max(max(others) if others else 1.0, epsilon)
    if logic.sum() > 0.0:
        logic = logic / logic.sum()

    z = np.broadcast_to(arrays["query_vec"][query], t.shape)
    scores = np.tanh(np.concatenate([z, t], axis=1) @ arrays["attn_proj"].T) @ arrays["attn_score_vec"]
    alpha = np.exp(scores - scores.max())
    alpha = alpha / alpha.sum()
    return (alpha + logic) @ t


def filtered_rank(scores, truth_index, keep, unknown=0):
    """``(low, high)`` filtered rank of ``scores[truth_index]`` under the ceil-tie rule.

    ``keep`` marks the candidates that survive the filter (the truth
    included); ``unknown`` more surviving candidates have no known
    score and may land on either side.
    """
    truth = scores[truth_index]
    others = scores[keep]
    better = int((others > truth).sum())
    ties = int((others == truth).sum()) - 1
    low = 1 + better + math.ceil(ties / 2)
    return low, low + unknown


def check_ranks(facts, arrays, dense, budget, ranked, sample_size):
    """Compare program ranks with the oracle on the first eligible queries.

    ``ranked`` maps (s, q, o) object-side queries to the program's rank.
    Returns ``(checked, mismatches)``; a mismatch is
    ``(query, rank, (low, high))``.
    """
    cands = facts.candidates
    hub = np.array([facts.degree(int(c)) > budget for c in cands])
    cand_cache = {}
    checked, mismatches = 0, []
    for (s, q, o), rank in ranked.items():
        if checked == sample_size:
            break
        if facts.degree(s) > budget or facts.degree(o) > budget:
            continue
        if q not in cand_cache:
            cand_cache[q] = np.stack([
                np.zeros(arrays["entity_emb"].shape[1]) if hub[i]
                else lan_embedding(arrays, dense, facts.neighborhood(int(c)), q)
                for i, c in enumerate(cands.tolist())
            ])
        fixed = lan_embedding(arrays, dense, facts.neighborhood(s), q)
        scores = -np.sum(np.abs(fixed + arrays["relation_emb"][q] - cand_cache[q]), axis=1)
        truth_index = int(np.searchsorted(cands, o))
        filtered = np.isin(cands, [c for c in facts.answers.get((s, q), ()) if c != o])
        keep = ~filtered & ~hub
        low, high = filtered_rank(scores, truth_index, keep, unknown=int((~filtered & hub).sum()))
        checked += 1
        if not low <= rank <= high:
            mismatches.append(((s, q, o), rank, (low, high)))
    return checked, mismatches


def out_of_range(ranks, n_candidates):
    """Number of ranks outside [1, n_candidates]."""
    ranks = np.asarray(ranks)
    return int(((ranks < 1) | (ranks > n_candidates)).sum())


def accuracy(rows, per_relation, default):
    """Share of (relation, score, label) rows classified right by the thresholds."""
    hits = sum(int((1 if sc >= per_relation.get(int(rel), default) else 0) == int(lab)) for rel, sc, lab in rows)
    return hits / len(rows)


def best_accuracy(scores, labels):
    """Highest number of correct labels any threshold reaches on one group."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    xs = np.unique(scores)
    cuts = np.concatenate([[xs[0] - 1.0], (xs[:-1] + xs[1:]) / 2.0, [xs[-1] + 1.0]])
    pos = np.sort(scores[labels == 1])
    neg = np.sort(scores[labels == 0])
    correct = (pos.size - np.searchsorted(pos, cuts, side="left")) + np.searchsorted(neg, cuts, side="left")
    return int(correct.max())


def check_thresholds(valid_rows, table):
    """Relations (and ``None`` for the pooled default) whose threshold is not optimal."""
    groups = {}
    for rel, sc, lab in valid_rows:
        groups.setdefault(int(rel), []).append((sc, lab))
    groups[None] = [(sc, lab) for _, sc, lab in valid_rows]
    bad = []
    for rel, pairs in groups.items():
        scores, labels = (np.array(v) for v in zip(*pairs))
        delta = table.default if rel is None else table.per_relation.get(rel)
        if delta is None:
            bad.append(rel)
            continue
        got = int(((scores >= delta) == (labels == 1)).sum())
        if got != best_accuracy(scores, labels):
            bad.append(rel)
    return bad
