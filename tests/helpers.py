"""Shared test fixtures-in-code: tiny graphs, random corpora, oracles, a
per-entity reference sampler, a B=1 encode, a one-pass scorer and
training objective, the ``lstm`` op as separate ops, and a
finite-difference gradient check.

The oracle functions here deliberately reimplement the library math in
plain numpy loops, straight from the formulas, so the vectorized
production paths have something independent to be checked against.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
from hypothesis import strategies as st

from lankgc import autodiff as ad
from lankgc.decoder import score_batch
from lankgc.encoder import encode_batch, stack_samples
from lankgc.evaluation import endpoint_rows
from lankgc.kg import Vocabulary, augment_inverses, graph_from_names
from lankgc.splits import STRATEGIES, Corpus, DatasetBundle, SplitError, SplitSpec, build_split
from lankgc.training import hinge, input_scores


def finite_difference_check(fn, arrays, h=1e-6, tol=1e-4):
    """Compare analytic gradients with central finite differences.

    ``fn(arrays) -> (loss_value, grads_dict)`` must rebuild its graph on
    every call from the plain float64 arrays in ``arrays`` and return
    the scalar loss along with analytic gradients keyed like ``arrays``.
    Every entry of every array is perturbed by ``±h``.  Relative error
    uses a unit floor, ``|a - n| / max(|a|, |n|, 1)``, so near-zero
    gradients are compared absolutely.

    Returns ``(ok, report)`` where ``report`` maps each array name to
    its worst relative error.
    """
    _, grads = fn(arrays)
    report = {}
    for name, arr in arrays.items():
        analytic = grads.get(name)
        if analytic is None:
            analytic = np.zeros_like(arr)
        worst = 0.0
        flat = arr.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            up, _ = fn(arrays)
            flat[i] = keep - h
            down, _ = fn(arrays)
            flat[i] = keep
            numeric = (up - down) / (2.0 * h)
            a = float(analytic.reshape(-1)[i])
            err = abs(a - numeric) / max(abs(a), abs(numeric), 1.0)
            worst = max(worst, err)
        report[name] = worst
    ok = all(v <= tol for v in report.values())
    return ok, report


def graph_nodes(loss):
    """The graph nodes that ``loss`` reaches through their parents, in creation order; none for a gradient-free loss."""
    if loss.node is None:
        return []
    seen, todo = {id(loss.node): loss.node}, [loss.node]
    while todo:
        for parent in todo.pop().parents:
            if id(parent) not in seen:
                seen[id(parent)] = parent
                todo.append(parent)
    return sorted(seen.values(), key=lambda node: node.order)


def kept_arrays(nodes):
    """The distinct arrays that the vector-Jacobian products of ``nodes`` close over, by themselves or in lists
    and tuples (an ``lstm_rows`` product keeps its steps' activations so): a graph's memory."""
    kept, todo = {}, [cell.cell_contents for node in nodes for vjp in node.vjps for cell in vjp.__closure__ or ()]
    while todo:
        obj = todo.pop()
        if isinstance(obj, np.ndarray):
            kept[id(obj)] = obj
        elif isinstance(obj, (list, tuple)):
            todo.extend(obj)
    return list(kept.values())


def output_scores(leaves, triplets, graph, dense, acfg, scorer, key):
    """phi over output embeddings: each endpoint encoded from ``acfg.neighbor_budget`` neighbors of ``graph`` at most.

    Each endpoint is encoded under its triplet's relation, once per
    distinct (entity, relation) row (:func:`lankgc.evaluation.endpoint_rows`),
    from the slots that :func:`lankgc.encoder.stack_samples` draws under
    ``key``, in one :func:`lankgc.encoder.encode_batch` call: the
    one-pass reference for the training objective and for
    :func:`lankgc.evaluation.score_triplets`.
    """
    triplets = np.asarray(triplets, dtype=np.int64).reshape(-1, 3)
    n = triplets.shape[0]
    ent_ids, queries, where = endpoint_rows(triplets)
    enc = encode_batch(leaves, *stack_samples(graph, ent_ids, acfg, key), queries, acfg, dense_table=dense)
    subj, obj = ad.take_rows(enc, where[:n]), ad.take_rows(enc, where[n:])
    return score_batch(subj, ad.take_rows(leaves["relation_emb"], triplets[:, 1]), obj, scorer)


def one_pass_objective(leaves, positives, negatives, graph, dense, tcfg, acfg, scorer, key):
    """:func:`lankgc.training.batch_objective` in one pass: a graph over every pair of the batch.

    Every pair's hinge, zero or not, goes through the encoder graph, so
    its gradients are the reference for the two-pass objective's.
    Returns ``(loss, parts)`` with the same parts, ``"active"`` counting
    the pairs whose main hinge is positive.
    """
    positives = np.asarray(positives, dtype=np.int64).reshape(-1, 3)
    negatives = np.asarray(negatives, dtype=np.int64).reshape(-1, 3)
    b = positives.shape[0]
    both = np.concatenate([positives, negatives], axis=0)
    phi = output_scores(leaves, both, graph, dense, acfg, scorer, key)
    pair_loss = hinge(tcfg.margin, ad.narrow(phi, 0, b), ad.narrow(phi, b, 2 * b))
    loss = ad.mean_all(pair_loss)
    parts = {"main": float(loss.data), "subtask": 0.0, "active": int(np.count_nonzero(pair_loss.data > 0.0))}
    if tcfg.subtask_enabled:
        psi = input_scores(leaves, both, scorer)
        sub = ad.mean_all(hinge(tcfg.margin, ad.narrow(psi, 0, b), ad.narrow(psi, b, 2 * b)))
        parts["subtask"] = float(sub.data)
        loss = ad.add(loss, sub)
    if tcfg.l2_rate > 0.0:
        reg = ad.l2_norm_sq(leaves["attn_proj"])
        for name in ("attn_score_vec", "query_vec"):
            reg = ad.add(reg, ad.l2_norm_sq(leaves[name]))
        loss = ad.add(loss, ad.scale(reg, tcfg.l2_rate))
    return loss, parts


def _concat(a, b, axis=1):
    """Two matrices joined column-wise (``axis=1``) or row-wise (``axis=0``), as an op on ``ad._make``."""
    split = a.data.shape[axis]
    return ad._make(np.concatenate([a.data, b.data], axis=axis), (a, b),
                    (lambda g: np.split(g, [split], axis)[0], lambda g: np.split(g, [split], axis)[1]))


def _reshape(a, shape):
    before = a.data.shape
    return ad._make(a.data.reshape(shape).copy(), (a,), (lambda g: g.reshape(before),))


def _repeat_rows(a, k):
    """Each row repeated k times: ``(B, d) -> (B*k, d)``, blockwise."""
    n, d = a.data.shape
    return ad._make(np.repeat(a.data, k, axis=0), (a,), (lambda g: g.reshape(n, k, d).sum(axis=1),))


def _sigmoid(a):
    data = 1.0 / (1.0 + np.exp(-a.data))
    return ad._make(data, (a,), (lambda g: g * data * (1.0 - data),))


def reference_lstm_rows(x, offsets, weights, biases):
    """:func:`lankgc.autodiff.lstm_rows` composed of separate ops, about 20 graph nodes a step.

    The gates run over the live rows only, longest rows first and
    right-aligned, as in the fused op, whose bytes and gradients this
    composition pins.  ``weights`` and ``biases`` are in the order f, i,
    c, o.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    counts, dim = np.diff(offsets), x.data.shape[1]
    by_len = np.argsort(-counts, kind="stable")
    ends, t_max = offsets[1:][by_len], int(counts.max(initial=0))
    live = np.searchsorted(-counts[by_len], np.arange(-t_max, 0), side="right")  # live rows at each step
    h = c = ad.Value(np.zeros((0, dim)))
    w_t = [ad.transpose(w) for w in weights]
    b_row = [_reshape(b, (1, dim)) for b in biases]
    for t, n in enumerate(live):
        if n > h.data.shape[0]:
            fresh = ad.Value(np.zeros((n - h.data.shape[0], dim)))
            h, c = _concat(h, fresh, axis=0), _concat(c, fresh, axis=0)
        hx = _concat(h, ad.take_rows(x, ends[:n] - (t_max - t)))
        gates = []
        for k in range(4):  # a bias repeat per step: one shared repeat would reorder its gradient's sum
            pre = ad.add(ad.matmul(hx, w_t[k]), _repeat_rows(b_row[k], n))
            gates.append(ad.tanh(pre) if k == 2 else _sigmoid(pre))
        f, i, g, o = gates
        c = ad.add(ad.mul(f, c), ad.mul(i, g))
        h = ad.mul(o, ad.tanh(c))
    h = _concat(h, ad.Value(np.zeros((counts.size - h.data.shape[0], dim))), axis=0)
    return ad.take_rows(h, np.argsort(by_len))  # back to row order


def make_graph(triples):
    """Name triples -> inverse-augmented KnowledgeGraph."""
    return augment_inverses(graph_from_names(triples))


def random_name_triples(rng, n_entities, n_relations, n_triples):
    """Distinct random (s, r, o) name triples without self-loops."""
    triples = set()
    guard = 0
    while len(triples) < n_triples and guard < 50 * n_triples:
        guard += 1
        s, o = rng.integers(n_entities, size=2)
        if s == o:
            continue
        r = rng.integers(n_relations)
        triples.add((f"e{s:04d}", f"r{r:02d}", f"e{o:04d}"))
    return sorted(triples)


def random_corpus(rng, n_entities=60, n_relations=4, n_triples=240):
    """A random corpus split 70/10/20 into train/valid/test."""
    triples = random_name_triples(rng, n_entities, n_relations, n_triples)
    order = rng.permutation(len(triples))
    a = int(0.7 * len(triples))
    b = int(0.8 * len(triples))
    return Corpus(
        train=[triples[i] for i in order[:a]],
        valid=[triples[i] for i in order[a:b]],
        test=[triples[i] for i in order[b:]],
    )


def random_bundles(count, start_seed=0, strategy="subject", **corpus_kw):
    """First ``count`` random corpora (by seed) that survive the split filters."""
    bundles = []
    seed = start_seed
    while len(bundles) < count:
        rng = np.random.default_rng(seed)
        corpus = random_corpus(rng, **corpus_kw)
        try:
            bundles.append(build_split(corpus, SplitSpec(strategy, 0.5, seed)))
        except SplitError:
            pass
        seed += 1
    return bundles


# ---------------------------------------------------------------------------
# name-set split and vocabulary


# Few names, so candidates often neighbor only candidates and self-loops
# are common; unicode and inner spaces, never a tab or a newline.  The
# held-out names occur only in valid and test facts.
SPLIT_ENTITIES = ("a", "b", "c", "d", "e", "f", "Zoë", "東京", "𝔘", "x y")
HELD_OUT_ENTITIES = ("ω", "held-out")
SPLIT_RELATIONS = ("r", "q", "λ")


def _facts(entities, min_size, max_size):
    ent = st.sampled_from(entities)
    return st.lists(st.tuples(ent, st.sampled_from(SPLIT_RELATIONS), ent), min_size=min_size, max_size=max_size)


def corpora():
    """Small corpora with at least one train and one test fact."""
    held = SPLIT_ENTITIES + HELD_OUT_ENTITIES
    return st.builds(Corpus, train=_facts(SPLIT_ENTITIES, 1, 30), valid=_facts(held, 0, 8),
                     test=_facts(held, 1, 12))


def split_specs():
    return st.builds(SplitSpec, st.sampled_from(STRATEGIES), st.floats(0.05, 1.0), st.integers(0, 2**16))


def bundles():
    """Bundles with no split invariant: any name may be unseen, seen, both or neither."""
    held = SPLIT_ENTITIES + HELD_OUT_ENTITIES
    return st.builds(
        DatasetBundle, train=_facts(SPLIT_ENTITIES, 1, 20), aux=_facts(held, 0, 12),
        valid=_facts(held, 0, 6), test=_facts(held, 0, 6),
        unseen=st.lists(st.sampled_from(held), unique=True).map(sorted), spec=st.just(SplitSpec()),
    )


def oracle_split(corpus, spec):
    """:func:`lankgc.splits.build_split` from Python sets of names.

    A neighbor set per entity, membership tests per triple: the
    construction the code-column masks replaced, kept as their oracle.
    """
    if not corpus.test:
        raise SplitError("cannot build a split from an empty test set")
    if not corpus.train:
        raise SplitError("cannot build a split from an empty training set")

    rng = np.random.default_rng(spec.seed)
    n_test = len(corpus.test)
    n_take = max(1, int(round(spec.sample_rate * n_test)))
    perm = rng.permutation(n_test)
    chosen = np.zeros(n_test, dtype=bool)
    chosen[perm[:n_take]] = True
    side = 0 if spec.strategy == "subject" else 2
    candidates = {corpus.test[i][side] for i in range(n_test) if chosen[i]}

    neighbors = {}
    for s, _, o in corpus.train:
        neighbors.setdefault(s, set()).add(o)
        neighbors.setdefault(o, set()).add(s)

    unseen = {
        e
        for e in candidates
        if any(v not in candidates for v in neighbors.get(e, ()))
    }
    if not unseen:
        raise SplitError("no unseen entities survive the neighbor filter; increase the rate or check the corpus")

    train, aux = [], []
    for t in corpus.train:
        hits = (t[0] in unseen) + (t[2] in unseen)
        if hits == 0:
            train.append(t)
        elif hits == 1:
            aux.append(t)
    if not train:
        raise SplitError("every training triplet touches an unseen entity")

    seen = set()
    for s, _, o in train:
        seen.add(s)
        seen.add(o)

    if spec.strategy == "subject":
        test = [t for t in corpus.test if t[0] in unseen and t[2] in seen]
    else:
        test = [t for t in corpus.test if t[2] in unseen and t[0] in seen]
    if not test:
        raise SplitError("no test triplets survive the split filters")
    valid = [t for t in corpus.valid if t[0] in seen and t[2] in seen]

    return DatasetBundle(
        train=train,
        aux=aux,
        valid=valid,
        test=test,
        unseen=sorted(unseen),
        spec=spec,
        corpus_checksums=dict(corpus.checksums),
    )


def oracle_vocabulary(bundle):
    """The bundle's :class:`Vocabulary`, its name sets filled one triple at a time."""
    ents, rels = set(bundle.unseen), set()
    for part in (bundle.train, bundle.aux, bundle.valid, bundle.test):
        for s, r, o in part:
            ents.add(s)
            ents.add(o)
            rels.add(r)
    return Vocabulary(ents, rels)


def oracle_seen_ids(bundle, vocab):
    """Sorted int64 ids of the names in the bundle's training facts."""
    seen = set()
    for s, _, o in bundle.train:
        seen.add(s)
        seen.add(o)
    return np.array(sorted(vocab.entity_id(n) for n in seen), dtype=np.int64)


# ---------------------------------------------------------------------------
# independent numpy-only forward path


def naive_confidence(kg):
    """Double-loop implication confidences; the miner must match exactly."""
    rel_sets = []
    for e in range(kg.n_entities):
        rel_sets.append({int(r) for r, _ in kg.neighborhood(e)})
    conf = {}
    for r1 in range(kg.n_relations):
        have_r1 = [s for s in rel_sets if r1 in s]
        if not have_r1:
            continue
        for r2 in range(kg.n_relations):
            both = sum(1 for s in have_r1 if r2 in s)
            if both:
                conf[(r1, r2)] = both / len(have_r1)
    return conf


def grid_to_csr(mask, *grids):
    """(B, K) slot grids as CSR: ``(offsets, *flat)``, the True slots of ``mask`` in row-major order."""
    mask = np.asarray(mask, dtype=bool)
    offsets = np.concatenate([[0], np.cumsum(mask.sum(axis=1))]).astype(np.int64)
    return (offsets, *(np.asarray(grid)[mask] for grid in grids))


_U64 = (1 << 64) - 1


def _mix64(x):
    """splitmix64's finalizer on one Python int in [0, 2^64)."""
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _U64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _U64
    return x ^ (x >> 31)


def reference_sample(graph, entity, cfg, key):
    """Entity ``entity``'s ``(k, 2)`` slots under ``key``, one neighbor at a time in Python ints.

    The draw rule of :func:`lankgc.encoder.stack_samples`, written out:
    the salt starts at splitmix64's increment and folds in each key int
    as ``salt = mix(salt ^ k)``; neighbor ``j`` hashes to
    ``mix(mix(salt ^ e) + j)``.  A neighborhood over the budget keeps its
    lowest hashes in neighborhood order, and the ``lstm`` reads its kept
    neighbors by ascending hash, a tie going to the lower ``j``.
    """
    salt = 0x9E3779B97F4A7C15
    for k in key:
        salt = _mix64(salt ^ k)
    rows = np.asarray(graph.pairs)[graph.offsets[entity]:graph.offsets[entity + 1]]
    base = _mix64(salt ^ int(entity))
    hashes = [_mix64((base + j) & _U64) for j in range(len(rows))]
    kept = sorted(range(len(rows)), key=lambda j: (hashes[j], j))[:cfg.neighbor_budget]
    return rows[kept if cfg.uses_lstm else sorted(kept)].reshape(-1, 2)


def encode_one(store, dense, cfg, query, entries):
    """One entity's B=1 :func:`encode_batch` over its sampled ``(k, 2)`` (relation, entity) rows, read in order.

    Returns ``embedding``, ``trace`` and ``flagged``.  ``trace`` holds a
    ``(relation, entity, alpha_logic, alpha_nn, alpha_total)`` row per
    slot; it stays empty for mean and lstm, which have no attention to
    report.  ``flagged`` marks an empty neighborhood, whose embedding is
    zero.
    """
    entries = np.asarray(entries, dtype=np.int64).reshape(-1, 2)
    rels, ents = entries[:, 0], entries[:, 1]
    out, alpha_logic, alpha_nn = encode_batch(
        store.leaves(False), np.array([0, rels.size]), rels, ents, np.array([query]), cfg,
        dense_table=dense, trace=True,
    )
    trace = []
    if cfg.kind not in ("mean", "lstm"):
        trace = [(int(r), int(e), float(lw), float(nw), float(lw + nw))
                 for r, e, lw, nw in zip(rels, ents, alpha_logic, alpha_nn)]
    return SimpleNamespace(embedding=out.data[0].copy(), trace=trace, flagged=rels.size == 0)


def oracle_logic(dense, rels, query, mode="normalized", epsilon=1e-3):
    """Logic weights of a fully-valid neighborhood, straight from the formula."""
    rels = [int(r) for r in rels]
    present = set(rels)
    w = []
    for r in rels:
        num = float(dense[r, query])
        others = [float(dense[rp, r]) for rp in present if rp != r]
        denom = max(others) if others else 1.0
        w.append(num / max(denom, epsilon))
    if mode == "normalized":
        total = sum(w)
        if total > 0.0:
            w = [x / total for x in w]
    return np.array(w)


def oracle_encode(arrays, dense, kind, query, neighborhood,
                  logic_mode="normalized", epsilon=1e-3):
    """Plain numpy aggregation over a full (r, e) neighborhood array.

    Covers every aggregator except lstm, whose output depends on a
    sampled order and is checked separately.
    """
    nb = np.asarray(neighborhood, dtype=np.int64).reshape(-1, 2)
    d = arrays["entity_emb"].shape[1]
    if nb.shape[0] == 0:
        return np.zeros(d)
    transformed = []
    for r, e in nb:
        w = arrays["transform_vec"][r]
        v = arrays["entity_emb"][e]
        transformed.append(v - np.dot(w, v) * w)
    transformed = np.array(transformed)
    if kind == "mean":
        return transformed.mean(axis=0)
    logic = None
    if kind in ("lan", "logic-only"):
        logic = oracle_logic(dense, nb[:, 0], query, logic_mode, epsilon)
    alpha = None
    if kind in ("lan", "query-attn", "global-attn"):
        z_q = np.zeros(d) if kind == "global-attn" else arrays["query_vec"][query]
        scores = np.array([
            arrays["attn_score_vec"] @ np.tanh(arrays["attn_proj"] @ np.concatenate([z_q, t]))
            for t in transformed
        ])
        ex = np.exp(scores - scores.max())
        alpha = ex / ex.sum()
    if kind == "logic-only":
        weights = logic
    elif kind in ("query-attn", "global-attn"):
        weights = alpha
    elif kind == "lan":
        weights = alpha + logic
    else:
        raise ValueError(f"oracle does not cover aggregator {kind!r}")
    return weights @ transformed


def oracle_score(s, q, o, kind):
    if kind == "transe":
        return float(-np.sum(np.abs(s + q - o)))
    if kind == "distmult":
        return float(np.sum(s * q * o))
    h = s.shape[0] // 2
    t1 = np.sum(s[:h] * q[:h] * o[:h])
    t2 = np.sum(s[h:] * q[h:] * o[:h])
    t3 = np.sum(s[:h] * q[h:] * o[h:])
    t4 = np.sum(s[h:] * q[:h] * o[h:])
    return float((t1 - t2) + (t3 + t4))


def oracle_rank(ctx, arrays, dense, kind, scorer, triplet, rank_side, known,
                cand_cache=None, logic_mode="normalized", epsilon=1e-3):
    """Brute-force filtered rank; neighbor budget must cover every degree."""
    s, q, o = (int(x) for x in triplet)
    truth = s if rank_side == "subject" else o
    fixed = o if rank_side == "subject" else s
    q_vec = arrays["relation_emb"][q]
    fixed_emb = oracle_encode(arrays, dense, kind, q, ctx.neighbor_graph.neighborhood(fixed),
                              logic_mode, epsilon)
    scores = {}
    for c in ctx.seen_ids:
        c = int(c)
        key = (q, c)
        if cand_cache is not None and key in cand_cache:
            emb = cand_cache[key]
        else:
            emb = oracle_encode(arrays, dense, kind, q, ctx.neighbor_graph.neighborhood(c),
                                logic_mode, epsilon)
            if cand_cache is not None:
                cand_cache[key] = emb
        if rank_side == "subject":
            scores[c] = oracle_score(emb, q_vec, fixed_emb, scorer)
        else:
            scores[c] = oracle_score(fixed_emb, q_vec, emb, scorer)
    truth_score = scores[truth]
    better = ties = 0
    for c, sc in scores.items():
        if c == truth:
            continue
        fact = (c, q, o) if rank_side == "subject" else (s, q, c)
        if fact in known:
            continue
        if sc > truth_score:
            better += 1
        elif sc == truth_score:
            ties += 1
    return 1 + better + math.ceil(ties / 2)


def oracle_metrics(ranks):
    ranks = np.asarray(ranks, dtype=np.float64)
    return {
        "mr": ranks.mean(),
        "mrr": (1.0 / ranks).mean(),
        "hits1": (ranks <= 1).mean(),
        "hits3": (ranks <= 3).mean(),
        "hits10": (ranks <= 10).mean(),
    }


def max_degree(ctx):
    """Largest neighborhood over train and aux graphs (for budget choices)."""
    best = 1
    for e in range(ctx.vocab.n_entities):
        best = max(best, ctx.neighbor_graph.neighborhood(e).shape[0])
    return best


def oracle_threshold(scores, labels):
    """Scan every decision region (midpoints plus the two outsides)."""
    xs = sorted(float(s) for s in scores)
    cands = [xs[0] - 1.0, xs[-1] + 1.0]
    for a, b in zip(xs[:-1], xs[1:]):
        if a < b:
            cands.append((a + b) / 2.0)
    best_acc, best = -1, None
    for delta in sorted(cands):
        acc = sum(
            1 for s, y in zip(scores, labels) if (float(s) >= delta) == (int(y) == 1)
        )
        if acc > best_acc:
            best_acc, best = acc, delta
    return best


def oracle_threshold_table(rows):
    """(per-relation thresholds, pooled default) from (rel, score, label) rows."""
    by_rel = {}
    for rel, sc, lab in rows:
        by_rel.setdefault(int(rel), ([], []))
        by_rel[int(rel)][0].append(float(sc))
        by_rel[int(rel)][1].append(int(lab))
    per = {rel: oracle_threshold(xs, ys) for rel, (xs, ys) in by_rel.items()}
    default = oracle_threshold(
        [sc for _, sc, _ in rows], [lab for _, _, lab in rows]
    )
    return per, default
