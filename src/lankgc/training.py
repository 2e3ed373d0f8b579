"""Margin-ranking training over the augmented training graph.

Every positive triplet is paired with negatives obtained by corrupting
one endpoint (subject or object, a fair coin per negative) with a
uniformly random entity, resampled while the corrupted triplet is a
known training fact.  A batch is corrupted at once: one coin per row,
then rounds of fresh draws for just the rows that are still known
facts, each round one vectorized index lookup.  Rows still known after
100 rounds are kept and counted (``TrainReport.neg_fallbacks``), and
``train`` warns for every epoch that had any.  The loss per pair is a
hinge on the score gap,

    [margin - phi(positive) + phi(negative)]_+

applied to the output-embedding scores and,
when the subtask switch is on, also to the raw input-embedding scores
(:func:`input_scores`; same relation embeddings, same margin).  Batches
are averaged; attention parameters can carry an L2 penalty.  After
every optimizer step the relation transform vectors are renormalized
to unit length.

A negative corrupts one endpoint, so it shares the other with its
positive.  Each distinct (entity, relation) endpoint of a batch is
encoded once, and the gradients of its repeats are summed before they
flow back through the encoder.  The Generator draws only the epochs'
permutations and the negatives: every neighbor draw is a hash of the key
``(seed, epoch, batch)`` (:func:`~lankgc.encoder.stack_samples`).

A pair whose hinge is zero has a zero gradient, so a batch takes two
passes (:func:`batch_objective`).  The first scores every pair over
constant weights with :func:`~lankgc.evaluation.score_triplets`, as
triplet classification does, one 2^12-slot block at a time, and gives
the loss its value and the batch its active pairs, those with a
positive hinge (``TrainReport.active_shares`` is their share per
epoch).  The second builds the graph over the active pairs' rows alone,
a subsequence of the first pass's rows, each drawing its slots again.
So a gradient adds the same nonzero terms in the same order as a graph
over every pair would: for ``mean`` and ``logic-only`` the step is
bitwise the one-pass step, and the attention kinds and ``lstm`` differ
in the last bits, with the row count of their BLAS products.

Only training makes gradient leaves, so only training builds an
autodiff graph, and one batch's graph is alive at a time.  It holds only
the arrays its vector-Jacobian products read, so an op output that none
reads is freed during the forward pass; for ``lan`` that is two per-slot
arrays over the active pairs' slots, the transformed slots and the
``tanh`` output.  The backward pass consumes the graph, freeing each
node's arrays once its products have run, and keeps only the leaves'
gradients.  So the step's high-water mark, in the backward pass, is the
arrays of the nodes not yet reached plus the gradients still to be
passed on; the gradient norm and Adam's two parameter-sized scratch
arrays come after the step drops the loss.

Checkpoints, the periodic ``epoch-NNNN`` ones and the final one, go
through :func:`~lankgc.params.write_checkpoint`, with the model's rule
matrix for a logic aggregator and the run's epoch, margin and seed.
"""

from __future__ import annotations

import os
import time
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from .context import BundleContext
from .decoder import check_scorer, score_batch
from .encoder import AggregatorConfig, encode_batch, stack_samples
from .evaluation import KnownTriplets, link_prediction, score_triplets
from .params import collect_gradients, init_params, write_checkpoint
from .rules import mine_confidence

_ATTN_PARAM_NAMES = ("attn_proj", "attn_score_vec", "query_vec")


class TrainError(RuntimeError):
    """Training could not proceed (bad inputs or diverged numerics)."""


@dataclass
class TrainConfig:
    learning_rate: float = 0.001
    margin: float = 1.0
    dim: int = 100
    neighbor_budget: int = 64
    negatives_per_positive: int = 1
    l2_rate: float = 0.0
    epochs: int = 100
    batch_size: int = 256
    optimizer: str = "adam"
    seed: int = 0
    subtask_enabled: bool = True
    eval_every: int = 0
    patience: int = 10
    checkpoint_every: int = 0
    valid_max_queries: int = 500

    def __post_init__(self):
        for key in ("learning_rate", "margin", "l2_rate"):  # nan passes every comparison below
            if not np.isfinite(getattr(self, key)):
                raise ValueError(f"{key.replace('_', ' ')} must be finite, got {getattr(self, key)}")
        if self.learning_rate <= 0.0:
            raise ValueError(f"learning rate must be > 0, got {self.learning_rate}")
        if self.margin <= 0.0:
            raise ValueError(f"margin must be > 0, got {self.margin}")
        if self.l2_rate < 0.0:
            raise ValueError(f"l2 rate must be >= 0, got {self.l2_rate}")
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if self.neighbor_budget < 1:
            raise ValueError(f"neighbor budget must be >= 1, got {self.neighbor_budget}")
        if self.negatives_per_positive < 1:
            raise ValueError(f"negatives per positive must be >= 1, got {self.negatives_per_positive}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch size must be >= 1, got {self.batch_size}")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"optimizer must be adam or sgd, got {self.optimizer!r}")
        if self.patience < 1:
            raise ValueError(f"patience must be >= 1, got {self.patience}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.valid_max_queries < 1:
            raise ValueError(f"valid max queries must be >= 1, got {self.valid_max_queries}")
        for key in ("eval_every", "checkpoint_every"):  # 0 turns either off
            if getattr(self, key) < 0:
                raise ValueError(f"{key.replace('_', ' ')} must be >= 1, or 0 for off, got {getattr(self, key)}")


@dataclass
class TrainReport:
    epoch_losses: list = field(default_factory=list)
    epoch_main_losses: list = field(default_factory=list)
    epoch_subtask_losses: list = field(default_factory=list)
    grad_norms: list = field(default_factory=list)
    valid_mrr: list = field(default_factory=list)
    best_epoch: int = 0
    best_mrr: float = 0.0
    stopped_early: bool = False
    seconds: float = 0.0
    neg_fallbacks: int = 0
    active_shares: list = field(default_factory=list)


class Sgd:
    def __init__(self, store):
        pass

    def step(self, store, grads, lr):
        for name, g in grads.items():
            store.arrays[name] -= lr * g


class Adam:
    def __init__(self, store, beta1=0.9, beta2=0.999, eps=1e-8):
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = {k: np.zeros_like(v) for k, v in store.arrays.items()}
        self.v = {k: np.zeros_like(v) for k, v in store.arrays.items()}
        self.t = 0

    def step(self, store, grads, lr):
        self.t += 1
        b1c = 1.0 - self.beta1 ** self.t
        b2c = 1.0 - self.beta2 ** self.t
        for name, g in grads.items():
            m = self.m[name]
            v = self.v[name]
            # m += (1 - b1) g, v += (1 - b2) g g, p -= lr (m / b1c) / (sqrt(v / b2c) + eps), op for op
            update, denom = np.empty_like(m), np.empty_like(v)
            m *= self.beta1
            m += np.multiply(g, 1.0 - self.beta1, out=update)
            v *= self.beta2
            np.multiply(g, 1.0 - self.beta2, out=update)
            v += np.multiply(update, g, out=update)
            np.divide(m, b1c, out=update)
            update *= lr
            np.sqrt(np.divide(v, b2c, out=denom), out=denom)
            denom += self.eps
            update /= denom
            store.arrays[name] -= update


def make_optimizer(name, store):
    return Adam(store) if name == "adam" else Sgd(store)


def corrupt(positives, known, n_entities, rng):
    """Corrupt one endpoint of each (B, 3) positive row uniformly at random.

    One coin per row picks the side.  Rows whose candidate is a fact in
    the ``known`` index are redrawn, up to 100 times.  Returns
    ``(negatives, fallbacks)``: the (B, 3) candidates and the number of
    rows still known facts after the last round.
    """
    cand = np.array(positives, dtype=np.int64).reshape(-1, 3)
    side = np.where(rng.random(cand.shape[0]) < 0.5, 0, 2)
    todo = np.arange(cand.shape[0])
    for _ in range(100):
        if not todo.size:
            break
        cand[todo, side[todo]] = rng.integers(n_entities, size=todo.size)
        todo = todo[known.contains(cand[todo])]
    return cand, int(todo.size)


def hinge(margin, phi_pos, phi_neg):
    """Per-pair ranking hinge ``[margin - phi_pos + phi_neg]_+`` as a (B,) Value."""
    return ad.relu(_gap(margin, phi_pos, phi_neg))


def _gap(margin, phi_pos, phi_neg):
    """``margin - phi_pos + phi_neg`` per pair, the hinge before its clip."""
    b = phi_pos.data.shape[0]
    margin_vec = ad.Value(np.full(b, float(margin)))
    return ad.add(ad.sub(margin_vec, phi_pos), phi_neg)


def input_scores(leaves, triplets, scorer):
    """phi over raw input embeddings (the subtask), same relation rows."""
    triplets = np.asarray(triplets, dtype=np.int64).reshape(-1, 3)
    subj = ad.take_rows(leaves["entity_emb"], triplets[:, 0])
    obj = ad.take_rows(leaves["entity_emb"], triplets[:, 2])
    q_emb = ad.take_rows(leaves["relation_emb"], triplets[:, 1])
    return score_batch(subj, q_emb, obj, scorer)


def _pair_scores(leaves, enc, where, triplets, scorer):
    """phi of (n, 3) ``triplets`` whose subjects are the rows ``where[:n]`` of ``enc`` and objects ``where[n:]``."""
    n = triplets.shape[0]
    subj = ad.take_rows(enc, where[:n])
    obj = ad.take_rows(enc, where[n:])
    q_emb = ad.take_rows(leaves["relation_emb"], triplets[:, 1])
    return score_batch(subj, q_emb, obj, scorer)


def batch_objective(leaves, positives, negatives, graph, dense, tcfg, acfg, scorer, key):
    """Mean pair loss over a batch, plus the attention L2 penalty, in two passes.

    Pass 1 scores every pair over constant weights with
    :func:`~lankgc.evaluation.score_triplets`, from at most
    ``acfg.neighbor_budget`` neighbors of ``graph`` per endpoint under the
    sample ``key``.  Its mean hinge is the main part, and its active
    pairs, those with a positive hinge, are the only ones with a gradient.
    Pass 2 builds the graph over the active pairs alone: it samples the
    rows they reference again, in pass 1's order, and a row draws the
    slots it had in pass 1 (:func:`~lankgc.encoder.stack_samples`), so
    every gradient sum adds its terms in pass 1's order; it sums their
    hinge gaps times the whole batch's ``1/b``.  The returned loss holds
    pass 1's value and pass 2's graph; with no active pair no encoder
    graph is built.  The subtask part, when enabled, is the same hinge
    over raw input embeddings for every pair.  Returns ``(loss, parts)``:
    ``parts`` holds the main and subtask components as plain floats and
    the number of active pairs as ``"active"``.
    """
    positives = np.asarray(positives, dtype=np.int64).reshape(-1, 3)
    negatives = np.asarray(negatives, dtype=np.int64).reshape(-1, 3)
    b = positives.shape[0]
    both = np.concatenate([positives, negatives], axis=0)
    fixed = {name: ad.Value(leaf.data) for name, leaf in leaves.items()}
    phi, (ent_ids, queries, where) = score_triplets(graph, fixed, acfg, scorer, dense, both, key)
    pair_loss = hinge(tcfg.margin, ad.Value(phi[:b]), ad.Value(phi[b:]))
    main = ad.mean_all(pair_loss)
    active = np.flatnonzero(pair_loss.data > 0.0)
    parts = {"main": float(main.data), "subtask": 0.0, "active": int(active.size)}
    if active.size:
        a, pairs = active.size, np.concatenate([active, active + b])
        ends = np.concatenate([where[pairs], where[pairs + 2 * b]])
        used = np.zeros(queries.size, dtype=bool)
        used[ends] = True
        # each row draws its pass-1 slots again: a draw is a hash of (key, entity, slot)
        slots = stack_samples(graph, ent_ids[used], acfg, key)
        enc = encode_batch(leaves, *slots, queries[used], acfg, dense_table=dense)
        phi = _pair_scores(leaves, enc, (np.cumsum(used) - 1)[ends], both[pairs], scorer)
        gap = ad.scale(ad.sum_all(_gap(tcfg.margin, ad.narrow(phi, 0, a), ad.narrow(phi, a, 2 * a))), 1.0 / b)
        main = ad.add(main, ad.sub(gap, ad.Value(gap.data)))  # pass 1's value, plus 0.0 that carries gap's gradient
    loss = main
    if tcfg.subtask_enabled:
        psi = input_scores(leaves, both, scorer)
        sub = ad.mean_all(hinge(tcfg.margin, ad.narrow(psi, 0, b), ad.narrow(psi, b, 2 * b)))
        parts["subtask"] = float(sub.data)
        loss = ad.add(loss, sub)
    if tcfg.l2_rate > 0.0:
        first, *rest = _ATTN_PARAM_NAMES
        reg = ad.l2_norm_sq(leaves[first])
        for name in rest:
            reg = ad.add(reg, ad.l2_norm_sq(leaves[name]))
        loss = ad.add(loss, ad.scale(reg, tcfg.l2_rate))
    return loss, parts


def _step(store, opt, pos, neg, graph, dense, tcfg, acfg, scorer, epoch, batch):
    """One optimizer step on batch ``batch`` of ``epoch``, then the transform renormalization -> ``(loss, parts, gradient norm)``.

    The batch samples under the key ``(tcfg.seed, epoch, batch)``.  Its
    constant pass holds one 2^12-slot block at a time, and its graph,
    over the active pairs alone (:func:`batch_objective`), dies once its
    gradients are collected, and its leaves and gradients when this
    returns, before the next batch is built.  A leaf the graph does
    not reach, as every encoder parameter when no pair is active, steps
    with a zero gradient.
    """
    leaves = store.leaves(True)
    loss, parts = batch_objective(leaves, pos, neg, graph, dense, tcfg, acfg, scorer, (tcfg.seed, epoch, batch))
    value = loss.item()
    if not np.isfinite(value):
        raise TrainError(f"non-finite loss at epoch {epoch}, batch {batch}: {value}")
    ad.backward(loss)
    grads = collect_gradients(leaves)
    del loss  # the graph and the arrays its products keep, before the norm's and Adam's temporaries
    norm = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    opt.step(store, grads, tcfg.learning_rate)
    store.renormalize_transforms()
    return value, parts, norm


def train(bundle, tcfg, acfg=None, scorer="transe", rules_table=None, out_dir=None, log=None):
    """Fit a model on a bundle; returns ``(store, report)``.

    ``bundle`` is a :class:`~lankgc.splits.DatasetBundle` or its
    :class:`BundleContext`, used as given; only a bundle gets one built.
    Positives are the inverse-augmented training triplets.  When
    ``eval_every`` is set and the bundle has validation triplets, a
    filtered-MRR probe on (a deterministic subset of) validation drives
    best-checkpoint tracking and early stopping.  A logic aggregator
    uses ``rules_table``, or a table mined from the training graph when
    none is given, and every checkpoint written under ``out_dir`` holds
    that table as ``rules.tsv``.
    """
    started = time.perf_counter()
    if acfg is None:
        acfg = AggregatorConfig()
    if acfg.neighbor_budget != tcfg.neighbor_budget:
        acfg = replace(acfg, neighbor_budget=tcfg.neighbor_budget)
    check_scorer(scorer, tcfg.dim)
    ctx = bundle if isinstance(bundle, BundleContext) else BundleContext(bundle)
    if not ctx.bundle.train:
        raise TrainError("bundle has no training triplets")

    graph = ctx.train_graph
    dense = None
    if acfg.needs_rules:
        dense = (mine_confidence(graph) if rules_table is None else rules_table).dense()

    def save(path, store, epoch):
        extras = {"epoch": str(epoch), "margin": repr(tcfg.margin), "seed": str(tcfg.seed)}
        write_checkpoint(path, store, ctx.vocab, acfg, scorer, dense, extras)

    store = init_params(ctx.vocab.n_entities, graph.n_relations, tcfg.dim, tcfg.seed, with_lstm=acfg.uses_lstm)
    positives = graph.triplets
    known = KnownTriplets(positives, ctx.vocab.n_entities, graph.n_relations)
    rng = np.random.default_rng(tcfg.seed)
    opt = make_optimizer(tcfg.optimizer, store)
    report = TrainReport()
    best_store = None
    stale = 0

    valid_ids = None
    if tcfg.eval_every > 0 and ctx.bundle.valid:
        valid_ids = ctx.to_ids(ctx.bundle.valid)
        if valid_ids.shape[0] > tcfg.valid_max_queries:
            pick = np.random.default_rng(tcfg.seed).permutation(valid_ids.shape[0])
            valid_ids = valid_ids[pick[: tcfg.valid_max_queries]]

    for epoch in range(1, tcfg.epochs + 1):
        order = rng.permutation(positives.shape[0])
        total = np.zeros(3)
        norm_sum, count, batches, epoch_fallbacks, active = 0.0, 0, 0, 0, 0
        for lo in range(0, order.size, tcfg.batch_size):
            pos = positives[order[lo:lo + tcfg.batch_size]]
            if tcfg.negatives_per_positive > 1:
                pos = np.repeat(pos, tcfg.negatives_per_positive, axis=0)
            neg, fallbacks = corrupt(pos, known, ctx.vocab.n_entities, rng)
            epoch_fallbacks += fallbacks
            value, parts, norm = _step(
                store, opt, pos, neg, ctx.neighbor_graph, dense, tcfg, acfg, scorer, epoch, lo // tcfg.batch_size,
            )
            norm_sum += norm
            for name, arr in store.arrays.items():
                if not np.isfinite(arr).all():
                    raise TrainError(
                        f"non-finite values in {name} after epoch {epoch}, "
                        f"batch {lo // tcfg.batch_size} (diverged?)"
                    )
            total += np.array([value, parts["main"], parts["subtask"]]) * pos.shape[0]
            count += pos.shape[0]
            active += parts["active"]
            batches += 1
        mean = (total / max(count, 1)).tolist()
        report.epoch_losses.append(mean[0])
        report.epoch_main_losses.append(mean[1])
        report.epoch_subtask_losses.append(mean[2])
        report.grad_norms.append(norm_sum / max(batches, 1))
        report.active_shares.append(active / max(count, 1))
        report.neg_fallbacks += epoch_fallbacks
        if epoch_fallbacks:
            warnings.warn(
                f"epoch {epoch}: {epoch_fallbacks} negatives are known facts after 100 redraws",
                RuntimeWarning, stacklevel=2,
            )
        if log:
            log(f"epoch {epoch}: loss {report.epoch_losses[-1]:.6f}")

        if valid_ids is not None and epoch % tcfg.eval_every == 0:
            mrr = link_prediction(
                ctx, store, acfg, scorer, dense, seed=tcfg.seed, triplets=valid_ids, rank_side="object"
            ).metrics.mrr
            report.valid_mrr.append((epoch, mrr))
            if log:
                log(f"epoch {epoch}: validation MRR {mrr:.4f}")
            if mrr > report.best_mrr:
                report.best_mrr, report.best_epoch = mrr, epoch
                best_store = store.copy()
                stale = 0
            else:
                stale += 1
                if stale >= tcfg.patience:
                    report.stopped_early = True
                    if log:
                        log(f"early stop at epoch {epoch} (patience {tcfg.patience})")
                    break

        if out_dir and tcfg.checkpoint_every > 0 and epoch % tcfg.checkpoint_every == 0:
            save(os.path.join(out_dir, f"epoch-{epoch:04d}"), store, epoch)

    if best_store is not None:
        store = best_store
    report.seconds = time.perf_counter() - started
    if out_dir:
        save(out_dir, store, report.best_epoch or tcfg.epochs)
    return store, report
