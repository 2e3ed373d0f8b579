"""Command-line entry points.

Every command writes a ``run.meta`` next to its output (inside output
directories, or as ``<file>.run.meta`` for single-file outputs)
recording the resolved configuration, seeds, input checksums and the
artifact version.  Commands are deterministic for fixed inputs and
seeds; re-running one overwrites its outputs with identical bytes.
Errors exit nonzero with a single ``error: ...`` line on stderr.

``train`` builds one :class:`~lankgc.context.BundleContext`, imports a
``--rules`` table, when given, through its vocabulary and passes both to
:func:`lankgc.training.train`, which mines a table otherwise and saves
it as ``rules.tsv`` in every ``lan`` or ``logic-only`` checkpoint; it
refuses ``--rules`` for the other aggregators, which use no rule table.
The commands that load a checkpoint build the bundle's context and hand
its vocabulary to :func:`~lankgc.params.read_checkpoint`, which returns
the weights, aggregator settings, scorer and rule matrix, and refuses a
checkpoint with a missing or bad manifest line, parameters that are not
its model's, or a file that does not match its sha256 line.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys

import numpy as np

from .config import ConfigError, aggregator_config_from, resolve_config, train_config_from
from .context import BundleContext
from .decoder import SCORER_KINDS
from .encoder import AGGREGATOR_KINDS, encode_batch, stack_samples
from .evaluation import classify, link_prediction, score_labeled, tune_thresholds
from .kg import augment_inverses, load_labeled_triplets, load_triplets
from .params import read_checkpoint
from .rules import export_table, import_table, mine_confidence
from .splits import SplitSpec, build_split, load_corpus, read_bundle, split_stats, write_bundle
from .synth import gen_synthetic, write_corpus
from .training import train
from .util import ARTIFACT_VERSION, sha256_file, write_kv


def _meta_path(out):
    if os.path.isdir(out) or not os.path.splitext(out)[1]:
        return os.path.join(out, "run.meta")
    return out + ".run.meta"


def _write_meta(out, command, settings, inputs):
    meta = {"command": command, "artifact_version": ARTIFACT_VERSION}
    for key, value in settings.items():
        meta[f"config.{key}"] = str(value)
    for name, path in inputs.items():
        if path is None:
            continue
        target = path
        if os.path.isdir(path):
            target = os.path.join(path, "manifest")
        if os.path.exists(target):
            meta[f"input_sha256.{name}"] = sha256_file(target)
    path = _meta_path(out)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    write_kv(path, meta)


def _cmd_gen_synthetic(args):
    corpus = gen_synthetic(args.entities, args.rule_strength, args.seed)
    write_corpus(corpus, args.out)
    _write_meta(
        args.out,
        "gen-synthetic",
        {"entities": args.entities, "rule_strength": args.rule_strength, "seed": args.seed},
        {},
    )
    print(f"wrote corpus to {args.out}: {len(corpus.train)} train, "
          f"{len(corpus.valid)} valid, {len(corpus.test)} test")
    return 0


def _cmd_build_dataset(args):
    spec = SplitSpec(strategy=args.strategy, sample_rate=args.rate, seed=args.seed)
    corpus = load_corpus(args.corpus)
    bundle = build_split(corpus, spec)
    write_bundle(bundle, args.out)
    _write_meta(
        args.out,
        "build-dataset",
        {"strategy": spec.strategy, "rate": spec.sample_rate, "seed": spec.seed},
        {"corpus_train": os.path.join(args.corpus, "train.tsv")},
    )
    stats = split_stats(bundle)
    print(f"bundle written to {args.out}")
    print(f"relations={stats.n_relations} seen={stats.n_seen} unseen={stats.n_unseen} "
          f"neighbors min={stats.min_neighbors} max={stats.max_neighbors} avg={stats.avg_neighbors:.1f}")
    return 0


def _cmd_mine_rules(args):
    graph = augment_inverses(load_triplets(args.train))
    table = mine_confidence(graph)
    export_table(table.dense(), args.out, graph.vocab)
    _write_meta(args.out, "mine-rules", {}, {"train": args.train})
    print(f"mined {np.count_nonzero(table.dense())} relation pairs from {args.train} into {args.out}")
    return 0


def _cmd_train(args):
    resolved = resolve_config(
        args.config,
        args.set or (),
        {"aggregator": args.aggregator, "scorer": args.scorer, "seed": args.seed},
    )
    tcfg = train_config_from(resolved)
    acfg = aggregator_config_from(resolved)
    if args.rules and not acfg.needs_rules:
        raise ConfigError(f"--rules is for the lan and logic-only aggregators; {acfg.kind} uses no rule table")
    ctx = BundleContext(read_bundle(args.bundle))
    table = import_table(args.rules, ctx.vocab) if args.rules else None
    store, report = train(
        ctx, tcfg, acfg, scorer=resolved["scorer"], rules_table=table, out_dir=args.out,
        log=(print if args.verbose else None),
    )
    _write_meta(args.out, "train", resolved, {"bundle": args.bundle, "rules": args.rules})
    last = report.epoch_losses[-1] if report.epoch_losses else float("nan")
    print(f"trained {acfg.kind}+{resolved['scorer']} for {len(report.epoch_losses)} epochs "
          f"(final loss {last:.6f}) -> {args.out}")
    if report.valid_mrr:
        print(f"best validation MRR {report.best_mrr:.4f} at epoch {report.best_epoch}")
    return 0


def _load_model(ckpt_dir, bundle_dir):
    ctx = BundleContext(read_bundle(bundle_dir))
    return (ctx, *read_checkpoint(ckpt_dir, ctx.vocab))


def _cmd_eval_lp(args):
    ctx, store, acfg, scorer, dense = _load_model(args.ckpt, args.bundle)
    result = link_prediction(ctx, store, acfg, scorer, dense, seed=args.seed)
    row = result.metrics.as_row()
    model = f"{acfg.kind}+{scorer}"
    dataset = os.path.basename(os.path.normpath(args.bundle))
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["model", "dataset", "MR", "MRR", "hits1", "hits3", "hits10"])
        writer.writerow([
            model, dataset,
            f"{row['MR']:.4f}", f"{row['MRR']:.6f}",
            f"{row['hits1']:.4f}", f"{row['hits3']:.4f}", f"{row['hits10']:.4f}",
        ])
    _write_meta(args.out, "eval-lp", {"seed": args.seed}, {"bundle": args.bundle, "ckpt": args.ckpt})
    if result.empty_fixed:
        print(f"warning: {result.empty_fixed} of {result.metrics.n_queries} queries have a fixed entity "
              "with no neighbors and were scored from a zero vector", file=sys.stderr)
    print(f"{model} on {dataset}: MR {row['MR']:.1f} MRR {row['MRR']:.4f} "
          f"hits@1 {row['hits1']:.2f}% hits@3 {row['hits3']:.2f}% hits@10 {row['hits10']:.2f}%")
    return 0


def _cmd_eval_tc(args):
    ctx, store, acfg, scorer, dense = _load_model(args.ckpt, args.bundle)
    degrees = np.diff(ctx.neighbor_graph.offsets)
    empty = []  # per labeled row: does its subject or object have no neighbors

    def scored(path):
        rows = load_labeled_triplets(path)
        ids = ctx.to_ids([(s, r, o) for s, r, o, _ in rows])
        scores = score_labeled(ctx, store, acfg, scorer, dense, ids, seed=args.seed)
        empty.extend((np.minimum(degrees[ids[:, 0]], degrees[ids[:, 2]]) == 0).tolist())
        return [(int(ids[i, 1]), float(scores[i]), rows[i][3]) for i in range(len(rows))]

    table = tune_thresholds(scored(args.valid))
    accuracy = classify(scored(args.test), table)
    if args.out:
        report = {"accuracy": repr(accuracy), "default_threshold": repr(table.default)}
        for rel, delta in sorted(table.per_relation.items()):
            report[f"threshold.{ctx.vocab.relation_name(rel)}"] = repr(delta)
        write_kv(args.out, report)
    meta_target = args.out if args.out else os.path.join(args.ckpt, "eval-tc.out")
    _write_meta(meta_target, "eval-tc", {"seed": args.seed},
                {"bundle": args.bundle, "ckpt": args.ckpt, "valid": args.valid, "test": args.test})
    if any(empty):
        print(f"warning: {sum(empty)} of {len(empty)} labeled rows have a subject or object with no neighbors "
              "and were scored from a zero vector", file=sys.stderr)
    print(f"triplet classification accuracy: {accuracy:.4f}")
    return 0


def _cmd_inspect_weights(args):
    ctx, store, acfg, scorer, dense = _load_model(args.ckpt, args.bundle)
    entity = ctx.vocab.entity_id(args.entity)
    query = ctx.vocab.relation_id(args.query)
    offsets, rels, ents = stack_samples(ctx.neighbor_graph, [entity], acfg, (args.seed,))
    _, alpha_logic, alpha_nn = encode_batch(
        store.leaves(False), offsets, rels, ents, [query], acfg, dense_table=dense, trace=True,
    )
    lines = ["entity\tquery\tneighbor_relation\tneighbor_entity\talpha_logic\talpha_nn\talpha_total"]
    if acfg.kind not in ("mean", "lstm"):  # they have no attention to report
        slots = zip(rels.tolist(), ents.tolist(), alpha_logic.tolist(), alpha_nn.tolist())
        for rel, ent, a_logic, a_nn in sorted(slots, key=lambda t: -(t[2] + t[3])):
            lines.append(
                f"{args.entity}\t{args.query}\t{ctx.vocab.relation_name(rel)}\t"
                f"{ctx.vocab.entity_name(ent)}\t{a_logic:.6f}\t{a_nn:.6f}\t{a_logic + a_nn:.6f}"
            )
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    meta_target = args.out if args.out else os.path.join(args.ckpt, "inspect.out")
    _write_meta(meta_target, "inspect-weights",
                {"entity": args.entity, "query": args.query, "seed": args.seed},
                {"bundle": args.bundle, "ckpt": args.ckpt})
    if rels.size == 0:
        print(f"note: {args.entity} has no neighbors; embedding is all-zero", file=sys.stderr)
    return 0


def _seed(text):
    """The type of every ``--seed``: an integer >= 0, which every sample key and generator takes."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")
    return int(text)


def build_parser():
    parser = argparse.ArgumentParser(prog="lankgc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-synthetic", help="generate a synthetic corpus with a planted rule")
    p.add_argument("--entities", type=int, default=1000)
    p.add_argument("--rule-strength", type=float, default=0.9)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_synthetic)

    p = sub.add_parser("build-dataset", help="carve an unseen-entity bundle from a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--strategy", choices=["subject", "object"], default="subject")
    p.add_argument("--rate", type=float, default=0.1)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_build_dataset)

    p = sub.add_parser("mine-rules", help="mine relation implication confidences")
    p.add_argument("--train", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_mine_rules)

    p = sub.add_parser("train", help="train a model on a bundle")
    p.add_argument("--bundle", required=True)
    p.add_argument("--rules", default=None)
    p.add_argument("--aggregator", choices=list(AGGREGATOR_KINDS), default=None)
    p.add_argument("--scorer", choices=list(SCORER_KINDS), default=None)
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=_seed, default=None)
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override any config key (repeatable)")
    p.add_argument("--out", required=True)
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval-lp", help="filtered link-prediction metrics")
    p.add_argument("--bundle", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_eval_lp)

    p = sub.add_parser("eval-tc", help="triplet classification accuracy")
    p.add_argument("--bundle", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--valid", required=True, help="labeled validation TSV (s, r, o, label)")
    p.add_argument("--test", required=True, help="labeled test TSV (s, r, o, label)")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_eval_tc)

    p = sub.add_parser("inspect-weights", help="attention trace for one entity and query")
    p.add_argument("--bundle", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--entity", required=True)
    p.add_argument("--query", required=True)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_inspect_weights)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ConfigError, FileNotFoundError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
