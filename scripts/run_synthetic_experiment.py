"""Aggregator comparison on the synthetic planted-rule corpus.

Generates a corpus, carves an unseen-entity split, trains each
requested aggregator over several seeds, and reports filtered link
prediction metrics on the held-out unseen-entity triplets, and triplet
classification accuracy.  Triplet classification labels every valid and
test triplet positive and pairs it with one negative that corrupts an
endpoint; thresholds are tuned on valid and applied to test.  The logic
aware aggregators should come out well ahead of the mean baseline once
the rule strength is high.

    python3 scripts/run_synthetic_experiment.py --entities 1000 \
        --rule-strength 0.9 --aggregators mean,lan,logic-only --out results.csv
"""

import argparse
import csv
import sys
import time

import lankgc  # noqa: F401  # before numpy, so OpenBLAS runs on the one thread that the CLI and the benchmark use
import numpy as np

from lankgc.config import AggregatorConfig
from lankgc.context import BundleContext
from lankgc.evaluation import classify, link_prediction, score_labeled, tune_thresholds
from lankgc.rules import mine_confidence
from lankgc.splits import SplitSpec, build_split
from lankgc.synth import gen_synthetic
from lankgc.training import TrainConfig, corrupt, train


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--entities", type=int, default=1000)
    ap.add_argument("--rule-strength", type=float, default=0.9)
    ap.add_argument("--corpus-seed", type=int, default=0)
    ap.add_argument("--strategy", choices=("subject", "object"), default="subject")
    ap.add_argument("--rate", type=float, default=1.0)
    ap.add_argument("--aggregators", default="mean,lan,logic-only",
                    help="comma-separated aggregator kinds")
    ap.add_argument("--scorer", default="transe")
    ap.add_argument("--seeds", default="0,1,2", help="comma-separated training seeds")
    ap.add_argument("--epochs", type=int, default=10)
    ap.add_argument("--dim", type=int, default=32)
    ap.add_argument("--learning-rate", type=float, default=0.01)
    ap.add_argument("--out", help="optional CSV path for the per-run rows")
    return ap.parse_args(argv)


def labeled_rows(ctx, triplets, rng):
    """Each triplet as a positive id row, then one corrupted negative each: ``(ids, labels)``."""
    pos = ctx.to_ids(triplets)
    neg, _ = corrupt(pos, ctx.known_triplets(), ctx.vocab.n_entities, rng)
    return np.concatenate([pos, neg]), np.repeat([1, 0], len(pos))


def tc_accuracy(ctx, store, acfg, scorer, dense, valid, test):
    """Accuracy on ``test`` with per-relation thresholds tuned on ``valid``, each an ``(ids, labels)`` pair."""
    def scored(ids, labels):
        scores = score_labeled(ctx, store, acfg, scorer, dense, ids, seed=0)
        return list(zip(ids[:, 1].tolist(), scores.tolist(), labels.tolist()))

    return classify(scored(*test), tune_thresholds(scored(*valid)))


def main(argv=None):
    args = parse_args(argv)
    corpus = gen_synthetic(args.entities, args.rule_strength, args.corpus_seed)
    bundle = build_split(corpus, SplitSpec(args.strategy, args.rate, args.corpus_seed))
    ctx = BundleContext(bundle)
    table = mine_confidence(ctx.train_graph)  # mined once, for every logic run
    dense = table.dense()
    print(f"split: train={len(bundle.train)} aux={len(bundle.aux)} "
          f"valid={len(bundle.valid)} test={len(bundle.test)} "
          f"unseen={len(bundle.unseen)}")
    rng = np.random.default_rng(args.corpus_seed)  # the same labeled rows for every run
    valid, test = labeled_rows(ctx, bundle.valid, rng), labeled_rows(ctx, bundle.test, rng)

    rows = []
    for kind in args.aggregators.split(","):
        kind = kind.strip()
        acfg = AggregatorConfig(kind=kind, neighbor_budget=64)
        mrrs = []
        for seed in (int(s) for s in args.seeds.split(",")):
            tcfg = TrainConfig(learning_rate=args.learning_rate, margin=1.0,
                               dim=args.dim, neighbor_budget=64, epochs=args.epochs,
                               batch_size=256, optimizer="adam", seed=seed)
            started = time.perf_counter()
            store, report = train(ctx, tcfg, acfg, scorer=args.scorer, rules_table=table)
            d = dense if acfg.needs_rules else None
            m = link_prediction(ctx, store, acfg, args.scorer, d, seed=0).metrics
            accuracy = tc_accuracy(ctx, store, acfg, args.scorer, d, valid, test)
            mrrs.append(m.mrr)
            rows.append({
                "aggregator": kind, "scorer": args.scorer, "seed": seed,
                "MR": f"{m.mr:.2f}", "MRR": f"{m.mrr:.4f}",
                "hits1": f"{m.hits1:.4f}", "hits10": f"{m.hits10:.4f}",
                "tc_accuracy": f"{accuracy:.4f}",
                "final_loss": f"{report.epoch_losses[-1]:.4f}",
                "seconds": f"{time.perf_counter() - started:.1f}",
            })
            print(f"  {kind:12s} seed={seed} MRR={m.mrr:.4f} hits@1={m.hits1:.4f} "
                  f"tc_accuracy={accuracy:.4f} ({rows[-1]['seconds']}s)")
        print(f"  {kind:12s} mean MRR over {len(mrrs)} seeds: {np.mean(mrrs):.4f}")

    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
