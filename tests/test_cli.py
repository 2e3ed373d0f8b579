import re
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from lankgc import autodiff as ad
from lankgc import cli, evaluation
from lankgc.context import BundleContext
from lankgc.encoder import AGGREGATOR_KINDS, AggregatorConfig, encode_batch, stack_samples
from lankgc.evaluation import encode_entities, link_prediction, score_labeled
from lankgc.params import read_checkpoint
from lankgc.rules import export_table, import_table
from helpers import oracle_split
from lankgc.splits import BUNDLE_FILES, DatasetBundle, SplitSpec, load_corpus, read_bundle, write_bundle
from lankgc.util import read_kv, sha256_file, write_kv


def run(argv, capsys=None):
    code = cli.main(argv)
    if capsys is None:
        return code
    captured = capsys.readouterr()
    return code, captured


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One full pass: corpus -> bundle -> rules -> model -> reports."""
    root = tmp_path_factory.mktemp("pipeline")
    corpus = root / "corpus"
    bundle = root / "bundle"
    rules = root / "rules.tsv"
    ckpt = root / "model"
    assert cli.main(["gen-synthetic", "--entities", "120", "--rule-strength", "0.9",
                     "--seed", "0", "--out", str(corpus)]) == 0
    assert cli.main(["build-dataset", "--corpus", str(corpus), "--strategy", "subject",
                     "--rate", "0.2", "--seed", "1", "--out", str(bundle)]) == 0
    assert cli.main(["mine-rules", "--train", str(corpus / "train.tsv"),
                     "--out", str(rules)]) == 0
    assert cli.main(["train", "--bundle", str(bundle), "--aggregator", "lan",
                     "--scorer", "distmult", "--seed", "0",
                     "--set", "epochs=2", "--set", "dim=8", "--set", "batch_size=128",
                     "--set", "learning_rate=0.01",
                     "--out", str(ckpt)]) == 0
    return root, corpus, bundle, rules, ckpt


def test_every_step_writes_run_meta(pipeline):
    root, corpus, bundle, rules, ckpt = pipeline
    for target in (corpus / "run.meta", bundle / "run.meta",
                   rules.parent / "rules.tsv.run.meta", ckpt / "run.meta"):
        assert target.exists(), target
        meta = read_kv(str(target))
        assert "command" in meta and "artifact_version" in meta


def test_gen_synthetic_meta_records_settings(pipeline):
    _, corpus, *_ = pipeline
    meta = read_kv(str(corpus / "run.meta"))
    assert meta["command"] == "gen-synthetic"
    assert meta["config.entities"] == "120"
    assert meta["config.rule_strength"] == "0.9"
    assert meta["config.seed"] == "0"


def test_build_dataset_meta_checksums_input(pipeline):
    _, corpus, bundle, *_ = pipeline
    meta = read_kv(str(bundle / "run.meta"))
    assert meta["input_sha256.corpus_train"] == sha256_file(str(corpus / "train.tsv"))
    assert meta["config.strategy"] == "subject"
    assert meta["config.rate"] == "0.2"


@pytest.mark.parametrize("strategy", ["subject", "object"])
@pytest.mark.parametrize("rate", ["0.2", "1.0"])
def test_build_dataset_writes_the_bytes_of_the_name_set_split(pipeline, tmp_path, strategy, rate):
    _, corpus, *_ = pipeline
    out, want = tmp_path / "bundle", tmp_path / "oracle"
    assert run(["build-dataset", "--corpus", str(corpus), "--strategy", strategy,
                "--rate", rate, "--seed", "3", "--out", str(out)]) == 0
    write_bundle(oracle_split(load_corpus(str(corpus)), SplitSpec(strategy, float(rate), 3)), str(want))
    for name in BUNDLE_FILES + ("manifest",):
        assert (out / name).read_bytes() == (want / name).read_bytes(), name


def test_train_meta_echoes_resolved_config(pipeline):
    *_, ckpt = pipeline
    meta = read_kv(str(ckpt / "run.meta"))
    assert meta["command"] == "train"
    assert meta["config.aggregator"] == "lan"
    assert meta["config.scorer"] == "distmult"
    assert meta["config.epochs"] == "2"
    assert meta["config.dim"] == "8"
    assert meta["config.learning_rate"] == "0.01"
    # defaults are echoed too, so the run is fully reconstructible
    assert meta["config.margin"] == "1.0"
    assert (ckpt / "rules.tsv").exists()
    assert (ckpt / "manifest").exists()


def test_eval_lp_writes_csv_and_is_idempotent(pipeline, capsys):
    root, _, bundle, _, ckpt = pipeline
    out = root / "metrics.csv"
    code, captured = run(["eval-lp", "--bundle", str(bundle), "--ckpt", str(ckpt),
                          "--seed", "0", "--out", str(out)], capsys)
    assert code == 0
    assert "MRR" in captured.out
    first = out.read_bytes()
    header, row = first.decode().strip().split("\n")
    assert header == "model,dataset,MR,MRR,hits1,hits3,hits10"
    assert row.startswith("lan+distmult,bundle,")
    assert cli.main(["eval-lp", "--bundle", str(bundle), "--ckpt", str(ckpt),
                     "--seed", "0", "--out", str(out)]) == 0
    assert out.read_bytes() == first
    assert (root / "metrics.csv.run.meta").exists()


def test_eval_lp_warns_about_neighborless_fixed_entities(pipeline, tmp_path, capsys):
    root, _, bundle_dir, _, ckpt = pipeline
    bundle = read_bundle(str(bundle_dir))
    bare = bundle.test[0][0]  # subject strategy: the unseen subject is the fixed side
    assert bare in bundle.unseen
    stripped = replace(bundle, aux=[t for t in bundle.aux if bare not in (t[0], t[2])])
    write_bundle(stripped, str(tmp_path / "bundle"))
    out = tmp_path / "metrics.csv"
    code, captured = run(["eval-lp", "--bundle", str(tmp_path / "bundle"), "--ckpt", str(ckpt),
                          "--seed", "0", "--out", str(out)], capsys)
    assert code == 0
    n_bare = sum(1 for s, _, _ in bundle.test if s == bare)
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"warning: {n_bare} of {len(bundle.test)} queries")
    code, captured = run(["eval-lp", "--bundle", str(bundle_dir), "--ckpt", str(ckpt),
                          "--seed", "0", "--out", str(tmp_path / "full.csv")], capsys)
    assert code == 0 and captured.err == ""


def make_labeled(bundle_dir, path, rows):
    bundle = read_bundle(str(bundle_dir))
    swap = sorted({o for _, _, o in bundle.train})
    lines = []
    for i, (s, r, o) in enumerate(rows):
        lines.append(f"{s}\t{r}\t{o}\t1")
        lines.append(f"{s}\t{r}\t{swap[i % len(swap)]}\t0")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_eval_tc_reports_accuracy(pipeline, capsys):
    root, _, bundle, _, ckpt = pipeline
    b = read_bundle(str(bundle))
    valid_tsv = root / "tc_valid.tsv"
    test_tsv = root / "tc_test.tsv"
    make_labeled(bundle, valid_tsv, b.valid[:20])
    make_labeled(bundle, test_tsv, b.valid[20:40] or b.valid[:10])
    out = root / "tc.out"
    code, captured = run(["eval-tc", "--bundle", str(bundle), "--ckpt", str(ckpt),
                          "--valid", str(valid_tsv), "--test", str(test_tsv),
                          "--out", str(out)], capsys)
    assert code == 0
    assert "accuracy" in captured.out
    report = read_kv(str(out))
    acc = float(report["accuracy"])
    assert 0.0 <= acc <= 1.0
    assert any(k.startswith("threshold.") for k in report)
    # every value must round-trip as a plain number, no repr leakage
    for key, value in report.items():
        assert np.isfinite(float(value)), f"{key} = {value}"
    assert (root / "tc.out.run.meta").exists()


def test_eval_tc_warns_about_neighborless_endpoints(pipeline, tmp_path, capsys):
    root, _, bundle_dir, _, ckpt = pipeline
    bundle = read_bundle(str(bundle_dir))
    bare = bundle.test[0][0]  # an unseen subject: its neighbors are all auxiliary facts
    assert bare in bundle.unseen
    stripped = replace(bundle, aux=[t for t in bundle.aux if bare not in (t[0], t[2])])
    write_bundle(stripped, str(tmp_path / "bundle"))
    valid_tsv, test_tsv = tmp_path / "tc_valid.tsv", tmp_path / "tc_test.tsv"
    make_labeled(bundle_dir, valid_tsv, bundle.valid[:20])
    make_labeled(bundle_dir, test_tsv, bundle.test[:20])
    labeled = [line.split("\t") for path in (valid_tsv, test_tsv) for line in path.read_text().splitlines()]
    n_bare = sum(1 for s, _, o, _ in labeled if bare in (s, o))
    assert 0 < n_bare < len(labeled)
    outs = []
    for name, target in (("stripped", tmp_path / "bundle"), ("full", bundle_dir)):
        out = tmp_path / f"{name}.out"
        code, captured = run(["eval-tc", "--bundle", str(target), "--ckpt", str(ckpt), "--valid", str(valid_tsv),
                              "--test", str(test_tsv), "--out", str(out)], capsys)
        assert code == 0 and "accuracy" in captured.out
        outs.append((captured.err.splitlines(), read_kv(str(out)), read_kv(str(out) + ".run.meta")))
    (warned, report, meta), (quiet, full_report, _) = outs
    assert len(warned) == 1 and warned[0] == (f"warning: {n_bare} of {len(labeled)} labeled rows have a subject or "
                                              "object with no neighbors and were scored from a zero vector")
    assert quiet == []
    # the count goes to stderr only: the report and run.meta keep their keys
    assert set(report) == set(full_report) and not any("warn" in key or "empty" in key for key in {**report, **meta})


def test_inspect_weights_table(pipeline, capsys):
    root, _, bundle, _, ckpt = pipeline
    b = read_bundle(str(bundle))
    entity = b.train[0][0]
    query = b.train[0][1]
    out = root / "trace.tsv"
    assert cli.main(["inspect-weights", "--bundle", str(bundle), "--ckpt", str(ckpt),
                     "--entity", entity, "--query", query, "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").strip().split("\n")
    assert lines[0] == ("entity\tquery\tneighbor_relation\tneighbor_entity\t"
                        "alpha_logic\talpha_nn\talpha_total")
    totals = [float(line.split("\t")[6]) for line in lines[1:]]
    assert totals == sorted(totals, reverse=True)
    assert len(totals) >= 1
    assert (root / "trace.tsv.run.meta").exists()

    code, captured = run(["inspect-weights", "--bundle", str(bundle), "--ckpt", str(ckpt),
                          "--entity", entity, "--query", query], capsys)
    assert code == 0
    assert captured.out.splitlines()[0] == lines[0]


@pytest.mark.parametrize("kind", ["lan", "logic-only", "query-attn", "global-attn"])
def test_inspect_weights_on_a_truncated_neighborhood(pipeline, tmp_path, kind):
    _, _, bundle, _, _ = pipeline
    ckpt = tmp_path / "budget2"
    assert cli.main(["train", "--bundle", str(bundle), "--aggregator", kind, "--scorer", "distmult",
                     "--seed", "0", "--set", "epochs=1", "--set", "dim=8", "--set", "batch_size=128",
                     "--set", "neighbor_budget=2", "--out", str(ckpt)]) == 0
    ctx = BundleContext(read_bundle(str(bundle)))
    degrees = np.diff(ctx.neighbor_graph.offsets)
    e = int(np.argmax(degrees))
    assert degrees[e] > 2
    q = int(ctx.neighbor_graph.neighborhood(e)[0, 0])
    entity, query = ctx.vocab.entity_name(e), ctx.vocab.relation_name(q)
    out = tmp_path / "trace.tsv"
    assert cli.main(["inspect-weights", "--bundle", str(bundle), "--ckpt", str(ckpt),
                     "--entity", entity, "--query", query, "--seed", "3", "--out", str(out)]) == 0
    rows = out.read_text(encoding="utf-8").splitlines()[1:]
    assert len(rows) == 2

    # the slots a B=1 batch samples under the command's key, and their attention
    store, *_ = read_checkpoint(str(ckpt), ctx.vocab)
    acfg = AggregatorConfig(kind=kind, neighbor_budget=2)
    offsets, rels, ents = stack_samples(ctx.neighbor_graph, [e], acfg, (3,))
    dense = import_table(str(ckpt / "rules.tsv"), ctx.vocab).dense() if acfg.needs_rules else None
    _, alpha_logic, alpha_nn = encode_batch(store.leaves(False), offsets, rels, ents, [q], acfg,
                                            dense_table=dense, trace=True)
    slots = sorted(zip(rels.tolist(), ents.tolist(), alpha_logic, alpha_nn), key=lambda t: -(t[2] + t[3]))
    assert rows == [
        f"{entity}\t{query}\t{ctx.vocab.relation_name(r)}\t{ctx.vocab.entity_name(n)}\t"
        f"{a_logic:.6f}\t{a_nn:.6f}\t{a_logic + a_nn:.6f}"
        for r, n, a_logic, a_nn in slots
    ]


def test_inspect_weights_shows_the_slots_eval_lp_used(pipeline, tmp_path, monkeypatch):
    _, _, bundle, _, _ = pipeline
    ckpt = tmp_path / "budget2"
    assert cli.main(["train", "--bundle", str(bundle), "--seed", "0", "--set", "epochs=1", "--set", "dim=8",
                     "--set", "neighbor_budget=2", "--out", str(ckpt)]) == 0
    used = {}  # entity -> every slot list eval-lp sampled for it, as a candidate or a fixed side

    def spy(graph, ids, cfg, key):
        offsets, rels, ents = stack_samples(graph, ids, cfg, key)
        for i, e in enumerate(np.asarray(ids).tolist()):
            a, z = offsets[i], offsets[i + 1]
            used.setdefault(e, set()).add(tuple(zip(rels[a:z].tolist(), ents[a:z].tolist())))
        return offsets, rels, ents
    monkeypatch.setattr(evaluation, "stack_samples", spy)
    assert cli.main(["eval-lp", "--bundle", str(bundle), "--ckpt", str(ckpt), "--seed", "3",
                     "--out", str(tmp_path / "m.csv")]) == 0
    assert all(len(slots) == 1 for slots in used.values())  # one entity, one sample, under every relation
    ctx = BundleContext(read_bundle(str(bundle)))
    degrees = np.diff(ctx.neighbor_graph.offsets)
    hubs = [e for e in used if degrees[e] > 2]
    assert len(hubs) > 3
    for e in hubs[:4]:
        [slots] = used[e]
        out = tmp_path / "trace.tsv"
        assert cli.main(["inspect-weights", "--bundle", str(bundle), "--ckpt", str(ckpt),
                         "--entity", ctx.vocab.entity_name(e), "--query", ctx.vocab.relation_name(slots[0][0]),
                         "--seed", "3", "--out", str(out)]) == 0
        shown = [tuple(line.split("\t")[2:4]) for line in out.read_text(encoding="utf-8").splitlines()[1:]]
        assert sorted(shown) == sorted((ctx.vocab.relation_name(r), ctx.vocab.entity_name(n)) for r, n in slots)


@pytest.mark.parametrize("kind", AGGREGATOR_KINDS)
def test_inspect_weights_of_a_neighborless_entity(tmp_path, capsys, kind):
    train = [("a", "r", "b"), ("a", "r", "c"), ("b", "r", "d"), ("d", "r", "a")]
    test = [("u", "r", "b"), ("v", "r", "c")]  # u is unseen and has no auxiliary facts
    bundle = DatasetBundle(train=train, aux=[("v", "r", "a")], valid=[], test=test,
                           unseen=["u", "v"], spec=SplitSpec("subject", 1.0, 0))
    write_bundle(bundle, str(tmp_path / "bundle"))
    ckpt = tmp_path / "model"
    code, _ = run(["train", "--bundle", str(tmp_path / "bundle"), "--aggregator", kind, "--seed", "0",
                   "--set", "epochs=1", "--set", "dim=4", "--out", str(ckpt)], capsys)
    assert code == 0
    out = tmp_path / "trace.tsv"
    code, captured = run(["inspect-weights", "--bundle", str(tmp_path / "bundle"), "--ckpt", str(ckpt),
                          "--entity", "u", "--query", "r", "--out", str(out)], capsys)
    assert code == 0
    assert out.read_text(encoding="utf-8") == (
        "entity\tquery\tneighbor_relation\tneighbor_entity\talpha_logic\talpha_nn\talpha_total\n"
    )
    assert captured.err == "note: u has no neighbors; embedding is all-zero\n"


@pytest.mark.parametrize("kind", AGGREGATOR_KINDS)
def test_forward_passes_over_constant_weights_build_no_graph(pipeline, tmp_path, kind):
    _, _, bundle, _, _ = pipeline
    ckpt = tmp_path / "model"
    assert run(["train", "--bundle", str(bundle), "--aggregator", kind, "--seed", "0", "--set", "epochs=1",
                "--set", "dim=8", "--set", "batch_size=128", "--out", str(ckpt)]) == 0
    start = next(ad._created)  # only training, done above, may make a value that requires a gradient
    ctx, store, acfg, scorer, dense = cli._load_model(str(ckpt), str(bundle))
    assert link_prediction(ctx, store, acfg, scorer, dense, seed=0).metrics.n_queries > 0
    assert score_labeled(ctx, store, acfg, scorer, dense, ctx.to_ids(ctx.bundle.valid), seed=0).size > 0
    assert encode_entities(ctx.neighbor_graph, store.leaves(False), acfg, dense, ctx.seen_ids, 0, (0,)).shape[0] > 0
    b = ctx.bundle
    assert run(["inspect-weights", "--bundle", str(bundle), "--ckpt", str(ckpt), "--entity", b.train[0][0],
                "--query", b.train[0][1], "--out", str(tmp_path / "trace.tsv")]) == 0
    assert next(ad._created) == start + 1


def test_train_is_bitwise_repeatable(pipeline, tmp_path):
    _, _, bundle, _, ckpt = pipeline
    again = tmp_path / "again"
    assert cli.main(["train", "--bundle", str(bundle), "--aggregator", "lan",
                     "--scorer", "distmult", "--seed", "0",
                     "--set", "epochs=2", "--set", "dim=8", "--set", "batch_size=128",
                     "--set", "learning_rate=0.01",
                     "--out", str(again)]) == 0
    assert (again / "entity_emb.f64").read_bytes() == (ckpt / "entity_emb.f64").read_bytes()
    assert (again / "manifest").read_bytes() == (ckpt / "manifest").read_bytes()


def test_every_checkpoint_holds_the_rule_table_it_was_trained_with(pipeline, tmp_path):
    _, _, bundle, _, _ = pipeline
    vocab = BundleContext(read_bundle(str(bundle))).vocab
    names = [vocab.relation_name(r) for r in range(2 * vocab.n_relations)]
    custom = tmp_path / "custom.tsv"  # rows out of id order, confidences not in repr form
    custom.write_text("".join(f"{names[i]}\t{names[(i + 1) % len(names)]}\t{(i % 4 + 1) / 4:g}\n"
                              for i in reversed(range(len(names)))), encoding="utf-8")
    canonical = tmp_path / "canonical.tsv"
    export_table(import_table(str(custom), vocab).dense(), str(canonical), vocab)
    ckpt = tmp_path / "model"
    assert cli.main(["train", "--bundle", str(bundle), "--aggregator", "lan", "--scorer", "distmult",
                     "--rules", str(custom), "--seed", "0", "--set", "epochs=2", "--set", "dim=8",
                     "--set", "checkpoint_every=1", "--out", str(ckpt)]) == 0
    for target in (ckpt / "epoch-0001", ckpt / "epoch-0002", ckpt):
        assert (target / "rules.tsv").read_bytes() == canonical.read_bytes(), target
    for target in (ckpt / "epoch-0002", ckpt):
        assert cli.main(["eval-lp", "--bundle", str(bundle), "--ckpt", str(target),
                         "--out", str(target / "metrics.csv")]) == 0
    assert (ckpt / "epoch-0002" / "metrics.csv").read_bytes() == (ckpt / "metrics.csv").read_bytes()


def test_logic_checkpoint_without_its_rule_table_is_refused(pipeline, tmp_path, capsys):
    _, _, bundle, _, ckpt = pipeline
    copy = tmp_path / "model"
    shutil.copytree(ckpt, copy)
    (copy / "rules.tsv").unlink()
    code, captured = run(["eval-lp", "--bundle", str(bundle), "--ckpt", str(copy),
                          "--out", str(tmp_path / "m.csv")], capsys)
    assert code == 1
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and str(copy / "rules.tsv") in lines[0]


@pytest.mark.parametrize("damage", ["edited confidence", "no checksum line"])
def test_logic_checkpoint_with_an_unchecked_rule_table_is_refused(pipeline, tmp_path, capsys, damage):
    _, _, bundle, _, ckpt = pipeline
    copy = tmp_path / "model"
    shutil.copytree(ckpt, copy)
    rules, manifest = copy / "rules.tsv", read_kv(str(copy / "manifest"))
    assert manifest["sha256.rules.tsv"] == sha256_file(str(rules))
    if damage == "edited confidence":  # still a valid table, so only its checksum can tell
        lines = rules.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[0] = "\t".join(lines[0].split("\t")[:2] + ["0.0123\n"])
        rules.write_text("".join(lines), encoding="utf-8")
        want = "checksum mismatch"
    else:
        del manifest["sha256.rules.tsv"]
        write_kv(str(copy / "manifest"), manifest)
        want = "no sha256.rules.tsv line"
    code, captured = run(["eval-lp", "--bundle", str(bundle), "--ckpt", str(copy),
                          "--out", str(tmp_path / "m.csv")], capsys)
    assert code == 1
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and want in lines[0] and str(rules) in lines[0]


def test_mean_checkpoint_has_no_rule_table_and_evaluates(pipeline, tmp_path):
    _, _, bundle, _, _ = pipeline
    ckpt = tmp_path / "mean"
    assert cli.main(["train", "--bundle", str(bundle), "--aggregator", "mean", "--seed", "0",
                     "--set", "epochs=1", "--set", "dim=8", "--set", "checkpoint_every=1",
                     "--out", str(ckpt)]) == 0
    assert not (ckpt / "rules.tsv").exists() and not (ckpt / "epoch-0001" / "rules.tsv").exists()
    assert cli.main(["eval-lp", "--bundle", str(bundle), "--ckpt", str(ckpt),
                     "--out", str(tmp_path / "m.csv")]) == 0


@pytest.fixture
def contexts_built(monkeypatch):
    """The bundles that a :class:`BundleContext` is built from, in order, while the test runs."""
    built = []
    init = BundleContext.__init__

    def counted(self, b):
        built.append(b)
        init(self, b)

    monkeypatch.setattr(BundleContext, "__init__", counted)
    return built


def test_train_with_a_rule_table_builds_one_context(pipeline, tmp_path, contexts_built):
    _, _, bundle, rules, _ = pipeline
    assert run(["train", "--bundle", str(bundle), "--aggregator", "lan", "--rules", str(rules),
                "--seed", "0", "--set", "epochs=1", "--set", "dim=8", "--out", str(tmp_path / "m")]) == 0
    assert len(contexts_built) == 1


@pytest.mark.parametrize("command", ["eval-lp", "eval-tc", "inspect-weights"])
def test_a_command_that_loads_a_checkpoint_builds_one_context(pipeline, tmp_path, contexts_built, command):
    _, _, bundle, _, ckpt = pipeline
    b = read_bundle(str(bundle))
    argv = [command, "--bundle", str(bundle), "--ckpt", str(ckpt)]
    if command == "eval-lp":
        argv += ["--out", str(tmp_path / "m.csv")]
    elif command == "eval-tc":
        make_labeled(bundle, tmp_path / "valid.tsv", b.valid[:10])
        make_labeled(bundle, tmp_path / "test.tsv", b.valid[:10])
        argv += ["--valid", str(tmp_path / "valid.tsv"), "--test", str(tmp_path / "test.tsv"),
                 "--out", str(tmp_path / "tc.out")]
    else:
        argv += ["--entity", b.train[0][0], "--query", b.train[0][1], "--out", str(tmp_path / "trace.tsv")]
    assert run(argv) == 0
    assert len(contexts_built) == 1


@pytest.mark.parametrize("setting", ["valid_max_queries=0", "valid_max_queries=-2", "patience=0", "eval_every=-1",
                                     "checkpoint_every=-2"])
def test_validation_settings_below_one_are_refused_before_anything_is_written(pipeline, tmp_path, capsys,
                                                                              setting):
    _, _, bundle, _, _ = pipeline
    out = tmp_path / "model"
    code, captured = run(["train", "--bundle", str(bundle), "--set", "eval_every=1", "--set", setting,
                          "--out", str(out)], capsys)
    assert code == 1
    lines = captured.err.splitlines()
    key = setting.partition("=")[0].replace("_", " ")
    assert len(lines) == 1 and lines[0].startswith(f"error: {key} must be >= 1")
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("setting", ["margin=nan", "l2_rate=nan", "learning_rate=nan", "epsilon=nan",
                                     "learning_rate=inf", "margin=inf", "l2_rate=inf", "epsilon=-inf"])
def test_non_finite_settings_are_refused_before_anything_is_written(pipeline, tmp_path, capsys, setting):
    _, _, bundle, _, _ = pipeline
    out = tmp_path / "model"
    code, captured = run(["train", "--bundle", str(bundle), "--set", "epochs=1", "--set", "dim=8",
                          "--set", setting, "--out", str(out)], capsys)
    assert code == 1
    lines = captured.err.splitlines()
    key = setting.partition("=")[0].replace("_", " ")
    assert len(lines) == 1 and lines[0].startswith(f"error: {key} must be ") and "finite" in lines[0]
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("kind", ["mean", "lstm", "query-attn", "global-attn"])
def test_rules_for_an_aggregator_without_a_rule_table_are_refused(pipeline, tmp_path, capsys, kind):
    _, _, bundle, rules, _ = pipeline
    out = tmp_path / "model"
    code, captured = run(["train", "--bundle", str(bundle), "--aggregator", kind, "--rules", str(rules),
                          "--set", "epochs=1", "--set", "dim=8", "--out", str(out)], capsys)
    assert code == 1
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: --rules") and kind in lines[0]
    assert not out.exists()


def test_flag_beats_set_beats_file(pipeline, tmp_path):
    _, _, bundle, *_ = pipeline
    cfg = tmp_path / "run.cfg"
    cfg.write_text("aggregator = mean\nepochs = 5\ndim = 6\nseed = 3\n", encoding="utf-8")
    out = tmp_path / "model"
    assert cli.main(["train", "--bundle", str(bundle), "--config", str(cfg),
                     "--aggregator", "query-attn", "--set", "epochs=1",
                     "--out", str(out)]) == 0
    meta = read_kv(str(out / "run.meta"))
    assert meta["config.aggregator"] == "query-attn"  # flag wins over file
    assert meta["config.epochs"] == "1"               # --set wins over file
    assert meta["config.dim"] == "6"                  # file wins over default
    assert meta["config.seed"] == "3"


def test_unknown_config_key_is_rejected(pipeline, tmp_path, capsys):
    _, _, bundle, *_ = pipeline
    code, captured = run(["train", "--bundle", str(bundle), "--set", "learningrate=0.1",
                          "--out", str(tmp_path / "x")], capsys)
    assert code == 1
    assert captured.err.startswith("error: unknown config key: learningrate")


def test_bad_config_value_is_rejected(pipeline, tmp_path, capsys):
    _, _, bundle, *_ = pipeline
    code, captured = run(["train", "--bundle", str(bundle), "--set", "margin=-2",
                          "--out", str(tmp_path / "x")], capsys)
    assert code == 1
    assert "margin" in captured.err


def test_malformed_set_pair(pipeline, tmp_path, capsys):
    _, _, bundle, *_ = pipeline
    code, captured = run(["train", "--bundle", str(bundle), "--set", "epochs",
                          "--out", str(tmp_path / "x")], capsys)
    assert code == 1
    assert "key=value" in captured.err


def test_missing_corpus_errors_cleanly(tmp_path, capsys):
    code, captured = run(["build-dataset", "--corpus", str(tmp_path / "nope"),
                          "--out", str(tmp_path / "b")], capsys)
    assert code == 1
    assert captured.err.startswith("error:")


def test_vocabulary_mismatch_is_refused(pipeline, tmp_path, capsys):
    root, corpus, _, _, ckpt = pipeline
    other_corpus = tmp_path / "other_corpus"
    assert cli.main(["gen-synthetic", "--entities", "80", "--rule-strength", "0.9",
                     "--seed", "4", "--out", str(other_corpus)]) == 0
    other = tmp_path / "other_bundle"
    assert cli.main(["build-dataset", "--corpus", str(other_corpus), "--strategy", "subject",
                     "--rate", "0.2", "--seed", "9", "--out", str(other)]) == 0
    code, captured = run(["eval-lp", "--bundle", str(other), "--ckpt", str(ckpt),
                          "--out", str(tmp_path / "m.csv")], capsys)
    assert code == 1
    assert "different vocabulary" in captured.err


def edited_checkpoint(ckpt, tmp_path, **changes):
    """A copy of ``ckpt`` whose manifest has ``changes`` applied; a value of None drops the line."""
    copy = tmp_path / "edited"
    shutil.copytree(ckpt, copy)
    manifest = read_kv(str(copy / "manifest"))
    for key, value in changes.items():
        if value is None:
            del manifest[key]
        else:
            manifest[key] = value
    write_kv(str(copy / "manifest"), manifest)
    return copy


@pytest.mark.parametrize("key", ["vocab_sha256", "scorer", "neighbor_budget", "logic_mode", "epsilon"])
def test_checkpoint_without_a_vocabulary_line_is_refused(pipeline, tmp_path, capsys, key):
    _, _, bundle, _, ckpt = pipeline
    edited = edited_checkpoint(ckpt, tmp_path, **{key: None})
    code, captured = run(["eval-lp", "--bundle", str(bundle), "--ckpt", str(edited),
                          "--out", str(tmp_path / "m.csv")], capsys)
    assert code == 1
    assert captured.err.startswith("error:") and f"no {key} line" in captured.err
    assert str(edited / "manifest") in captured.err


@pytest.mark.parametrize("key,value", [
    ("epsilon", "tiny"), ("neighbor_budget", "0"), ("aggregator", "sum"), ("logic_mode", "soft"),
    ("scorer", "foo"),
])
def test_bad_checkpoint_config_value_gives_one_error_line(pipeline, tmp_path, capsys, key, value):
    _, _, bundle, _, ckpt = pipeline
    edited = edited_checkpoint(ckpt, tmp_path, **{key: value})
    code, captured = run(["eval-lp", "--bundle", str(bundle), "--ckpt", str(edited),
                          "--out", str(tmp_path / "m.csv")], capsys)
    assert code == 1
    assert captured.err.count("\n") == 1 and captured.err.startswith(f"error: {edited / 'manifest'}: ")


@pytest.fixture(scope="module")
def lstm_ckpt(pipeline, tmp_path_factory):
    _, _, bundle, _, _ = pipeline
    ckpt = tmp_path_factory.mktemp("lstm") / "model"
    assert cli.main(["train", "--bundle", str(bundle), "--aggregator", "lstm", "--seed", "0",
                     "--set", "epochs=1", "--set", "dim=4", "--out", str(ckpt)]) == 0
    return ckpt


@pytest.mark.parametrize("source, changes, message", [
    ("lstm", {"shape.entity_emb": None}, "declares no parameter entity_emb, which the lstm aggregator needs"),
    ("lstm", {"shape.lstm_w_f": None}, "declares no parameter lstm_w_f, which the lstm aggregator needs"),
    ("lstm", {"shape.attn_score_vec": None}, "declares no parameter attn_score_vec, which the lstm aggregator needs"),
    ("lstm", {"aggregator": "mean"}, "declares parameter lstm_b_c, which the mean aggregator does not use"),
    ("lan", {"aggregator": "lstm"}, "declares no parameter lstm_b_c, which the lstm aggregator needs"),
    ("lan", {"shape.attn_score_vec": "2x4"},
     "declares parameter attn_score_vec of shape 2x4, where the lan aggregator needs 8"),
], ids=["no-entity_emb", "no-lstm_w_f", "no-attn_score_vec", "lstm-as-mean", "lan-as-lstm", "attn_score_vec-2x4"])
def test_a_checkpoint_whose_parameters_differ_from_its_aggregators_gives_one_error_line(
        pipeline, lstm_ckpt, tmp_path, capsys, source, changes, message):
    _, _, bundle, _, ckpt = pipeline
    edited = edited_checkpoint(lstm_ckpt if source == "lstm" else ckpt, tmp_path, **changes)
    code, captured = run(["eval-lp", "--bundle", str(bundle), "--ckpt", str(edited),
                          "--out", str(tmp_path / "m.csv")], capsys)
    assert code == 1
    assert captured.err == f"error: {edited / 'manifest'}: {message}\n"


@pytest.mark.parametrize("source, changes, name", [
    ("lstm", {"shape.lstm_w_f": None}, "lstm_w_f"),
    ("lan", {"shape.attn_score_vec": "2x4"}, "attn_score_vec"),
    ("lan", {"shape.entity_emb": "2x4"}, "entity_emb"),
    ("lan", {"shape.lstm_b_f": "8"}, "lstm_b_f"),
    ("lan", {"n_relations": "1"}, "query_vec"),
    ("lstm", {"dim": "5"}, "attn_proj"),
], ids=["no-lstm_w_f", "attn_score_vec-2x4", "entity_emb-2x4", "extra-lstm_b_f", "n_relations", "dim"])
def test_load_checkpoint_refuses_parameters_that_are_not_its_models(pipeline, lstm_ckpt, tmp_path, source, changes,
                                                                     name):
    edited = edited_checkpoint(lstm_ckpt if source == "lstm" else pipeline[4], tmp_path, **changes)
    vocab = BundleContext(read_bundle(str(pipeline[2]))).vocab
    with pytest.raises(ValueError, match=rf"^{re.escape(str(edited / 'manifest'))}: declares .*parameter {name}\b"):
        read_checkpoint(str(edited), vocab)


SEED_ARGS = {  # every command with a --seed, with its other arguments
    "gen-synthetic": [],
    "build-dataset": ["--corpus", "{corpus}"],
    "train": ["--bundle", "{bundle}"],
    "eval-lp": ["--bundle", "{bundle}", "--ckpt", "{ckpt}"],
    "eval-tc": ["--bundle", "{bundle}", "--ckpt", "{ckpt}", "--valid", "{corpus}/valid.tsv",
                "--test", "{corpus}/test.tsv"],
    "inspect-weights": ["--bundle", "{bundle}", "--ckpt", "{ckpt}", "--entity", "e", "--query", "r"],
}


@pytest.mark.parametrize("command", sorted(SEED_ARGS))
def test_a_negative_seed_gives_one_error_line_naming_it(pipeline, tmp_path, capsys, command):
    _, corpus, bundle, _, ckpt = pipeline
    args = [arg.format(corpus=corpus, bundle=bundle, ckpt=ckpt) for arg in SEED_ARGS[command]]
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exit:
        cli.main([command, *args, "--seed", "-1", "--out", str(out)])
    assert exit.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error" in line]
    assert errors == [f"lankgc {command}: error: argument --seed: must be an integer >= 0, got '-1'"]
    assert not out.exists()
    if command == "train":  # a seed from a config file or --set is refused too
        code, captured = run([command, *args, "--set", "seed=-1", "--out", str(out)], capsys)
        assert code == 1 and captured.err == "error: seed must be >= 0, got -1\n" and not out.exists()


def test_module_entry_point_runs(tmp_path):
    out = tmp_path / "c"
    proc = subprocess.run(
        [sys.executable, "-m", "lankgc.cli", "gen-synthetic", "--entities", "60",
         "--rule-strength", "0.8", "--seed", "2", "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "train.tsv").exists()
    proc2 = subprocess.run(
        [sys.executable, "-m", "lankgc.cli", "mine-rules", "--train",
         str(out / "missing.tsv"), "--out", str(tmp_path / "r.tsv")],
        capture_output=True, text=True,
    )
    assert proc2.returncode == 1
    assert proc2.stderr.startswith("error:")
