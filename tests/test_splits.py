import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import corpora, oracle_split, random_corpus, split_specs
from lankgc.splits import (
    BUNDLE_FILES,
    Corpus,
    DatasetBundle,
    SplitError,
    SplitSpec,
    build_split,
    load_corpus,
    read_bundle,
    split_stats,
    write_bundle,
)
from lankgc.synth import gen_synthetic, write_corpus
from lankgc.util import read_kv, write_kv


def check_bundle_invariants(corpus, bundle):
    unseen = set(bundle.unseen)
    seen = bundle.seen_entities()
    assert not unseen & seen
    for s, _, o in bundle.train:
        assert s not in unseen and o not in unseen
    for s, _, o in bundle.aux:
        assert (s in unseen) != (o in unseen)
    side, other = (0, 2) if bundle.spec.strategy == "subject" else (2, 0)
    for t in bundle.test:
        assert t[side] in unseen
        assert t[other] in seen
    for s, _, o in bundle.valid:
        assert s in seen and o in seen
    # every original training triplet lands in train, aux, or the
    # dropped (both endpoints unseen) bucket
    train_set, aux_set = set(bundle.train), set(bundle.aux)
    for t in corpus.train:
        if t in train_set:
            continue
        if t in aux_set:
            continue
        assert t[0] in unseen and t[2] in unseen


def test_spec_validation():
    with pytest.raises(SplitError, match="strategy"):
        SplitSpec(strategy="both")
    with pytest.raises(SplitError, match="rate"):
        SplitSpec(sample_rate=0.0)
    with pytest.raises(SplitError, match="rate"):
        SplitSpec(sample_rate=1.5)
    assert SplitSpec(sample_rate=1.0).sample_rate == 1.0


def test_candidate_without_outside_neighbor_is_excluded():
    # u1's only training neighbor is u2, itself a candidate, so u1 is
    # dropped from the unseen set; u2 keeps its link to x and survives.
    corpus = Corpus(
        train=[("u1", "r", "u2"), ("u2", "r", "x"), ("x", "r", "y"), ("s1", "r", "x")],
        valid=[],
        test=[("u1", "r", "x"), ("u2", "r", "y")],
    )
    bundle = build_split(corpus, SplitSpec("subject", 1.0, 0))
    assert bundle.unseen == ["u2"]
    assert set(bundle.train) == {("x", "r", "y"), ("s1", "r", "x")}
    assert set(bundle.aux) == {("u1", "r", "u2"), ("u2", "r", "x")}
    assert bundle.test == [("u2", "r", "y")]
    check_bundle_invariants(corpus, bundle)


def test_object_strategy_mirrors_subject():
    corpus = Corpus(
        train=[("x", "r", "u"), ("y", "r", "x"), ("s", "r", "y")],
        valid=[("x", "r", "y")],
        test=[("x", "r", "u")],
    )
    bundle = build_split(corpus, SplitSpec("object", 1.0, 0))
    assert bundle.unseen == ["u"]
    assert bundle.test == [("x", "r", "u")]
    assert bundle.valid == [("x", "r", "y")]
    check_bundle_invariants(corpus, bundle)


def test_no_survivor_unseen_raises():
    corpus = Corpus(
        train=[("a", "r", "b")],
        valid=[],
        test=[("a", "q", "b"), ("b", "q", "a")],
    )
    with pytest.raises(SplitError, match="unseen"):
        build_split(corpus, SplitSpec("subject", 1.0, 0))


def test_no_surviving_test_raises():
    corpus = Corpus(
        train=[("a", "r", "x"), ("x", "r", "y")],
        valid=[],
        test=[("a", "q", "z")],
    )
    with pytest.raises(SplitError, match="test"):
        build_split(corpus, SplitSpec("subject", 1.0, 0))


def test_empty_corpus_rejected():
    with pytest.raises(SplitError):
        build_split(Corpus([], [], [("a", "r", "b")]), SplitSpec())
    with pytest.raises(SplitError):
        build_split(Corpus([("a", "r", "b")], [], []), SplitSpec())


def test_build_split_is_deterministic(tmp_path):
    corpus = gen_synthetic(100, 0.8, seed=4)
    spec = SplitSpec("subject", 0.7, 9)
    b1 = build_split(corpus, spec)
    b2 = build_split(corpus, spec)
    assert b1.train == b2.train
    assert b1.aux == b2.aux
    assert b1.test == b2.test
    assert b1.unseen == b2.unseen
    d1, d2 = tmp_path / "one", tmp_path / "two"
    write_bundle(b1, d1)
    write_bundle(b2, d2)
    for name in os.listdir(d1):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


@given(st.integers(0, 10_000), st.sampled_from(["subject", "object"]))
@settings(max_examples=30)
def test_invariants_on_random_corpora(seed, strategy):
    corpus = random_corpus(np.random.default_rng(seed))
    try:
        bundle = build_split(corpus, SplitSpec(strategy, 0.4, seed))
    except SplitError:
        return
    check_bundle_invariants(corpus, bundle)


def test_invariants_on_synthetic_corpus():
    corpus = gen_synthetic(150, 0.9, seed=1)
    for rate in (0.3, 1.0):
        bundle = build_split(corpus, SplitSpec("subject", rate, 2))
        check_bundle_invariants(corpus, bundle)


def test_growing_rate_shrinks_training_set_here():
    # prefix sampling: a larger rate picks a superset of candidate rows
    corpus = gen_synthetic(150, 0.9, seed=1)
    sizes = [
        len(build_split(corpus, SplitSpec("subject", r, 2)).train)
        for r in (0.3, 0.6, 1.0)
    ]
    assert sizes[0] >= sizes[1] >= sizes[2]


def test_stats_recount(tmp_path):
    corpus = gen_synthetic(120, 0.9, seed=3)
    bundle = build_split(corpus, SplitSpec("subject", 1.0, 0))
    stats = split_stats(bundle)
    assert stats.n_relations == len({r for _, r, _ in bundle.train})
    assert stats.n_seen == len(bundle.seen_entities())
    assert stats.n_unseen == len(bundle.unseen)
    degrees = {e: 0 for e in bundle.unseen}
    for s, _, o in bundle.aux:
        for e in (s, o):
            if e in degrees:
                degrees[e] += 1
    assert stats.min_neighbors == min(degrees.values())
    assert stats.max_neighbors == max(degrees.values())
    assert stats.avg_neighbors == pytest.approx(sum(degrees.values()) / len(degrees))


def test_write_read_round_trip(tmp_path):
    corpus = gen_synthetic(100, 0.8, seed=7)
    corpus.checksums = {"corpus_sha256.train": "00ff"}
    bundle = build_split(corpus, SplitSpec("object", 0.5, 3))
    out = tmp_path / "bundle"
    write_bundle(bundle, out)
    back = read_bundle(out)
    assert back.train == bundle.train
    assert back.aux == bundle.aux
    assert back.valid == bundle.valid
    assert back.test == bundle.test
    assert back.unseen == bundle.unseen
    assert back.spec == bundle.spec
    assert back.corpus_checksums == {"corpus_sha256.train": "00ff"}


def test_read_bundle_detects_tampering(tmp_path):
    bundle = build_split(gen_synthetic(100, 0.8, seed=7), SplitSpec("subject", 0.5, 3))
    out = tmp_path / "bundle"
    write_bundle(bundle, out)
    path = out / "train.tsv"
    path.write_text(path.read_text() + "zz\tlikes\tqq\n")
    with pytest.raises(SplitError, match="checksum mismatch"):
        read_bundle(out)


def test_read_bundle_missing_pieces(tmp_path):
    with pytest.raises(SplitError, match="manifest"):
        read_bundle(tmp_path)
    bundle = build_split(gen_synthetic(100, 0.8, seed=7), SplitSpec("subject", 0.5, 3))
    out = tmp_path / "bundle"
    write_bundle(bundle, out)
    os.remove(out / "aux.tsv")
    with pytest.raises(SplitError, match="missing"):
        read_bundle(out)


@pytest.mark.parametrize("name", BUNDLE_FILES)
def test_read_bundle_refuses_a_manifest_without_a_checksum_line(tmp_path, name):
    bundle = build_split(gen_synthetic(100, 0.8, seed=7), SplitSpec("subject", 0.5, 3))
    out = tmp_path / "bundle"
    write_bundle(bundle, out)
    manifest = read_kv(str(out / "manifest"))
    del manifest[f"sha256.{name}"]
    write_kv(str(out / "manifest"), manifest)
    with pytest.raises(SplitError, match=f"no sha256.{name} line for .*{name}"):
        read_bundle(out)


@pytest.mark.parametrize("key", ["strategy", "sample_rate", "seed"])
def test_read_bundle_refuses_a_manifest_without_a_split_setting(tmp_path, key):
    # an object-strategy bundle read back with the defaults would rank the wrong side
    bundle = build_split(gen_synthetic(100, 0.8, seed=7), SplitSpec("object", 0.5, 3))
    out = tmp_path / "bundle"
    write_bundle(bundle, out)
    manifest = read_kv(str(out / "manifest"))
    del manifest[key]
    write_kv(str(out / "manifest"), manifest)
    with pytest.raises(SplitError, match=f"manifest has no {key} line"):
        read_bundle(out)


def test_load_corpus_and_extension_fallback(tmp_path):
    corpus = gen_synthetic(80, 0.9, seed=5)
    write_corpus(corpus, tmp_path)
    os.rename(tmp_path / "valid.tsv", tmp_path / "valid.txt")
    loaded = load_corpus(tmp_path)
    assert loaded.train == corpus.train
    assert loaded.valid == corpus.valid
    assert loaded.test == corpus.test
    assert set(loaded.checksums) == {
        "corpus_sha256.train", "corpus_sha256.valid", "corpus_sha256.test"
    }


def test_load_corpus_requires_files(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_corpus(tmp_path)
    (tmp_path / "train.tsv").write_text("a\tr\tb\n")
    (tmp_path / "valid.tsv").write_text("")
    (tmp_path / "test.tsv").write_text("")
    with pytest.raises(SplitError, match="empty"):
        load_corpus(tmp_path)


def test_bundle_entity_views():
    bundle = DatasetBundle(
        train=[("a", "r", "b")],
        aux=[("a", "r", "u")],
        valid=[],
        test=[("u", "q", "b")],
        unseen=["u"],
        spec=SplitSpec("subject", 1.0, 0),
    )
    assert bundle.seen_entities() == {"a", "b"}
    assert bundle.all_entities() == {"a", "b", "u"}
    assert bundle.all_relations() == {"r", "q"}


def split_outcome(build, corpus, spec):
    """The bundle ``build`` returns, or the message of the :class:`SplitError` it raises."""
    try:
        return build(corpus, spec)
    except SplitError as exc:
        return str(exc)


# a self-loop is no neighbor outside the candidates
@example(Corpus([("a", "r", "a")], [], [("a", "q", "a")]), SplitSpec("subject", 1.0, 0))
@example(Corpus([("a", "r", "a"), ("a", "r", "b"), ("b", "r", "c")], [], [("a", "q", "c"), ("b", "q", "a")]),
         SplitSpec("subject", 1.0, 0))
# a fact between two unseen entities is dropped, not sent to aux
@example(Corpus([("a", "r", "b"), ("a", "r", "c"), ("b", "r", "c"), ("c", "r", "d")], [("c", "r", "d")],
                [("a", "q", "c"), ("b", "q", "d")]), SplitSpec("subject", 1.0, 0))
@given(corpora(), split_specs())
@settings(max_examples=400)
def test_build_split_equals_the_name_set_oracle(corpus, spec):
    got, want = split_outcome(build_split, corpus, spec), split_outcome(oracle_split, corpus, spec)
    assert type(got) is type(want)
    assert got == want  # every DatasetBundle field, or the same error message
    if isinstance(want, DatasetBundle):
        assert type(got.unseen) is list
        for name in ("train", "aux", "valid", "test"):
            assert all(g is w for g, w in zip(getattr(got, name), getattr(want, name)))  # the corpus's own tuples
