"""Construction of unseen-entity evaluation splits from a standard corpus.

Starting from a corpus with conventional train/valid/test files, a
fraction R of the test triplets is sampled and their subjects (or
objects, per strategy) become candidate unseen entities.  Candidates
whose training neighbors would all disappear with them are filtered
out.  Training triplets touching an unseen entity on exactly one side
move to the auxiliary set, which later supplies the neighborhoods of
unseen entities; triplets touching unseen entities on both sides are
dropped.  Test triplets are kept only when their strategy-side endpoint
is unseen and the other endpoint still occurs in the new training set;
validation triplets must live entirely inside the new training
vocabulary.

Sampling takes a prefix of a seeded permutation of the test file, so
growing R only ever adds candidate entities.

The split is computed on interned ids, not on sets of names: every
entity name of the corpus gets an int64 code once, each file becomes
code columns, and candidates, unseen and seen entities are boolean
masks over the codes, so each filter above is one mask expression over
whole columns.  Kept facts are picked from the corpus lists by mask, so
a bundle holds the corpus's own tuples in corpus order.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from itertools import chain, compress

import numpy as np

from .kg import ParseError, parse_triplet_file, write_triplet_file
from .util import ARTIFACT_VERSION, checked_file, read_kv, sha256_file, write_kv

BUNDLE_FILES = ("train.tsv", "aux.tsv", "valid.tsv", "test.tsv", "unseen.txt")
STRATEGIES = ("subject", "object")


class SplitError(ValueError):
    """The requested split cannot be built or a bundle is invalid."""


@dataclass
class Corpus:
    """An original corpus: three triplet lists plus source checksums."""

    train: list
    valid: list
    test: list
    checksums: dict = field(default_factory=dict)


@dataclass(frozen=True)
class SplitSpec:
    strategy: str = "subject"
    sample_rate: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise SplitError(f"unknown strategy: {self.strategy!r}")
        if not (0.0 < self.sample_rate <= 1.0):
            raise SplitError(f"sample rate must be in (0, 1], got {self.sample_rate}")


@dataclass
class DatasetBundle:
    train: list
    aux: list
    valid: list
    test: list
    unseen: list
    spec: SplitSpec
    corpus_checksums: dict = field(default_factory=dict)

    def seen_entities(self):
        return _names((self.train,), 0, 2)

    def all_entities(self):
        return _names((self.train, self.aux, self.valid, self.test), 0, 2).union(self.unseen)

    def all_relations(self):
        return _names((self.train, self.aux, self.valid, self.test), 1)


def _names(parts, *fields):
    """The set of names in the ``fields`` columns of the triple lists ``parts``."""
    return set().union(*([t[i] for t in part] for part in parts for i in fields))


@dataclass
class SplitStats:
    n_relations: int
    n_seen: int
    n_unseen: int
    min_neighbors: int
    max_neighbors: int
    avg_neighbors: float


def corpus_file(directory, stem):
    for ext in (".tsv", ".txt"):
        path = os.path.join(directory, stem + ext)
        if os.path.exists(path):
            return path
    raise FileNotFoundError(f"no {stem}.tsv or {stem}.txt in {directory}")


def load_corpus(directory):
    paths = {stem: corpus_file(directory, stem) for stem in ("train", "valid", "test")}
    parts = {stem: parse_triplet_file(p) for stem, p in paths.items()}
    for stem in ("train", "test"):
        if not parts[stem]:
            raise SplitError(f"corpus {stem} file is empty: {paths[stem]}")
    checksums = {f"corpus_sha256.{stem}": sha256_file(p) for stem, p in paths.items()}
    return Corpus(parts["train"], parts["valid"], parts["test"], checksums)


def _name_codes(*columns):
    """Names in first-seen order, and one int64 code column per name column."""
    names = list(dict.fromkeys(chain.from_iterable(columns)))
    code = dict(zip(names, range(len(names))))
    return names, [np.fromiter(map(code.__getitem__, c), np.int64, len(c)) for c in columns]


def _pick(rows, mask):
    """The rows of ``rows`` where the boolean ``mask`` holds, same objects, same order."""
    return list(compress(rows, mask.tolist()))


def build_split(corpus, spec):
    """Carve an unseen-entity bundle out of ``corpus`` per ``spec`` (on code columns; see the module docstring)."""
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

    names, (s, o, ts, to, vs, vo) = _name_codes(
        *([t[i] for t in part] for part in (corpus.train, corpus.test, corpus.valid) for i in (0, 2))
    )
    side, other = (ts, to) if spec.strategy == "subject" else (to, ts)
    candidate = np.zeros(len(names), dtype=bool)
    candidate[side[chosen]] = True

    # a candidate stays only with a training neighbor outside the
    # candidates; a self-loop's neighbor is the candidate itself
    unseen = np.zeros(len(names), dtype=bool)
    unseen[s[candidate[s] & ~candidate[o]]] = True
    unseen[o[candidate[o] & ~candidate[s]]] = True
    if not unseen.any():
        raise SplitError("no unseen entities survive the neighbor filter; increase the rate or check the corpus")

    hit_s, hit_o = unseen[s], unseen[o]
    keep = ~(hit_s | hit_o)
    if not keep.any():
        raise SplitError("every training triplet touches an unseen entity")
    seen = np.zeros(len(names), dtype=bool)
    seen[s[keep]] = True
    seen[o[keep]] = True

    test = _pick(corpus.test, unseen[side] & seen[other])
    if not test:
        raise SplitError("no test triplets survive the split filters")

    return DatasetBundle(
        train=_pick(corpus.train, keep),
        aux=_pick(corpus.train, hit_s ^ hit_o),
        valid=_pick(corpus.valid, seen[vs] & seen[vo]),
        test=test,
        unseen=sorted(compress(names, unseen.tolist())),
        spec=spec,
        corpus_checksums=dict(corpus.checksums),
    )


def split_stats(bundle):
    """Summary counts: relations and entities in train, neighbor degrees of unseen."""
    relations = {r for _, r, _ in bundle.train}
    degree = {e: 0 for e in bundle.unseen}
    for s, _, o in bundle.aux:
        if s in degree:
            degree[s] += 1
        if o in degree:
            degree[o] += 1
    counts = sorted(degree.values())
    return SplitStats(
        n_relations=len(relations),
        n_seen=len(bundle.seen_entities()),
        n_unseen=len(bundle.unseen),
        min_neighbors=counts[0] if counts else 0,
        max_neighbors=counts[-1] if counts else 0,
        avg_neighbors=float(sum(counts)) / len(counts) if counts else 0.0,
    )


def write_bundle(bundle, out_dir):
    """Write the five bundle files plus a checksummed manifest."""
    os.makedirs(out_dir, exist_ok=True)
    for stem in ("train", "aux", "valid", "test"):
        write_triplet_file(os.path.join(out_dir, f"{stem}.tsv"), getattr(bundle, stem))
    with open(os.path.join(out_dir, "unseen.txt"), "w", encoding="utf-8") as fh:
        for name in bundle.unseen:
            fh.write(name + "\n")
    manifest = {
        "artifact_version": ARTIFACT_VERSION,
        "strategy": bundle.spec.strategy,
        "sample_rate": repr(bundle.spec.sample_rate),
        "seed": str(bundle.spec.seed),
        "count.train": str(len(bundle.train)),
        "count.aux": str(len(bundle.aux)),
        "count.valid": str(len(bundle.valid)),
        "count.test": str(len(bundle.test)),
        "count.unseen": str(len(bundle.unseen)),
    }
    manifest.update(bundle.corpus_checksums)
    for name in BUNDLE_FILES:
        manifest[f"sha256.{name}"] = sha256_file(os.path.join(out_dir, name))
    write_kv(os.path.join(out_dir, "manifest"), manifest)


def read_bundle(bundle_dir):
    """Load a bundle directory; each file must match its ``sha256.<file>`` line, and no split setting may be missing."""
    manifest_path = os.path.join(bundle_dir, "manifest")
    if not os.path.exists(manifest_path):
        raise SplitError(f"no manifest in bundle directory {bundle_dir}")
    manifest = read_kv(manifest_path)
    try:
        for name in BUNDLE_FILES:
            checked_file(bundle_dir, manifest, name)
    except (FileNotFoundError, ValueError) as exc:
        raise SplitError(str(exc)) from None
    try:
        spec = SplitSpec(
            strategy=manifest["strategy"],
            sample_rate=float(manifest["sample_rate"]),
            seed=int(manifest["seed"]),
        )
    except KeyError as exc:
        raise SplitError(f"{manifest_path} has no {exc.args[0]} line") from None
    except ValueError as exc:
        raise SplitError(f"bad manifest values in {manifest_path}: {exc}") from None

    def read_part(name):
        try:
            return parse_triplet_file(os.path.join(bundle_dir, name))
        except ParseError as exc:
            raise SplitError(str(exc)) from None

    with open(os.path.join(bundle_dir, "unseen.txt"), "r", encoding="utf-8") as fh:
        unseen = [line.rstrip("\n") for line in fh if line.strip()]
    checksums = {k: v for k, v in manifest.items() if k.startswith("corpus_sha256.")}
    return DatasetBundle(
        train=read_part("train.tsv"),
        aux=read_part("aux.tsv"),
        valid=read_part("valid.tsv"),
        test=read_part("test.tsv"),
        unseen=unseen,
        spec=spec,
        corpus_checksums=checksums,
    )
