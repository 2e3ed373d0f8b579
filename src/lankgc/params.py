"""Model parameters: allocation, autodiff leaves, checkpoint files.

All trainable state is a flat dict of named float64 arrays:

    entity_emb      (n, d)    input embeddings, one row per entity
    relation_emb    (R, d)    relation embeddings (R = 2m with inverses)
    transform_vec   (R, d)    unit projection vector per relation
    query_vec       (R, d)    query context rows for the neural attention
    attn_proj       (d, 2d)   attention projection matrix
    attn_score_vec  (d,)      attention scoring vector
    lstm_w_{f,i,c,o} (d, 2d)  gate weights (only with the lstm aggregator)
    lstm_b_{f,i,c,o} (d,)     gate biases

A checkpoint is a directory of one raw little-endian float64 file per
parameter, ``rules.tsv`` for a logic aggregator, and a ``manifest`` of
``key = value`` lines.  Only this module knows the format: one writer
writes every line, and one reader checks every line, defaulting none.
"""

from __future__ import annotations

import os

import numpy as np

from . import autodiff as ad
from .decoder import check_scorer
from .encoder import AggregatorConfig
from .rules import export_table, import_table
from .util import ARTIFACT_VERSION, checked_file, read_kv, sha256_file, write_kv

LSTM_GATES = ("f", "i", "c", "o")


class ParamStore:
    """Named float64 arrays plus helpers to expose them as autodiff leaves."""

    def __init__(self, arrays):
        self.arrays = dict(arrays)

    def __getitem__(self, name):
        return self.arrays[name]

    def names(self):
        return sorted(self.arrays)

    def leaves(self, requires_grad):
        """Wrap every array as an autodiff leaf: a gradient leaf for training, else a constant."""
        return {name: ad.Value(self.arrays[name], requires_grad) for name in self.names()}

    def copy(self):
        return ParamStore({k: v.copy() for k, v in self.arrays.items()})

    def renormalize_transforms(self):
        """Rescale every transform row back to unit L2 norm, in place."""
        w = self.arrays["transform_vec"]
        norms = np.linalg.norm(w, axis=1, keepdims=True)
        np.divide(w, norms, out=w, where=norms > 0.0)


def collect_gradients(leaves):
    """Gradients keyed like the store; untouched parameters read as zero."""
    out = {}
    for name, leaf in leaves.items():
        out[name] = leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data)
    return out


def param_shapes(n_entities, n_relations, dim, with_lstm):
    """Every parameter's shape by name, in the order :func:`init_params` draws them (see the module docstring)."""
    shapes = {"entity_emb": (n_entities, dim), "relation_emb": (n_relations, dim), "transform_vec": (n_relations, dim),
              "query_vec": (n_relations, dim), "attn_proj": (dim, 2 * dim), "attn_score_vec": (dim,)}
    for g in LSTM_GATES if with_lstm else ():
        shapes[f"lstm_w_{g}"], shapes[f"lstm_b_{g}"] = (dim, 2 * dim), (dim,)
    return shapes


def init_params(n_entities, n_relations, dim, seed, with_lstm=False):
    """Allocate and initialize all parameters.

    Entries are uniform on ``[-1/sqrt(d), 1/sqrt(d)]``, except the lstm
    biases, which start at zero; transform rows are then renormalized to
    unit length.  ``n_relations`` is the full (augmented) relation count.
    """
    if dim < 1:
        raise ValueError(f"embedding dimension must be >= 1, got {dim}")
    rng = np.random.default_rng(seed)
    s = 1.0 / np.sqrt(dim)
    store = ParamStore({
        name: np.zeros(shape) if name.startswith("lstm_b_") else rng.uniform(-s, s, size=shape)
        for name, shape in param_shapes(n_entities, n_relations, dim, with_lstm).items()
    })
    store.renormalize_transforms()
    return store


def check_shapes(shapes, want, kind, verb="declares", extra_ok=False):
    """Refuse ``shapes`` (name -> ``AxB`` text) unless it has every parameter of :func:`param_shapes`'s
    ``want`` at its shape, and no other unless ``extra_ok``: one ValueError names the first in sorted order.
    """
    want = {name: "x".join(map(str, shape)) for name, shape in want.items()}
    for name in sorted(want if extra_ok else set(want) | set(shapes)):
        if name not in shapes:
            raise ValueError(f"{verb} no parameter {name}, which the {kind} aggregator needs")
        if name not in want:
            raise ValueError(f"{verb} parameter {name}, which the {kind} aggregator does not use")
        if shapes[name] != want[name]:
            raise ValueError(f"{verb} parameter {name} of shape {shapes[name]}, where the {kind} aggregator "
                             f"needs {want[name]}")


def write_checkpoint(out_dir, store, vocab, acfg, scorer, dense, extras):
    """Write a model as a checkpoint directory: its parameter files, ``dense`` as ``rules.tsv`` when the
    aggregator reads a rule table, and a manifest of the vocabulary's sha256 and sizes, the settings, the
    scorer, each file's sha256, each parameter's shape, and ``extras`` (training's epoch, margin and seed).
    """
    os.makedirs(out_dir, exist_ok=True)
    lines = {
        "artifact_version": ARTIFACT_VERSION, "aggregator": acfg.kind, "scorer": scorer,
        "neighbor_budget": str(acfg.neighbor_budget), "logic_mode": acfg.logic_mode, "epsilon": repr(acfg.epsilon),
        "dim": str(store["entity_emb"].shape[1]), "vocab_sha256": vocab.sha256(),
        "n_entities": str(vocab.n_entities), "n_relations": str(vocab.n_relations), **extras,
    }
    if acfg.needs_rules:
        path = os.path.join(out_dir, "rules.tsv")
        export_table(dense, path, vocab)
        lines["sha256.rules.tsv"] = sha256_file(path)
    for name in store.names():
        arr = store.arrays[name]
        path = os.path.join(out_dir, f"{name}.f64")
        arr.astype("<f8").tofile(path)
        lines[f"shape.{name}"] = "x".join(str(d) for d in arr.shape)
        lines[f"sha256.{name}.f64"] = sha256_file(path)
    write_kv(os.path.join(out_dir, "manifest"), lines)


def read_checkpoint(ckpt_dir, vocab):
    """Read a checkpoint directory back as ``(store, acfg, scorer, dense)`` for a bundle's vocabulary.

    ``dense`` is the (R, R) rule matrix of a logic aggregator, else None.
    Every line read is checked: the settings, the ``shape.`` lines against
    :func:`param_shapes` at the manifest's own sizes, the vocabulary, and
    each file's sha256.  A missing or bad line is one ValueError naming
    the manifest and the key.
    """
    manifest = os.path.join(ckpt_dir, "manifest")
    meta = read_kv(manifest)

    def line(key, parse=str):
        if key not in meta:
            raise ValueError(f"no {key} line")
        try:
            return parse(meta[key])
        except ValueError:
            raise ValueError(f"bad {key} line: {meta[key]!r}") from None

    try:
        acfg = AggregatorConfig(kind=line("aggregator"), neighbor_budget=line("neighbor_budget", int),
                                logic_mode=line("logic_mode"), epsilon=line("epsilon", float))
        scorer, dim, n, m = line("scorer"), line("dim", int), line("n_entities", int), line("n_relations", int)
        check_scorer(scorer, dim)
        want = param_shapes(n, 2 * m, dim, acfg.uses_lstm)
        check_shapes({key[len("shape."):]: value for key, value in meta.items() if key.startswith("shape.")},
                     want, acfg.kind)
        if (line("vocab_sha256"), n, m) != (vocab.sha256(), vocab.n_entities, vocab.n_relations):
            raise ValueError("checkpoint was trained on a different vocabulary than this bundle")
    except ValueError as exc:
        raise ValueError(f"{manifest}: {exc}") from None
    arrays = {}
    for name, shape in want.items():
        path = checked_file(ckpt_dir, meta, f"{name}.f64")
        flat = np.fromfile(path, dtype="<f8")
        if flat.size != int(np.prod(shape)):
            raise ValueError(f"{path}: expected {int(np.prod(shape))} values, found {flat.size}")
        arrays[name] = flat.astype(np.float64).reshape(shape)
    dense = import_table(checked_file(ckpt_dir, meta, "rules.tsv"), vocab).dense() if acfg.needs_rules else None
    return ParamStore(arrays), acfg, scorer, dense
