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

Checkpoints are a directory holding one raw little-endian float64 file
per parameter plus a ``manifest`` of ``key = value`` lines recording
shapes, the sha256 of every file (``rules.tsv`` included), the run
configuration, and vocabulary checksums.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np

from . import autodiff as ad
from .util import checked_file, read_kv, sha256_file, write_kv

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


def vocab_checksums(vocab):
    digest = hashlib.sha256(vocab.checksum_material()).hexdigest()
    return {"vocab_sha256": digest, "n_entities": str(vocab.n_entities), "n_relations": str(vocab.n_relations)}


def save_checkpoint(out_dir, store, meta):
    """Write one ``<name>.f64`` file per parameter plus a manifest."""
    os.makedirs(out_dir, exist_ok=True)
    lines = dict(meta)
    for name in store.names():
        arr = store.arrays[name]
        path = os.path.join(out_dir, f"{name}.f64")
        arr.astype("<f8").tofile(path)
        lines[f"shape.{name}"] = "x".join(str(d) for d in arr.shape)
        lines[f"sha256.{name}.f64"] = sha256_file(path)
    write_kv(os.path.join(out_dir, "manifest"), lines)


def load_checkpoint(ckpt_dir):
    """Read a checkpoint directory back into (store, meta); each file must match its sha256 line.

    The ``shape.`` lines must be those of :func:`param_shapes` for the
    manifest's own sizes (``n_relations`` counts base relations) and
    aggregator, or one :class:`ValueError` names the first that is not.
    """
    manifest = os.path.join(ckpt_dir, "manifest")
    if not os.path.exists(manifest):
        raise FileNotFoundError(f"no manifest in checkpoint directory {ckpt_dir}")
    meta = read_kv(manifest)
    try:
        n, m, dim, kind = int(meta["n_entities"]), int(meta["n_relations"]), int(meta["dim"]), meta["aggregator"]
    except (KeyError, ValueError) as exc:
        raise ValueError(f"{manifest}: needs n_entities, n_relations and dim counts and an aggregator: {exc}") from None
    want = param_shapes(n, 2 * m, dim, kind == "lstm")
    declared = {key[len("shape."):]: value for key, value in meta.items() if key.startswith("shape.")}
    for name in sorted(set(want) | set(declared)):
        if name not in declared or name not in want:
            need = name in want
            raise ValueError(f"{manifest}: declares {'no ' if need else ''}parameter {name}, which the {kind} "
                             f"aggregator {'needs' if need else 'does not use'}")
        if declared[name] != "x".join(map(str, want[name])):
            raise ValueError(f"{manifest}: declares parameter {name} of shape {declared[name]}, where the {kind} "
                             f"aggregator needs {'x'.join(map(str, want[name]))}")
    arrays = {}
    for name, shape in want.items():
        path = checked_file(ckpt_dir, meta, f"{name}.f64")
        flat = np.fromfile(path, dtype="<f8")
        if flat.size != int(np.prod(shape)):
            raise ValueError(f"{path}: expected {int(np.prod(shape))} values, found {flat.size}")
        arrays[name] = flat.astype(np.float64).reshape(shape)
    return ParamStore(arrays), meta
