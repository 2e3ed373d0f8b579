"""Reverse-mode automatic differentiation over dense float64 arrays.

The engine records every operation on an append-only tape.  Because
operands must exist before the operation that consumes them, the tape
order is already topological, and the backward pass simply walks it in
reverse.  Values are scalars (shape ``()``), vectors ``(n,)`` or
matrices ``(n, m)``; there is no broadcasting and no higher-rank
support, every primitive checks its operand shapes explicitly.

Gradients live next to the data on each :class:`Value`.  They are left
unallocated (``None``) until a backward pass touches them, so pure
forward evaluation never pays for gradient buffers.  The first touch
takes a private copy of the incoming delta, and later touches add into
that copy in place.  The copy matters: an op may hand one upstream
buffer to several parents (``add`` gives the same ``g`` to both), so a
gradient must never alias it.  A backward pass first clears all
gradients on the tape, which makes repeated backward calls over the
same tape bit-identical.

The per-row ops, :func:`softmax_masked` and :func:`weighted_block_sum`,
take a batch as CSR slots: (S,) values plus ``offsets``, row ``b``
owning the slots ``offsets[b]:offsets[b + 1]``.  Each row's sums add its
slots in slot order, so its values and gradients have the same bytes
whichever rows share the batch.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

__all__ = [
    "Tape",
    "Value",
    "add",
    "sub",
    "mul",
    "scale",
    "col_scale",
    "row_dot",
    "matvec",
    "matmul",
    "transpose",
    "concat",
    "narrow",
    "reshape",
    "take_rows",
    "repeat_rows",
    "tanh",
    "sigmoid",
    "relu",
    "softmax_masked",
    "weighted_block_sum",
    "l1_norm",
    "l2_norm_sq",
    "sum_all",
    "mean_all",
    "finite_difference_check",
]


class Value:
    """One node on the tape: a float64 array plus a gradient slot."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, parents=(), backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        if self.data.ndim > 2:
            raise ValueError(f"values are at most rank 2, got shape {self.data.shape}")
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = parents
        self._backward = backward

    @property
    def shape(self):
        return self.data.shape

    def item(self):
        if self.data.shape != ():
            raise ValueError(f"item() needs a scalar, got shape {self.data.shape}")
        return float(self.data)

    def accumulate(self, delta):
        """Add ``delta`` into this node's gradient; the first touch stores a copy of it."""
        if self.grad is None:
            self.grad = np.array(delta, dtype=np.float64)
        else:
            self.grad += delta

    def __repr__(self):
        return f"Value(shape={self.data.shape}, grad={'set' if self.grad is not None else 'none'})"


class Tape:
    """Append-only record of operations; replayed in reverse for gradients."""

    def __init__(self):
        self.nodes = []

    def leaf(self, data, requires_grad=False):
        v = Value(data, requires_grad=requires_grad)
        self.nodes.append(v)
        return v

    def constant(self, data):
        return self.leaf(data, requires_grad=False)

    def _register(self, out):
        self.nodes.append(out)
        return out

    def backward(self, loss):
        """Populate gradients of every tape node w.r.t. a scalar ``loss``.

        Gradients are zeroed first, so calling this twice on the same
        tape gives identical results.  Nodes whose gradient was never
        touched (they do not influence the loss) are skipped entirely;
        their ``grad`` stays ``None`` and reads as zero.
        """
        if loss.data.shape != ():
            raise ValueError(f"loss must be scalar, got shape {loss.data.shape}")
        if not any(node is loss for node in self.nodes):
            raise ValueError("loss is not a node on this tape")
        for node in self.nodes:
            node.grad = None
        loss.grad = np.ones((), dtype=np.float64)
        for node in reversed(self.nodes):
            if node.grad is None or node._backward is None:
                continue
            if not node.requires_grad:
                continue
            node._backward(node.grad)


def _make(tape, data, parents, backward):
    needs = any([p.requires_grad for p in parents])
    out = Value(data, requires_grad=needs, parents=parents, backward=backward if needs else None)
    return tape._register(out)


def _same_shape(a, b, op):
    if a.data.shape != b.data.shape:
        raise ValueError(f"{op}: shape mismatch {a.data.shape} vs {b.data.shape}")


def add(tape, a, b):
    _same_shape(a, b, "add")

    def backward(g):
        if a.requires_grad:
            a.accumulate(g)
        if b.requires_grad:
            b.accumulate(g)

    return _make(tape, a.data + b.data, (a, b), backward)


def sub(tape, a, b):
    _same_shape(a, b, "sub")

    def backward(g):
        if a.requires_grad:
            a.accumulate(g)
        if b.requires_grad:
            b.accumulate(-g)

    return _make(tape, a.data - b.data, (a, b), backward)


def mul(tape, a, b):
    """Elementwise product of same-shape operands."""
    _same_shape(a, b, "mul")

    def backward(g):
        if a.requires_grad:
            a.accumulate(g * b.data)
        if b.requires_grad:
            b.accumulate(g * a.data)

    return _make(tape, a.data * b.data, (a, b), backward)


def scale(tape, a, c):
    """Multiply by a plain python float (not differentiated through)."""
    c = float(c)

    def backward(g):
        if a.requires_grad:
            a.accumulate(g * c)

    return _make(tape, a.data * c, (a,), backward)


def col_scale(tape, x, v):
    """Scale row ``i`` of a matrix by ``v[i]``."""
    if x.data.ndim != 2 or v.data.ndim != 1 or x.data.shape[0] != v.data.shape[0]:
        raise ValueError(f"col_scale: incompatible shapes {x.data.shape}, {v.data.shape}")

    def backward(g):
        if x.requires_grad:
            x.accumulate(g * v.data[:, None])
        if v.requires_grad:
            v.accumulate(np.sum(g * x.data, axis=1))

    return _make(tape, x.data * v.data[:, None], (x, v), backward)


def row_dot(tape, a, b):
    """Row-wise dot product of two equal-shape matrices, giving a vector."""
    if a.data.ndim != 2 or a.data.shape != b.data.shape:
        raise ValueError(f"row_dot: incompatible shapes {a.data.shape}, {b.data.shape}")

    def backward(g):
        if a.requires_grad:
            a.accumulate(g[:, None] * b.data)
        if b.requires_grad:
            b.accumulate(g[:, None] * a.data)

    return _make(tape, np.sum(a.data * b.data, axis=1), (a, b), backward)


def matvec(tape, m, v):
    if m.data.ndim != 2 or v.data.ndim != 1 or m.data.shape[1] != v.data.shape[0]:
        raise ValueError(f"matvec: incompatible shapes {m.data.shape}, {v.data.shape}")

    def backward(g):
        if m.requires_grad:
            m.accumulate(np.outer(g, v.data))
        if v.requires_grad:
            v.accumulate(m.data.T @ g)

    return _make(tape, m.data @ v.data, (m, v), backward)


def matmul(tape, a, b):
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ValueError(f"matmul: incompatible shapes {a.data.shape}, {b.data.shape}")

    def backward(g):
        if a.requires_grad:
            a.accumulate(g @ b.data.T)
        if b.requires_grad:
            b.accumulate(a.data.T @ g)

    return _make(tape, a.data @ b.data, (a, b), backward)


def transpose(tape, a):
    if a.data.ndim != 2:
        raise ValueError(f"transpose: matrix expected, got shape {a.data.shape}")

    def backward(g):
        if a.requires_grad:
            a.accumulate(g.T)

    return _make(tape, a.data.T, (a,), backward)


def concat(tape, a, b):
    """Join two matrices of the same row count column-wise."""
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[0] != b.data.shape[0]:
        raise ValueError(f"concat: incompatible shapes {a.data.shape}, {b.data.shape}")
    data = np.concatenate([a.data, b.data], axis=1)
    split = a.data.shape[1]

    def backward(g):
        if a.requires_grad:
            a.accumulate(g[:, :split])
        if b.requires_grad:
            b.accumulate(g[:, split:])

    return _make(tape, data, (a, b), backward)


def narrow(tape, a, lo, hi):
    """Slice elements ``lo:hi`` of a vector, or columns ``lo:hi`` of a matrix."""
    if a.data.ndim == 1:
        if not (0 <= lo <= hi <= a.data.shape[0]):
            raise ValueError(f"narrow: bad range [{lo}, {hi}) for shape {a.data.shape}")
        data = a.data[lo:hi].copy()

        def backward(g):
            if a.requires_grad:
                full = np.zeros_like(a.data)
                full[lo:hi] = g
                a.accumulate(full)

    elif a.data.ndim == 2:
        if not (0 <= lo <= hi <= a.data.shape[1]):
            raise ValueError(f"narrow: bad range [{lo}, {hi}) for shape {a.data.shape}")
        data = a.data[:, lo:hi].copy()

        def backward(g):
            if a.requires_grad:
                full = np.zeros_like(a.data)
                full[:, lo:hi] = g
                a.accumulate(full)

    else:
        raise ValueError("narrow: scalar input")
    return _make(tape, data, (a,), backward)


def reshape(tape, a, shape):
    data = a.data.reshape(shape)
    if data.ndim > 2:
        raise ValueError(f"reshape: target rank too high {shape}")

    def backward(g):
        if a.requires_grad:
            a.accumulate(g.reshape(a.data.shape))

    return _make(tape, data.copy(), (a,), backward)


def take_rows(tape, m, idx):
    """Gather rows ``m[idx]``; the backward pass scatter-adds into ``m``.

    The scatter is one sparse product: a selection matrix with a single
    1 in column ``j`` at row ``idx[j]`` times the upstream gradient, so
    repeated indices sum.
    """
    idx = np.asarray(idx, dtype=np.int64)
    if m.data.ndim != 2 or idx.ndim != 1:
        raise ValueError(f"take_rows: need matrix and index vector, got {m.data.shape}, {idx.shape}")
    if idx.size and idx.view(np.uint64).max() >= m.data.shape[0]:  # a negative id reads as huge
        raise ValueError("take_rows: index out of range")

    def backward(g):
        if m.requires_grad:
            n = m.data.shape[0]
            # int32 indices, as scipy stores them anyway; int64 costs a checked downcast per call
            itype = np.int32 if max(n, idx.size) < 2**31 else np.int64
            select = sp.csc_matrix(
                (np.ones(idx.size), idx.astype(itype), np.arange(idx.size + 1, dtype=itype)), shape=(n, idx.size)
            )
            summed = np.asarray(select @ g)
            if m.grad is None:
                m.grad = summed  # a fresh array, so this node owns it
            else:
                m.grad += summed

    return _make(tape, m.data[idx], (m,), backward)  # fancy indexing already copies


def repeat_rows(tape, a, k):
    """Repeat each row k times: ``(B, d) -> (B*k, d)``, blockwise."""
    if a.data.ndim != 2:
        raise ValueError(f"repeat_rows: matrix expected, got shape {a.data.shape}")
    n, d = a.data.shape

    def backward(g):
        if a.requires_grad:
            a.accumulate(g.reshape(n, k, d).sum(axis=1))

    return _make(tape, np.repeat(a.data, k, axis=0), (a,), backward)


def tanh(tape, a):
    data = np.tanh(a.data)

    def backward(g):
        if a.requires_grad:
            a.accumulate(g * (1.0 - data * data))

    return _make(tape, data, (a,), backward)


def sigmoid(tape, a):
    data = 1.0 / (1.0 + np.exp(-a.data))

    def backward(g):
        if a.requires_grad:
            a.accumulate(g * data * (1.0 - data))

    return _make(tape, data, (a,), backward)


def relu(tape, a):
    """max(0, x); the subgradient at exactly zero is taken as zero."""
    keep = a.data > 0.0

    def backward(g):
        if a.requires_grad:
            a.accumulate(g * keep)

    return _make(tape, np.where(keep, a.data, 0.0), (a,), backward)


def _slot_rows(offsets, slots, op):
    """The row of each of ``slots`` real slots laid out by CSR ``offsets``, and the row sizes.

    Row ``b`` owns the slots ``offsets[b]:offsets[b + 1]``; ``offsets``
    must run, never decreasing, from 0 to ``slots``.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    if (offsets.ndim != 1 or offsets.size == 0 or offsets[0] != 0 or offsets[-1] != slots
            or (np.diff(offsets) < 0).any()):
        raise ValueError(f"{op}: offsets must rise from 0 to the {slots} real slots")
    counts = np.diff(offsets)
    return np.repeat(np.arange(counts.size), counts), counts


def softmax_masked(tape, scores, offsets):
    """Softmax over each row's slots of the (S,) ``scores``: a segment softmax.

    Row ``b`` owns the slots ``offsets[b]:offsets[b + 1]``; a row
    without slots has nothing to normalize.  The row max is exact, and
    each row's sum, like the backward's inner product, adds the row's
    slots in slot order (:func:`numpy.bincount` is a running sum), so a
    row's weights have the same bytes whichever rows share the batch.
    """
    if scores.data.ndim != 1:
        raise ValueError(f"softmax_masked: need (S,) scores, got shape {scores.data.shape}")
    row, counts = _slot_rows(offsets, scores.data.shape[0], "softmax_masked")
    filled = counts > 0
    top = np.maximum.reduceat(scores.data, np.asarray(offsets)[:-1][filled])  # only rows with slots
    e = np.exp(scores.data - np.repeat(top, counts[filled]))
    data = e / np.bincount(row, weights=e, minlength=counts.size)[row]

    def backward(g):
        if scores.requires_grad:
            inner = np.bincount(row, weights=g * data, minlength=counts.size)
            scores.accumulate(data * (g - inner[row]))

    return _make(tape, data, (scores,), backward)


def weighted_block_sum(tape, entries, weights, offsets):
    """Per-row weighted sum of the (S, d) ``entries`` by the (S,) ``weights`` -> ``(B, d)``.

    Row ``b`` of the output is the weighted sum of the slots
    ``offsets[b]:offsets[b + 1]``; a row without slots sums to zero.
    The forward pass is one sparse product, the mirror of the
    :func:`take_rows` backward: a (B, S) CSR matrix with ``offsets`` as
    its row pointer, holding each slot's weight, times ``entries``.  It
    adds each row's slots in slot order.
    """
    if entries.data.ndim != 2 or weights.data.ndim != 1:
        raise ValueError("weighted_block_sum: need (S, d) entries and (S,) weights")
    slots = weights.data.shape[0]
    row, counts = _slot_rows(offsets, slots, "weighted_block_sum")
    if entries.data.shape[0] != slots:
        raise ValueError(f"weighted_block_sum: {entries.data.shape[0]} rows for {slots} real slots")
    w = weights.data
    itype = np.int32 if slots < 2**31 else np.int64
    select = sp.csr_matrix((w, np.arange(slots, dtype=itype), np.asarray(offsets, dtype=itype)),
                           shape=(counts.size, slots))
    data = np.asarray(select @ entries.data)

    def backward(g):
        g_slots = g[row]
        if entries.requires_grad:
            entries.accumulate(g_slots * w[:, None])
        if weights.requires_grad:
            weights.accumulate(np.sum(entries.data * g_slots, axis=1))

    return _make(tape, data, (entries, weights), backward)


def l1_norm(tape, a):
    """Sum of absolute values of each row of a matrix -> (B,) vector.

    The subgradient of ``|x|`` at zero is taken as zero.
    """
    if a.data.ndim != 2:
        raise ValueError(f"l1_norm: expects a matrix, got shape {a.data.shape}")
    data = np.sum(np.abs(a.data), axis=1)

    def backward(g):
        if a.requires_grad:
            a.accumulate(g[:, None] * np.sign(a.data))

    return _make(tape, data, (a,), backward)


def l2_norm_sq(tape, a):
    """Sum of squares of all entries, as a scalar."""

    def backward(g):
        if a.requires_grad:
            a.accumulate(g * 2.0 * a.data)

    return _make(tape, np.asarray(np.sum(a.data * a.data)), (a,), backward)


def sum_all(tape, a):
    def backward(g):
        if a.requires_grad:
            a.accumulate(np.full_like(a.data, float(g)))

    return _make(tape, np.asarray(np.sum(a.data)), (a,), backward)


def mean_all(tape, a):
    return scale(tape, sum_all(tape, a), 1.0 / max(a.data.size, 1))


def finite_difference_check(fn, arrays, h=1e-6, tol=1e-4):
    """Compare analytic gradients with central finite differences.

    ``fn(arrays) -> (loss_value, grads_dict)`` must rebuild its tape on
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
