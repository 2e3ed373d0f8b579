"""Reverse-mode automatic differentiation over dense float64 arrays.

The graph is the record, and it holds gradients, not values: a value
that requires a gradient, a leaf or an op output computed from one, owns
a :class:`Node` with its gradient, its parents' nodes, a vector-Jacobian
product per parent that requires a gradient, and a creation number.  A
node never references a :class:`Value` or its data: each product closes
over the arrays it reads, or only a shape, so an op output that no
product reads is freed as soon as the caller drops it.  :func:`backward`
walks the nodes from the loss and runs the nodes it reaches in reverse
creation order; an operand exists before the op that consumes it, so
that order is topological, and gradients that meet at a node are added
in the same sequence whatever the graph's shape.  A constant, and an op
output whose operands all lack a gradient, is a plain ``Value(data)``
with no node, so a forward pass over constant weights builds no graph.
Values are scalars (shape ``()``), vectors ``(n,)`` or matrices
``(n, m)``; there is no broadcasting and no higher-rank support, every
primitive checks its operand shapes.

A backward pass consumes the graph: after a node's vector-Jacobian
products have run, it drops its gradient, its parents and its products,
so every array a product kept is freed as the pass goes by, not when
the loss dies, and a backward pass holds the gradients still to be
passed on, not one per node.  Only leaves keep their gradients, read as
:attr:`Value.grad`; a second backward pass over a consumed graph
raises.  A gradient is left unallocated (``None``) until a backward
pass touches it, so pure forward evaluation never pays for gradient
buffers.  Ops are pure: ``vjps[i](g)`` returns parent ``i``'s delta for
the upstream gradient ``g``.  A delta is ``g``, a view of ``g`` or a
fresh array, never an array held anywhere else.  :func:`backward` alone
decides what to do with it, for each parent that requires a gradient:
add it in place into a gradient the parent already has; otherwise store
a private copy if it shares memory with ``g`` (``add``, ``sub``'s left
side and ``transpose`` pass ``g`` on), and store it as it is if it is
fresh.  So no gradient aliases another gradient or an array a leaf or a
product holds.

The per-row ops, :func:`softmax_masked` and :func:`weighted_block_sum`,
take a batch as CSR slots: (S,) values plus ``offsets``, row ``b``
owning the slots ``offsets[b]:offsets[b + 1]``.  Each row's sums add its
slots in slot order, so its values and gradients have the same bytes
whichever rows share the batch.  :func:`lstm_rows` takes its (S, d)
inputs so too, but its gate products run over the rows live at a step.
"""

from __future__ import annotations

import itertools

import numpy as np
import scipy.sparse as sp

__all__ = [
    "Value",
    "backward",
    "add",
    "sub",
    "mul",
    "scale",
    "matvec",
    "matmul",
    "transpose",
    "narrow",
    "take_rows",
    "transform_rows",
    "tanh",
    "relu",
    "softmax_masked",
    "weighted_block_sum",
    "lstm_rows",
    "row_sum",
    "l1_norm",
    "l2_norm_sq",
    "sum_all",
    "mean_all",
]

_created = itertools.count()  # creation numbers of the graph nodes; only their order matters


class Node:
    """The gradient side of a value: its gradient, its parents' nodes and their VJPs (none for a leaf), and a number."""

    __slots__ = ("grad", "parents", "vjps", "order")

    def __init__(self, parents=(), vjps=()):
        self.grad = None
        self.parents = parents
        self.vjps = vjps
        self.order = next(_created)


class Value:
    """A float64 array, plus a graph :class:`Node` if it requires a gradient."""

    __slots__ = ("data", "node")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        if self.data.ndim > 2:
            raise ValueError(f"values are at most rank 2, got shape {self.data.shape}")
        self.node = Node() if requires_grad else None

    @property
    def requires_grad(self):
        return self.node is not None

    @property
    def grad(self):
        return None if self.node is None else self.node.grad

    @property
    def shape(self):
        return self.data.shape

    def item(self):
        if self.data.shape != ():
            raise ValueError(f"item() needs a scalar, got shape {self.data.shape}")
        return float(self.data)

    def __repr__(self):
        return f"Value(shape={self.data.shape}, grad={'set' if self.grad is not None else 'none'})"


def backward(loss):
    """Set the gradient of every leaf that a scalar ``loss`` reaches, consuming the loss's graph.

    Walks the nodes from ``loss``'s node through their parents, then
    runs the vector-Jacobian products of the nodes it reached in reverse
    creation order.  The leaves' gradients are cleared first.  Each op
    node drops its gradient, parents and products once its products have
    run, so afterwards only the leaves hold anything, and a graph that
    meets a node an earlier call consumed raises :class:`ValueError`.
    A leaf the loss does not reach keeps whatever ``grad`` it had.  A
    loss that requires no gradient depends on no leaf, and sets nothing.
    """
    if loss.data.shape != ():
        raise ValueError(f"loss must be scalar, got shape {loss.data.shape}")
    if loss.node is None:
        return
    reached, todo = {loss.node.order: loss.node}, [loss.node]
    while todo:
        for parent in todo.pop().parents:
            if parent.order not in reached:
                reached[parent.order] = parent
                todo.append(parent)
    nodes = [reached[key] for key in sorted(reached, reverse=True)]
    if any(node.vjps is None for node in nodes):
        raise ValueError("backward: the graph was consumed by an earlier backward pass")
    for node in nodes:
        node.grad = None
    loss.node.grad = np.ones((), dtype=np.float64)
    for node in nodes:
        if not node.parents:  # a leaf keeps its gradient
            continue
        g, last = node.grad, len(node.parents) - 1
        for i, (parent, vjp) in enumerate(zip(node.parents, node.vjps)):
            delta = np.asarray(vjp(g))  # a 0-d product comes back as a numpy scalar
            if parent.grad is not None:
                parent.grad += delta
            elif np.may_share_memory(delta, g) and (i < last or not delta.flags.writeable):
                parent.grad = np.array(delta)  # a later product reads g, or delta is a read-only broadcast
            else:
                parent.grad = delta  # the last product may hand on g itself, as nothing reads it again
        node.grad = node.vjps = g = delta = vjp = None  # nothing reads these, or the arrays the products keep, again
        node.parents = ()


def _make(data, parents, vjps):
    """An op's output: a graph node over the ``parents`` that require a gradient, if any does, else a plain value.

    ``vjps[i](g)`` maps the upstream gradient to parent ``i``'s delta;
    only the products of parents that require a gradient are kept.
    """
    out = Value(data)
    kept = [(p.node, vjp) for p, vjp in zip(parents, vjps) if p.node is not None]
    if kept:
        out.node = Node(*zip(*kept))
    return out


def _same_shape(a, b, op):
    if a.data.shape != b.data.shape:
        raise ValueError(f"{op}: shape mismatch {a.data.shape} vs {b.data.shape}")


def add(a, b):
    _same_shape(a, b, "add")
    return _make(a.data + b.data, (a, b), (lambda g: g, lambda g: g))


def sub(a, b):
    _same_shape(a, b, "sub")
    return _make(a.data - b.data, (a, b), (lambda g: g, lambda g: -g))


def mul(a, b):
    """Elementwise product of same-shape operands."""
    _same_shape(a, b, "mul")
    x, y = a.data, b.data
    return _make(x * y, (a, b), (lambda g: g * y, lambda g: g * x))


def scale(a, c):
    """Multiply by a plain python float (not differentiated through)."""
    c = float(c)
    return _make(a.data * c, (a,), (lambda g: g * c,))


def matvec(m, v):
    if m.data.ndim != 2 or v.data.ndim != 1 or m.data.shape[1] != v.data.shape[0]:
        raise ValueError(f"matvec: incompatible shapes {m.data.shape}, {v.data.shape}")
    md, vd = m.data, v.data
    return _make(md @ vd, (m, v), (lambda g: np.outer(g, vd), lambda g: md.T @ g))


def matmul(a, b):
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ValueError(f"matmul: incompatible shapes {a.data.shape}, {b.data.shape}")
    x, y = a.data, b.data
    return _make(x @ y, (a, b), (lambda g: g @ y.T, lambda g: x.T @ g))


def transpose(a):
    if a.data.ndim != 2:
        raise ValueError(f"transpose: matrix expected, got shape {a.data.shape}")
    return _make(a.data.T, (a,), (lambda g: g.T,))


def narrow(a, lo, hi):
    """Slice elements ``lo:hi`` of a vector, or columns ``lo:hi`` of a matrix."""
    if a.data.ndim == 0:
        raise ValueError("narrow: scalar input")
    if not (0 <= lo <= hi <= a.data.shape[-1]):
        raise ValueError(f"narrow: bad range [{lo}, {hi}) for shape {a.data.shape}")
    shape = a.data.shape

    def vjp(g):
        full = np.zeros(shape)
        full[..., lo:hi] = g
        return full

    return _make(a.data[..., lo:hi].copy(), (a,), (vjp,))


def _row_ids(m, idx, op):
    """``idx`` as int64 ids of rows of the matrix ``m``; an id outside its rows raises."""
    idx = np.asarray(idx, dtype=np.int64)
    if m.data.ndim != 2 or idx.ndim != 1:
        raise ValueError(f"{op}: need matrix and index vector, got {m.data.shape}, {idx.shape}")
    if idx.size and idx.view(np.uint64).max() >= m.data.shape[0]:  # a negative id reads as huge
        raise ValueError(f"{op}: index out of range")
    return idx


def _scatter_rows(idx, n, g):
    """Row ``j`` of ``g`` added into row ``idx[j]`` of (n, d) zeros, as one sparse product: repeated ids sum."""
    itype = np.int32 if max(n, idx.size) < 2**31 else np.int64  # as scipy stores them; int64 costs a checked downcast
    select = sp.csc_matrix((np.ones(idx.size), idx.astype(itype), np.arange(idx.size + 1, dtype=itype)),
                           shape=(n, idx.size))
    return np.asarray(select @ g)


def take_rows(m, idx):
    """Gather rows ``m[idx]``; the backward pass scatter-adds into ``m``."""
    idx, n = _row_ids(m, idx, "take_rows"), m.data.shape[0]
    return _make(m.data.take(idx, axis=0), (m,), (lambda g: _scatter_rows(idx, n, g),))  # a copy, as m.data[idx]


def transform_rows(m, idx, w, rel):
    """Rows ``e = m[idx]`` less their component along ``v = w[rel]``: ``e - (v . e) v``, computed as written.

    Keeps the ids and the (S,) projections ``v . e``; the products gather
    rows again from ``m.data`` and ``w.data``, which must not change
    before the backward pass, and ``m``'s, which runs first, hands the
    projections' gradient ``sum(-g * v)`` on to ``w``'s.
    """
    idx, rel = _row_ids(m, idx, "transform_rows"), _row_ids(w, rel, "transform_rows")
    table, transforms = m.data, w.data
    if idx.size != rel.size or table.shape[1] != transforms.shape[1]:
        raise ValueError(f"transform_rows: {idx.size} ids for {rel.size} relations, or the widths differ")
    e, v = table.take(idx, axis=0), transforms.take(rel, axis=0)
    proj = np.sum(e * v, axis=1)
    v *= proj[:, None]
    handoff = []

    def proj_grad(g, v):  # closes over nothing: each product's arrays are its own closure cells
        dp = np.negative(g)
        dp *= v
        return dp.sum(axis=1)

    def d_table(g):
        v = transforms.take(rel, axis=0)
        dp = proj_grad(g, v)
        handoff.append(dp)  # for w's product, the next to run; the graph drops both products after it
        v *= dp[:, None]
        v += g
        return _scatter_rows(idx, table.shape[0], v)

    def d_transforms(g):
        dp = handoff.pop() if handoff else proj_grad(g, transforms.take(rel, axis=0))
        e, delta = table.take(idx, axis=0), g * -proj[:, None]  # the bytes of (-g) * proj
        e *= dp[:, None]
        delta += e
        return _scatter_rows(rel, transforms.shape[0], delta)

    return _make(np.subtract(e, v, out=e), (m, w), (d_table, d_transforms))


def _tanh_grad(g, t):
    """``g * (1 - t*t)`` for a tanh output ``t``, in one scratch array."""
    out = np.multiply(t, t, out=np.empty_like(t))
    return np.multiply(g, np.subtract(1.0, out, out=out), out=out)


def tanh(a):
    data = np.tanh(a.data)
    return _make(data, (a,), (lambda g: _tanh_grad(g, data),))


def relu(a):
    """max(0, x); the subgradient at exactly zero is taken as zero."""
    keep = a.data > 0.0
    return _make(np.where(keep, a.data, 0.0), (a,), (lambda g: g * keep,))


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


def softmax_masked(scores, offsets):
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

    def vjp(g):
        inner = np.bincount(row, weights=g * data, minlength=counts.size)
        return data * (g - inner[row])

    return _make(data, (scores,), (vjp,))


def weighted_block_sum(entries, weights, offsets):
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
    e, w = entries.data, weights.data
    itype = np.int32 if slots < 2**31 else np.int64
    select = sp.csr_matrix((w, np.arange(slots, dtype=itype), np.asarray(offsets, dtype=itype)),
                           shape=(counts.size, slots))
    return _make(np.asarray(select @ e), (entries, weights),
                 (lambda g: g[row] * w[:, None], lambda g: np.sum(e * g[row], axis=1)))


def lstm_rows(x, offsets, weights, biases):
    """An LSTM over each row's slots of the (S, d) ``x``, in slot order -> the (B, d) last hidden states.

    ``weights`` and ``biases``: the gates' (d, 2d) and (d,) arrays, in the
    order f, i, c, o, each gate reading ``[h ; x_t]``.  Rows start from a
    zero state, longest first and right-aligned, so the gates run over
    the live rows alone, a prefix that only grows; a row without slots
    stays zero.  Steps keep their activations only if a parent requires
    a gradient; the first product to run makes the one pass back through
    time (:func:`_lstm_backward`) and hands each parent its delta.
    """
    shapes = [v.data.shape for v in (x, *weights, *biases)]
    d = shapes[0][-1] if shapes[0] else 0
    if len(shapes[0]) != 2 or shapes[1:] != [(d, 2 * d)] * 4 + [(d,)] * 4:
        raise ValueError(f"lstm_rows: need (S, d) inputs, four (d, 2d) weights and four (d,) biases; got {shapes}")
    _, counts = _slot_rows(offsets, shapes[0][0], "lstm_rows")
    t_max = int(counts.max(initial=0))
    if not t_max:  # no step: every row stays zero, whatever the parents
        return Value(np.zeros((counts.size, d)))
    by_len = np.argsort(-counts, kind="stable")
    ends = np.asarray(offsets, dtype=np.int64)[1:][by_len]
    live = np.searchsorted(-counts[by_len], np.arange(-t_max, 0), side="right")  # live rows at each step
    parents, ws, steps = (x, *weights, *biases), [w.data for w in weights], []
    keep = any(p.node is not None for p in parents)
    h = c = np.zeros((0, d))
    for t, n in enumerate(live):
        if n > h.shape[0]:  # rows join with a zero state
            h, c = (np.concatenate([a, np.zeros((n - a.shape[0], d))]) for a in (h, c))
        read = ends[:n] - (t_max - t)
        hx = np.concatenate([h, x.data.take(read, axis=0)], axis=1)
        f, i, g, o = (hx @ w.T + b.data for w, b in zip(ws, biases))  # g: the c gate, the candidate cell
        f, i, g, o = 1.0 / (1.0 + np.exp(-f)), 1.0 / (1.0 + np.exp(-i)), np.tanh(g), 1.0 / (1.0 + np.exp(-o))
        c_in, c = c, f * c + i * g
        tc = np.tanh(c)
        h = o * tc
        if keep:
            steps.append((read, hx, f, i, g, o, c_in, tc))
    out = np.zeros((counts.size, d))
    out[by_len[:h.shape[0]]] = h
    handoff, slots = {}, shapes[0]

    def product(k):
        def vjp(g):
            if not handoff:
                handoff.update(enumerate(_lstm_backward(g, steps, ws, slots, by_len)))
            return handoff.pop(k)
        return vjp

    return _make(out, parents, [product(k) for k in range(len(parents))])


def _lstm_backward(g_out, steps, ws, slots, by_len):
    """The deltas of :func:`lstm_rows`' parents for the output gradient ``g_out``, popping ``steps`` from the last.

    It repeats the arithmetic and order of a graph of separate ops: gate deltas reach ``[h ; x_t]`` in the
    order o, c, i, f, weight and bias deltas add up from the last step to the first, and a slot of ``x``
    gets the delta of the step that read it plus 0.0, as a scatter-add into zeros does.
    """
    dx, sums, d = np.empty(slots), None, slots[1]
    gh, gc = g_out[by_len[:steps[-1][0].size]] + 0.0, None
    while steps:
        read, hx, f, i, g, o, c_in, tc = steps.pop()
        dc = _tanh_grad(gh * o, tc)
        if gc is not None:
            dc += gc
        dpre = [dc * c_in * f * (1.0 - f), dc * g * i * (1.0 - i), _tanh_grad(dc * i, g), gh * tc * o * (1.0 - o)]
        dhx = dpre[3] @ ws[3]
        for k in (2, 1, 0):
            dhx += dpre[k] @ ws[k]
        terms = [hx.T @ dp for dp in dpre] + [dp.sum(axis=0) for dp in dpre]
        sums = terms if sums is None else [np.add(s, term, out=s) for s, term in zip(sums, terms)]
        dx[read] = dhx[:, d:] + 0.0
        prev = steps[-1][0].size if steps else 0
        gh, gc = dhx[:prev, :d], dc[:prev] * f[:prev]
    return [dx] + [s.T for s in sums[:4]] + sums[4:]


def _running_sum(x):
    """Each row of a matrix added from 0.0 in column order -> (B,) vector.

    One fixed order, so a ranker can repeat these sums bit for bit
    outside the graph (:mod:`lankgc.decoder`); ``np.sum`` adds a row
    pairwise, and a numpy reduction over the outer axis of a one-row
    array does too.
    """
    acc = np.zeros(x.shape[0])
    for k in range(x.shape[1]):
        acc += x[:, k]
    return acc


def row_sum(a):
    """Each row of a matrix added as a running sum from 0.0 in column order -> (B,) vector."""
    if a.data.ndim != 2:
        raise ValueError(f"row_sum: expects a matrix, got shape {a.data.shape}")
    shape = a.data.shape
    return _make(_running_sum(a.data), (a,), (lambda g: np.broadcast_to(g[:, None], shape),))


def l1_norm(a):
    """Sum of absolute values of each row of a matrix -> (B,) vector, added as in :func:`row_sum`.

    The subgradient of ``|x|`` at zero is taken as zero.
    """
    if a.data.ndim != 2:
        raise ValueError(f"l1_norm: expects a matrix, got shape {a.data.shape}")
    x = a.data
    return _make(_running_sum(np.abs(x)), (a,), (lambda g: g[:, None] * np.sign(x),))


def l2_norm_sq(a):
    """Sum of squares of all entries, as a scalar."""
    x = a.data
    return _make(np.asarray(np.sum(x * x)), (a,), (lambda g: g * 2.0 * x,))


def sum_all(a):
    shape = a.data.shape
    return _make(np.asarray(np.sum(a.data)), (a,), (lambda g: np.full(shape, float(g)),))


def mean_all(a):
    return scale(sum_all(a), 1.0 / max(a.data.size, 1))

