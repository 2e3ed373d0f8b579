import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import (
    finite_difference_check,
    graph_nodes,
    grid_to_csr,
    kept_arrays,
    make_graph,
    random_name_triples,
    reference_lstm_rows,
)
from lankgc import autodiff as ad
from lankgc.encoder import AGGREGATOR_KINDS, AggregatorConfig, encode_batch
from lankgc.params import init_params
from lankgc.rules import mine_confidence
from lankgc.training import TrainConfig, batch_objective

try:
    from numpy.lib.array_utils import byte_bounds  # numpy >= 2.0
except ImportError:
    from numpy import byte_bounds


def run_fd(build, params, h=1e-6, tol=1e-4):
    """Finite-difference check a loss builder over named leaf arrays."""

    def fn(arrs):
        leaves = {k: ad.Value(v, requires_grad=True) for k, v in arrs.items()}
        loss = build(leaves)
        ad.backward(loss)
        grads = {
            k: (leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data))
            for k, leaf in leaves.items()
        }
        return loss.item(), grads

    ok, report = finite_difference_check(fn, params, h=h, tol=tol)
    assert ok, report


def weighted(v, seed):
    """Dot a Value with a fixed random constant so gradients are non-trivial."""
    w = np.random.default_rng(seed).normal(size=v.data.shape)
    if v.data.ndim == 0:
        return ad.scale(v, float(w))
    return ad.sum_all(ad.mul(v, ad.Value(w)))


def r(seed, *shape):
    return np.random.default_rng(seed).normal(size=shape)


def masked(seed, mask):
    """Random values at the True slots of a (B, K) ``mask``, as CSR: ``(offsets, values)``."""
    mask = np.array(mask, dtype=bool)
    return grid_to_csr(mask, r(seed, *mask.shape))


SOFTMAX_VEC = masked(56, [[1, 1, 0, 1, 0, 1]])
SOFTMAX_ROWS = masked(58, [[1, 1, 1, 0], [0, 1, 1, 1], [1, 0, 1, 1]])
SOFTMAX_EMPTY_ROW = masked(47, [[1, 0, 1], [0, 0, 0], [1, 1, 0]])
BLOCK_SUM = masked(63, np.ones((2, 3)))
BLOCK_SUM_MASKED = masked(61, [[1, 1, 0], [0, 0, 0], [1, 1, 0]])
LSTM_ROWS = np.array([0, 2, 2, 5, 6])  # rows of 2, 0, 3 and 1 slots
LSTM_PARAMS = {"x": r(73, 6, 3), **{f"w_{g}": r(74 + k, 3, 6) for k, g in enumerate("fico")},
               **{f"b_{g}": r(78 + k, 3) for k, g in enumerate("fico")}}


def lstm_of(leaves, offsets=LSTM_ROWS, op=ad.lstm_rows):
    """``op`` over the leaves ``x``, ``w_f`` to ``w_o`` and ``b_f`` to ``b_o``."""
    return op(leaves["x"], offsets, [leaves[f"w_{g}"] for g in "fico"], [leaves[f"b_{g}"] for g in "fico"])


# --- one finite-difference case per primitive -------------------------------

FD_CASES = {
    "add": ({"a": r(0, 5), "b": r(1, 5)},
            lambda l: weighted(ad.add(l["a"], l["b"]), 2)),
    "sub": ({"a": r(3, 4, 3), "b": r(4, 4, 3)},
            lambda l: weighted(ad.sub(l["a"], l["b"]), 5)),
    "mul": ({"a": r(8, 6), "b": r(9, 6)},
            lambda l: weighted(ad.mul(l["a"], l["b"]), 10)),
    "scale": ({"a": r(11, 5)},
              lambda l: weighted(ad.scale(l["a"], -1.7), 12)),
    "matvec": ({"m": r(24, 3, 4), "v": r(25, 4)},
               lambda l: weighted(ad.matvec(l["m"], l["v"]), 26)),
    "matmul": ({"a": r(27, 3, 4), "b": r(28, 4, 2)},
               lambda l: weighted(ad.matmul(l["a"], l["b"]), 29)),
    "transpose": ({"a": r(30, 3, 4)},
                  lambda l: weighted(ad.transpose(l["a"]), 31)),
    "narrow_vec": ({"a": r(38, 7)},
                   lambda l: weighted(ad.narrow(l["a"], 2, 5), 39)),
    "narrow_cols": ({"a": r(40, 3, 7)},
                    lambda l: weighted(ad.narrow(l["a"], 1, 4), 41)),
    "take_rows": ({"m": r(44, 5, 3)},
                  lambda l: weighted(ad.take_rows(l["m"], np.array([0, 3, 3, 1])), 45)),
    "transform_rows": ({"m": r(16, 5, 3), "w": r(17, 4, 3)},
                       lambda l: weighted(ad.transform_rows(l["m"], [0, 3, 3, 1, 4, 0], l["w"], [2, 2, 0, 3, 2, 1]),
                                          18)),
    "transform_rows_one_pair": ({"m": r(21, 3, 4), "w": r(22, 2, 4)},  # every slot the same (entity, relation) pair
                                lambda l: weighted(ad.transform_rows(l["m"], [1, 1, 1], l["w"], [0, 0, 0]), 23)),
    "tanh": ({"a": r(50, 5)},
             lambda l: weighted(ad.tanh(l["a"]), 51)),
    "relu": ({"a": r(54, 9) + 0.05},
             lambda l: weighted(ad.relu(l["a"]), 55)),
    "softmax_vec": ({"a": SOFTMAX_VEC[1]},
                    lambda l: weighted(ad.softmax_masked(l["a"], SOFTMAX_VEC[0]), 57)),
    "softmax_rows": ({"a": SOFTMAX_ROWS[1]},
                     lambda l: weighted(ad.softmax_masked(l["a"], SOFTMAX_ROWS[0]), 59)),
    "softmax_empty_row": ({"a": SOFTMAX_EMPTY_ROW[1]},
                          lambda l: weighted(ad.softmax_masked(l["a"], SOFTMAX_EMPTY_ROW[0]), 19)),
    "weighted_block_sum": ({"e": r(62, 6, 3), "w": BLOCK_SUM[1]},
                           lambda l: weighted(ad.weighted_block_sum(l["e"], l["w"], BLOCK_SUM[0]), 64)),
    "weighted_block_sum_masked": ({"e": r(60, 4, 3), "w": BLOCK_SUM_MASKED[1]},
                                  lambda l: weighted(ad.weighted_block_sum(l["e"], l["w"], BLOCK_SUM_MASKED[0]), 46)),
    "lstm_rows": (LSTM_PARAMS,
                  lambda l: weighted(lstm_of(l), 82)),
    "row_sum": ({"a": r(70, 3, 9)},
                lambda l: weighted(ad.row_sum(l["a"]), 71)),
    "l1_norm_rows": ({"a": r(66, 3, 4) + np.sign(r(66, 3, 4)) * 0.1},
                     lambda l: weighted(ad.l1_norm(l["a"]), 67)),
    "l2_norm_sq": ({"a": r(68, 3, 4)},
                   lambda l: ad.l2_norm_sq(l["a"])),
    "sum_all": ({"a": r(69, 3, 4)},
                lambda l: ad.sum_all(l["a"])),
    "mean_all": ({"a": r(72, 7)},
                 lambda l: ad.mean_all(l["a"])),
}


@pytest.mark.parametrize("name", sorted(FD_CASES))
def test_primitive_gradients(name):
    params, build = FD_CASES[name]
    run_fd(build, params)


def test_dot_backward_frozen():
    x = ad.Value(np.array([[1.0, 2.0]]), requires_grad=True)
    loss = ad.sum_all(ad.mul(x, x))
    ad.backward(loss)
    assert loss.item() == 5.0
    np.testing.assert_array_equal(x.grad[0], [2.0, 4.0])


def test_a_second_backward_over_a_consumed_graph_raises():
    x = ad.Value(r(0, 4), requires_grad=True)
    loss = ad.sum_all(ad.tanh(x))
    ad.backward(loss)
    first = x.grad.copy()
    np.testing.assert_array_equal(first, 1.0 - np.tanh(x.data) ** 2)
    with pytest.raises(ValueError, match="consumed"):
        ad.backward(loss)
    assert x.grad.tobytes() == first.tobytes()
    # a loss whose graph meets a node that an earlier pass consumed raises before it clears any gradient
    t = ad.tanh(x)
    ad.backward(ad.sum_all(t))
    with pytest.raises(ValueError, match="consumed"):
        ad.backward(ad.add(ad.sum_all(t), ad.sum_all(x)))
    assert x.grad.tobytes() == first.tobytes()


def test_unused_leaf_gradient_stays_none():
    x = ad.Value(r(1, 3), requires_grad=True)
    y = ad.Value(r(2, 3), requires_grad=True)
    loss = ad.sum_all(x)
    ad.backward(loss)
    assert y.grad is None
    np.testing.assert_array_equal(x.grad, np.ones(3))


def test_constant_leaves_get_no_gradient():
    x = ad.Value(r(3, 3))
    y = ad.Value(r(4, 3), requires_grad=True)
    loss = ad.sum_all(ad.mul(x, y))
    ad.backward(loss)
    assert x.grad is None
    np.testing.assert_array_equal(y.grad, x.data)


def test_relu_subgradient_at_zero_is_zero():
    x = ad.Value(np.array([-1.0, 0.0, 2.0]), requires_grad=True)
    loss = ad.sum_all(ad.relu(x))
    ad.backward(loss)
    np.testing.assert_array_equal(x.grad, [0.0, 0.0, 1.0])


def test_l1_subgradient_at_zero_is_zero():
    x = ad.Value(np.array([[-2.0, 0.0, 3.0]]), requires_grad=True)
    loss = ad.sum_all(ad.l1_norm(x))
    ad.backward(loss)
    assert loss.item() == 5.0
    np.testing.assert_array_equal(x.grad, [[-1.0, 0.0, 1.0]])


def test_take_rows_accumulates_duplicate_indices():
    m = ad.Value(r(5, 4, 2), requires_grad=True)
    loss = ad.sum_all(ad.take_rows(m, np.array([1, 1, 1])))
    ad.backward(loss)
    expect = np.zeros((4, 2))
    expect[1] = 3.0
    np.testing.assert_array_equal(m.grad, expect)


def _scatter_oracle(idx, g, shape, earlier=None):
    """``np.add.at`` into a zero (or ``earlier``) gradient: the reference scatter-add."""
    out = np.zeros(shape) if earlier is None else earlier.copy()
    np.add.at(out, idx, g)
    return out


@pytest.mark.parametrize("idx", [[2, 0, 2, 2, 4, 0], [3], [], [1, 1, 1, 1]])
def test_take_rows_backward_matches_add_at(idx):
    idx = np.array(idx, dtype=np.int64)
    m0 = r(13, 5, 3)
    g = r(14, idx.size, 3)
    m = ad.Value(m0, requires_grad=True)
    loss = ad.sum_all(ad.mul(ad.take_rows(m, idx), ad.Value(g)))
    ad.backward(loss)
    np.testing.assert_allclose(m.grad, _scatter_oracle(idx, g, m0.shape), rtol=1e-15, atol=0)


def test_take_rows_backward_adds_to_a_gradient_already_touched():
    idx = np.array([0, 4, 4, 1, 0], dtype=np.int64)
    m0 = r(15, 5, 3)
    g = r(16, idx.size, 3)
    w = r(17, 5, 3)
    m = ad.Value(m0, requires_grad=True)
    gathered = ad.sum_all(ad.mul(ad.take_rows(m, idx), ad.Value(g)))
    # the mul below is made later, so its backward touches m first
    loss = ad.add(gathered, ad.sum_all(ad.mul(m, ad.Value(w))))
    ad.backward(loss)
    np.testing.assert_allclose(m.grad, _scatter_oracle(idx, g, m0.shape, earlier=w), rtol=1e-15, atol=0)


@pytest.mark.parametrize("leaves", ["both", "table", "transforms"])
def test_transform_rows_gives_the_bytes_of_the_ops_it_fuses(leaves):
    idx, rel = np.array([2, 0, 2, 4, 4, 1]), np.array([1, 1, 0, 2, 1, 0])
    m0, w0, up = r(40, 5, 4), r(41, 3, 4), r(42, 6, 4)
    m, w = ad.Value(m0, requires_grad=leaves != "transforms"), ad.Value(w0, requires_grad=leaves != "table")
    out = ad.transform_rows(m, idx, w, rel)
    ad.backward(ad.sum_all(ad.mul(out, ad.Value(up))))
    # e - (v . e) v as a row gather, a row-wise dot, a row scale and a difference, and their products in reverse
    e, v = m0[idx], w0[rel]
    proj = np.sum(e * v, axis=1)
    assert out.data.tobytes() == (e - v * proj[:, None]).tobytes()
    d_proj = np.sum(-up * v, axis=1)
    d_e, d_v = up + d_proj[:, None] * v, -up * proj[:, None] + d_proj[:, None] * e
    assert (m.grad is None) == (leaves == "transforms") and (w.grad is None) == (leaves == "table")
    if m.grad is not None:
        assert m.grad.tobytes() == ad._scatter_rows(idx, 5, d_e).tobytes()
        np.testing.assert_allclose(m.grad, _scatter_oracle(idx, d_e, m0.shape), rtol=1e-15, atol=0)
    if w.grad is not None:
        assert w.grad.tobytes() == ad._scatter_rows(rel, 3, d_v).tobytes()
        np.testing.assert_allclose(w.grad, _scatter_oracle(rel, d_v, w0.shape), rtol=1e-15, atol=0)


def test_transform_rows_checks_its_ids():
    m, w = ad.Value(np.zeros((4, 3))), ad.Value(np.zeros((2, 3)))
    for ids, rels, match in [([0, 1], [0], "2 ids for 1 relations"), ([0, 4], [0, 1], "out of range"),
                             ([0], [-1], "out of range"), ([[0]], [0], "index vector")]:
        with pytest.raises(ValueError, match=match):
            ad.transform_rows(m, ids, w, rels)


LSTM_SHAPES = {
    "ragged-tied": [3, 0, 5, 3, 1, 5, 2],
    "empty-rows": [0, 2, 0, 0, 1],
    "all-empty": [0, 0, 0],
    "one-row": [4],
    "64-slot-row": [64, 3],
}


@pytest.mark.parametrize("grads", ["all", "inputs", "parameters"])
@pytest.mark.parametrize("d", [3, 4])
@pytest.mark.parametrize("shape", sorted(LSTM_SHAPES))
def test_lstm_rows_gives_the_bytes_of_the_ops_it_fuses(shape, d, grads):
    counts = LSTM_SHAPES[shape]
    offsets = np.concatenate([[0], np.cumsum(counts)])
    rng = np.random.default_rng([d, len(counts)])
    arrays = {"x": rng.normal(size=(offsets[-1], d)), **{f"w_{g}": rng.normal(size=(d, 2 * d)) for g in "fico"},
              **{f"b_{g}": rng.normal(size=d) for g in "fico"}}
    up = rng.normal(size=(len(counts), d))
    wants = {k: grads == "all" or (k == "x") == (grads == "inputs") for k in arrays}
    results = []
    for op in (ad.lstm_rows, reference_lstm_rows):
        leaves = {k: ad.Value(a, requires_grad=wants[k]) for k, a in arrays.items()}
        out = lstm_of(leaves, offsets, op)
        ad.backward(ad.sum_all(ad.mul(out, ad.Value(up))))
        results.append([out.data] + [leaf.grad for leaf in leaves.values()])
    for fused, composed in zip(*results):
        assert (fused is None) == (composed is None)
        if fused is not None:
            assert fused.tobytes() == composed.tobytes() and fused.strides == composed.strides
    held = [grad is not None for grad in results[0][1:]]
    if shape == "all-empty":  # no step, so no parameter is reached
        assert not any(held) and not results[0][0].any()
    else:
        assert held == list(wants.values())


def test_lstm_rows_checks_its_shapes():
    x, w, b = ad.Value(np.zeros((3, 2))), ad.Value(np.zeros((2, 4))), ad.Value(np.zeros(2))
    for bad in ([0, 2], [0, 2, 1, 3], [1, 3], [[0, 3]]):
        with pytest.raises(ValueError, match="offsets must rise"):
            ad.lstm_rows(x, bad, [w] * 4, [b] * 4)
    for weights, biases in [([w] * 3, [b] * 4), ([w] * 4, [b] * 3), ([ad.Value(np.zeros((2, 3)))] * 4, [b] * 4),
                            ([w] * 4, [ad.Value(np.zeros(3))] * 4), ([ad.Value(np.zeros((4, 2)))] * 4, [b] * 4)]:
        with pytest.raises(ValueError, match=r"four \(d, 2d\) weights"):
            ad.lstm_rows(x, [0, 3], weights, biases)
    with pytest.raises(ValueError, match=r"\(S, d\) inputs"):
        ad.lstm_rows(ad.Value(np.zeros(3)), [0, 3], [w] * 4, [b] * 4)


@pytest.mark.parametrize("idx", [[0, -1], [5], [2, 7, 1]])
def test_take_rows_rejects_out_of_range_indices(idx):
    with pytest.raises(ValueError, match="out of range"):
        ad.take_rows(ad.Value(r(22, 5, 3)), np.array(idx))


def test_first_touch_copies_a_shared_upstream_gradient():
    g = r(18, 4)
    x = ad.Value(r(19, 4), requires_grad=True)
    doubled = ad.add(x, x)
    upstream = []  # the gradient that doubled's VJPs read, kept past its release
    doubled.node.vjps = tuple(lambda up, vjp=vjp: upstream.append(up) or vjp(up) for vjp in doubled.node.vjps)
    loss = ad.sum_all(ad.mul(doubled, ad.Value(g)))
    ad.backward(loss)
    np.testing.assert_array_equal(x.grad, 2.0 * g)
    assert doubled.grad is None and len(upstream) == 2 and upstream[0] is upstream[1]
    np.testing.assert_array_equal(upstream[0], g)  # x's gradient never aliased its upstream buffer
    assert not np.may_share_memory(x.grad, upstream[0])

    a = ad.Value(r(20, 4), requires_grad=True)
    b = ad.Value(r(21, 4), requires_grad=True)
    loss = ad.sum_all(ad.mul(ad.add(a, b), ad.Value(g)))
    ad.backward(loss)
    a.node.grad += 1.0
    np.testing.assert_array_equal(a.grad, g + 1.0)
    np.testing.assert_array_equal(b.grad, g)

    # an interior node reads its gradient after an earlier node's delta reached a leaf
    x = ad.Value(r(22, 4), requires_grad=True)
    w = ad.Value(r(23, 4), requires_grad=True)
    loss = ad.sum_all(ad.mul(ad.add(x, ad.mul(x, w)), ad.Value(g)))
    ad.backward(loss)
    np.testing.assert_array_equal(x.grad, g + g * w.data)
    np.testing.assert_array_equal(w.grad, g * x.data)


def test_the_last_parent_takes_the_upstream_gradient_itself():
    # add's deltas are both the upstream gradient: the first parent gets a copy, since the second product
    # reads the gradient after it, and the last takes the buffer itself, which nothing reads again
    g = r(24, 4)
    a = ad.Value(r(25, 4), requires_grad=True)
    b = ad.Value(r(26, 4), requires_grad=True)
    summed = ad.add(a, b)
    upstream = []
    summed.node.vjps = tuple(lambda up, vjp=vjp: upstream.append(up) or vjp(up) for vjp in summed.node.vjps)
    ad.backward(ad.sum_all(ad.mul(summed, ad.Value(g))))
    assert b.grad is upstream[1] and not np.may_share_memory(a.grad, upstream[0])
    np.testing.assert_array_equal(a.grad, g)
    np.testing.assert_array_equal(b.grad, g)

    # row_sum's one delta is a read-only broadcast of the gradient: its parent gets a copy, which takes a +=
    x = ad.Value(r(27, 3, 4), requires_grad=True)
    ad.backward(ad.sum_all(ad.add(ad.row_sum(x), ad.row_sum(x))))
    assert x.grad.flags.writeable
    np.testing.assert_array_equal(x.grad, np.full((3, 4), 2.0))


def _assert_gradients_private(nodes, kept, leaves):
    """No gradient of the graph ``nodes`` shares memory with another gradient, the data of one of ``leaves``
    or one of the ``kept`` arrays that the nodes' vector-Jacobian products held before the backward pass.

    The kept arrays include the constants that a product reads, which
    are no graph nodes, so a gradient that aliases a constant's data is
    seen too; a product can hand back no other array.  Sorts the byte
    intervals of all arrays once, so a large graph costs ``n log n``: an
    interval that starts before the furthest end seen so far overlaps an
    earlier one, and that is a fault if either is a gradient.
    """
    arrays = [(False, leaf.data) for leaf in leaves] + [(False, arr) for arr in kept]
    spans = []
    for is_grad, arr in arrays + [(True, node.grad) for node in nodes]:
        if arr is not None and arr.size:
            lo, hi = byte_bounds(arr)
            spans.append((lo, hi, is_grad))
    spans.sort(key=lambda span: span[0])
    end_any = end_grad = -1
    for lo, hi, is_grad in spans:
        assert lo >= (end_any if is_grad else end_grad), "a gradient shares memory with another array"
        end_any = max(end_any, hi)
        if is_grad:
            end_grad = max(end_grad, hi)


def test_the_privacy_check_sees_a_gradient_that_aliases_a_constant():
    x, margin = ad.Value(r(35, 4), requires_grad=True), ad.Value(r(36, 4))
    loss = ad.sum_all(ad.mul(x, margin))  # x's product keeps the constant's data
    nodes = graph_nodes(loss)
    kept = kept_arrays(nodes)
    assert any(arr is margin.data for arr in kept)
    ad.backward(loss)
    _assert_gradients_private(nodes, kept, [x])
    x.node.grad = margin.data  # as if a VJP had handed back the constant's own array
    with pytest.raises(AssertionError, match="shares memory"):
        _assert_gradients_private(nodes, kept, [x])


def _leaves_reached(nodes):
    """The leaves among the graph ``nodes``, read before a backward pass consumes them."""
    return [node for node in nodes if not node.parents]


def _objective_graph(kind):
    """The leaves and loss of one training batch of ``kind``, with truncated neighborhoods, subtask and L2."""
    graph = make_graph(random_name_triples(np.random.default_rng(3), 14, 3, 40))
    n = graph.vocab.n_entities
    tcfg = TrainConfig(dim=6, neighbor_budget=3, l2_rate=0.01, subtask_enabled=True)
    acfg = AggregatorConfig(kind=kind, neighbor_budget=3)
    store = init_params(n, graph.n_relations, tcfg.dim, 0, with_lstm=acfg.uses_lstm)
    dense = mine_confidence(graph).dense() if acfg.needs_rules else None
    pos = graph.triplets[:8]
    neg = pos.copy()
    neg[:, 2] = (neg[:, 2] + 1) % n
    leaves = store.leaves(True)
    loss, _ = batch_objective(leaves, pos, neg, graph, dense, tcfg, acfg, "transe", (0,))
    return list(leaves.values()), loss


def _op_graph(name):
    params, build = FD_CASES[name]
    leaves = {k: ad.Value(v.copy(), requires_grad=True) for k, v in params.items()}
    return list(leaves.values()), build(leaves)


@pytest.mark.parametrize("case", [("op", name) for name in sorted(FD_CASES)]
                         + [("objective", kind) for kind in AGGREGATOR_KINDS], ids="-".join)
def test_backward_leaves_every_gradient_private(case):
    source, name = case
    leaves, loss = _op_graph(name) if source == "op" else _objective_graph(name)
    nodes = graph_nodes(loss)
    reached, kept = _leaves_reached(nodes), kept_arrays(nodes)
    ad.backward(loss)
    held = [node for node in nodes if node.grad is not None]
    assert held and held == reached
    assert all(leaf.grad is None for leaf in leaves if not any(leaf.node is node for node in held))
    _assert_gradients_private(nodes, kept, leaves)


@pytest.mark.parametrize("kind", AGGREGATOR_KINDS)
def test_only_the_leaves_the_loss_reaches_keep_a_gradient(kind):
    leaves, loss = _objective_graph(kind)
    nodes = graph_nodes(loss)
    reached = _leaves_reached(nodes)
    ad.backward(loss)
    held = [node for node in nodes if node.grad is not None]
    # the L2 penalty reaches the attention parameters, so the loss reaches every parameter
    assert held == reached == [leaf.node for leaf in leaves] and len(held) > 1
    assert loss.grad is None
    grads = [leaf.grad.tobytes() for leaf in leaves]
    with pytest.raises(ValueError, match="consumed"):  # a second backward does not replay the graph
        ad.backward(loss)
    assert [leaf.grad.tobytes() for leaf in leaves] == grads


@pytest.mark.parametrize("case", [("op", name) for name in sorted(FD_CASES)]
                         + [("objective", kind) for kind in AGGREGATOR_KINDS], ids="-".join)
def test_backward_frees_every_array_the_products_keep_while_the_loss_lives(case):
    source, name = case
    leaves, loss = _op_graph(name) if source == "op" else _objective_graph(name)
    nodes = graph_nodes(loss)
    refs = [weakref.ref(arr) for arr in kept_arrays(nodes) if not any(arr is leaf.data for leaf in leaves)]
    assert refs or source == "op"  # a product of an op over leaves alone may keep only the leaves' data
    gc.disable()  # reference counting alone must free them
    try:
        ad.backward(loss)
        assert [ref for ref in refs if ref() is not None] == []
    finally:
        gc.enable()
    assert loss.node is nodes[-1]  # the loss, and its node, live on


def _recording_outputs(monkeypatch):
    """Patch ``ad._make`` to record a weak reference to every op output's data, in creation order."""
    made, make = [], ad._make

    def recording(data, parents, vjps):
        out = make(data, parents, vjps)
        made.append(weakref.ref(out.data))
        return out
    monkeypatch.setattr(ad, "_make", recording)
    return made


@pytest.mark.parametrize("name", sorted(set(FD_CASES) - {"l2_norm_sq", "sum_all"}))  # both make the loss alone
def test_an_op_output_lives_only_while_a_product_reads_it(name, monkeypatch):
    # each case is weighted(op(...)) or mean_all: the consumer of the op output reads no more than its shape
    params, build = FD_CASES[name]
    made = _recording_outputs(monkeypatch)
    leaves = {k: ad.Value(v.copy(), requires_grad=True) for k, v in params.items()}
    loss = build(leaves)
    reads_its_output = name.startswith(("tanh", "softmax"))  # their VJPs read the op's own output
    alive = [ref() is not None for ref in made]
    assert len(alive) >= 2 and alive == [reads_its_output] + [False] * (len(alive) - 2) + [True]
    ad.backward(loss)
    assert all(leaf.grad is not None for leaf in leaves.values())


@pytest.mark.parametrize("kind", AGGREGATOR_KINDS)
def test_a_training_graph_keeps_no_value_and_only_the_outputs_its_products_read(kind, monkeypatch):
    made = _recording_outputs(monkeypatch)
    leaves, loss = _objective_graph(kind)
    nodes = graph_nodes(loss)
    cells = [cell.cell_contents for node in nodes for vjp in node.vjps for cell in vjp.__closure__ or ()]
    assert cells and not any(isinstance(obj, ad.Value) for obj in cells)
    kept = kept_arrays(nodes)
    alive = [ref() for ref in made if ref() is not None]
    assert len(alive) < len(made)
    assert all(arr is loss.data or any(np.may_share_memory(arr, k) for k in kept) for arr in alive)


def _order_sensitive_sum():
    """A leaf ``x`` with three deltas, 1, 1e16 and -1e16, whose float sum depends on their order.

    The deltas come from ``a``, ``b`` and ``c``, made in that order, and
    the loss reaches them as ``sum((c + a) + b)``.
    """
    x = ad.Value(np.ones(1), requires_grad=True)
    a, b, c = ad.scale(x, 1.0), ad.scale(x, 1e16), ad.scale(x, -1e16)
    return x, ad.sum_all(ad.add(ad.add(c, a), b))


def test_backward_adds_a_leafs_deltas_in_reverse_creation_order():
    x, loss = _order_sensitive_sum()
    want = (np.array([-1e16]) + 1e16) + 1.0  # c's delta, then b's, then a's
    assert want.tobytes() != ((np.array([1e16]) + 1.0) - 1e16).tobytes()  # a depth-first order: b, a, c
    assert want.tobytes() != ((np.array([-1e16]) + 1.0) + 1e16).tobytes()  # or c, a, b
    ad.backward(loss)
    assert x.grad.tobytes() == want.tobytes()
    with pytest.raises(ValueError, match="consumed"):  # the graph is gone, and x keeps its gradient
        ad.backward(loss)
    assert x.grad.tobytes() == want.tobytes()


def test_backward_frees_each_interior_gradient_as_it_goes():
    x = ad.Value(r(34, 2000, 16), requires_grad=True)
    array = x.data.nbytes
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        y = x
        for _ in range(20):
            y = ad.tanh(y)
        loss = ad.sum_all(y)
        del y
        forward = tracemalloc.get_traced_memory()[0] - before
        tracemalloc.reset_peak()
        ad.backward(loss)
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert forward >= 20 * array  # the loss's graph keeps every output
    # one op's upstream gradient, its delta and its VJP's temporaries, not one gradient per node
    assert peak - before <= forward + 4 * array
    assert after - before <= forward + array + array // 8  # only x's gradient is left
    assert x.grad.shape == x.data.shape


def test_weighted_block_sum_with_mask_matches_the_padded_grid():
    rng = np.random.default_rng(12)
    mask = np.array([[1, 1, 1, 0], [0, 0, 0, 0], [1, 0, 0, 0]], bool)
    grid = rng.normal(size=(12, 3))
    w = rng.normal(size=(3, 4))
    offsets, entries, w_real = grid_to_csr(mask, grid.reshape(3, 4, 3), w)
    real = ad.weighted_block_sum(ad.Value(entries), ad.Value(w_real), offsets)
    padded = padded_grid_block_sum(entries, w, mask)
    np.testing.assert_allclose(real.data, padded, rtol=1e-15, atol=1e-15)
    np.testing.assert_array_equal(real.data[1], np.zeros(3))
    with pytest.raises(ValueError, match="real slots"):
        ad.weighted_block_sum(ad.Value(grid), ad.Value(w_real), offsets)


def test_segment_ops_place_slots_by_offsets():
    offsets = np.array([0, 0, 2, 3])  # an empty row, then two slots, then one
    out = ad.weighted_block_sum(ad.Value(np.eye(3)), ad.Value(np.array([1.0, 2.0, 3.0])), offsets)
    np.testing.assert_array_equal(out.data, [[0.0, 0.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 3.0]])
    p = ad.softmax_masked(ad.Value(np.array([0.0, 0.0, 5.0])), offsets)
    np.testing.assert_array_equal(p.data, [0.5, 0.5, 1.0])
    with pytest.raises(ValueError, match="4 rows for 3 real slots"):
        ad.weighted_block_sum(ad.Value(np.eye(4)), ad.Value(np.ones(3)), offsets)
    for bad in ([0, 2, 4], [0, 2, 1, 3], [1, 2, 3], [[0, 3]], []):
        with pytest.raises(ValueError, match="offsets must rise"):
            ad.weighted_block_sum(ad.Value(np.eye(3)), ad.Value(np.ones(3)), bad)
        with pytest.raises(ValueError, match="offsets must rise"):
            ad.softmax_masked(ad.Value(np.ones(3)), bad)
    with pytest.raises(ValueError, match=r"\(S,\) weights"):
        ad.weighted_block_sum(ad.Value(np.eye(3)), ad.Value(np.eye(3)), offsets)
    with pytest.raises(ValueError, match=r"\(S,\) scores"):
        ad.softmax_masked(ad.Value(np.ones((1, 3))), [0, 3])


def test_softmax_masked_rows_sum_to_one():
    mask = np.array([[1, 0, 1, 1], [1, 1, 0, 0]], bool)
    offsets, scores = grid_to_csr(mask, r(6, 2, 4))
    p = np.zeros(mask.shape)
    p[mask] = ad.softmax_masked(ad.Value(scores), offsets).data
    np.testing.assert_allclose(p.sum(axis=1), [1.0, 1.0], rtol=0, atol=1e-15)
    assert (p[~mask] == 0.0).all()


def test_softmax_masked_gives_an_empty_row_no_slots():
    scores = ad.Value(r(7, 3), requires_grad=True)
    p = ad.softmax_masked(scores, np.array([0, 3, 3]))
    assert p.data.shape == (3,)
    np.testing.assert_allclose(p.data.sum(), 1.0, rtol=0, atol=1e-15)
    ad.backward(ad.sum_all(ad.mul(p, ad.Value(r(8, 3)))))
    assert scores.grad.shape == (3,)


def masked_mean(entries, mask):
    """The mean aggregator's output for one row of neighbors ``entries``.

    Zero transform vectors make the relation projection the identity.
    """
    k, d = entries.shape
    leaves = {"entity_emb": ad.Value(entries), "transform_vec": ad.Value(np.zeros((1, d)))}
    offsets, rels, ents = grid_to_csr(mask[None], np.zeros((1, k), np.int64), np.arange(k)[None])
    return encode_batch(leaves, offsets, rels, ents, np.zeros(1, np.int64), AggregatorConfig(kind="mean"))


def test_mean_masked_empty_is_zero_vector():
    out = masked_mean(r(8, 3, 4), np.zeros(3, bool))
    np.testing.assert_array_equal(out.data[0], np.zeros(4))


def test_mean_masked_counts_only_real_rows():
    entries = np.arange(12, dtype=np.float64).reshape(4, 3)
    out = masked_mean(entries, np.array([1, 1, 0, 0], bool))
    np.testing.assert_array_equal(out.data[0], entries[:2].mean(axis=0))


def test_weighted_block_sum_matches_loop():
    rng = np.random.default_rng(9)
    e = rng.normal(size=(6, 4))
    w = rng.normal(size=(2, 3))
    out = ad.weighted_block_sum(ad.Value(e), ad.Value(w.reshape(-1)), [0, 3, 6])
    expect = np.stack([w[b] @ e[b * 3:(b + 1) * 3] for b in range(2)])
    np.testing.assert_allclose(out.data, expect, rtol=1e-15)


def padded_grid_block_sum(entries, weights, mask):
    """The former forward of ``weighted_block_sum``: an einsum over a zero-filled (B, K, d) grid."""
    grid = np.zeros((*weights.shape, entries.shape[1]))
    grid[mask] = entries
    return np.einsum("bkd,bk->bd", grid, np.where(mask, weights, 0.0))


@st.composite
def block_sum_cases(draw):
    bb = draw(st.integers(1, 40))
    kk = draw(st.integers(1, 12))
    d = draw(st.integers(2, 40))  # at d=1 the einsum sums over K in an order of its own
    mask = draw(arrays(bool, (bb, kk)))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.integers(-6, 7, size=(int(mask.sum()), 1))
    return rng.normal(size=(int(mask.sum()), d)) * scale, rng.normal(size=(bb, kk)), mask


def _named_block_sum_case(mask, d=5, seed=0):
    mask = np.asarray(mask, dtype=bool)
    rng = np.random.default_rng(seed)
    return rng.normal(size=(int(mask.sum()), d)), rng.normal(size=mask.shape), mask


@given(block_sum_cases())
@example(_named_block_sum_case([[1, 1, 0], [0, 0, 0], [1, 0, 0]]))  # an empty row
@example(_named_block_sum_case([[1, 0, 1, 1]]))  # B=1
@example(_named_block_sum_case(np.ones((4, 3))))  # every slot real
@example(_named_block_sum_case(np.zeros((3, 4))))  # no real slot at all
@settings(max_examples=200, deadline=None)
def test_weighted_block_sum_equals_padded_grid_einsum_bitwise(case):
    entries, weights, mask = case
    offsets, w_real = grid_to_csr(mask, weights)
    out = ad.weighted_block_sum(ad.Value(entries), ad.Value(w_real), offsets)
    want = padded_grid_block_sum(entries, weights, mask)
    assert out.data.shape == want.shape
    assert out.data.tobytes() == want.tobytes()


@st.composite
def segment_cases(draw):
    """CSR rows of 0 to 64 slots: offsets, (S,) scores or weights, (S, d) entries, upstream gradients."""
    counts = draw(st.lists(st.integers(0, 64), min_size=1, max_size=8))
    offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    slots, d = int(offsets[-1]), draw(st.integers(1, 6))
    values = rng.normal(size=slots) * 10.0 ** rng.integers(-3, 4, size=slots)
    return offsets, values, rng.normal(size=(slots, d)), rng.normal(size=slots), rng.normal(size=(len(counts), d))


def _run_segment_op(op, offsets, arrays, upstream):
    """``op`` over leaves of ``arrays``, backward from ``sum(out * upstream)``: (output, leaf gradients)."""
    leaves = [ad.Value(a, requires_grad=True) for a in arrays]
    out = op(*leaves, offsets)
    ad.backward(ad.sum_all(ad.mul(out, ad.Value(upstream))))
    return out.data, [np.zeros_like(a) if leaf.grad is None else leaf.grad for a, leaf in zip(arrays, leaves)]


@given(segment_cases())
@settings(max_examples=100, deadline=None)
def test_segment_ops_give_each_row_the_same_bytes_alone_as_in_any_batch(case):
    offsets, values, entries, slot_up, row_up = case
    soft, (d_soft,) = _run_segment_op(ad.softmax_masked, offsets, [values], slot_up)
    summed, (d_entries, d_weights) = _run_segment_op(ad.weighted_block_sum, offsets, [entries, values], row_up)
    for b in range(offsets.size - 1):
        a, z = offsets[b], offsets[b + 1]
        alone = [0, z - a]
        soft1, (d_soft1,) = _run_segment_op(ad.softmax_masked, alone, [values[a:z]], slot_up[a:z])
        assert soft1.tobytes() == soft[a:z].tobytes() and d_soft1.tobytes() == d_soft[a:z].tobytes()
        summed1, (d_entries1, d_weights1) = _run_segment_op(
            ad.weighted_block_sum, alone, [entries[a:z], values[a:z]], row_up[b:b + 1])
        assert summed1.tobytes() == summed[b:b + 1].tobytes()
        assert d_entries1.tobytes() == d_entries[a:z].tobytes()
        assert d_weights1.tobytes() == d_weights[a:z].tobytes()


# --- shape and usage errors --------------------------------------------------

def test_rank_three_rejected():
    with pytest.raises(ValueError, match="rank 2"):
        ad.Value(np.zeros((2, 2, 2)))


def test_item_requires_scalar():
    with pytest.raises(ValueError, match="scalar"):
        ad.Value(np.zeros(3)).item()


def transform_first_rows(a, b):
    """:func:`ad.transform_rows` of ``a``'s first row by ``b``'s first row."""
    return ad.transform_rows(a, [0], b, [0])


@pytest.mark.parametrize("op,a,b", [
    (ad.add, np.zeros(3), np.zeros(4)),
    (ad.mul, np.zeros((2, 3)), np.zeros((3, 2))),
    (ad.sub, np.zeros((2, 2)), np.zeros(2)),
    (ad.matvec, np.zeros((2, 3)), np.zeros(2)),
    (ad.matmul, np.zeros((2, 3)), np.zeros((2, 3))),
    (transform_first_rows, np.zeros((2, 3)), np.zeros((3, 4))),  # the widths differ
    (transform_first_rows, np.zeros((3, 2)), np.zeros(2)),  # no matrix of transforms
])
def test_shape_mismatches_rejected(op, a, b):
    with pytest.raises(ValueError):
        op(ad.Value(a), ad.Value(b))


def test_narrow_range_checked():
    with pytest.raises(ValueError, match="narrow"):
        ad.narrow(ad.Value(np.zeros(3)), 1, 5)


def test_backward_requires_scalar_loss():
    v = ad.Value(np.zeros(3), requires_grad=True)
    with pytest.raises(ValueError, match="scalar"):
        ad.backward(v)


def test_backward_on_a_gradient_free_loss_sets_nothing():
    x = ad.Value(r(30, 3), requires_grad=True)
    c = ad.Value(r(31, 3))
    ad.backward(ad.sum_all(ad.mul(x, c)))
    held = x.grad.copy()
    free = ad.sum_all(ad.mul(c, c))
    assert not free.requires_grad and free.node is None
    ad.backward(free)  # a gradient-free loss depends on no leaf
    assert free.grad is None and x.grad.tobytes() == held.tobytes()


def test_a_leaf_the_loss_does_not_reach_keeps_its_gradient():
    x, y = ad.Value(r(37, 3), requires_grad=True), ad.Value(r(38, 3), requires_grad=True)
    ad.backward(ad.sum_all(ad.mul(x, y)))
    held = y.grad.copy()
    loss = ad.sum_all(ad.tanh(x))
    assert _leaves_reached(graph_nodes(loss)) == [x.node]
    ad.backward(loss)
    np.testing.assert_array_equal(x.grad, 1.0 - np.tanh(x.data) ** 2)
    assert y.grad.tobytes() == held.tobytes()


def test_take_rows_gathers_the_bytes_of_fancy_indexing():
    m = r(32, 6, 5)
    m[1, 2], m[4, 0], m[5, 3] = -0.0, np.nan, np.inf
    for data in (m, m.T.copy().T, r(33, 5, 6).T):  # C order, Fortran order, a transposed view
        leaf = ad.Value(data)
        for idx in ([4, 1, 4, 5, 0], [], [5] * 3):
            got = ad.take_rows(leaf, idx).data
            want = data[np.asarray(idx, dtype=np.int64)]
            assert got.tobytes() == want.tobytes() and got.strides == want.strides


def test_finite_difference_check_catches_wrong_gradient():
    def fn(arrs):
        x = ad.Value(arrs["x"], requires_grad=True)
        loss = ad.l2_norm_sq(x)
        ad.backward(loss)
        return loss.item(), {"x": 3.0 * x.grad}  # deliberately wrong

    ok, report = finite_difference_check(fn, {"x": r(10, 4)})
    assert not ok
    assert report["x"] > 1e-4


# --- property tests ----------------------------------------------------------

vec = arrays(np.float64, 5, elements=st.floats(-3, 3, allow_nan=False, width=32))


@given(a=vec, b=vec)
def test_add_commutes(a, b):
    left = ad.add(ad.Value(a), ad.Value(b))
    right = ad.add(ad.Value(b), ad.Value(a))
    np.testing.assert_array_equal(left.data, right.data)


@given(a=vec, b=vec)
@settings(max_examples=25)
def test_mul_gradients_cross(a, b):
    x = ad.Value(a, requires_grad=True)
    y = ad.Value(b, requires_grad=True)
    loss = ad.sum_all(ad.mul(x, y))
    ad.backward(loss)
    np.testing.assert_allclose(x.grad, b, rtol=0, atol=0)
    np.testing.assert_allclose(y.grad, a, rtol=0, atol=0)


@given(arrays(np.float64, (3, 4), elements=st.floats(-5, 5, allow_nan=False, width=32)))
def test_softmax_rows_are_distributions(scores):
    offsets, flat = grid_to_csr(np.ones((3, 4), bool), scores)
    p = ad.softmax_masked(ad.Value(flat), offsets).data.reshape(3, 4)
    assert (p >= 0).all()
    np.testing.assert_allclose(p.sum(axis=1), np.ones(3), atol=1e-12)
