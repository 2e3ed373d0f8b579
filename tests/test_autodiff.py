import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import finite_difference_check, grid_to_csr, make_graph, random_name_triples
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
        tape = ad.Tape()
        leaves = {k: tape.leaf(v) for k, v in arrs.items()}
        loss = build(tape, leaves)
        tape.backward(loss)
        grads = {
            k: (leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data))
            for k, leaf in leaves.items()
        }
        return loss.item(), grads

    ok, report = finite_difference_check(fn, params, h=h, tol=tol)
    assert ok, report


def weighted(tape, v, seed):
    """Dot a Value with a fixed random constant so gradients are non-trivial."""
    w = np.random.default_rng(seed).normal(size=v.data.shape)
    if v.data.ndim == 0:
        return ad.scale(tape, v, float(w))
    return ad.sum_all(tape, ad.mul(tape, v, ad.Value(w)))


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


# --- one finite-difference case per primitive -------------------------------

FD_CASES = {
    "add": ({"a": r(0, 5), "b": r(1, 5)},
            lambda t, l: weighted(t, ad.add(t, l["a"], l["b"]), 2)),
    "sub": ({"a": r(3, 4, 3), "b": r(4, 4, 3)},
            lambda t, l: weighted(t, ad.sub(t, l["a"], l["b"]), 5)),
    "mul": ({"a": r(8, 6), "b": r(9, 6)},
            lambda t, l: weighted(t, ad.mul(t, l["a"], l["b"]), 10)),
    "scale": ({"a": r(11, 5)},
              lambda t, l: weighted(t, ad.scale(t, l["a"], -1.7), 12)),
    "col_scale": ({"x": r(16, 4, 3), "v": r(17, 4)},
                  lambda t, l: weighted(t, ad.col_scale(t, l["x"], l["v"]), 18)),
    "row_dot": ({"a": r(21, 4, 3), "b": r(22, 4, 3)},
                lambda t, l: weighted(t, ad.row_dot(t, l["a"], l["b"]), 23)),
    "matvec": ({"m": r(24, 3, 4), "v": r(25, 4)},
               lambda t, l: weighted(t, ad.matvec(t, l["m"], l["v"]), 26)),
    "matmul": ({"a": r(27, 3, 4), "b": r(28, 4, 2)},
               lambda t, l: weighted(t, ad.matmul(t, l["a"], l["b"]), 29)),
    "transpose": ({"a": r(30, 3, 4)},
                  lambda t, l: weighted(t, ad.transpose(t, l["a"]), 31)),
    "concat_cols": ({"a": r(35, 3, 2), "b": r(36, 3, 4)},
                    lambda t, l: weighted(t, ad.concat(t, l["a"], l["b"]), 37)),
    "concat_rows": ({"a": r(32, 2, 3), "b": r(33, 4, 3)},
                    lambda t, l: weighted(t, ad.concat(t, l["a"], l["b"], axis=0), 34)),
    "narrow_vec": ({"a": r(38, 7)},
                   lambda t, l: weighted(t, ad.narrow(t, l["a"], 2, 5), 39)),
    "narrow_cols": ({"a": r(40, 3, 7)},
                    lambda t, l: weighted(t, ad.narrow(t, l["a"], 1, 4), 41)),
    "reshape": ({"a": r(42, 6)},
                lambda t, l: weighted(t, ad.reshape(t, l["a"], (2, 3)), 43)),
    "take_rows": ({"m": r(44, 5, 3)},
                  lambda t, l: weighted(
                      t, ad.take_rows(t, l["m"], np.array([0, 3, 3, 1])), 45)),
    "repeat_rows": ({"a": r(48, 3, 2)},
                    lambda t, l: weighted(t, ad.repeat_rows(t, l["a"], 3), 49)),
    "tanh": ({"a": r(50, 5)},
             lambda t, l: weighted(t, ad.tanh(t, l["a"]), 51)),
    "sigmoid": ({"a": r(52, 5)},
                lambda t, l: weighted(t, ad.sigmoid(t, l["a"]), 53)),
    "relu": ({"a": r(54, 9) + 0.05},
             lambda t, l: weighted(t, ad.relu(t, l["a"]), 55)),
    "softmax_vec": ({"a": SOFTMAX_VEC[1]},
                    lambda t, l: weighted(t, ad.softmax_masked(t, l["a"], SOFTMAX_VEC[0]), 57)),
    "softmax_rows": ({"a": SOFTMAX_ROWS[1]},
                     lambda t, l: weighted(t, ad.softmax_masked(t, l["a"], SOFTMAX_ROWS[0]), 59)),
    "softmax_empty_row": ({"a": SOFTMAX_EMPTY_ROW[1]},
                          lambda t, l: weighted(t, ad.softmax_masked(t, l["a"], SOFTMAX_EMPTY_ROW[0]), 19)),
    "weighted_block_sum": ({"e": r(62, 6, 3), "w": BLOCK_SUM[1]},
                           lambda t, l: weighted(
                               t, ad.weighted_block_sum(t, l["e"], l["w"], BLOCK_SUM[0]), 64)),
    "weighted_block_sum_masked": ({"e": r(60, 4, 3), "w": BLOCK_SUM_MASKED[1]},
                                  lambda t, l: weighted(
                                      t, ad.weighted_block_sum(t, l["e"], l["w"], BLOCK_SUM_MASKED[0]), 46)),
    "row_sum": ({"a": r(70, 3, 9)},
                lambda t, l: weighted(t, ad.row_sum(t, l["a"]), 71)),
    "l1_norm_rows": ({"a": r(66, 3, 4) + np.sign(r(66, 3, 4)) * 0.1},
                     lambda t, l: weighted(t, ad.l1_norm(t, l["a"]), 67)),
    "l2_norm_sq": ({"a": r(68, 3, 4)},
                   lambda t, l: ad.l2_norm_sq(t, l["a"])),
    "sum_all": ({"a": r(69, 3, 4)},
                lambda t, l: ad.sum_all(t, l["a"])),
    "mean_all": ({"a": r(72, 7)},
                 lambda t, l: ad.mean_all(t, l["a"])),
}


@pytest.mark.parametrize("name", sorted(FD_CASES))
def test_primitive_gradients(name):
    params, build = FD_CASES[name]
    run_fd(build, params)


def test_dot_backward_frozen():
    tape = ad.Tape()
    x = tape.leaf(np.array([[1.0, 2.0]]))
    loss = ad.sum_all(tape, ad.row_dot(tape, x, x))
    tape.backward(loss)
    assert loss.item() == 5.0
    np.testing.assert_array_equal(x.grad[0], [2.0, 4.0])


def test_backward_is_repeatable():
    tape = ad.Tape()
    x = tape.leaf(r(0, 4))
    loss = ad.sum_all(tape, ad.tanh(tape, x))
    tape.backward(loss)
    first = x.grad.copy()
    tape.backward(loss)
    np.testing.assert_array_equal(x.grad, first)


def test_unused_leaf_gradient_stays_none():
    tape = ad.Tape()
    x = tape.leaf(r(1, 3))
    y = tape.leaf(r(2, 3))
    loss = ad.sum_all(tape, x)
    tape.backward(loss)
    assert y.grad is None
    np.testing.assert_array_equal(x.grad, np.ones(3))


def test_constant_leaves_get_no_gradient():
    tape = ad.Tape()
    x = ad.Value(r(3, 3))
    y = tape.leaf(r(4, 3))
    loss = ad.sum_all(tape, ad.mul(tape, x, y))
    tape.backward(loss)
    assert x.grad is None
    np.testing.assert_array_equal(y.grad, x.data)


def test_relu_subgradient_at_zero_is_zero():
    tape = ad.Tape()
    x = tape.leaf(np.array([-1.0, 0.0, 2.0]))
    loss = ad.sum_all(tape, ad.relu(tape, x))
    tape.backward(loss)
    np.testing.assert_array_equal(x.grad, [0.0, 0.0, 1.0])


def test_l1_subgradient_at_zero_is_zero():
    tape = ad.Tape()
    x = tape.leaf(np.array([[-2.0, 0.0, 3.0]]))
    loss = ad.sum_all(tape, ad.l1_norm(tape, x))
    tape.backward(loss)
    assert loss.item() == 5.0
    np.testing.assert_array_equal(x.grad, [[-1.0, 0.0, 1.0]])


def test_take_rows_accumulates_duplicate_indices():
    tape = ad.Tape()
    m = tape.leaf(r(5, 4, 2))
    loss = ad.sum_all(tape, ad.take_rows(tape, m, np.array([1, 1, 1])))
    tape.backward(loss)
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
    tape = ad.Tape()
    m = tape.leaf(m0)
    loss = ad.sum_all(tape, ad.mul(tape, ad.take_rows(tape, m, idx), ad.Value(g)))
    tape.backward(loss)
    np.testing.assert_allclose(m.grad, _scatter_oracle(idx, g, m0.shape), rtol=1e-15, atol=0)


def test_take_rows_backward_adds_to_a_gradient_already_touched():
    idx = np.array([0, 4, 4, 1, 0], dtype=np.int64)
    m0 = r(15, 5, 3)
    g = r(16, idx.size, 3)
    w = r(17, 5, 3)
    tape = ad.Tape()
    m = tape.leaf(m0)
    gathered = ad.sum_all(tape, ad.mul(tape, ad.take_rows(tape, m, idx), ad.Value(g)))
    # the mul below sits later on the tape, so its backward touches m first
    loss = ad.add(tape, gathered, ad.sum_all(tape, ad.mul(tape, m, ad.Value(w))))
    tape.backward(loss)
    np.testing.assert_allclose(m.grad, _scatter_oracle(idx, g, m0.shape, earlier=w), rtol=1e-15, atol=0)


@pytest.mark.parametrize("idx", [[0, -1], [5], [2, 7, 1]])
def test_take_rows_rejects_out_of_range_indices(idx):
    tape = ad.Tape()
    with pytest.raises(ValueError, match="out of range"):
        ad.take_rows(tape, ad.Value(r(22, 5, 3)), np.array(idx))


def test_first_touch_copies_a_shared_upstream_gradient():
    g = r(18, 4)
    tape = ad.Tape()
    x = tape.leaf(r(19, 4))
    doubled = ad.add(tape, x, x)
    upstream = []  # the gradient that doubled's VJPs read, kept past its release
    doubled._vjps = tuple(lambda up, vjp=vjp: upstream.append(up) or vjp(up) for vjp in doubled._vjps)
    loss = ad.sum_all(tape, ad.mul(tape, doubled, ad.Value(g)))
    tape.backward(loss)
    np.testing.assert_array_equal(x.grad, 2.0 * g)
    assert doubled.grad is None and len(upstream) == 2 and upstream[0] is upstream[1]
    np.testing.assert_array_equal(upstream[0], g)  # x's gradient never aliased its upstream buffer
    assert not np.may_share_memory(x.grad, upstream[0])

    tape = ad.Tape()
    a = tape.leaf(r(20, 4))
    b = tape.leaf(r(21, 4))
    loss = ad.sum_all(tape, ad.mul(tape, ad.add(tape, a, b), ad.Value(g)))
    tape.backward(loss)
    a.grad += 1.0
    np.testing.assert_array_equal(a.grad, g + 1.0)
    np.testing.assert_array_equal(b.grad, g)

    # an interior node reads its gradient after an earlier node's delta reached a leaf
    tape = ad.Tape()
    x = tape.leaf(r(22, 4))
    w = tape.leaf(r(23, 4))
    loss = ad.sum_all(tape, ad.mul(tape, ad.add(tape, x, ad.mul(tape, x, w)), ad.Value(g)))
    tape.backward(loss)
    np.testing.assert_array_equal(x.grad, g + g * w.data)
    np.testing.assert_array_equal(w.grad, g * x.data)


def _assert_gradients_private(tape):
    """No node's ``.grad`` shares memory with another ``.grad`` or with the ``.data`` of a node or a parent.

    The parents include the constants, which the tape does not record, so
    a gradient that aliases a constant's data (such as the hinge's margin
    vector) is seen too.  Sorts the byte intervals of all arrays once, so
    a long tape costs ``n log n``: an interval that starts before the
    furthest end seen so far overlaps an earlier one, and that is a fault
    if either is a gradient.
    """
    values = {id(value): value for node in tape.nodes for value in (node, *node._parents)}
    spans = []
    for value in values.values():
        for is_grad, arr in ((False, value.data), (True, value.grad)):
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
    tape = ad.Tape()
    x, margin = tape.leaf(r(35, 4)), ad.Value(r(36, 4))
    tape.backward(ad.sum_all(tape, ad.add(tape, x, margin)))
    _assert_gradients_private(tape)
    x.grad = margin.data  # as if a VJP had handed back the constant's own array
    with pytest.raises(AssertionError, match="shares memory"):
        _assert_gradients_private(tape)


def _leaves_reached(tape, loss):
    """The leaves of ``tape`` that require a gradient and that ``loss`` depends on, in tape order."""
    seen, todo = {id(loss)}, [loss]
    while todo:
        for parent in todo.pop()._parents:
            if parent.requires_grad and id(parent) not in seen:
                seen.add(id(parent))
                todo.append(parent)
    return [node for node in tape.nodes if id(node) in seen and node.requires_grad and not node._parents]


def _objective_tape(kind):
    """The tape of one training batch of ``kind``, with truncated neighborhoods, subtask and L2."""
    graph = make_graph(random_name_triples(np.random.default_rng(3), 14, 3, 40))
    n = graph.vocab.n_entities
    tcfg = TrainConfig(dim=6, neighbor_budget=3, l2_rate=0.01, subtask_enabled=True)
    acfg = AggregatorConfig(kind=kind, neighbor_budget=3)
    store = init_params(n, graph.n_relations, tcfg.dim, 0, with_lstm=acfg.uses_lstm)
    dense = mine_confidence(graph).dense() if acfg.needs_rules else None
    pos = graph.triplets[:8]
    neg = pos.copy()
    neg[:, 2] = (neg[:, 2] + 1) % n
    tape = ad.Tape()
    loss, _ = batch_objective(tape, store.leaves(tape), pos, neg, graph, dense, tcfg, acfg, "transe",
                              np.random.default_rng(0))
    return tape, loss


def _op_tape(name):
    params, build = FD_CASES[name]
    tape = ad.Tape()
    loss = build(tape, {k: tape.leaf(v.copy()) for k, v in params.items()})
    return tape, loss


@pytest.mark.parametrize("case", [("op", name) for name in sorted(FD_CASES)]
                         + [("objective", kind) for kind in AGGREGATOR_KINDS], ids="-".join)
def test_backward_leaves_every_gradient_private(case):
    source, name = case
    tape, loss = _op_tape(name) if source == "op" else _objective_tape(name)
    tape.backward(loss)
    held = [node for node in tape.nodes if node.grad is not None]
    assert held and held == _leaves_reached(tape, loss)
    _assert_gradients_private(tape)


@pytest.mark.parametrize("kind", AGGREGATOR_KINDS)
def test_only_the_leaves_the_loss_reaches_keep_a_gradient(kind):
    tape, loss = _objective_tape(kind)
    leaves = [node for node in tape.nodes if node.requires_grad and not node._parents]
    for _ in range(2):  # a repeated backward releases the same gradients
        tape.backward(loss)
        held = [node for node in tape.nodes if node.grad is not None]
        # the L2 penalty reaches the attention parameters, so the loss reaches every parameter
        assert held == _leaves_reached(tape, loss) == leaves and len(held) > 1
    assert loss.grad is None


def test_backward_frees_each_interior_gradient_as_it_goes():
    tape = ad.Tape()
    x = tape.leaf(r(34, 2000, 16))
    array = x.data.nbytes
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        y = x
        for _ in range(20):
            y = ad.tanh(tape, y)
        loss = ad.sum_all(tape, y)
        del y
        forward = tracemalloc.get_traced_memory()[0] - before
        tracemalloc.reset_peak()
        tape.backward(loss)
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert forward >= 20 * array  # the tape keeps every output
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
    tape = ad.Tape()
    real = ad.weighted_block_sum(tape, ad.Value(entries), ad.Value(w_real), offsets)
    padded = padded_grid_block_sum(entries, w, mask)
    np.testing.assert_allclose(real.data, padded, rtol=1e-15, atol=1e-15)
    np.testing.assert_array_equal(real.data[1], np.zeros(3))
    with pytest.raises(ValueError, match="real slots"):
        ad.weighted_block_sum(tape, ad.Value(grid), ad.Value(w_real), offsets)


def test_segment_ops_place_slots_by_offsets():
    tape = ad.Tape()
    offsets = np.array([0, 0, 2, 3])  # an empty row, then two slots, then one
    out = ad.weighted_block_sum(tape, ad.Value(np.eye(3)), ad.Value(np.array([1.0, 2.0, 3.0])), offsets)
    np.testing.assert_array_equal(out.data, [[0.0, 0.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 3.0]])
    p = ad.softmax_masked(tape, ad.Value(np.array([0.0, 0.0, 5.0])), offsets)
    np.testing.assert_array_equal(p.data, [0.5, 0.5, 1.0])
    with pytest.raises(ValueError, match="4 rows for 3 real slots"):
        ad.weighted_block_sum(tape, ad.Value(np.eye(4)), ad.Value(np.ones(3)), offsets)
    for bad in ([0, 2, 4], [0, 2, 1, 3], [1, 2, 3], [[0, 3]], []):
        with pytest.raises(ValueError, match="offsets must rise"):
            ad.weighted_block_sum(tape, ad.Value(np.eye(3)), ad.Value(np.ones(3)), bad)
        with pytest.raises(ValueError, match="offsets must rise"):
            ad.softmax_masked(tape, ad.Value(np.ones(3)), bad)
    with pytest.raises(ValueError, match=r"\(S,\) weights"):
        ad.weighted_block_sum(tape, ad.Value(np.eye(3)), ad.Value(np.eye(3)), offsets)
    with pytest.raises(ValueError, match=r"\(S,\) scores"):
        ad.softmax_masked(tape, ad.Value(np.ones((1, 3))), [0, 3])


def test_softmax_masked_rows_sum_to_one():
    tape = ad.Tape()
    mask = np.array([[1, 0, 1, 1], [1, 1, 0, 0]], bool)
    offsets, scores = grid_to_csr(mask, r(6, 2, 4))
    p = np.zeros(mask.shape)
    p[mask] = ad.softmax_masked(tape, ad.Value(scores), offsets).data
    np.testing.assert_allclose(p.sum(axis=1), [1.0, 1.0], rtol=0, atol=1e-15)
    assert (p[~mask] == 0.0).all()


def test_softmax_masked_gives_an_empty_row_no_slots():
    tape = ad.Tape()
    scores = tape.leaf(r(7, 3))
    p = ad.softmax_masked(tape, scores, np.array([0, 3, 3]))
    assert p.data.shape == (3,)
    np.testing.assert_allclose(p.data.sum(), 1.0, rtol=0, atol=1e-15)
    tape.backward(ad.sum_all(tape, ad.mul(tape, p, ad.Value(r(8, 3)))))
    assert scores.grad.shape == (3,)


def masked_mean(entries, mask):
    """The mean aggregator's output for one row of neighbors ``entries``.

    Zero transform vectors make the relation projection the identity.
    """
    tape = ad.Tape()
    k, d = entries.shape
    leaves = {"entity_emb": ad.Value(entries), "transform_vec": ad.Value(np.zeros((1, d)))}
    offsets, rels, ents = grid_to_csr(mask[None], np.zeros((1, k), np.int64), np.arange(k)[None])
    return encode_batch(tape, leaves, offsets, rels, ents, np.zeros(1, np.int64), AggregatorConfig(kind="mean"))


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
    tape = ad.Tape()
    out = ad.weighted_block_sum(tape, ad.Value(e), ad.Value(w.reshape(-1)), [0, 3, 6])
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
    tape = ad.Tape()
    out = ad.weighted_block_sum(tape, ad.Value(entries), ad.Value(w_real), offsets)
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
    tape = ad.Tape()
    leaves = [tape.leaf(a) for a in arrays]
    out = op(tape, *leaves, offsets)
    tape.backward(ad.sum_all(tape, ad.mul(tape, out, ad.Value(upstream))))
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


@pytest.mark.parametrize("op,a,b", [
    (ad.add, np.zeros(3), np.zeros(4)),
    (ad.mul, np.zeros((2, 3)), np.zeros((3, 2))),
    (ad.sub, np.zeros((2, 2)), np.zeros(2)),
    (ad.matvec, np.zeros((2, 3)), np.zeros(2)),
    (ad.matmul, np.zeros((2, 3)), np.zeros((2, 3))),
    (ad.row_dot, np.zeros((2, 3)), np.zeros((3, 3))),
    (ad.concat, np.zeros(3), np.zeros((2, 3))),
    (ad.col_scale, np.zeros((3, 2)), np.zeros(2)),
    (lambda tape, a, b: ad.concat(tape, a, b, axis=0), np.zeros((2, 3)), np.zeros((2, 4))),
    (lambda tape, a, b: ad.concat(tape, a, b, axis=2), np.zeros((2, 3)), np.zeros((2, 3))),
])
def test_shape_mismatches_rejected(op, a, b):
    tape = ad.Tape()
    with pytest.raises(ValueError):
        op(tape, ad.Value(a), ad.Value(b))


def test_narrow_range_checked():
    tape = ad.Tape()
    with pytest.raises(ValueError, match="narrow"):
        ad.narrow(tape, ad.Value(np.zeros(3)), 1, 5)


def test_backward_requires_scalar_loss():
    tape = ad.Tape()
    v = tape.leaf(np.zeros(3))
    with pytest.raises(ValueError, match="scalar"):
        tape.backward(v)


def test_backward_requires_loss_on_tape():
    tape = ad.Tape()
    tape.leaf(np.zeros(3))
    other = ad.Tape().leaf(np.zeros(()))
    with pytest.raises(ValueError, match="not a node"):
        tape.backward(other)


def test_backward_on_a_gradient_free_loss_clears_every_gradient():
    tape = ad.Tape()
    x = tape.leaf(r(30, 3))
    c = ad.Value(r(31, 3))
    tape.backward(ad.sum_all(tape, ad.mul(tape, x, c)))
    assert x.grad is not None
    free = ad.sum_all(tape, ad.mul(tape, c, c))
    assert not free.requires_grad and len(tape.nodes) == 3  # x, and the first loss with its product
    tape.backward(free)
    assert all(node.grad is None for node in tape.nodes)
    ad.Tape().backward(free)  # a gradient-free loss belongs to no tape, and sets nothing on any
    assert free.grad is None


def test_take_rows_gathers_the_bytes_of_fancy_indexing():
    m = r(32, 6, 5)
    m[1, 2], m[4, 0], m[5, 3] = -0.0, np.nan, np.inf
    tape = ad.Tape()
    for data in (m, m.T.copy().T, r(33, 5, 6).T):  # C order, Fortran order, a transposed view
        leaf = ad.Value(data)
        for idx in ([4, 1, 4, 5, 0], [], [5] * 3):
            got = ad.take_rows(tape, leaf, idx).data
            want = data[np.asarray(idx, dtype=np.int64)]
            assert got.tobytes() == want.tobytes() and got.strides == want.strides


def test_finite_difference_check_catches_wrong_gradient():
    def fn(arrs):
        tape = ad.Tape()
        x = tape.leaf(arrs["x"])
        loss = ad.l2_norm_sq(tape, x)
        tape.backward(loss)
        return loss.item(), {"x": 3.0 * x.grad}  # deliberately wrong

    ok, report = finite_difference_check(fn, {"x": r(10, 4)})
    assert not ok
    assert report["x"] > 1e-4


# --- property tests ----------------------------------------------------------

vec = arrays(np.float64, 5, elements=st.floats(-3, 3, allow_nan=False, width=32))


@given(a=vec, b=vec)
def test_add_commutes(a, b):
    tape = ad.Tape()
    left = ad.add(tape, ad.Value(a), ad.Value(b))
    right = ad.add(tape, ad.Value(b), ad.Value(a))
    np.testing.assert_array_equal(left.data, right.data)


@given(a=vec, b=vec)
@settings(max_examples=25)
def test_mul_gradients_cross(a, b):
    tape = ad.Tape()
    x = tape.leaf(a)
    y = tape.leaf(b)
    loss = ad.sum_all(tape, ad.mul(tape, x, y))
    tape.backward(loss)
    np.testing.assert_allclose(x.grad, b, rtol=0, atol=0)
    np.testing.assert_allclose(y.grad, a, rtol=0, atol=0)


@given(arrays(np.float64, (3, 4), elements=st.floats(-5, 5, allow_nan=False, width=32)))
def test_softmax_rows_are_distributions(scores):
    tape = ad.Tape()
    offsets, flat = grid_to_csr(np.ones((3, 4), bool), scores)
    p = ad.softmax_masked(tape, ad.Value(flat), offsets).data.reshape(3, 4)
    assert (p >= 0).all()
    np.testing.assert_allclose(p.sum(axis=1), np.ones(3), atol=1e-12)
