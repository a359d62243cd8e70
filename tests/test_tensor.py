"""Autodiff engine: value examples, gradient checks, tape mechanics."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ddm import tensor as T
from ddm.errors import ContractError, DimensionError, NumericError

from oracles import (check_gradients, conv2d_ref, finite_difference, rel_err,
                     softmax_rows)


def _probe_loss(out, probe):
    return (out * probe).sum()


# one builder per primitive; each returns (params, forward)

def _b_add(rng):
    a = T.parameter(rng.standard_normal((3, 4)))
    b = T.parameter(rng.standard_normal((4,)))  # broadcast over rows
    probe = rng.standard_normal((3, 4))
    return [a, b], lambda: _probe_loss(a + b, probe)


def _b_sub(rng):
    a = T.parameter(rng.standard_normal((2, 3)))
    b = T.parameter(rng.standard_normal((2, 1)))
    probe = rng.standard_normal((2, 3))
    return [a, b], lambda: _probe_loss(a - b, probe)


def _b_mul(rng):
    a = T.parameter(rng.standard_normal((2, 3, 4)))
    b = T.parameter(rng.standard_normal((3, 1)))
    probe = rng.standard_normal((2, 3, 4))
    return [a, b], lambda: _probe_loss(a * b, probe)


def _b_div(rng):
    a = T.parameter(rng.standard_normal((3, 3)))
    b = T.parameter(rng.uniform(0.5, 2.0, (3, 3)) * np.where(rng.random((3, 3)) < 0.5, -1, 1))
    probe = rng.standard_normal((3, 3))
    return [a, b], lambda: _probe_loss(a / b, probe)


def _b_matmul(rng):
    a = T.parameter(rng.standard_normal((3, 4)))
    b = T.parameter(rng.standard_normal((4, 5)))
    probe = rng.standard_normal((3, 5))
    return [a, b], lambda: _probe_loss(a @ b, probe)


def _b_matmul_batched(rng):
    a = T.parameter(rng.standard_normal((2, 5, 3, 4)))
    b = T.parameter(rng.standard_normal((5, 4, 2)))  # broadcast batch dim
    probe = rng.standard_normal((2, 5, 3, 2))
    return [a, b], lambda: _probe_loss(a @ b, probe)


def _b_relu(rng):
    x = T.parameter(rng.uniform(0.1, 1.0, (4, 4)) * np.where(rng.random((4, 4)) < 0.5, -1, 1))
    probe = rng.standard_normal((4, 4))
    return [x], lambda: _probe_loss(T.relu(x), probe)


def _b_exp(rng):
    x = T.parameter(rng.standard_normal((3, 3)))
    probe = rng.standard_normal((3, 3))
    return [x], lambda: _probe_loss(T.exp(x), probe)


def _b_log(rng):
    x = T.parameter(rng.uniform(0.5, 3.0, (3, 3)))
    probe = rng.standard_normal((3, 3))
    return [x], lambda: _probe_loss(T.log(x), probe)


def _b_sqrt(rng):
    x = T.parameter(rng.uniform(0.2, 2.0, (3, 3)))
    probe = rng.standard_normal((3, 3))
    return [x], lambda: _probe_loss(T.sqrt(x), probe)


def _b_square(rng):
    x = T.parameter(rng.standard_normal((3, 3)))
    probe = rng.standard_normal((3, 3))
    return [x], lambda: _probe_loss(T.square(x), probe)


def _b_absolute(rng):
    x = T.parameter(rng.uniform(0.1, 1.0, (4, 3)) * np.where(rng.random((4, 3)) < 0.5, -1, 1))
    probe = rng.standard_normal((4, 3))
    return [x], lambda: _probe_loss(T.absolute(x), probe)


def _b_sigmoid(rng):
    x = T.parameter(rng.standard_normal((3, 4)) * 2.0)
    probe = rng.standard_normal((3, 4))
    return [x], lambda: _probe_loss(T.sigmoid(x), probe)


def _b_softmax(rng):
    x = T.parameter(rng.standard_normal((2, 3, 5)))
    probe = rng.standard_normal((2, 3, 5))
    return [x], lambda: _probe_loss(T.softmax(x, axis=-1), probe)


def _b_layer_norm(rng):
    x = T.parameter(rng.standard_normal((2, 4, 6)))
    gain = T.parameter(rng.uniform(0.5, 1.5, 6))
    bias = T.parameter(rng.standard_normal(6))
    probe = rng.standard_normal((2, 4, 6))
    return [x, gain, bias], lambda: _probe_loss(
        T.layer_norm(x, gain, bias, eps=1e-6), probe)


def _b_clip(rng):
    # keep values away from the clip edges so the FD step stays one-sided
    x = T.parameter(np.where(rng.random((4, 4)) < 0.5,
                             rng.uniform(-3.0, -1.5, (4, 4)),
                             rng.uniform(-0.8, 0.8, (4, 4))))
    probe = rng.standard_normal((4, 4))
    return [x], lambda: _probe_loss(T.clip(x, -1.0, 1.0), probe)


def _b_sum(rng):
    x = T.parameter(rng.standard_normal((2, 3, 4)))
    probe = rng.standard_normal((3,))
    return [x], lambda: _probe_loss(x.sum(axis=(0, 2)), probe)


def _b_mean(rng):
    x = T.parameter(rng.standard_normal((2, 3, 4)))
    probe = rng.standard_normal((2, 1, 4))
    return [x], lambda: _probe_loss(x.mean(axis=1, keepdims=True), probe)


def _b_max(rng):
    x = T.parameter(rng.permutation(24).reshape(4, 6) * 0.37)
    probe = rng.standard_normal((4,))
    return [x], lambda: _probe_loss(x.max(axis=1), probe)


def _b_reshape_transpose_take(rng):
    x = T.parameter(rng.standard_normal((4, 6)))
    probe = rng.standard_normal((2, 2))
    return [x], lambda: _probe_loss(
        x.reshape(2, 3, 4).transpose(2, 0, 1)[1:3, :, 0], probe)


def _b_take_repeated(rng):
    # index arrays may pick one row several times; its gradient must add up
    x = T.parameter(rng.standard_normal((4, 3)))
    probe = rng.standard_normal((5, 2))
    rows = np.array([0, 0, 2, 3, 0])
    return [x], lambda: _probe_loss(x[rows, 1:], probe)


def _b_concat(rng):
    a = T.parameter(rng.standard_normal((2, 3)))
    b = T.parameter(rng.standard_normal((2, 2)))
    probe = rng.standard_normal((2, 5))
    return [a, b], lambda: _probe_loss(T.concatenate([a, b], axis=1), probe)


def _b_conv1d(rng):
    x = T.parameter(rng.standard_normal((2, 7, 3)))
    w = T.parameter(rng.standard_normal((3, 3, 4)) * 0.5)
    b = T.parameter(rng.standard_normal(4))
    probe = rng.standard_normal((2, 7, 4))
    return [x, w, b], lambda: _probe_loss(T.conv1d(x, w, b), probe)


def _b_conv1d_edge_dilated(rng):
    x = T.parameter(rng.standard_normal((2, 9, 2)))
    w = T.parameter(rng.standard_normal((3, 2, 2)) * 0.5)
    b = T.parameter(rng.standard_normal(2))
    probe = rng.standard_normal((2, 9, 2))
    return [x, w, b], lambda: _probe_loss(
        T.conv1d(x, w, b, dilation=2, pad_mode="edge"), probe)


def _b_conv2d(rng):
    x = T.parameter(rng.standard_normal((2, 5, 4, 3)))
    w = T.parameter(rng.standard_normal((3, 3, 3, 2)) * 0.4)
    b = T.parameter(rng.standard_normal(2))
    probe = rng.standard_normal((2, 5, 4, 2))
    return [x, w, b], lambda: _probe_loss(T.conv2d(x, w, b), probe)


def _b_conv2d_edge_dilated(rng):
    # a 3x3 kernel at dilation 2 pads two cells on every side, so the
    # replicated corner blocks fold back onto the corner cells on both axes
    x = T.parameter(rng.standard_normal((2, 4, 5, 2)))
    w = T.parameter(rng.standard_normal((3, 3, 2, 2)) * 0.4)
    b = T.parameter(rng.standard_normal(2))
    probe = rng.standard_normal((2, 4, 5, 2))
    return [x, w, b], lambda: _probe_loss(
        T.conv2d(x, w, b, dilation=2, pad_mode="edge"), probe)


PRIMITIVES = {
    "add": _b_add, "sub": _b_sub, "mul": _b_mul, "div": _b_div,
    "matmul": _b_matmul, "matmul_batched": _b_matmul_batched,
    "relu": _b_relu, "exp": _b_exp, "log": _b_log, "sqrt": _b_sqrt,
    "square": _b_square, "absolute": _b_absolute, "sigmoid": _b_sigmoid,
    "softmax": _b_softmax, "layer_norm": _b_layer_norm, "clip": _b_clip,
    "sum": _b_sum, "mean": _b_mean, "max": _b_max,
    "reshape_transpose_take": _b_reshape_transpose_take,
    "take_repeated": _b_take_repeated,
    "concat": _b_concat, "conv1d": _b_conv1d,
    "conv1d_edge_dilated": _b_conv1d_edge_dilated, "conv2d": _b_conv2d,
    "conv2d_edge_dilated": _b_conv2d_edge_dilated,
}


@pytest.mark.parametrize("name", sorted(PRIMITIVES))
def test_primitive_gradients(name):
    check_gradients(PRIMITIVES[name], seeds=range(3))


# -- value examples ---------------------------------------------------------


def test_matmul_example():
    out = T.Tensor([[1.0, 2.0]]) @ T.Tensor([[3.0], [4.0]])
    assert out.data.tolist() == [[11.0]]


def test_matmul_shape_mismatch():
    with pytest.raises(DimensionError):
        T.Tensor(np.ones((2, 3))) @ T.Tensor(np.ones((4, 2)))


def test_softmax_large_inputs_no_overflow():
    out = T.softmax(T.Tensor([1000.0, 1000.0]), axis=-1)
    assert np.allclose(out.data, [0.5, 0.5], atol=0, rtol=0)


def test_softmax_nonfinite_rejected():
    with pytest.raises(NumericError):
        T.softmax(T.Tensor([np.inf, 0.0]), axis=-1)


def test_softmax_matches_reference():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((3, 4, 5)) * 3.0
    out = T.softmax(T.Tensor(x), axis=-1)
    assert np.max(np.abs(out.data - softmax_rows(x))) < 1e-12


def test_layer_norm_two_point_example():
    out = T.layer_norm(T.Tensor([-1.0, 1.0]), T.Tensor([1.0, 1.0]),
                       T.Tensor([0.0, 0.0]), eps=1e-12)
    assert np.allclose(out.data, [-1.0, 1.0], atol=1e-9)


def test_layer_norm_statistics():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(8) * 2.0 + 1.0
    out = T.layer_norm(T.Tensor(x), T.Tensor(np.ones(8)),
                       T.Tensor(np.zeros(8)), eps=1e-10).data
    assert abs(out.mean()) <= 1e-9
    assert abs(out.var() - 1.0) <= 1e-6


def test_layer_norm_empty_axis_rejected():
    with pytest.raises(DimensionError):
        T.layer_norm(T.Tensor(np.zeros((2, 0))), T.Tensor(np.zeros(0)),
                     T.Tensor(np.zeros(0)))


def test_sqrt_zero_gradient_guard():
    x = T.parameter([0.0, 4.0])
    T.backward(T.sqrt(x).sum())
    assert x.grad.tolist() == [0.0, 0.25]


def test_max_tie_gradient_goes_to_first():
    x = T.parameter([[2.0, 5.0, 5.0, 1.0]])
    T.backward(x.max(axis=1).sum())
    assert x.grad.tolist() == [[0.0, 1.0, 0.0, 0.0]]


def test_take_repeated_index_gradient_accumulates():
    x = T.parameter([1.0, 2.0, 3.0])
    T.backward(x[np.array([0, 0, 2])].sum())
    assert x.grad.tolist() == [2.0, 0.0, 1.0]


def test_conv2d_ones_count_in_bounds_neighbourhood():
    x = T.Tensor(np.ones((1, 2, 2, 1)))
    w = T.Tensor(np.ones((3, 3, 1, 1)))
    out = T.conv2d(x, w)
    assert out.data.reshape(2, 2).tolist() == [[4.0, 4.0], [4.0, 4.0]]


def test_conv1d_identity_kernel_preserves_input():
    rng = np.random.default_rng(11)
    x = rng.uniform(0.1, 1.0, (2, 6, 3))
    w = np.zeros((3, 3, 3))
    w[1] = np.eye(3)
    out = T.conv1d(T.Tensor(x), T.Tensor(w), T.Tensor(np.zeros(3)))
    assert np.array_equal(out.data, x)


def test_conv1d_edge_padding_keeps_constant_sequences_constant():
    rng = np.random.default_rng(5)
    w = rng.standard_normal((3, 2, 2))
    x = np.broadcast_to(np.array([0.3, -0.7]), (1, 8, 2)).copy()
    out = T.conv1d(T.Tensor(x), T.Tensor(w), dilation=2, pad_mode="edge").data
    assert np.max(np.abs(out - out[:, :1, :])) == 0.0


@pytest.mark.parametrize("call, error", [
    (lambda: T.conv1d(np.zeros((1, 4, 2)), np.zeros((2, 2, 2))),
     DimensionError),
    (lambda: T.conv2d(np.zeros((1, 4, 4, 2)), np.zeros((3, 2, 2, 2))),
     DimensionError),
    (lambda: T.conv1d(np.zeros((1, 4, 2)), np.zeros((3, 2, 2)),
                      pad_mode="reflect"), ContractError),
    (lambda: T.conv2d(np.zeros((1, 4, 4, 2)), np.zeros((3, 3, 2, 2)),
                      pad_mode="reflect"), ContractError),
], ids=["conv1d-even", "conv2d-even", "conv1d-pad-mode", "conv2d-pad-mode"])
def test_conv_rejects_even_kernel_and_unknown_pad_mode(call, error):
    with pytest.raises(error):
        call()


# (input shape, kernel shape, dilation, pad mode): each input spans several
# row chunks of conv2d, split unevenly (7 frames into 2 + 2 + 3, 301 into
# 150 + 151); the 1 x K kernels on height-1 inputs are conv1d's view
CONV_CASES = [
    pytest.param((7, 30, 40, 2), (3, 3, 2, 3), 1, "zero", id="3x3-zero"),
    pytest.param((7, 30, 40, 2), (3, 3, 2, 3), 2, "edge", id="3x3-edge-dil2"),
    pytest.param((301, 1, 25, 3), (1, 3, 3, 4), 2, "edge", id="1x3-edge-dil2"),
    pytest.param((301, 1, 25, 3), (1, 5, 3, 4), 1, "zero", id="1x5-zero"),
]


@pytest.mark.parametrize("xshape, wshape, dilation, pad_mode", CONV_CASES)
def test_conv2d_matches_direct_sum(xshape, wshape, dilation, pad_mode):
    n, h, wd, _ = xshape
    assert len(T._frame_chunks(n, h * wd)) > 1
    rng = np.random.default_rng(3)
    x = T.parameter(rng.standard_normal(xshape))
    w = T.parameter(rng.standard_normal(wshape))
    b = T.parameter(rng.standard_normal(wshape[-1]))
    probe = rng.standard_normal((n, h, wd, wshape[-1]))
    y = T.conv2d(x, w, b, dilation, pad_mode)
    T.backward((y * probe).sum())
    want = conv2d_ref(x.data, w.data, b.data, dilation, pad_mode, probe)
    for got, ref in zip((y.data, x.grad, w.grad, b.grad), want):
        assert rel_err(got, ref) <= 1e-12


def test_conv2d_skips_the_input_gradient_nobody_reads():
    rng = np.random.default_rng(4)
    xd = rng.standard_normal((7, 30, 40, 3))
    wd, bd = rng.standard_normal((3, 3, 3, 5)), rng.standard_normal(5)
    grads = {}
    for needs in (True, False):
        x = T.Tensor(xd, requires_grad=needs)
        w, b = T.parameter(wd), T.parameter(bd)
        T.backward(T.square(T.conv2d(x, w, b)).sum())
        grads[needs] = (x.grad, w.grad.tobytes(), b.grad.tobytes())
    assert grads[True][0] is not None and grads[False][0] is None
    assert grads[True][1:] == grads[False][1:]


# (input shape, weight shape) of every matmul with a 2-D weight that the
# paper and desk presets run in training, plus one transposed-input case
MATMUL_WEIGHT_CASES = [
    ((4, 5, 256), (256, 256)), ((4, 11, 256), (256, 256)),
    ((4, 5, 256), (256, 512)), ((4, 5, 512), (512, 256)),
    ((1, 5, 256), (256, 256)), ((4, 11, 11, 256), (256, 256)),
    ((4, 11, 11, 256), (256, 1)), ((4, 256), (256, 2)),
    ((32, 5, 64), (64, 64)), ((1, 5, 64), (64, 64)),
    ((32, 11, 64), (64, 64)), ((32, 5, 64), (64, 128)),
    ((32, 5, 128), (128, 64)), ((32, 11, 11, 64), (64, 64)),
    ((32, 11, 11, 64), (64, 1)), ((32, 64), (64, 2)),
]


@pytest.mark.parametrize("ashape, bshape", MATMUL_WEIGHT_CASES)
@pytest.mark.parametrize("transposed", [False, True])
def test_matmul_weight_gradient_is_the_stacked_sum_bitwise(ashape, bshape,
                                                           transposed):
    rng = np.random.default_rng(7)
    ad = rng.standard_normal(ashape)
    if transposed:  # same values, last two axes not C-ordered
        ad = np.ascontiguousarray(np.swapaxes(ad, -1, -2)).swapaxes(-1, -2)
    a, b = T.parameter(ad), T.parameter(rng.standard_normal(bshape))
    probe = rng.standard_normal(ashape[:-1] + bshape[-1:])
    T.backward((T.matmul(a, b) * probe).sum())
    stacked = np.matmul(np.swapaxes(ad, -1, -2), probe)
    want = stacked.sum(axis=tuple(range(len(ashape) - 2))) + 0.0
    assert b.grad.tobytes() == want.tobytes()


def test_matmul_weight_gradient_rule_splits_the_preset_weights():
    sliced = {bshape for ashape, bshape in MATMUL_WEIGHT_CASES
              if len(ashape) > 2 and np.prod(bshape) >= T._SLICED_WEIGHT_GRAD}
    assert sliced == {(256, 256), (256, 512), (512, 256)}


def test_leaf_gradient_is_g_plus_zeros_bitwise():
    signed = np.array([-0.0, 0.0, -1.5, 2.0])
    p = T.parameter(np.ones(4))
    T.backward((p * signed).sum())
    want = signed + np.zeros_like(signed)
    assert p.grad.tobytes() == want.tobytes()
    assert not np.signbit(p.grad[0])
    assert p.grad.flags.writeable and p.grad.flags.owndata


def test_leaves_fed_by_one_add_get_their_own_arrays():
    p, q = T.parameter(np.zeros((2, 3))), T.parameter(np.zeros((2, 3)))
    T.backward((p + q).sum())
    assert not np.shares_memory(p.grad, q.grad)
    for leaf in (p, q):
        assert leaf.grad.flags.writeable and leaf.grad.flags.owndata
        assert leaf.grad.tolist() == [[1.0] * 3] * 2


# -- tape mechanics ---------------------------------------------------------


def test_backward_releases_each_record_before_running_it():
    x = T.parameter([1.0, 2.0])
    a = x * 2.0
    seen = []

    def bw(g):
        tape = T._nodes()
        seen.append((all(node is None for node in tape[slot:]),
                     all(node is not None for node in tape[:slot])))
        return (g,)

    probe = T._record(T.Tensor(a.data), (a,), bw)
    slot = probe.node_id
    T.backward((probe * 3.0).sum())
    assert seen == [(True, True)]
    assert x.grad.tolist() == [6.0, 6.0]


def test_backward_that_raises_midway_still_empties_the_tape():
    x = T.parameter([1.0, 2.0])
    a = x * 2.0

    def bw(g):
        raise NumericError("backward failed midway")

    b = T._record(T.Tensor(a.data), (a,), bw)
    c = b * 3.0
    loss = c.sum()
    with pytest.raises(NumericError):
        T.backward(loss)
    assert T._nodes() == []
    assert [t.node_id for t in (a, b, c, loss)] == [None] * 4
    assert x.grad is None


def test_gradient_accumulates_when_input_reused():
    x = T.parameter([3.0])
    T.backward((x * x).sum())  # d/dx x^2 = 2x
    assert x.grad.tolist() == [6.0]


def test_leaf_grad_accumulates_across_backwards():
    x = T.parameter([1.0, 2.0])
    T.backward(x.sum())
    T.backward((2.0 * x).sum())
    assert x.grad.tolist() == [3.0, 3.0]


def test_backward_consumes_tape():
    x = T.parameter([2.0])
    y = (x * 3.0).sum()
    T.backward(y)
    with pytest.raises(ContractError):
        T.backward(y)


def test_backward_rejects_non_scalar_root():
    x = T.parameter([1.0, 2.0])
    with pytest.raises(ContractError):
        T.backward(x * 2.0)


def test_backward_rejects_disconnected_root():
    with pytest.raises(ContractError):
        T.backward(T.Tensor(1.0))


def test_no_grad_suppresses_recording():
    x = T.parameter([1.0])
    with T.no_grad():
        y = x * 2.0
    assert y.node_id is None and not y.requires_grad
    x.grad = None


def test_operations_are_pure_and_deterministic():
    rng = np.random.default_rng(0)
    x = np.tile(rng.standard_normal((6, 6))[None, :, :, None], (1, 1, 1, 6))
    w = rng.standard_normal((3, 3, 6, 4))
    before = x.copy()
    first = T.conv2d(T.Tensor(x), T.Tensor(w)).data
    second = T.conv2d(T.Tensor(x), T.Tensor(w)).data
    assert first.tobytes() == second.tobytes()
    assert np.array_equal(x, before)


def test_unbroadcast_gradient_shapes():
    a = T.parameter(np.ones((3, 4)))
    b = T.parameter(np.ones((4,)))
    T.backward((a + b).sum())
    assert a.grad.shape == (3, 4) and b.grad.shape == (4,)
    assert b.grad.tolist() == [3.0, 3.0, 3.0, 3.0]


# -- property tests ---------------------------------------------------------


@settings(deadline=None, max_examples=50)
@given(st.lists(st.floats(-50, 50), min_size=2, max_size=8))
def test_softmax_rows_sum_to_one(row):
    out = T.softmax(T.Tensor(row), axis=-1)
    assert abs(out.data.sum() - 1.0) <= 1e-9
    assert np.all(out.data >= 0.0)


@settings(deadline=None, max_examples=50)
@given(st.integers(0, 2 ** 31 - 1), st.integers(2, 6), st.integers(2, 6))
def test_sum_then_mean_consistency(seed, rows, cols):
    rng = np.random.default_rng(seed)
    x = T.Tensor(rng.standard_normal((rows, cols)))
    total = x.sum().item()
    avg = x.mean().item()
    assert abs(total / (rows * cols) - avg) <= 1e-12


def test_finite_difference_helper_on_known_quadratic():
    # sanity-check the oracle itself: d/dx sum(x^2) = 2x
    x = np.array([1.0, -2.0, 0.5])
    (fd,) = finite_difference(lambda: float((x ** 2).sum()), [x])
    assert rel_err(fd, 2 * x) <= 1e-6
