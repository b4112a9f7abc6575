"""Network core: parameter accounting, reproducible init, exact backprop."""

import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from splitfed import (
    Activation,
    CutOutOfRange,
    CutPoint,
    EmptyList,
    InvalidParam,
    LengthMismatch,
    MessageKind,
    ModelSpec,
    Protocol,
    ShapeMismatch,
    average_params,
    backward,
    cut_stats,
    forward,
    init_params,
    param_count,
    partition_dataset,
    random_dataset,
    run_split_training,
    sgd_step,
    split_params,
    splitmix64,
)
from splitfed.nn_core import (
    _backward_layers,
    _forward_layers,
    _mse_and_grad,
    centered_mean,
    fold_centered,
    layer_param_counts,
    mse_loss,
    uniform01,
    unpack_params,
)
from splitfed import nn_core

MASK64 = (1 << 64) - 1


def splitmix64_sequential(seed, count):
    """Step-by-step reference implementation, the oracle for the vectorized stream."""
    out = []
    state = seed & MASK64
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        out.append(z ^ (z >> 31))
    return out


# --- parameter accounting ----------------------------------------------------

def test_param_count_hand_counts():
    assert param_count(ModelSpec((4, 3, 2))) == 23  # 4*3+3 + 3*2+2
    assert param_count(ModelSpec((1, 1))) == 2
    assert param_count(ModelSpec((2, 5, 5, 1))) == 51  # 15 + 30 + 6


def test_layer_param_counts():
    assert layer_param_counts(ModelSpec((4, 3, 2))) == (15, 8)
    assert layer_param_counts(ModelSpec((2, 5, 5, 1))) == (15, 30, 6)


def test_model_spec_validation():
    with pytest.raises(InvalidParam):
        ModelSpec((4,))
    with pytest.raises(InvalidParam):
        ModelSpec((4, 0, 2))


def test_cut_stats_hand_counts():
    q, eta = cut_stats(ModelSpec((4, 3, 2)), 1)
    assert q == 3 and eta == Fraction(15, 23)
    q, eta = cut_stats(ModelSpec((2, 5, 5, 1)), CutPoint(2))
    assert q == 5 and eta == Fraction(45, 51)


def test_cut_out_of_range():
    with pytest.raises(CutOutOfRange):
        cut_stats(ModelSpec((1, 1)), 1)  # single weight layer has no interior cut
    spec = ModelSpec((4, 3, 2))
    with pytest.raises(CutOutOfRange):
        cut_stats(spec, 0)
    with pytest.raises(CutOutOfRange):
        cut_stats(spec, 2)


# --- splitmix64 and init -----------------------------------------------------

def test_splitmix64_matches_sequential_reference():
    for seed in (0, 1, 42, 0xDEADBEEF, (1 << 63) + 17, -5):
        got = [int(v) for v in splitmix64(seed, 64)]
        assert got == splitmix64_sequential(seed, 64)


def test_uniform01_range_and_determinism():
    u = uniform01(42, 10000)
    assert np.all(u >= 0.0) and np.all(u < 1.0)
    assert np.array_equal(u, uniform01(42, 10000))


def test_init_params_deterministic():
    spec = ModelSpec((4, 3, 2))
    assert np.array_equal(init_params(spec, 42), init_params(spec, 42))
    assert not np.array_equal(init_params(spec, 42), init_params(spec, 43))


def test_init_params_within_fan_in_bounds():
    spec = ModelSpec((4, 3, 2))
    v = init_params(spec, 42)
    assert v.size == 23
    first, second = v[:15], v[15:]
    assert np.all(np.abs(first) <= 1 / math.sqrt(4))
    assert np.all(np.abs(second) <= 1 / math.sqrt(3))


def test_random_dataset_shapes_and_range():
    spec = ModelSpec((4, 3, 2))
    x, y = random_dataset(spec, 6, 42)
    assert x.shape == (6, 4) and y.shape == (6, 2)
    assert np.all(np.abs(x) <= 1.0) and np.all(np.abs(y) <= 1.0)
    x2, y2 = random_dataset(spec, 6, 42)
    assert np.array_equal(x, x2) and np.array_equal(y, y2)


# --- forward -----------------------------------------------------------------

def test_forward_zero_net_zero_input():
    spec = ModelSpec((4, 3, 2), Activation.IDENTITY)
    trace = forward(spec, np.zeros(23), np.zeros((3, 4)))
    assert np.array_equal(trace.outputs, np.zeros((3, 2)))


def test_forward_single_affine_unit():
    spec = ModelSpec((1, 1), Activation.IDENTITY)
    w, b = 1.75, -0.25
    for x in (-2.0, 0.0, 3.5):
        out = forward(spec, np.array([w, b]), np.array([[x]])).outputs
        assert out[0, 0] == pytest.approx(w * x + b, rel=1e-15)


def test_forward_shape_mismatch():
    spec = ModelSpec((4, 3, 2))
    with pytest.raises(ShapeMismatch):
        forward(spec, init_params(spec, 1), np.zeros((3, 5)))
    with pytest.raises(LengthMismatch):
        forward(spec, np.zeros(10), np.zeros((3, 4)))


def _split_layers(spec, cut, params):
    """Client and server halves of ``params``, and one pass's layer views over them."""
    client, server = split_params(spec, cut, params)
    front, back = ModelSpec(spec.layer_widths[: cut + 1]), ModelSpec(spec.layer_widths[cut:])
    return client, server, unpack_params(front, client) + unpack_params(back, server)


@pytest.mark.parametrize("activation", list(Activation))
def test_split_forward_matches_monolithic_at_every_cut(activation):
    spec = ModelSpec((5, 4, 3, 2), activation)
    params = init_params(spec, 9)
    x, _ = random_dataset(spec, 7, 3)
    full = forward(spec, params, x)
    for cut in range(1, spec.weight_layers):
        _, _, layers = _split_layers(spec, cut, params)
        _, acts = _forward_layers(layers, spec.activation, x)
        assert acts[cut].shape == (7, spec.layer_widths[cut])
        assert np.array_equal(acts[cut], full.activations[cut])
        assert np.array_equal(acts[-1], full.outputs)


def test_smashed_scalar_count():
    spec = ModelSpec((4, 3, 2))
    x, y = random_dataset(spec, 3, 1)
    run = run_split_training(spec, 1, partition_dataset(x, y, 1), Protocol.SPLIT_SYNC,
                             epochs=1, lr=0.01, seed=42, batch_size=3)
    activations = [m.scalar_count for m in run.ledger if m.kind is MessageKind.ACTIVATIONS]
    assert activations == [9]  # 3 records x q=3


# --- backward ----------------------------------------------------------------

def test_backward_zero_everything():
    spec = ModelSpec((4, 3, 2), Activation.IDENTITY)
    result = backward(spec, np.zeros(23), np.zeros((2, 4)), np.zeros((2, 2)))
    assert result.loss == 0.0
    assert np.array_equal(result.param_grads, np.zeros(23))


def test_backward_single_unit_closed_form():
    # loss = mean((w x + b - y)^2); d/dw = mean(2 (w x + b - y) x), d/db = mean(2 (w x + b - y))
    spec = ModelSpec((1, 1), Activation.IDENTITY)
    w, b = 0.8, -0.3
    x = np.array([[0.5], [-1.0], [2.0]])
    y = np.array([[1.0], [0.0], [-0.5]])
    result = backward(spec, np.array([w, b]), x, y)
    resid = w * x + b - y
    assert result.loss == pytest.approx(float(np.mean(resid**2)), rel=1e-15)
    assert result.param_grads[0] == pytest.approx(float(np.mean(2 * resid * x)), rel=1e-14)
    assert result.param_grads[1] == pytest.approx(float(np.mean(2 * resid)), rel=1e-14)


def fd_gradient(spec, params, x, y, h=1e-5):
    g = np.zeros_like(params)
    for i in range(params.size):
        up = params.copy(); up[i] += h
        dn = params.copy(); dn[i] -= h
        lp = mse_loss(forward(spec, up, x).outputs, y)
        lm = mse_loss(forward(spec, dn, x).outputs, y)
        g[i] = (lp - lm) / (2 * h)
    return g


@pytest.mark.parametrize("activation", list(Activation))
@pytest.mark.parametrize("widths,batch,seed", [
    ((3, 5, 2), 4, 100),
    ((4, 3, 2), 1, 101),
    ((2, 5, 5, 1), 8, 102),
    ((8, 4, 3), 6, 103),
])
def test_gradient_matches_central_differences(activation, widths, batch, seed):
    spec = ModelSpec(widths, activation)
    params = init_params(spec, seed)
    x, y = random_dataset(spec, batch, seed + 1000)
    analytic = backward(spec, params, x, y).param_grads
    numeric = fd_gradient(spec, params, x, y)
    rel = np.abs(analytic - numeric) / np.maximum(np.abs(analytic) + np.abs(numeric), 1e-300)
    rel[(analytic == 0) & (numeric == 0)] = 0.0
    assert rel.max() < 1e-6, f"max relative gradient error {rel.max():.3e}"


@pytest.mark.parametrize("activation", list(Activation))
def test_split_backward_matches_monolithic_at_every_cut(activation):
    spec = ModelSpec((5, 4, 3, 2), activation)
    params = init_params(spec, 21)
    x, y = random_dataset(spec, 5, 22)
    mono = backward(spec, params, x, y)
    for cut in range(1, spec.weight_layers):
        _, _, layers = _split_layers(spec, cut, params)
        # NaN-filled buffers: every gradient scalar must be written by the pass
        client_g, server_g, grad_layers = _split_layers(spec, cut, np.full_like(params, np.nan))
        zs, acts = _forward_layers(layers, spec.activation, x)
        _, dout = _mse_and_grad(acts[-1], y)
        act_grads = _backward_layers(layers, spec.activation, zs, acts, dout, grad_layers)
        assert np.array_equal(np.concatenate([client_g, server_g]), mono.param_grads)
        # the tensor crossing the cut carries q scalars per record
        assert act_grads[cut].shape == (5, spec.layer_widths[cut])
        assert np.array_equal(act_grads[cut], mono.activation_grads[cut])


def test_backward_label_shape_mismatch():
    spec = ModelSpec((4, 3, 2))
    params = init_params(spec, 1)
    with pytest.raises(ShapeMismatch):
        backward(spec, params, np.zeros((3, 4)), np.zeros((3, 3)))
    with pytest.raises(ShapeMismatch):
        backward(spec, params, np.zeros((3, 4)), np.zeros((2, 2)))


# --- sgd and averaging -------------------------------------------------------

def test_sgd_step_examples():
    params = np.array([1.0, 2.0])
    assert np.array_equal(sgd_step(params, np.array([5.0, -3.0]), 0.0), params)
    assert np.array_equal(sgd_step(params, np.array([1.0, 1.0]), 0.5), np.array([0.5, 1.5]))
    with pytest.raises(LengthMismatch):
        sgd_step(params, np.array([1.0]), 0.1)
    # the step is taken in place
    params = np.array([1.0, 2.0])
    assert sgd_step(params, np.array([1.0, -1.0]), 0.5) is params
    assert np.array_equal(params, np.array([0.5, 2.5]))


def test_sgd_piecewise_matches_whole_vector():
    spec = ModelSpec((4, 3, 2))
    params = init_params(spec, 5)
    grads = backward(spec, params, *random_dataset(spec, 4, 6)).param_grads
    whole = sgd_step(params.copy(), grads.copy(), 0.1)  # the gradient is scratch to the step
    client_p, server_p = split_params(spec, 1, params)
    client_g, server_g = split_params(spec, 1, grads)
    pieces = np.concatenate([sgd_step(client_p, client_g, 0.1), sgd_step(server_p, server_g, 0.1)])
    assert np.array_equal(whole, pieces)


def test_average_params_examples():
    assert np.array_equal(average_params([np.array([1.0, 2.0]), np.array([3.0, 4.0])]),
                          np.array([2.0, 3.0]))


def test_average_of_identical_copies_is_bit_exact():
    v = init_params(ModelSpec((4, 3, 2)), 13)
    for k in (1, 2, 3, 5, 7):
        assert np.array_equal(average_params([v] * k), v)


def test_average_matches_summation_oracle():
    rng = np.random.default_rng(3)
    vectors = [rng.normal(size=50) for _ in range(3)]
    got = average_params(vectors)
    oracle = np.array([math.fsum(v[i] for v in vectors) / 3 for i in range(50)])
    # error relative to the data scale; a near-cancelling mean would make
    # component-relative error meaningless for any float summation
    scale = np.abs(np.stack(vectors)).max(axis=0)
    rel = np.abs(got - oracle) / np.maximum(scale, 1e-300)
    assert rel.max() < 1e-15


# Any double, infinities and NaN included, with signed zeros drawn often.
_SCALARS = st.one_of(st.sampled_from([0.0, -0.0]), st.floats())


# N >= 2: at N = 1 numpy sums a (K, 1) block's one column pairwise rather than
# row by row, so the stacked form is no reference there; every model has N >= 2.
@settings(max_examples=200, deadline=None)
@given(block=arrays(np.float64, st.tuples(st.integers(1, 40), st.integers(2, 8)), elements=_SCALARS),
       identical=st.booleans())
def test_fold_is_the_stacked_centered_mean_bit_for_bit(block, identical):
    k, size = block.shape
    vectors = [block[0]] * k if identical else list(block)
    base = vectors[0]
    total, out = np.empty(size), np.empty(size)
    with np.errstate(over="ignore", invalid="ignore"):  # sums may overflow, inf - inf is NaN
        stacked = base + (np.stack(vectors) - base).sum(axis=0) / k
        assert average_params(vectors).tobytes() == stacked.tobytes()
        # the federated round's use: the base buffer starts the sum, each later vector is scratch
        fold_centered(total, base, base)
        for v in vectors[1:]:
            fold_centered(total, v.copy(), base)
        assert centered_mean(base, total, k, out=out) is out
    assert out.tobytes() == stacked.tobytes()
    if identical:  # a centered mean of infinities is NaN, as base - base is
        assert np.array_equal(out[np.isfinite(base)], base[np.isfinite(base)])


# Any double, with the values a batch-1 outer product could get wrong drawn
# often: signed zeros (a product of -0.0 plus +0.0 is +0.0), the extreme
# subnormals and normals (products that underflow to a signed zero or
# overflow to infinity), infinities (inf * 0 is NaN) and NaN.
_KERNEL_SCALARS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                     math.inf, -math.inf, math.nan]),
    st.floats(),
)


@settings(max_examples=300, deadline=None)
@given(a=arrays(np.float64, st.tuples(st.just(1), st.integers(1, 64)), elements=_KERNEL_SCALARS),
       dz=arrays(np.float64, st.tuples(st.just(1), st.integers(1, 64)), elements=_KERNEL_SCALARS))
def test_batch_one_weight_gradient_is_matmul_bit_for_bit(a, dz):
    # One linear layer fed the record a, with dz as the loss gradient at its
    # output: the backward pass writes exactly a.T @ dz into the dW view.
    w, b = np.empty((a.shape[1], dz.shape[1])), np.empty(dz.shape[1])
    out, db = np.empty_like(w), np.empty_like(b)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        _backward_layers([(w, b)], Activation.SIGMOID, [None], [a, None], dz, [(out, db)])
        expected = np.matmul(a.T, dz)
    # Where both factors are NaN the product is NaN either way, but which
    # factor's payload it carries differs between numpy's kernels (and
    # between einsum's vector lanes and its scalar tail); every other entry,
    # NaN included, has the same 64 bits.
    both_nan = np.isnan(a.T) & np.isnan(dz)
    assert np.array_equal(out.view(np.int64)[~both_nan], expected.view(np.int64)[~both_nan])
    assert np.isnan(out[both_nan]).all()


def _matmul_einsum(subscripts, a, dz, out):
    return np.matmul(a.T, dz, out=out)


@settings(max_examples=300, deadline=None)
@given(widths=st.lists(st.integers(1, 3), min_size=2, max_size=5), batch=st.integers(1, 3),
       activation=st.sampled_from(Activation), data=st.data())
def test_training_step_products_have_matmul_bits(widths, batch, activation, data):
    # The whole step against the same step with the batch-1 kernel replaced by
    # matmul. Batches of 2 and 3 check that einsum is chosen at batch 1 only;
    # exact zeros are drawn often so that every sign of zero shows.
    values = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.0]),
                       st.floats(-1e3, 1e3, allow_nan=False))
    spec = ModelSpec(tuple(widths), activation)
    params = data.draw(arrays(np.float64, param_count(spec), elements=values))
    x = data.draw(arrays(np.float64, (batch, spec.input_width), elements=values))
    y = data.draw(arrays(np.float64, (batch, spec.output_width), elements=values))

    def step():
        layers, grads = unpack_params(spec, params), np.empty_like(params)
        zs, acts = _forward_layers(layers, activation, x)
        loss, dout = _mse_and_grad(acts[-1], y)
        act_grads = _backward_layers(layers, activation, zs, acts, dout, unpack_params(spec, grads))
        return [*zs, *acts, *act_grads[1:], grads]

    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        got = step()
        with mock.patch.object(nn_core, "_c_einsum", _matmul_einsum):
            expected = step()
    assert [a.tobytes() for a in got] == [a.tobytes() for a in expected]


def test_average_params_leaves_its_inputs_alone():
    vectors = [np.array([1.0, -0.0]), np.array([3.0, 5.0]), np.array([-2.0, 0.5])]
    copies = [v.copy() for v in vectors]
    average_params(vectors)
    assert all(v.tobytes() == c.tobytes() for v, c in zip(vectors, copies))


def test_average_errors():
    with pytest.raises(EmptyList):
        average_params([])
    with pytest.raises(LengthMismatch):
        average_params([np.zeros(3), np.zeros(4)])
