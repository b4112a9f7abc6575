"""Network core: parameter accounting, reproducible init, exact backprop."""

import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from splitfed import (
    Activation,
    CutOutOfRange,
    InvalidParam,
    LengthMismatch,
    MessageKind,
    ModelSpec,
    Protocol,
    cut_stats,
    init_params,
    param_count,
    partition_dataset,
    random_dataset,
    run_split_training,
    splitmix64,
)
from splitfed.nn_core import (
    StepPlan,
    _mse_and_grad,
    batch_losses,
    centered_mean,
    client_param_count,
    fold_centered,
    layer_param_counts,
    sgd_step,
    uniform01,
    unpack_params,
)
from splitfed import nn_core

import _stream
from _step import activations, flat_gradient, gradients, loss, planned
from _step import sgd_step as whole_vector_step

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


def test_client_param_count_is_the_layers_before_the_cut():
    spec = ModelSpec((2, 5, 5, 1))
    assert [client_param_count(spec, cut) for cut in (1, 2)] == [15, 45]
    assert client_param_count(ModelSpec((4, 3, 2)), 1) == 15
    for cut in (0, 3):
        with pytest.raises(CutOutOfRange):
            client_param_count(spec, cut)


def test_model_spec_validation():
    with pytest.raises(InvalidParam):
        ModelSpec((4,))
    with pytest.raises(InvalidParam):
        ModelSpec((4, 0, 2))


def test_cut_stats_hand_counts():
    q, eta = cut_stats(ModelSpec((4, 3, 2)), 1)
    assert q == 3 and eta == Fraction(15, 23)
    q, eta = cut_stats(ModelSpec((2, 5, 5, 1)), 2)
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


# --- the stream in blocks ----------------------------------------------------

BLOCK = nn_core.STREAM_BLOCK
# No count, one, either side of a block edge, and several blocks plus a remainder.
STREAM_COUNTS = [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 1234]
STREAM_SEEDS = st.one_of(
    st.sampled_from([0, MASK64, -1, -(1 << 70) - 3, (1 << 64) + 5, (1 << 200) + 17]),
    st.integers(-(1 << 80), 1 << 80),
)


def same_bits(got, want):
    return (got.dtype == want.dtype and got.shape == want.shape
            and np.array_equal(got.view(np.int64), want.view(np.int64)))


@settings(max_examples=40, deadline=None)
@given(seed=STREAM_SEEDS, count=st.sampled_from(STREAM_COUNTS))
def test_blocked_stream_matches_the_whole_vector_stream(seed, count):
    assert same_bits(splitmix64(seed, count), _stream.splitmix64(seed, count))
    assert same_bits(uniform01(seed, count), _stream.uniform01(seed, count))


@settings(max_examples=40, deadline=None)
@given(seed=STREAM_SEEDS, size=st.sampled_from(STREAM_COUNTS[2:]), records=st.integers(0, 4000),
       widths=st.sampled_from([(4, 3, 2), (16, 8, 4), (180, 300, 40)]))
def test_blocked_init_params_and_random_dataset_match_the_whole_vector_ones(seed, size, records, widths):
    # A (size - 1, 1) model holds ``size`` parameters, and one record of it
    # ``size`` scalars; (180, 300, 40) has a layer edge inside a block and a
    # layer that crosses a block edge.
    for spec, count in ((ModelSpec((size - 1, 1)), 1), (ModelSpec(widths), records)):
        assert same_bits(init_params(spec, seed), _stream.init_params(spec, seed))
        for got, want in zip(random_dataset(spec, count, seed), _stream.random_dataset(spec, count, seed)):
            assert same_bits(got, want)


def test_stream_users_peak_at_their_output_plus_two_blocks():
    # Both write the stream into the vector they return, with two uint64
    # block temporaries; the whole-vector forms peaked at about 3x the output.
    allowance = 4 * 8 * BLOCK

    def peak_above_start(make):
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            make()
            return tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()

    spec = ModelSpec((999, 1000))  # N = 1,000,000
    assert peak_above_start(lambda: init_params(spec, 3)) <= 8 * param_count(spec) + allowance
    data = ModelSpec((16, 8, 4))
    assert peak_above_start(lambda: random_dataset(data, 50_000, 3)) <= 8 * 50_000 * 20 + allowance


# --- forward -----------------------------------------------------------------

def test_forward_zero_net_zero_input():
    spec = ModelSpec((4, 3, 2), Activation.IDENTITY)
    outputs = activations(spec, np.zeros(23), np.zeros((3, 4)))[-1]
    assert np.array_equal(outputs, np.zeros((3, 2)))


def test_forward_single_affine_unit():
    spec = ModelSpec((1, 1), Activation.IDENTITY)
    w, b = 1.75, -0.25
    for x in (-2.0, 0.0, 3.5):
        out = activations(spec, np.array([w, b]), np.array([[x]]))[-1]
        assert out[0, 0] == pytest.approx(w * x + b, rel=1e-15)


def test_unpack_params_checks_length():
    spec = ModelSpec((4, 3, 2))
    layers = unpack_params(spec, np.arange(23.0))
    assert [(w.shape, b.shape) for w, b in layers] == [((4, 3), (3,)), ((3, 2), (2,))]
    assert layers[1][1].tolist() == [21.0, 22.0]  # weights before bias, layer-major
    for bad in (np.zeros(10), np.zeros(24), np.zeros((23, 1))):
        with pytest.raises(LengthMismatch):
            unpack_params(spec, bad)


def _stitched(spec, cut, params):
    """``params`` as a split run holds it: the client's front and the server's
    back, held apart, each unpacked under its own half of the widths (a client
    count off the cut's layer boundary raises ``LengthMismatch``), and their
    layers laid back, in order, into the one working vector a step plan runs on."""
    n_client = client_param_count(spec, cut)
    front, back = ModelSpec(spec.layer_widths[: cut + 1]), ModelSpec(spec.layer_widths[cut:])
    layers = unpack_params(front, params[:n_client].copy()) + unpack_params(back, params[n_client:].copy())
    return np.concatenate([a.ravel() for layer in layers for a in layer])


@pytest.mark.parametrize("activation", list(Activation))
def test_split_forward_matches_monolithic_at_every_cut(activation):
    spec = ModelSpec((5, 4, 3, 2), activation)
    params = init_params(spec, 9)
    x, _ = random_dataset(spec, 7, 3)
    full = activations(spec, params, x)
    for cut in range(1, spec.weight_layers):
        acts = activations(spec, _stitched(spec, cut, params), x)
        assert acts[cut].shape == (7, spec.layer_widths[cut])
        assert np.array_equal(acts[cut], full[cut])
        assert np.array_equal(acts[-1], full[-1])


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
    value, grads, _ = gradients(spec, np.zeros(23), np.zeros((2, 4)), np.zeros((2, 2)))
    assert value == 0.0
    assert np.array_equal(grads, np.zeros(23))


def test_backward_single_unit_closed_form():
    # loss = mean((w x + b - y)^2); d/dw = mean(2 (w x + b - y) x), d/db = mean(2 (w x + b - y))
    spec = ModelSpec((1, 1), Activation.IDENTITY)
    w, b = 0.8, -0.3
    x = np.array([[0.5], [-1.0], [2.0]])
    y = np.array([[1.0], [0.0], [-0.5]])
    value, grads, _ = gradients(spec, np.array([w, b]), x, y)
    resid = w * x + b - y
    assert value == pytest.approx(float(np.mean(resid**2)), rel=1e-15)
    assert grads[0] == pytest.approx(float(np.mean(2 * resid * x)), rel=1e-14)
    assert grads[1] == pytest.approx(float(np.mean(2 * resid)), rel=1e-14)


def fd_gradient(spec, params, x, y, h=1e-5):
    g = np.zeros_like(params)
    for i in range(params.size):
        up = params.copy(); up[i] += h
        dn = params.copy(); dn[i] -= h
        g[i] = (loss(spec, up, x, y) - loss(spec, dn, x, y)) / (2 * h)
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
    analytic = gradients(spec, params, x, y)[1]
    numeric = fd_gradient(spec, params, x, y)
    rel = np.abs(analytic - numeric) / np.maximum(np.abs(analytic) + np.abs(numeric), 1e-300)
    rel[(analytic == 0) & (numeric == 0)] = 0.0
    assert rel.max() < 1e-6, f"max relative gradient error {rel.max():.3e}"


@pytest.mark.parametrize("activation", list(Activation))
def test_split_backward_matches_monolithic_at_every_cut(activation):
    spec = ModelSpec((5, 4, 3, 2), activation)
    params = init_params(spec, 21)
    x, y = random_dataset(spec, 5, 22)
    _, mono_grads, mono_act_grads = gradients(spec, params, x, y)
    for cut in range(1, spec.weight_layers):
        plan = planned(spec, _stitched(spec, cut, params), x, y)
        act_grads = plan.act_grads
        assert np.array_equal(flat_gradient(spec, plan.acts, plan.dzs), mono_grads)
        # the tensor crossing the cut carries q scalars per record
        assert act_grads[cut].shape == (5, spec.layer_widths[cut])
        assert np.array_equal(act_grads[cut], mono_act_grads[cut])


# --- sgd and averaging -------------------------------------------------------

def _blocked_step(spec, params, x, y, lr, block=nn_core.SGD_BLOCK):
    """One training step on ``params`` in place, as ``_local_pass`` takes it: forward,
    backward, then ``sgd_step`` through a plan for the batch's records with SGD
    blocks of ``block`` scalars. The scratch starts as NaN, so a scalar the step
    does not write shows. Returns (params, plan)."""
    plan = planned(spec, params, x, y, block)
    plan.scratch.fill(np.nan)
    sgd_step(plan, lr)
    return params, plan


def test_sgd_step_examples():
    # one unit: out = w x + b, dout = 2 (out - y), dW = x dout, db = dout
    spec = ModelSpec((1, 1), Activation.IDENTITY)
    x, y = np.array([[1.0]]), np.array([[0.0]])  # w = 1, b = 2: out 3, dout 6, dW = db = 6
    params = np.array([1.0, 2.0])
    _blocked_step(spec, params, x, y, 0.0)
    assert np.array_equal(params, [1.0, 2.0])
    _blocked_step(spec, params, x, y, 0.5)
    assert np.array_equal(params, [-2.0, -1.0])  # the step is taken in place
    with pytest.raises(LengthMismatch):
        StepPlan(spec, np.zeros(3), 1)


def test_sgd_piecewise_matches_whole_vector():
    # Every block size from one scalar to past N, for every activation: at one
    # record (blocks cut between the rows of each layer's weights-then-bias
    # block; a batch-4 run's one-record remainder has such a plan of its own)
    # and at batch 4 (blocks cut between whole weight matrices and biases).
    for activation in Activation:
        spec = ModelSpec((4, 3, 2), activation)
        params = init_params(spec, 5)
        for records in (1, 4):
            x, y = random_dataset(spec, records, 6)
            whole = whole_vector_step(params.copy(), gradients(spec, params, x, y)[1], 0.1)
            for block in range(1, param_count(spec) + 2):
                stepped = _blocked_step(spec, params.copy(), x, y, 0.1, block)[0]
                assert np.array_equal(stepped, whole), (activation, records, block)


def _unit_widths(spec, records):
    """Widths of the pieces a block plan never cuts, in flat order."""
    units = []
    for n_in, n_out in zip(spec.layer_widths, spec.layer_widths[1:]):
        units += [n_out] * (n_in + 1) if records == 1 else [n_in * n_out, n_out]
    return units


# Exact zeros of both signs drawn often, so that every sign of zero shows.
_STEP_VALUES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.0]),
                         st.floats(-1e3, 1e3, allow_nan=False))


@settings(max_examples=300, deadline=None)
@given(widths=st.lists(st.integers(1, 9), min_size=2, max_size=5), batch_size=st.integers(1, 4),
       activation=st.sampled_from(Activation), data=st.data())
def test_blocked_sgd_step_is_the_whole_vector_step_bit_for_bit(widths, batch_size, activation, data):
    # The blocked step against params - lr * grads over the whole vector, with
    # grads formed layer by layer by the same kernels. Block sizes: 1 (every
    # weight row wider than its block), sizes that cut a layer between rows at
    # one record, and N or more (one block).
    spec = ModelSpec(tuple(widths), activation)
    n = param_count(spec)
    block = data.draw(st.one_of(st.just(1), st.integers(2, n), st.integers(n, 2 * n)))
    records = data.draw(st.sampled_from(sorted({1, batch_size})))  # a full batch, or a one-record remainder
    lr = data.draw(st.sampled_from([0.0, 0.05, 0.5, 1.0, -0.25]))
    params = data.draw(arrays(np.float64, n, elements=_STEP_VALUES))
    x = data.draw(arrays(np.float64, (records, spec.input_width), elements=_STEP_VALUES))
    y = data.draw(arrays(np.float64, (records, spec.output_width), elements=_STEP_VALUES))
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        expected = whole_vector_step(params.copy(), gradients(spec, params.copy(), x, y)[1], lr)
        stepped, plan = _blocked_step(spec, params.copy(), x, y, lr, block)
    assert stepped.tobytes() == expected.tobytes()
    # The blocks tile the vector, each at most ``block`` scalars or one uncut unit.
    blocks = plan.blocks
    assert sum(b[0].size for b in blocks) == n
    assert plan.scratch.size == max(b[0].size for b in blocks) <= max(block, *_unit_widths(spec, records))


@settings(max_examples=100, deadline=None)
@given(widths=st.lists(st.integers(1, 9), min_size=2, max_size=5), activation=st.sampled_from(Activation),
       data=st.data())
def test_consecutive_blocked_steps_keep_the_whole_vector_steps_bits(widths, activation, data):
    # Several batch-1 steps on one plan whose SGD blocks are a few scalars
    # each, so sgd_step walks many blocks, last first, and each step's forward
    # pass reads the weights the step before wrote: after every step the
    # vector has the bits of the whole-vector steps taken one after another.
    spec = ModelSpec(tuple(widths), activation)
    n = param_count(spec)
    block = data.draw(st.integers(1, max(1, n // 3)))
    lr = data.draw(st.sampled_from([0.05, 0.5, 1.0, -0.25]))
    params = data.draw(arrays(np.float64, n, elements=_STEP_VALUES))
    steps = data.draw(st.integers(2, 5))
    x = data.draw(arrays(np.float64, (steps, spec.input_width), elements=_STEP_VALUES))
    y = data.draw(arrays(np.float64, (steps, spec.output_width), elements=_STEP_VALUES))
    plan, expected = StepPlan(spec, params, 1, block=block), params.copy()
    assert len(plan.blocks) > 1
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        for i in range(steps):
            nn_core._forward_layers(plan, x[i : i + 1])
            _mse_and_grad(plan, y[i : i + 1], 0)
            nn_core._backward_layers(plan)
            sgd_step(plan, lr)
            whole_vector_step(expected, gradients(spec, expected.copy(), x[i : i + 1], y[i : i + 1])[1], lr)
            assert params.tobytes() == expected.tobytes(), i


def _fold_mean(vectors):
    """The mean of ``vectors`` as a federated round takes it: each folded into a
    running sum around the first (:func:`fold_centered`), one at a time."""
    base, total = vectors[0].copy(), np.empty_like(vectors[0])
    fold_centered(total, base, base)
    for v in vectors[1:]:
        fold_centered(total, v.copy(), base)
    return centered_mean(base, total, len(vectors))


def test_average_examples():
    assert np.array_equal(_fold_mean([np.array([1.0, 2.0]), np.array([3.0, 4.0])]),
                          np.array([2.0, 3.0]))


def test_average_of_identical_copies_is_bit_exact():
    v = init_params(ModelSpec((4, 3, 2)), 13)
    for k in (1, 2, 3, 5, 7):
        assert np.array_equal(_fold_mean([v] * k), v)


def test_average_matches_summation_oracle():
    rng = np.random.default_rng(3)
    vectors = [rng.normal(size=50) for _ in range(3)]
    got = _fold_mean(vectors)
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


def _one_layer_plan(a, dz):
    """A one-record plan for one linear layer fed the record ``a``, with ``dz``
    written as the loss gradient at its output; the copies keep every bit."""
    spec = ModelSpec((a.shape[1], dz.shape[1]))
    plan = StepPlan(spec, np.zeros(param_count(spec)), 1)
    plan.acts[0][...] = a
    plan.dzs[0][...] = dz
    return plan


def _edge_row(width):
    """A (1, width) row cycling through signed zeros, subnormals, extreme normals, NaN and ordinary values."""
    values = [0.0, -0.0, 5e-324, -5e-324, math.nan, 2.2250738585072014e-308, -1.7976931348623157e308, 1.5, -0.75]
    return np.array([[values[i % len(values)] for i in range(width)]])


@settings(max_examples=300, deadline=None)
@given(a=arrays(np.float64, st.tuples(st.just(1), st.integers(1, 64)), elements=_KERNEL_SCALARS),
       dz=arrays(np.float64, st.tuples(st.just(1), st.integers(1, 64)), elements=_KERNEL_SCALARS))
# (n_in + 1) * n_out scalars on each side of OUTER_MATMUL_MAX = 512: 64 * 8 by
# matmul, 65 * 8 by einsum, 32 * 16 by matmul and 33 * 16 by einsum
@example(a=_edge_row(63), dz=_edge_row(8))
@example(a=_edge_row(64), dz=_edge_row(8)[:, ::-1].copy())
@example(a=-_edge_row(31), dz=_edge_row(16))
@example(a=_edge_row(32), dz=-_edge_row(16))
def test_batch_one_weight_gradient_is_matmul_bit_for_bit(a, dz):
    # One linear layer fed the record a, with dz as the loss gradient at its
    # output: the step writes exactly a.T @ dz into its scratch, and scaling
    # it by lr = 1 keeps every bit. Up to OUTER_MATMUL_MAX scalars the kernel
    # is matmul itself, past them einsum.
    plan = _one_layer_plan(a, dz)
    (_, _, (kernel,)), = plan.blocks
    size = (a.shape[1] + 1) * dz.shape[1]
    assert kernel.func is (np.matmul if size <= nn_core.OUTER_MATMUL_MAX else nn_core._c_einsum)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        sgd_step(plan, 1.0)
        expected = np.matmul(a.T, dz)
    out = plan.scratch[: expected.size].reshape(expected.shape)
    # Where both factors are NaN the product is NaN either way, but which
    # factor's payload it carries differs between numpy's kernels (and
    # between einsum's vector lanes and its scalar tail); every other entry,
    # NaN included, has the same 64 bits.
    both_nan = np.isnan(a.T) & np.isnan(dz)
    assert np.array_equal(out.view(np.int64)[~both_nan], expected.view(np.int64)[~both_nan])
    assert np.isnan(out[both_nan]).all()


# Any 64-bit pattern as a double, with signed zeros, infinities and NaNs of
# every payload and either sign (signalling ones included) drawn often.
_BITS = st.one_of(
    st.sampled_from([0, 1 << 63, 0x7FF << 52, 0xFFF << 52]),
    st.tuples(st.sampled_from([0x7FF << 52, 0xFFF << 52]), st.integers(1, (1 << 52) - 1)).map(sum),
    st.integers(0, (1 << 64) - 1),
)
_QUIET = np.uint64(1 << 51)


def _doubles(shape):
    return arrays(np.uint64, shape, elements=_BITS).map(lambda bits: bits.view(np.float64))


@settings(max_examples=300, deadline=None)
@given(a=_doubles(st.tuples(st.just(1), st.integers(1, 8))), dz=_doubles(st.tuples(st.just(1), st.integers(1, 64))))
def test_batch_one_bias_gradient_is_the_one_row_sum_bit_for_bit(a, dz):
    # One linear layer fed any record a, with dz as the loss gradient at its
    # output. The record is held with a trailing 1, so the outer product's
    # last row, the layer's bias slot in the scratch, is 1 * dz added to
    # +0.0: the bits of dz summed over its one record, whatever a holds. Like
    # the sum it gives +0.0 for -0.0 and quiets a signalling NaN, keeping its
    # payload; scaling it by lr = 1 keeps every bit.
    plan = _one_layer_plan(a, dz)
    n_in, n_out = a.shape[1], dz.shape[1]
    bias = plan.scratch[n_in * n_out : (n_in + 1) * n_out]
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        for _, _, grads in plan.blocks:
            for grad in grads:
                grad()
        expected = np.add.reduce(dz, axis=0)
    assert bias.tobytes() == expected.tobytes()
    bits, row = dz[0].view(np.uint64), bias.view(np.uint64)
    assert (row[dz[0] == 0.0] == 0).all()  # +0.0, from either sign
    signalling = np.isnan(dz[0]) & (bits & _QUIET == 0)
    assert (row[signalling] == bits[signalling] | _QUIET).all()
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        sgd_step(plan, 1.0)
        expected = np.multiply(expected, 1.0)
    assert bias.tobytes() == expected.tobytes()


def _activated(activation, z):
    if activation is Activation.RELU:
        return np.maximum(z, 0.0)
    return z if activation is Activation.IDENTITY else 1.0 / (1.0 + np.exp(-z))


@settings(max_examples=300, deadline=None)
@given(records=st.integers(1, 3), widths=st.lists(st.integers(1, 8), min_size=2, max_size=3),
       activation=st.sampled_from(Activation), data=st.data())
def test_row_bias_forward_is_the_broadcast_forward_bit_for_bit(records, widths, activation, data):
    # The plan's forward, np.dot into a buffer and the bias added in place as
    # a (1, n) row, against a @ w + b over 1-D biases with each activation
    # written out; at one record each layer reads the first columns of its
    # input record with the trailing 1. Every pre-activation and activation,
    # over any 64-bit patterns, has the expressions' bits.
    spec = ModelSpec(tuple(widths), activation)
    layers = [(data.draw(_doubles((n_in, n_out))), data.draw(_doubles((n_out,))))
              for n_in, n_out in zip(widths, widths[1:])]
    params = np.concatenate([part.ravel() for layer in layers for part in layer])
    a = data.draw(_doubles((records, widths[0])))
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        plan = planned(spec, params, a)
        zs, acts = [], [a]
        for i, (w, b) in enumerate(layers):
            zs.append(acts[-1] @ w + b)
            acts.append(zs[-1] if i == len(layers) - 1 else _activated(activation, zs[-1]))
    assert all(z.shape == (records, w.shape[1]) for z, (w, _) in zip(plan.zs, layers))
    assert [x.tobytes() for x in plan.zs + plan.acts] == [x.tobytes() for x in zs + acts]


# Output widths 1-20: numpy sums 8 or more scalars pairwise, in eight lanes.
@settings(max_examples=300, deadline=None)
@given(width=st.integers(1, 20), records=st.integers(1, 4), batches=st.integers(1, 6),
       ragged=st.integers(0, 3), data=st.data())
def test_turn_loss_is_each_batch_mean_squared_error_bit_for_bit(width, records, batches, ragged, data):
    # A turn's batches write their differences row by row, and one square and
    # one row sum give every batch's loss: the bits of the per-batch
    # float(np.add.reduce(diff * diff, axis=None)) / diff.size, for full
    # batches and for a ragged last batch on a plan of its own.
    ragged %= records
    spec = ModelSpec((1, width))
    runs = [(records, batches)] + ([(ragged, 1)] if ragged else [])
    for size, count in runs:
        plan = StepPlan(spec, np.zeros(param_count(spec)), size, count)
        expected = []
        for j in range(count):
            outputs = data.draw(_doubles((size, width)))
            labels = data.draw(_doubles((size, width)))
            plan.acts[-1][...] = outputs
            with np.errstate(over="ignore", under="ignore", invalid="ignore"):
                _mse_and_grad(plan, labels, j)
                diff = outputs - labels
                expected.append(float(np.add.reduce(diff * diff, axis=None)) / diff.size)
        with np.errstate(over="ignore", invalid="ignore"):
            got = batch_losses(plan, count)
        assert got.tobytes() == np.array(expected).tobytes()


def test_a_batch_one_step_allocates_less_than_the_list_based_step():
    # tracemalloc peak of one planned step at ring-many-clients' shape,
    # (16, 8, 4) with sigmoid, batch 1, above that of its costliest weight
    # gradient call alone: past that kernel's own objects, only views and the
    # calls' own objects are allocated. Python 3.11, numpy 2.4: a step peaks
    # at 560-592 B, up to 96 B past its matmul outer product's 496 B; with
    # einsum's outer products it peaked at 1,482-1,602 B, up to 216 B past
    # einsum's 1,386 B, and the step of activation lists and temporaries that
    # the plan replaced at 2,482-2,610 B, 1,384 B past its einsum's 1,226 B.
    spec = ModelSpec((16, 8, 4))
    x, y = random_dataset(spec, 8, 3)
    plan = StepPlan(spec, init_params(spec, 1), 1, x.shape[0])
    lr = np.array(0.01)

    def step(i):
        nn_core._forward_layers(plan, x[i : i + 1])
        _mse_and_grad(plan, y[i : i + 1], i)
        nn_core._backward_layers(plan)
        sgd_step(plan, lr)

    def peak(call, *args):
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call(*args)
        return tracemalloc.get_traced_memory()[1] - start

    step(0)
    tracemalloc.start()
    try:
        kernel = max(peak(grad) for _, _, grads in plan.blocks for grad in grads)
        steps = [peak(step, i) for i in range(1, x.shape[0])]
    finally:
        tracemalloc.stop()
    assert max(steps) - kernel < 600, (steps, kernel)


def _matmul_einsum(subscripts, a, dz, out):
    return np.matmul(a.T, dz, out=out)


@settings(max_examples=300, deadline=None)
@given(widths=st.lists(st.integers(1, 3), min_size=2, max_size=5), batch=st.integers(1, 3),
       activation=st.sampled_from(Activation), data=st.data())
def test_training_step_products_have_matmul_bits(widths, batch, activation, data):
    # The whole step, SGD included, with every batch-1 outer product by
    # einsum (the cut at 0 scalars), against the same step with that kernel
    # replaced by matmul. Batches of 2 and 3 check that einsum is chosen at
    # batch 1 only; exact zeros are drawn often so that every sign of zero
    # shows.
    values = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.0]),
                       st.floats(-1e3, 1e3, allow_nan=False))
    spec = ModelSpec(tuple(widths), activation)
    params = data.draw(arrays(np.float64, param_count(spec), elements=values))
    x = data.draw(arrays(np.float64, (batch, spec.input_width), elements=values))
    y = data.draw(arrays(np.float64, (batch, spec.output_width), elements=values))

    def step():
        # one block (N < SGD_BLOCK) at lr = 1: the scratch holds the whole gradient
        stepped, plan = _blocked_step(spec, params.copy(), x, y, 1.0)
        return [*plan.zs, *plan.acts, *plan.act_grads[1:], *plan.dzs, plan.scratch, stepped]

    with np.errstate(over="ignore", under="ignore", invalid="ignore"), \
            mock.patch.object(nn_core, "OUTER_MATMUL_MAX", 0):
        got = step()
        with mock.patch.object(nn_core, "_c_einsum", _matmul_einsum):
            expected = step()
    assert [a.tobytes() for a in got] == [a.tobytes() for a in expected]
