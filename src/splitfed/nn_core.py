"""Minimal dense feed-forward network with exactly reproducible arithmetic.

The communication claims only depend on parameter counts and cut widths, so
the smallest fully checkable network suffices: affine layers, one activation
for hidden layers, linear output, mean squared error, float64 throughout.
Initialization runs on splitmix64 so the same seed yields bit-identical
weights on any platform.

Parameter vectors are flat float64 arrays, layer-major, weights before bias
within each layer; weight matrices are stored input-major, i.e. layer i maps
a batch ``a`` to ``a @ W_i + b_i`` with ``W_i`` of shape
``(layer_widths[i], layer_widths[i+1])``.
"""

from __future__ import annotations

import math
from itertools import accumulate, pairwise

import numpy as np

# The network's shape and its integer counts live with the closed forms, which
# import no numpy; they are names of this module too.
from .cost_model import Activation, ModelSpec, _cut_index, client_param_count, cut_stats, layer_param_counts, param_count
from .errors import InvalidParam, LengthMismatch, ShapeMismatch

# numpy's C einsum kernel, without the Python dispatch of the public np.einsum
# (about 1 us per call): the batch-1 weight gradient is the only caller.
try:
    from numpy._core.multiarray import c_einsum as _c_einsum  # numpy >= 2
except ImportError:
    from numpy.core.multiarray import c_einsum as _c_einsum  # numpy 1.x

_MASK64 = (1 << 64) - 1
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
# The finalizer's (shift, multiplier) rounds and its last shift, as uint64
# operands; a double takes an output's top 53 bits.
_MIX_ROUNDS = ((np.uint64(30), np.uint64(_MIX1)), (np.uint64(27), np.uint64(_MIX2)))
_FINAL_SHIFT, _UNIT_SHIFT = np.uint64(31), np.uint64(11)
# The stream is generated this many outputs at a time: its two block-sized
# temporaries (256 KB each) stay in cache.
STREAM_BLOCK = 1 << 15
# Tweak applied to run seeds so synthetic data and weight init draw from
# disjoint streams even when given the same seed.
_DATA_SEED_TWEAK = 0xDA7A5EEDDA7A5EED
# The step's scalar operands as 0-d float64 arrays: a ufunc takes them as they
# are, where a Python float is converted on every call (~0.4 us at batch 1).
# Read-only, since every step shares them.
_ZERO, _ONE = np.array(0.0), np.array(1.0)
_ZERO.flags.writeable = _ONE.flags.writeable = False


def _stream(seed: int, count: int, unit: bool) -> np.ndarray:
    """The first ``count`` outputs of the splitmix64 stream seeded with ``seed``:
    uint64, or with ``unit`` doubles in [0, 1) from each output's top 53 bits.

    splitmix64 is counter-based: output i is the finalizer applied to
    ``seed + (i+1) * gamma`` mod 2**64. The stream is made in blocks of
    STREAM_BLOCK outputs, each written in place into its slice of the one
    output vector, so the temporaries are two blocks whatever ``count`` is.
    """
    if count < 0:
        raise InvalidParam(f"count must be >= 0, got {count}")
    out = np.empty(count, dtype=np.float64 if unit else np.uint64)
    z, doubles = out.view(np.uint64), out.view(np.float64)
    steps = np.arange(1, min(count, STREAM_BLOCK) + 1, dtype=np.uint64)
    steps *= np.uint64(_SPLITMIX_GAMMA)  # (1..block) * gamma: each block's offsets from its start
    shifted = np.empty_like(steps)
    for lo in range(0, count, STREAM_BLOCK):
        block, tmp = z[lo : lo + STREAM_BLOCK], shifted[: min(count - lo, STREAM_BLOCK)]
        np.add(steps[: tmp.size], np.uint64((seed + lo * _SPLITMIX_GAMMA) & _MASK64), out=block)
        for shift, mix in _MIX_ROUNDS:
            np.right_shift(block, shift, out=tmp)
            block ^= tmp
            block *= mix
        np.right_shift(block, _FINAL_SHIFT, out=tmp)
        block ^= tmp
        if unit:
            block >>= _UNIT_SHIFT
            np.multiply(block, 2.0**-53, out=doubles[lo : lo + STREAM_BLOCK])  # exact below 2**53
    return out


def splitmix64(seed: int, count: int) -> np.ndarray:
    """First ``count`` outputs of the splitmix64 stream seeded with ``seed``."""
    return _stream(seed, count, unit=False)


def uniform01(seed: int, count: int) -> np.ndarray:
    """Doubles in [0, 1) from the top 53 bits of the splitmix64 stream."""
    return _stream(seed, count, unit=True)


def init_params(spec: ModelSpec, seed: int) -> np.ndarray:
    """Flat parameter vector with every scalar uniform in +-1/sqrt(fan_in).

    ``(2u - 1) * bound`` is computed in place on the uniform vector, operation
    by operation, so it is the same bits as the whole-vector expression."""
    params = uniform01(seed, param_count(spec))
    params *= 2.0
    params -= 1.0
    bounds = pairwise(accumulate(layer_param_counts(spec), initial=0))
    for (lo, hi), fan_in in zip(bounds, spec.layer_widths):
        layer = params[lo:hi]
        layer *= 1.0 / math.sqrt(fan_in)
    return params


def random_dataset(spec: ModelSpec, count: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Synthetic (inputs, labels) batch, every value uniform in [-1, 1]: ``2u - 1``
    in place on one uniform vector, whose two slices are the inputs and labels."""
    if count < 0:
        raise InvalidParam(f"count must be >= 0, got {count}")
    n_x = count * spec.input_width
    n_y = count * spec.output_width
    values = uniform01(seed ^ _DATA_SEED_TWEAK, n_x + n_y)
    values *= 2.0
    values -= 1.0
    x = values[:n_x].reshape(count, spec.input_width)
    y = values[n_x:].reshape(count, spec.output_width)
    return x, y


def unpack_params(spec: ModelSpec, params: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Flat vector to per-layer (W, b) views."""
    flat = np.asarray(params, dtype=np.float64)
    if flat.ndim != 1:
        raise LengthMismatch(f"parameter vector must be flat, got shape {flat.shape}")
    if flat.size != param_count(spec):
        raise LengthMismatch(f"expected {param_count(spec)} parameters, got {flat.size}")
    layers = []
    offset = 0
    for n_in, n_out in zip(spec.layer_widths, spec.layer_widths[1:]):
        w = flat[offset : offset + n_in * n_out].reshape(n_in, n_out)
        offset += n_in * n_out
        b = flat[offset : offset + n_out]
        offset += n_out
        layers.append((w, b))
    return layers


def _check_batch(batch, width: int, name: str) -> np.ndarray:
    arr = np.asarray(batch, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != width:
        raise ShapeMismatch(f"{name} must have shape (records, {width}), got {arr.shape}")
    return arr


def _apply_activation(activation: Activation, z: np.ndarray) -> np.ndarray:
    if activation is Activation.IDENTITY:
        return z
    if activation is Activation.RELU:
        return np.maximum(z, _ZERO)
    return _ONE / (_ONE + np.exp(-z))


def _forward_layers(layers, activation: Activation, batch: np.ndarray):
    """Run every layer in order; the last one stays linear.

    Returns (pre_activations, activations) with activations[0] = batch. The
    caller sets ``np.errstate``: a sigmoid of a large negative pre-activation
    overflows ``exp`` on its way to 0.
    """
    zs = []
    acts = [batch]
    a = batch
    last = len(layers) - 1
    for i, (w, b) in enumerate(layers):
        z = a @ w + b
        zs.append(z)
        a = z if i == last else _apply_activation(activation, z)
        acts.append(a)
    return zs, acts


def _mse_and_grad(outputs: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    diff = outputs - labels
    # np.mean(diff**2) to the bit, without np.mean's dispatch; one IEEE division, as a Python float
    loss = float(np.add.reduce(diff * diff, axis=None)) / diff.size
    return loss, (2.0 / diff.size) * diff


def _backward_layers(layers, activation: Activation, zs, acts, upstream: np.ndarray):
    """Reverse pass over every layer of a :func:`_forward_layers` trace.

    ``upstream`` is the loss gradient w.r.t. the output. Returns
    ``(act_grads, dzs)``: ``act_grads[j]`` = d loss / d acts[j] for j >= 1
    (index 0, the input batch's gradient, which no step reads, is None), and
    ``dzs[i]`` = d loss / d zs[i], the delta from which :func:`sgd_step` forms
    layer i's weight and bias gradients. The weights are only read.
    """
    g = upstream
    act_grads: list = [None] * len(layers) + [upstream]
    dzs: list = [None] * len(layers)
    last = len(layers) - 1
    for i in reversed(range(len(layers))):
        if i == last or activation is Activation.IDENTITY:
            dz = g
        elif activation is Activation.RELU:
            dz = g * (zs[i] > _ZERO)
        else:
            s = acts[i + 1]  # the sigmoid of zs[i], as the forward pass computed it
            dz = g * (s * (_ONE - s))
        dzs[i] = dz
        if i:
            g = act_grads[i] = dz @ layers[i][0].T
    return act_grads, dzs


# Scalars of the flat vector one sgd_step block covers (512 KB): the block's
# gradient is written and subtracted while it is still in L2 cache.
SGD_BLOCK = 1 << 16


def sgd_plan(spec: ModelSpec, params: np.ndarray, batch_size: int, block: int = SGD_BLOCK):
    """The blocks :func:`sgd_step` walks over ``params``, and their one scratch.

    Each block is a contiguous run of the flat vector of at most ``block``
    scalars, cut only between whole units: a weight row and a bias at batch 1,
    a layer's whole weight matrix and a bias otherwise (BLAS may round a
    subset of a multi-record product's rows differently from the whole). A
    unit wider than ``block`` is a block of its own. Returns ``(scratch,
    blocks)``; a block is ``(params view, scratch view, weights, biases)``, with
    ``(layer, rows, dW view)`` per weight piece (``rows`` None for all of the
    layer's rows) and ``(layer, db view)`` per bias, the views into scratch.
    """
    if params.shape != (param_count(spec),):
        raise LengthMismatch(f"expected {param_count(spec)} parameters, got shape {params.shape}")
    shapes = list(pairwise(spec.layer_widths))
    spans, lo, hi = [], 0, 0
    for n_in, n_out in shapes:
        for width in ([n_out] * n_in if batch_size == 1 else [n_in * n_out]) + [n_out]:
            if hi > lo and hi - lo + width > block:
                spans.append((lo, hi))
                lo = hi
            hi += width
    spans.append((lo, hi))
    scratch = np.empty(max(hi - lo for lo, hi in spans))
    blocks = []
    for lo, hi in spans:
        weights, biases, start = [], [], 0
        for i, (n_in, n_out) in enumerate(shapes):
            w_end, b_end = start + n_in * n_out, start + n_in * n_out + n_out
            r0, r1 = (max(lo, start) - start) // n_out, (min(hi, w_end) - start) // n_out
            if r0 < r1:
                dw = scratch[start + r0 * n_out - lo : start + r1 * n_out - lo].reshape(r1 - r0, n_out)
                weights.append((i, None if r1 - r0 == n_in else slice(r0, r1), dw))
            if lo <= w_end and b_end <= hi:
                biases.append((i, scratch[w_end - lo : b_end - lo]))
            start = b_end
        blocks.append((params[lo:hi], scratch[: hi - lo], weights, biases))
    return scratch, blocks


def sgd_step(blocks, acts, dzs, lr: float) -> None:
    """One plain gradient step, in place: params -= lr * grads, block by block.

    ``blocks`` come from :func:`sgd_plan`; ``acts`` and ``dzs`` are a batch's
    activations and deltas from :func:`_forward_layers` and
    :func:`_backward_layers`. Each block's dW rows (a.T @ dz) and db (dz
    summed over the records) are written into the scratch, scaled by ``lr``
    and subtracted while they are in cache; no N-sized gradient exists. The
    bits are those of one whole-vector step.
    """
    # At batch 1, dW = a.T @ dz is an outer product, and numpy's einsum kernel
    # writes it ~3x faster than BLAS. Like matmul it adds each product to
    # +0.0, so the bits agree, but for which payload a product of two NaNs
    # keeps. Over more records einsum sums in another order than BLAS, so
    # larger batches stay with matmul.
    one_record = acts[0].shape[0] == 1
    for params_block, scratch_block, weights, biases in blocks:
        for i, rows, dw in weights:
            a = acts[i] if rows is None else acts[i][:, rows]
            if one_record:
                _c_einsum("bi,bj->ij", a, dzs[i], out=dw)
            else:
                np.matmul(a.T, dzs[i], out=dw)
        for i, db in biases:
            if one_record:  # the one-row sum's bits: +0.0 for -0.0, a signalling NaN quieted
                np.add(dzs[i][0], _ZERO, out=db)
            else:
                np.add.reduce(dzs[i], axis=0, out=db)
        params_block -= np.multiply(scratch_block, lr, out=scratch_block)


def fold_centered(total: np.ndarray, vec: np.ndarray, base: np.ndarray) -> None:
    """Fold one vector into a running sum centered on ``base``, in place.

    The first vector folded is ``base`` itself, which starts the sum at
    ``base - base`` (+0.0 wherever base is finite). Every later ``vec`` adds
    ``vec - base`` to ``total``; ``vec`` is scratch and holds that difference
    afterwards. Folded in order, vectors of two or more scalars sum to the
    bits of numpy's axis-0 sum of their stacked block, without the block.
    """
    if vec is base:
        np.subtract(base, base, out=total)
    else:
        total += np.subtract(vec, base, out=vec)


def centered_mean(base: np.ndarray, total: np.ndarray, count: int, out: np.ndarray | None = None) -> np.ndarray:
    """``base + total / count``: the mean of the ``count`` vectors folded into
    ``total`` by :func:`fold_centered`. ``total`` is scratch and holds
    ``total / count`` afterwards; the mean is written into ``out`` if given."""
    np.divide(total, count, out=total)
    return np.add(base, total, out=out)

