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

A training step is planned once per run and batch size (:class:`StepPlan`):
fixed lists of numpy calls on preallocated buffers, the batch-1 bias gradient
written by the weight gradient's outer product, and the losses of many
batches reduced in one call (:func:`batch_losses`). Every step has the bits
of the plain expressions (``a @ W + b``, ``np.mean(diff**2)``,
``params -= lr * grads``).
"""

from __future__ import annotations

import math
from functools import partial
from itertools import accumulate, pairwise
from typing import Sequence

import numpy as np

# The network's shape and its integer counts live with the closed forms, which
# import no numpy; they are names of this module too.
from .cost_model import Activation, ModelSpec, _cut_index, client_param_count, cut_stats, layer_param_counts, param_count
from .errors import InvalidParam, LengthMismatch, ShapeMismatch

# numpy's C einsum kernel, without the Python dispatch of the public np.einsum
# (about 1 us per call): the batch-1 weight gradients past OUTER_MATMUL_MAX
# are its only callers.
try:
    from numpy._core.multiarray import c_einsum as _c_einsum  # numpy >= 2
except ImportError:
    from numpy.core.multiarray import c_einsum as _c_einsum  # numpy 1.x
# numpy's C dot, without the __array_function__ dispatcher np.dot wraps it in
# (0.1-0.2 us per call); np.dot itself where a numpy has no such attribute.
_dot = getattr(np.dot, "_implementation", np.dot)

_MASK64 = (1 << 64) - 1
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
# As uint64 operands: the finalizer's (shift, multiplier) rounds and its last
# shift, the shift that leaves an output's top 53 bits for a double, and the
# stream's step, gamma.
_MIX_ROUNDS = ((np.uint64(30), np.uint64(_MIX1)), (np.uint64(27), np.uint64(_MIX2)))
_FINAL_SHIFT, _UNIT_SHIFT, _GAMMA = np.uint64(31), np.uint64(11), np.uint64(_SPLITMIX_GAMMA)
# The stream is generated this many outputs at a time: its two block-sized
# temporaries (64 KB each) stay in cache, and they are small beside a shard,
# which simulate makes on each turn, while the working model is held.
STREAM_BLOCK = 1 << 13
# Tweak applied to run seeds so synthetic data and weight init draw from
# disjoint streams even when given the same seed.
_DATA_SEED_TWEAK = 0xDA7A5EEDDA7A5EED
# The step's scalar operands as 0-d float64 arrays: a ufunc takes them as they
# are, where a Python float is converted on every call (~0.4 us at batch 1).
# Read-only, since every step shares them.
_ZERO, _ONE = np.array(0.0), np.array(1.0)
_ZERO.flags.writeable = _ONE.flags.writeable = False


def _stream(seed: int, out: np.ndarray, stretches: Sequence[tuple[int, int]] = ()) -> np.ndarray:
    """Write outputs of the splitmix64 stream seeded with ``seed`` into the flat
    vector ``out`` and return it: uint64, or for a float64 ``out`` doubles in
    [0, 1) from each output's top 53 bits. ``stretches``, (start, size) pairs
    whose sizes sum to ``out.size``, name the outputs: ``out`` holds outputs
    ``start`` to ``start + size`` of each in turn, by default the first
    ``out.size``.

    splitmix64 is counter-based: output i is the finalizer applied to
    ``seed + (i+1) * gamma`` mod 2**64, so any stretch is made without the
    outputs before it. ``out`` is made in blocks of STREAM_BLOCK outputs, each
    written in place, so the temporaries are two blocks whatever its size is.
    """
    count, unit = out.size, out.dtype == np.float64
    z = out.view(np.uint64)
    stretches = stretches or ((0, count),)
    firsts = accumulate((size for _, size in stretches), initial=0)
    # each stretch as (its stream offset less its first index in ``out``, that index, its end)
    spans = [(start - first, first, first + size) for (start, size), first in zip(stretches, firsts)]
    steps = np.arange(1, min(count, STREAM_BLOCK) + 1, dtype=np.uint64)
    steps *= _GAMMA  # (1..block) * gamma: each output's counter in a block, from the block's start
    shifted = np.empty_like(steps)
    for lo in range(0, count, STREAM_BLOCK):
        hi = min(count, lo + STREAM_BLOCK)
        block, tmp = z[lo:hi], shifted[: hi - lo]
        for offset, first, end in spans:  # each output's counter: seed + (stream index + 1) * gamma
            a, b = max(lo, first), min(hi, end)
            if a < b:
                np.add(steps[: b - a], np.uint64((seed + (offset + a) * _SPLITMIX_GAMMA) & _MASK64), out=z[a:b])
        for shift, mix in _MIX_ROUNDS:
            np.right_shift(block, shift, out=tmp)
            block ^= tmp
            block *= mix
        np.right_shift(block, _FINAL_SHIFT, out=tmp)
        block ^= tmp
        if unit:
            block >>= _UNIT_SHIFT
            np.multiply(block, 2.0**-53, out=out[lo:hi])  # exact below 2**53
    return out


def _outputs(count: int, dtype) -> np.ndarray:
    """An empty vector of ``count`` stream outputs, refusing a negative count."""
    if count < 0:
        raise InvalidParam(f"count must be >= 0, got {count}")
    return np.empty(count, dtype=dtype)


def splitmix64(seed: int, count: int) -> np.ndarray:
    """First ``count`` outputs of the splitmix64 stream seeded with ``seed``."""
    return _stream(seed, _outputs(count, np.uint64))


def uniform01(seed: int, count: int) -> np.ndarray:
    """Doubles in [0, 1) from the top 53 bits of the splitmix64 stream."""
    return _stream(seed, _outputs(count, np.float64))


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


def random_dataset(spec: ModelSpec, count: int, seed: int,
                   records: range | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Synthetic (inputs, labels) batch of ``count`` records, every value uniform
    in [-1, 1]: the stream's first ``count * input_width`` outputs are the
    inputs, record by record, and the next ``count * output_width`` the labels.

    ``records``, a step-1 range within ``range(count)`` (all of it by default),
    picks the records made: those two stretches of the stream alone, the same
    bits as the whole dataset's rows, with no other record made. They are
    written into one vector, whose two slices are the inputs and labels, and
    ``2u - 1`` is computed on it in place."""
    if count < 0:
        raise InvalidParam(f"count must be >= 0, got {count}")
    records = range(count) if records is None else records
    if records.step != 1 or not 0 <= records.start <= records.stop <= count:
        raise InvalidParam(f"records must be a step-1 range within range({count}), got {records!r}")
    n, n_x, n_y = len(records), spec.input_width, spec.output_width
    values = _stream(seed ^ _DATA_SEED_TWEAK, np.empty(n * (n_x + n_y)),
                     ((records.start * n_x, n * n_x), (count * n_x + records.start * n_y, n * n_y)))
    values *= 2.0
    values -= 1.0
    return values[: n * n_x].reshape(n, n_x), values[n * n_x :].reshape(n, n_y)


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


# Scalars of the flat vector one sgd_step block covers (512 KB): the block's
# gradient is written and subtracted while it is still in L2 cache.
SGD_BLOCK = 1 << 16
# Scalars of the largest batch-1 weight-gradient piece written by np.matmul:
# up to ~500-1,000 scalars matmul's call is the cheaper (~1.0 us against
# einsum's ~1.4 us on a 2-vCPU Xeon, one BLAS thread), past them einsum's
# loop, 2-3x faster at 1k-200k scalars.
OUTER_MATMUL_MAX = 512
# Scalars of the differences a plan holds for batch_losses (256 KB), unless
# one batch's are more: a shard's labels are not held twice.
DIFF_BLOCK = 1 << 15


class StepPlan:
    """One training step on batches of ``records`` records, planned once per run.

    Every array the step writes is a buffer made here, so forward, backward
    and the SGD blocks are fixed lists of numpy calls bound to those buffers
    and to views of ``params``. The buffers are scratch, overwritten by the
    next step; the ones a caller reads:

    * ``acts[j]``, the activations at boundary j, (records, width j): index 0
      holds the batch (``input``), the last the outputs (``output``), and
      index c is what crosses a cut at c. At one record, each layer's input
      is the first columns of a ``(1, width + 1)`` record whose last entry is
      1, so the outer product of the weight gradient also writes the bias
      gradient.
    * ``zs[i]``, layer i's pre-activations; for the last layer and identity
      layers it is ``acts[i + 1]`` itself.
    * ``dzs[i]``, d loss / d zs[i]; ``act_grads[j]``, d loss / d acts[j] for
      j >= 1 (index 0 is None; the last is the loss gradient, ``dzs[-1]``
      and ``loss_grad``).
    * ``diffs``, the outputs minus the labels of up to ``batches`` batches,
      one row per batch, and at most DIFF_BLOCK scalars unless one row is
      wider; :func:`batch_losses` squares and sums them. ``diff_rows`` lists
      its rows.
    * ``blocks``, the SGD blocks :func:`sgd_step` walks, cut here: each is a
      ``(params view, scratch view, grads)``, ``grads`` the calls that write
      the block's gradient into its view of the one ``scratch``. At one
      record a layer's weights and bias, which lie together in the flat
      vector, are the ``n_in + 1`` rows of ``n_out`` that the outer product of
      the record with the delta writes, the bias as ``1 * dz`` added to +0.0,
      the bits of the delta's one-row sum. Over more records each weight
      matrix is ``a.T @ dz`` and each bias ``dz`` summed over the records.

    Each call keeps the kernel and operand order of the expression in its
    comment, so a step has that expression's bits.

    A ``base`` plan of the same spec and more records lends its buffers: a
    plan of more than one record takes the front of each of the base's, in
    the order they were made, wherever that holds enough, and any plan takes
    the base's SGD scratch if it holds the plan's largest block. The two then
    overwrite each other's buffers, so they serve batches one after the
    other, the base's losses reduced first: a shard's ragged last batch runs
    in the full batches' memory. The base may be over other ``params`` (a
    federated round's global model borrows from its base's plans), so long
    as the two plans' passes never overlap: no buffer is a view of
    ``params``, and a buffer holds nothing from one pass to the next.
    """

    def __init__(self, spec: ModelSpec, params: np.ndarray, records: int, batches: int = 1,
                 block: int = SGD_BLOCK, base: StepPlan | None = None) -> None:
        layers = unpack_params(spec, params)
        widths, last, activation = spec.layer_widths, len(layers) - 1, spec.activation
        one = records == 1
        # a one-record plan's inputs are its own, since each ends in a 1 that
        # a base's rows would overwrite; its other rows, a few scalars each,
        # would not line up with the base's, so it borrows only the scratch
        lent = iter(base._buffers) if base is not None and not one else iter(())
        self._buffers: list[np.ndarray] = []

        def buffer(*shape: int) -> np.ndarray:
            size, held = math.prod(shape), next(lent, None)
            buf = np.empty(shape) if held is None or held.size < size else held.reshape(-1)[:size].reshape(shape)
            self._buffers.append(buf)
            return buf

        inputs = [np.ones((1, n + 1)) if one else buffer(records, n) for n in widths[:-1]]
        self.records = records
        self.acts = [a[:, :n] for a, n in zip(inputs, widths)] + [buffer(records, widths[-1])]
        self.zs, self.forward = [], []
        for i, (w, b) in enumerate(layers):
            a, out = self.acts[i], self.acts[i + 1]
            hidden = i < last and activation is not Activation.IDENTITY
            z = buffer(*out.shape) if hidden else out
            self.zs.append(z)
            # a @ w + b, the product in a buffer of its own: numpy adds a
            # one-scalar operand into itself in the other order, which keeps
            # the other payload of two NaNs
            product = buffer(*out.shape)
            self.forward += [partial(_matmul(w.shape[0]), a, w, product), partial(np.add, product, b.reshape(1, -1), z)]
            if hidden and activation is Activation.RELU:  # out by keyword: numpy 2.4 deprecates it positional here
                self.forward.append(partial(np.maximum, z, _ZERO, out=out))
            elif hidden:  # 1 / (1 + exp(-z))
                self.forward += [partial(np.negative, z, out), partial(np.exp, out, out),
                                 partial(np.add, _ONE, out, out), partial(np.divide, _ONE, out, out)]

        rows = max(1, min(batches, DIFF_BLOCK // (records * widths[-1])))
        self.diffs = buffer(rows, records, widths[-1])
        self.diff_rows = list(self.diffs)
        self.scale = np.array(2.0 / (records * widths[-1]))  # d mean / d diff = (2 / size) * diff
        self.dzs: list = [None] * len(layers)
        self.act_grads: list = [None] * len(layers) + [buffer(*self.acts[-1].shape)]
        self.input, self.output, self.loss_grad = self.acts[0], self.acts[-1], self.act_grads[-1]
        self.backward = []
        for i in reversed(range(len(layers))):
            g = self.act_grads[i + 1]
            if i == last or activation is Activation.IDENTITY:
                dz = g
            elif activation is Activation.RELU:  # g * (z > 0)
                dz = buffer(*g.shape)
                self.backward += [partial(np.greater, self.zs[i], _ZERO, dz), partial(np.multiply, g, dz, dz)]
            else:  # g * (s * (1 - s)), s the sigmoid of z as the forward pass computed it
                dz, s = buffer(*g.shape), self.acts[i + 1]
                self.backward += [partial(np.subtract, _ONE, s, dz), partial(np.multiply, s, dz, dz),
                                  partial(np.multiply, g, dz, dz)]
            self.dzs[i] = dz
            if i:  # dz @ w.T
                self.act_grads[i] = buffer(*self.acts[i].shape)
                w = layers[i][0]
                self.backward.append(partial(_matmul(w.shape[1]), dz, w.T, self.act_grads[i]))

        # The SGD blocks: contiguous runs of the flat vector of at most
        # ``block`` scalars, cut only between whole units: a row at one
        # record, a layer's whole weight matrix and a bias otherwise (BLAS may
        # round a subset of a multi-record product's rows differently from the
        # whole). A unit wider than ``block`` is a block of its own.
        shapes = list(pairwise(widths))
        spans, lo, hi = [], 0, 0
        for n_in, n_out in shapes:
            for width in [n_out] * (n_in + 1) if one else [n_in * n_out, n_out]:
                if hi > lo and hi - lo + width > block:
                    spans.append((lo, hi))
                    lo = hi
                hi += width
        spans.append((lo, hi))
        need = max(hi - lo for lo, hi in spans)
        self.scratch = base.scratch if base is not None and base.scratch.size >= need else np.empty(need)
        self.blocks = []
        for lo, hi in spans:
            grads, start = [], 0
            for a, dz, (n_in, n_out) in zip(inputs if one else self.acts, self.dzs, shapes):
                w_end, end = start + n_in * n_out, start + (n_in + 1) * n_out
                if one:
                    # At one record, dW = a.T @ dz is an outer product:
                    # matmul's own up to OUTER_MATMUL_MAX scalars, and past
                    # them numpy's einsum kernel, ~3x faster than BLAS there.
                    # Like matmul it adds each product to +0.0, so the bits
                    # agree, but for which payload a product of two NaNs
                    # keeps. Over more records einsum sums in another order
                    # than BLAS, so larger batches stay with matmul.
                    r0, r1 = (max(lo, start) - start) // n_out, (min(hi, end) - start) // n_out
                    if r0 < r1:  # rows r0..r1 of the layer's weights-then-bias block
                        dw = self.scratch[start + r0 * n_out - lo : start + r1 * n_out - lo].reshape(r1 - r0, n_out)
                        entries = a[:, r0:r1]
                        grads.append(partial(np.matmul, entries.T, dz, dw) if dw.size <= OUTER_MATMUL_MAX
                                     else partial(_c_einsum, "bi,bj->ij", entries, dz, out=dw))
                else:
                    if lo <= start and w_end <= hi:
                        dw = self.scratch[start - lo : w_end - lo].reshape(n_in, n_out)
                        grads.append(partial(np.matmul, a.T, dz, dw))
                    if lo <= w_end and end <= hi:
                        grads.append(partial(np.add.reduce, dz, axis=0, out=self.scratch[w_end - lo : end - lo]))
                start = end
            self.blocks.append((params[lo:hi], self.scratch[: hi - lo], grads))


def _matmul(inner: int):
    """The kernel of a product that sums ``inner`` terms per entry, with the
    bits of ``np.matmul``: numpy's C dot, which skips the ufunc machinery,
    except over one term, where dot scales without adding to +0.0 (so -0.0
    stays -0.0, and BLAS's scaling by 0 turns inf and NaN into 0)."""
    return _dot if inner > 1 else np.matmul


def _forward_layers(plan: StepPlan, batch: np.ndarray) -> None:
    """Copy ``batch`` into ``plan.acts[0]`` and run every layer in order; the
    last one stays linear. The caller sets ``np.errstate``: a sigmoid of a
    large negative pre-activation overflows ``exp`` on its way to 0."""
    plan.input[...] = batch
    for call in plan.forward:
        call()


def _mse_and_grad(plan: StepPlan, labels: np.ndarray, batch: int) -> None:
    """Write the outputs minus ``labels`` into row ``batch`` of ``plan.diffs``
    and the loss gradient ``(2 / size) * diff`` into ``plan.dzs[-1]``; the
    loss itself is reduced by :func:`batch_losses`, once for all the rows."""
    diff = plan.diff_rows[batch]
    np.subtract(plan.output, labels, diff)
    np.multiply(plan.scale, diff, plan.loss_grad)


def _backward_layers(plan: StepPlan) -> None:
    """Reverse pass from the loss gradient :func:`_mse_and_grad` wrote: every
    ``dzs[i]`` and ``act_grads[j]`` of the plan. The weights are only read."""
    for call in plan.backward:
        call()


def batch_losses(plan: StepPlan, batches: int) -> np.ndarray:
    """The mean squared error of each of the first ``batches`` rows of
    ``plan.diffs``, squared in place and summed row by row in one call: each
    has the bits of ``np.mean((outputs - labels) ** 2)`` over its batch."""
    squares = plan.diffs[:batches].reshape(batches, -1)
    np.multiply(squares, squares, out=squares)
    return np.add.reduce(squares, axis=1) / squares.shape[1]


def sgd_step(plan: StepPlan, lr) -> None:
    """One plain gradient step, in place: params -= lr * grads, block by block.

    Each block's gradient is written into the scratch by the plan's calls,
    scaled by ``lr`` and subtracted while it is in cache; no N-sized gradient
    exists. The blocks are walked from the last to the first: the backward
    pass has just read the weights of every layer but the first, which are
    updated while still in cache, and the next forward pass starts with the
    first layer's, just written. The blocks are disjoint and read only the
    activations and deltas, so in any order the bits are those of one
    whole-vector step. ``lr`` as a 0-d float64 array spares a conversion on
    every call.
    """
    for params_block, scratch_block, grads in reversed(plan.blocks):
        for grad in grads:
            grad()
        np.subtract(params_block, np.multiply(scratch_block, lr, scratch_block), params_block)


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

