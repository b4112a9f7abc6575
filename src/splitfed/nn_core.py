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
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import CutOutOfRange, EmptyList, InvalidParam, LengthMismatch, ShapeMismatch

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
# Tweak applied to run seeds so synthetic data and weight init draw from
# disjoint streams even when given the same seed.
_DATA_SEED_TWEAK = 0xDA7A5EEDDA7A5EED


class Activation(str, Enum):
    IDENTITY = "Identity"
    RELU = "ReLU"
    SIGMOID = "Sigmoid"


@dataclass(frozen=True)
class ModelSpec:
    """Dense network: ordered layer widths plus the hidden-layer activation."""

    layer_widths: tuple[int, ...]
    activation: Activation = Activation.SIGMOID

    def __post_init__(self) -> None:
        widths = tuple(int(w) for w in self.layer_widths)
        object.__setattr__(self, "layer_widths", widths)
        if len(widths) < 2:
            raise InvalidParam("layer_widths needs an input and an output width")
        if any(w < 1 for w in widths):
            raise InvalidParam(f"layer widths must be positive, got {widths}")
        if not isinstance(self.activation, Activation):
            raise InvalidParam(f"unknown activation {self.activation!r}")

    @property
    def weight_layers(self) -> int:
        return len(self.layer_widths) - 1

    @property
    def input_width(self) -> int:
        return self.layer_widths[0]

    @property
    def output_width(self) -> int:
        return self.layer_widths[-1]


@dataclass(frozen=True)
class CutPoint:
    """Boundary index: the client holds weight layers 1..cut_index."""

    cut_index: int


def _cut_index(spec: ModelSpec, cut: CutPoint | int) -> int:
    c = cut.cut_index if isinstance(cut, CutPoint) else int(cut)
    if not 1 <= c <= spec.weight_layers - 1:
        raise CutOutOfRange(
            f"cut {c} invalid for {spec.weight_layers} weight layers "
            f"(valid range 1..{spec.weight_layers - 1})"
        )
    return c


def layer_param_counts(spec: ModelSpec) -> tuple[int, ...]:
    """Weights plus biases per layer."""
    w = spec.layer_widths
    return tuple(w[i] * w[i + 1] + w[i + 1] for i in range(spec.weight_layers))


def param_count(spec: ModelSpec) -> int:
    return sum(layer_param_counts(spec))


def client_param_count(spec: ModelSpec, cut: CutPoint | int) -> int:
    c = _cut_index(spec, cut)
    return sum(layer_param_counts(spec)[:c])


def cut_stats(spec: ModelSpec, cut: CutPoint | int) -> tuple[int, Fraction]:
    """Smashed width q and exact client-side parameter fraction eta at the cut."""
    c = _cut_index(spec, cut)
    q = spec.layer_widths[c]
    eta = Fraction(client_param_count(spec, c), param_count(spec))
    return q, eta


def splitmix64(seed: int, count: int) -> np.ndarray:
    """First ``count`` outputs of the splitmix64 stream seeded with ``seed``.

    splitmix64 is counter-based, so the whole block vectorizes: output i is
    the finalizer applied to ``seed + (i+1) * gamma`` mod 2**64.
    """
    if count < 0:
        raise InvalidParam(f"count must be >= 0, got {count}")
    idx = np.arange(1, count + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = np.uint64(seed & _MASK64) + idx * np.uint64(_SPLITMIX_GAMMA)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        return z ^ (z >> np.uint64(31))


def uniform01(seed: int, count: int) -> np.ndarray:
    """Doubles in [0, 1) from the top 53 bits of the splitmix64 stream."""
    return (splitmix64(seed, count) >> np.uint64(11)).astype(np.float64) * 2.0**-53


def init_params(spec: ModelSpec, seed: int) -> np.ndarray:
    """Flat parameter vector with every scalar uniform in +-1/sqrt(fan_in)."""
    u = uniform01(seed, param_count(spec))
    out = np.empty_like(u)
    offset = 0
    for i, count in enumerate(layer_param_counts(spec)):
        bound = 1.0 / math.sqrt(spec.layer_widths[i])
        out[offset : offset + count] = (2.0 * u[offset : offset + count] - 1.0) * bound
        offset += count
    return out


def random_dataset(spec: ModelSpec, count: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Synthetic (inputs, labels) batch, every value uniform in [-1, 1]."""
    if count < 0:
        raise InvalidParam(f"count must be >= 0, got {count}")
    n_x = count * spec.input_width
    n_y = count * spec.output_width
    u = uniform01(seed ^ _DATA_SEED_TWEAK, n_x + n_y)
    values = 2.0 * u - 1.0
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


def split_params(spec: ModelSpec, cut: CutPoint | int, params: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Client-side and server-side halves of a flat parameter vector."""
    c = _cut_index(spec, cut)
    params = np.asarray(params, dtype=np.float64)
    if params.size != param_count(spec):
        raise LengthMismatch(f"expected {param_count(spec)} parameters, got {params.size}")
    n_client = client_param_count(spec, c)
    return params[:n_client].copy(), params[n_client:].copy()


def _check_batch(batch, width: int, name: str) -> np.ndarray:
    arr = np.asarray(batch, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != width:
        raise ShapeMismatch(f"{name} must have shape (records, {width}), got {arr.shape}")
    return arr


def _apply_activation(activation: Activation, z: np.ndarray) -> np.ndarray:
    if activation is Activation.IDENTITY:
        return z
    if activation is Activation.RELU:
        return np.maximum(z, 0.0)
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-z))


def _forward_layers(layers, activation: Activation, batch: np.ndarray):
    """Run every layer in order; the last one stays linear.

    Returns (pre_activations, activations) with activations[0] = batch.
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


@dataclass
class ForwardTrace:
    """Per-layer activations of a forward pass; activations[0] is the input."""

    activations: list
    pre_activations: list

    @property
    def outputs(self) -> np.ndarray:
        return self.activations[-1]


def forward(spec: ModelSpec, params: np.ndarray, batch) -> ForwardTrace:
    """Full forward pass: affine + activation per hidden layer, linear output."""
    x = _check_batch(batch, spec.input_width, "batch")
    layers = unpack_params(spec, params)
    zs, acts = _forward_layers(layers, spec.activation, x)
    return ForwardTrace(activations=acts, pre_activations=zs)


def mse_loss(outputs, labels) -> float:
    """Mean squared error over every output element."""
    outputs = np.asarray(outputs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if outputs.shape != labels.shape:
        raise ShapeMismatch(f"outputs {outputs.shape} vs labels {labels.shape}")
    return float(np.mean((outputs - labels) ** 2))


def _mse_and_grad(outputs: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    diff = outputs - labels
    # np.mean(diff**2) to the bit, without np.mean's dispatch
    loss = float(np.add.reduce(diff * diff, axis=None) / diff.size)
    return loss, (2.0 / diff.size) * diff


def _backward_layers(layers, activation: Activation, zs, acts, upstream: np.ndarray, grad_layers):
    """Reverse pass over every layer of a :func:`_forward_layers` trace.

    ``upstream`` is the loss gradient w.r.t. the output. Each layer's dW and
    db are written into its (dW, db) views in ``grad_layers``. Returns the
    per-boundary activation gradients, index j = d loss / d acts[j], for
    j >= 1; index 0 (the input batch's gradient, which no step reads) is None.
    """
    g = upstream
    act_grads: list = [None] * len(layers) + [upstream]
    last = len(layers) - 1
    # At batch 1, dW = a.T @ dz is an outer product, and numpy's einsum kernel
    # writes it ~3x faster than BLAS. Like matmul it adds each product to
    # +0.0, so the bits agree, but for which payload a product of two NaNs
    # keeps. Over more records einsum sums in another order than BLAS, so
    # larger batches stay with matmul.
    one_record = upstream.shape[0] == 1
    for i in reversed(range(len(layers))):
        w, _ = layers[i]
        dw, db = grad_layers[i]
        if i == last or activation is Activation.IDENTITY:
            dz = g
        elif activation is Activation.RELU:
            dz = g * (zs[i] > 0.0)
        else:
            s = acts[i + 1]  # the sigmoid of zs[i], as the forward pass computed it
            dz = g * (s * (1.0 - s))
        if one_record:
            _c_einsum("bi,bj->ij", acts[i], dz, out=dw)
        else:
            np.matmul(acts[i].T, dz, out=dw)
        np.add.reduce(dz, axis=0, out=db)
        if i:
            g = act_grads[i] = dz @ w.T
    return act_grads


@dataclass
class BackwardResult:
    """Loss, flat parameter gradients, and the gradient at every layer boundary.

    ``activation_grads[c]`` is the tensor that would cross a cut at c (records
    x width_c). Index 0 would be the gradient w.r.t. the input batch; no
    training step needs it, so it is not computed and holds None.
    """

    loss: float
    param_grads: np.ndarray
    activation_grads: list


def backward(spec: ModelSpec, params: np.ndarray, batch, labels) -> BackwardResult:
    """Exact reverse-mode gradients of the mean squared error."""
    x = _check_batch(batch, spec.input_width, "batch")
    y = _check_batch(labels, spec.output_width, "labels")
    if x.shape[0] != y.shape[0]:
        raise ShapeMismatch(f"{x.shape[0]} records but {y.shape[0]} labels")
    layers = unpack_params(spec, params)
    grads = np.empty(param_count(spec))
    zs, acts = _forward_layers(layers, spec.activation, x)
    loss, dout = _mse_and_grad(acts[-1], y)
    act_grads = _backward_layers(layers, spec.activation, zs, acts, dout, unpack_params(spec, grads))
    return BackwardResult(loss=loss, param_grads=grads, activation_grads=act_grads)


def sgd_step(params: np.ndarray, grads: np.ndarray, lr: float) -> np.ndarray:
    """One plain gradient step, in place: params -= lr * grads. Returns params.

    ``grads`` is scratch: it is scaled by ``lr`` in place, so the step
    allocates nothing, and holds ``lr * grads`` afterwards.
    """
    params = np.asarray(params, dtype=np.float64)
    grads = np.asarray(grads, dtype=np.float64)
    if params.shape != grads.shape:
        raise LengthMismatch(f"params {params.shape} vs grads {grads.shape}")
    params -= np.multiply(grads, lr, out=grads)
    return params


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


def average_params(vectors: Sequence[np.ndarray]) -> np.ndarray:
    """Elementwise arithmetic mean of equally sized flat vectors, as a new array.

    Computed centered on the first vector so that averaging k identical
    vectors returns them bit-exactly. The vectors are folded in one at a
    time (:func:`fold_centered`) through two scratch vectors, never stacked.
    """
    if len(vectors) == 0:
        raise EmptyList("cannot average zero parameter vectors")
    arrays = [np.asarray(v, dtype=np.float64) for v in vectors]
    base = arrays[0]
    if any(a.ndim != 1 or a.size != base.size for a in arrays):
        raise LengthMismatch("parameter vectors differ in length")
    total, scratch = np.empty_like(base), np.empty_like(base)
    fold_centered(total, base, base)
    for a in arrays[1:]:
        np.copyto(scratch, a)
        fold_centered(total, scratch, base)
    return centered_mean(base, total, len(arrays))
