"""The whole-vector splitmix64 stream and its two users, as ``nn_core`` wrote
them before the stream was generated in blocks: the reference the blocked
functions must match bit for bit."""

import math

import numpy as np

from splitfed.errors import InvalidParam
from splitfed.nn_core import ModelSpec, layer_param_counts, param_count

_MASK64 = (1 << 64) - 1
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_DATA_SEED_TWEAK = 0xDA7A5EEDDA7A5EED


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
