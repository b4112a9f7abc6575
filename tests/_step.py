"""A batch's activations, loss and gradients through the layer functions that
``protocol_sim._local_pass`` calls, for tests that check the network itself."""

import numpy as np

from splitfed.nn_core import _backward_layers, _forward_layers, _mse_and_grad, param_count, unpack_params


def activations(spec, params, x):
    """Every boundary's activations for the batch ``x``: index 0 is ``x``, the last the outputs."""
    return _forward_layers(unpack_params(spec, params), spec.activation, x)[1]


def loss(spec, params, x, y):
    """Mean squared error of the outputs, by ``np.mean`` and not by ``_mse_and_grad``."""
    return float(np.mean((activations(spec, params, x)[-1] - y) ** 2))


def gradients(spec, params, x, y):
    """(loss, flat parameter gradient, activation gradients) of one training step.

    Index ``c`` of the activation gradients is the tensor that crosses a cut
    at ``c``; index 0, the input's gradient, is None.
    """
    layers, grads = unpack_params(spec, params), np.empty(param_count(spec))
    zs, acts = _forward_layers(layers, spec.activation, x)
    value, dout = _mse_and_grad(acts[-1], y)
    act_grads = _backward_layers(layers, spec.activation, zs, acts, dout, unpack_params(spec, grads))
    return value, grads, act_grads
