"""A batch's activations, loss and gradients through the layer functions that
``protocol_sim._local_pass`` calls, for tests that check the network itself.

Like the simulator's runs, each helper sets ``np.errstate`` around the step:
a sigmoid of a large negative pre-activation overflows ``exp`` on its way to 0.
"""

import numpy as np

from splitfed.nn_core import _backward_layers, _c_einsum, _forward_layers, _mse_and_grad, param_count, unpack_params


@np.errstate(over="ignore", invalid="ignore")
def activations(spec, params, x):
    """Every boundary's activations for the batch ``x``: index 0 is ``x``, the last the outputs."""
    return _forward_layers(unpack_params(spec, params), spec.activation, x)[1]


@np.errstate(over="ignore", invalid="ignore")
def loss(spec, params, x, y):
    """Mean squared error of the outputs, by ``np.mean`` and not by ``_mse_and_grad``."""
    return float(np.mean((activations(spec, params, x)[-1] - y) ** 2))


def flat_gradient(spec, acts, dzs):
    """The flat parameter gradient of a batch's activations and deltas, formed
    whole by the step's kernels: einsum's outer product at one record, matmul
    over more, and the records' sum for each bias."""
    grads = np.empty(param_count(spec))
    for i, (dw, db) in enumerate(unpack_params(spec, grads)):
        if acts[i].shape[0] == 1:
            _c_einsum("bi,bj->ij", acts[i], dzs[i], out=dw)
        else:
            np.matmul(acts[i].T, dzs[i], out=dw)
        np.add.reduce(dzs[i], axis=0, out=db)
    return grads


@np.errstate(over="ignore", invalid="ignore")
def gradients(spec, params, x, y):
    """(loss, flat parameter gradient, activation gradients) of one training step.

    Index ``c`` of the activation gradients is the tensor that crosses a cut
    at ``c``; index 0, the input's gradient, is None.
    """
    zs, acts = _forward_layers(unpack_params(spec, params), spec.activation, x)
    value, dout = _mse_and_grad(acts[-1], y)
    act_grads, dzs = _backward_layers(unpack_params(spec, params), spec.activation, zs, acts, dout)
    return value, flat_gradient(spec, acts, dzs), act_grads


def sgd_step(params, grads, lr):
    """The whole-vector step, in place: params -= lr * grads. Returns params.

    ``grads`` is scratch: it holds ``lr * grads`` afterwards. The blocked
    ``nn_core.sgd_step`` must give these bits.
    """
    params -= np.multiply(grads, lr, out=grads)
    return params
