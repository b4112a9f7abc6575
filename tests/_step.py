"""A batch's activations, loss and gradients through the step plan that
``protocol_sim._local_pass`` runs, for tests that check the network itself.

Like the simulator's runs, each helper sets ``np.errstate`` around the step:
a sigmoid of a large negative pre-activation overflows ``exp`` on its way to 0.
A plan binds views of the parameter vector it is given; forward and backward
only read them.
"""

import numpy as np

from splitfed.nn_core import (
    SGD_BLOCK,
    StepPlan,
    _backward_layers,
    _c_einsum,
    _forward_layers,
    _mse_and_grad,
    batch_losses,
    param_count,
    unpack_params,
)


@np.errstate(over="ignore", invalid="ignore")
def planned(spec, params, x, y=None, block=SGD_BLOCK):
    """A plan for the batch ``x`` over ``params``, run forward and, given labels
    ``y``, through its loss gradient and backward pass."""
    plan = StepPlan(spec, params, x.shape[0], block=block)
    _forward_layers(plan, x)
    if y is not None:
        _mse_and_grad(plan, y, 0)
        _backward_layers(plan)
    return plan


def activations(spec, params, x):
    """Every boundary's activations for the batch ``x``: index 0 is ``x``, the last the outputs."""
    return planned(spec, params, x).acts


def loss(spec, params, x, y):
    """Mean squared error of the outputs, by ``np.mean`` and not by ``batch_losses``."""
    return float(np.mean((activations(spec, params, x)[-1] - y) ** 2))


def flat_gradient(spec, acts, dzs):
    """The flat parameter gradient of a batch's activations and deltas, formed
    whole, layer by layer: each weight matrix by einsum's outer product at one
    record and by matmul over more, each bias by the records' sum."""
    grads = np.empty(param_count(spec))
    for i, (dw, db) in enumerate(unpack_params(spec, grads)):
        if acts[i].shape[0] == 1:
            _c_einsum("bi,bj->ij", acts[i], dzs[i], out=dw)
        else:
            np.matmul(acts[i].T, dzs[i], out=dw)
        np.add.reduce(dzs[i], axis=0, out=db)
    return grads


def gradients(spec, params, x, y):
    """(loss, flat parameter gradient, activation gradients) of one training step.

    Index ``c`` of the activation gradients is the tensor that crosses a cut
    at ``c``; index 0, the input's gradient, is None.
    """
    plan = planned(spec, params, x, y)
    grads = flat_gradient(spec, plan.acts, plan.dzs)
    return float(batch_losses(plan, 1)[0]), grads, plan.act_grads


def sgd_step(params, grads, lr):
    """The whole-vector step, in place: params -= lr * grads. Returns params.

    ``grads`` is scratch: it holds ``lr * grads`` afterwards. The blocked
    ``nn_core.sgd_step`` must give these bits.
    """
    params -= np.multiply(grads, lr, out=grads)
    return params
