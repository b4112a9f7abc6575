"""The simulator's training step against a deliberately naive reference, bit for bit.

The reference shares nothing with the step in ``nn_core`` but the model's
initial weights and data: it stitches the client and server halves into one
vector, recomputes the sigmoid derivative from the pre-activation, builds the
gradient by concatenation, takes ``params - lr * grads`` as a copy and the loss
with ``np.mean``. Every protocol, activation and cut of a 4-weight-layer model
must give the same final weights and losses to the last bit.
"""

import math

import numpy as np
import pytest

from splitfed import (
    Activation,
    ModelSpec,
    Protocol,
    init_params,
    partition_dataset,
    random_dataset,
    run_federated_training,
    run_split_training,
)

SPEC_WIDTHS = (5, 4, 3, 2, 2)  # 4 weight layers, cuts 1..3
CLIENTS, RECORDS = 3, 10  # lenient shards of 4, 3 and 3 records
EPOCHS, LR, SEED = 3, 0.05, 13
SPLIT = (Protocol.SPLIT_SYNC, Protocol.SPLIT_SYNC_BATCH, Protocol.SPLIT_NOSYNC)
BATCH_SIZES = (1, 3)


def _layers(widths, flat):
    layers, offset = [], 0
    for n_in, n_out in zip(widths, widths[1:]):
        w = flat[offset : offset + n_in * n_out].reshape(n_in, n_out)
        offset += n_in * n_out
        layers.append((w, flat[offset : offset + n_out]))
        offset += n_out
    return layers


def _activate(activation, z):
    if activation is Activation.IDENTITY:
        return z
    if activation is Activation.RELU:
        return np.maximum(z, 0.0)
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-z))


def _derivative(activation, z):
    if activation is Activation.IDENTITY:
        return np.ones_like(z)
    if activation is Activation.RELU:
        return (z > 0.0).astype(np.float64)
    s = _activate(Activation.SIGMOID, z)
    return s * (1.0 - s)


def _loss_and_grads(spec, params, x, y):
    layers = _layers(spec.layer_widths, params)
    zs, acts = [], [x]
    for i, (w, b) in enumerate(layers):
        zs.append(acts[-1] @ w + b)
        acts.append(zs[-1] if i == len(layers) - 1 else _activate(spec.activation, zs[-1]))
    diff = acts[-1] - y
    loss = float(np.mean(diff**2))
    g = (2.0 / diff.size) * diff
    pieces = []
    for i in reversed(range(len(layers))):
        dz = g if i == len(layers) - 1 else g * _derivative(spec.activation, zs[i])
        pieces[:0] = [(acts[i].T @ dz).ravel(), dz.sum(axis=0)]
        g = dz @ layers[i][0].T
    return loss, np.concatenate(pieces)


def _step(spec, params, xb, yb, losses):
    loss, grads = _loss_and_grads(spec, params, xb, yb)
    losses.append(loss)
    return params - LR * grads


def _batches(x, y, batch_size):
    return [(x[lo : lo + batch_size], y[lo : lo + batch_size]) for lo in range(0, x.shape[0], batch_size)]


def _mean_or_nan(values):
    return float(np.mean(values)) if values else math.nan


def _reference_split(spec, cut, shards, protocol, batch_size):
    full = init_params(spec, SEED)
    n_client = sum(a * b + b for a, b in zip(spec.layer_widths[:cut], spec.layer_widths[1 : cut + 1]))
    clients = [full[:n_client].copy() for _ in shards]
    server = full[n_client:].copy()
    epoch_losses = []
    for epoch in range(EPOCHS):
        losses = []
        turns = [epoch % len(shards)] if protocol is Protocol.SPLIT_NOSYNC else range(len(shards))
        for k in turns:
            nxt = (k + 1) % len(shards)
            for xb, yb in _batches(*shards[k], batch_size):
                stitched = _step(spec, np.concatenate([clients[k], server]), xb, yb, losses)
                clients[k], server = stitched[:n_client], stitched[n_client:]
                if protocol is Protocol.SPLIT_SYNC_BATCH:
                    clients[nxt] = clients[k].copy()
            if protocol is Protocol.SPLIT_SYNC:
                clients[nxt] = clients[k].copy()
        epoch_losses.append(_mean_or_nan(losses))
    return clients, server, epoch_losses


def _reference_federated(spec, shards, batch_size):
    global_params = init_params(spec, SEED)
    round_losses = []
    for _ in range(EPOCHS):
        uploads, client_losses = [], []
        for x, y in shards:
            weights, losses = global_params.copy(), []
            for xb, yb in _batches(x, y, batch_size):
                weights = _step(spec, weights, xb, yb, losses)
            uploads.append(weights)
            if losses:
                client_losses.append(_mean_or_nan(losses))
        stack = np.stack(uploads)
        global_params = stack[0] + (stack - stack[0]).sum(axis=0) / len(uploads)
        round_losses.append(_mean_or_nan(client_losses))
    return global_params, round_losses


def _lenient_shards(spec):
    sharded = partition_dataset(*random_dataset(spec, RECORDS, SEED), CLIENTS, strict=False)
    assert [x.shape[0] for x, _ in sharded] == [4, 3, 3]
    return sharded


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
@pytest.mark.parametrize("activation", list(Activation))
@pytest.mark.parametrize("protocol", SPLIT)
def test_split_training_matches_naive_reference(protocol, activation, batch_size):
    spec = ModelSpec(SPEC_WIDTHS, activation)
    sharded = _lenient_shards(spec)
    for cut in range(1, spec.weight_layers):
        run = run_split_training(spec, cut, sharded, protocol, epochs=EPOCHS, lr=LR, seed=SEED,
                                 batch_size=batch_size)
        clients, server, losses = _reference_split(spec, cut, sharded, protocol, batch_size)
        assert all(np.array_equal(a, b) for a, b in zip(run.client_params, clients, strict=True)), cut
        assert np.array_equal(run.server_params, server), cut
        assert run.losses == losses, cut


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
@pytest.mark.parametrize("activation", list(Activation))
def test_federated_training_matches_naive_reference(activation, batch_size):
    spec = ModelSpec(SPEC_WIDTHS, activation)
    sharded = _lenient_shards(spec)
    run = run_federated_training(spec, sharded, rounds=EPOCHS, local_lr=LR, seed=SEED, batch_size=batch_size)
    global_params, losses = _reference_federated(spec, sharded, batch_size)
    assert np.array_equal(run.server_params, global_params)
    assert run.losses == losses
