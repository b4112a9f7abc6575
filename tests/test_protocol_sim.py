"""Protocol runs, the traffic ledger, and the ledger-versus-formula cross-check."""

import collections.abc
import io
import itertools
import math
import re
import sys
import threading
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitfed import (
    Activation,
    Diverged,
    DivisibilityError,
    InvalidParam,
    Message,
    MessageKind,
    ModelSpec,
    Protocol,
    ScenarioParams,
    ShapeMismatch,
    TrafficLedger,
    comm_report,
    init_params,
    measured_comm,
    param_count,
    partition_dataset,
    random_dataset,
    run_federated_training,
    run_split_training,
    shard_sizes,
    traffic_by_kind,
    verify_against_model,
)
from splitfed import nn_core, protocol_sim
from splitfed.protocol_sim import SERVER, client_id

import _stream
from _step import gradients, sgd_step


SPEC = ModelSpec((4, 3, 2))
# The label scalars a record sends: every ledger check counts them.
LABEL_WIDTH = SPEC.output_width


def golden_shards(p=6, clients=2, seed=42):
    x, y = random_dataset(SPEC, p, seed)
    return partition_dataset(x, y, clients)


def golden_params(p=6, clients=2, epochs=1, **fields):
    return ScenarioParams.from_model(SPEC, 1, clients=clients, dataset_size=p, epochs=epochs, **fields)


# --- dataset partitioning ----------------------------------------------------

def test_partition_even():
    assert [x.shape[0] for x, _ in golden_shards()] == [3, 3]


def test_partition_strict_rejects_remainder():
    x, y = random_dataset(SPEC, 7, 1)
    with pytest.raises(DivisibilityError):
        partition_dataset(x, y, 2)


def test_partition_lenient_and_order_preserving():
    x, y = random_dataset(SPEC, 7, 1)
    shards = partition_dataset(x, y, 2, strict=False)
    assert [xs.shape[0] for xs, _ in shards] == [4, 3]
    assert np.array_equal(np.vstack([s[0] for s in shards]), x)
    assert np.array_equal(np.vstack([s[1] for s in shards]), y)


# --- split training ledger ---------------------------------------------------

def test_sync_epoch_golden_ledger():
    run = run_split_training(SPEC, 1, golden_shards(), Protocol.SPLIT_SYNC,
                             epochs=1, lr=0.01, seed=42)
    totals = run.ledger.totals_by_kind()
    assert totals[MessageKind.ACTIVATIONS] == 18
    assert totals[MessageKind.GRADIENTS] == 18
    assert totals[MessageKind.CLIENT_WEIGHTS] == 30
    assert totals[MessageKind.GLOBAL_WEIGHTS] == 0
    assert totals[MessageKind.LABELS] == 12  # 6 records x label width 2
    total = measured_comm(run.ledger, golden_params(), Protocol.SPLIT_SYNC).total_scalars
    assert total == 66 == comm_report(golden_params(), Protocol.SPLIT_SYNC).total_scalars


def test_sync_epoch_ring_closes():
    run = run_split_training(SPEC, 1, golden_shards(), Protocol.SPLIT_SYNC,
                             epochs=1, lr=0.01, seed=42)
    hand_offs = [m for m in run.ledger if m.kind is MessageKind.CLIENT_WEIGHTS]
    assert [(m.sender, m.receiver) for m in hand_offs] == [
        (client_id(1), client_id(2)),
        (client_id(2), client_id(1)),
    ]


def test_sync_epoch_self_loop_when_single_client():
    shards = golden_shards(p=4, clients=1)
    run = run_split_training(SPEC, 1, shards, Protocol.SPLIT_SYNC, epochs=1, lr=0.01, seed=1)
    hand_offs = [m for m in run.ledger if m.kind is MessageKind.CLIENT_WEIGHTS]
    assert len(hand_offs) == 1 and hand_offs[0].sender == hand_offs[0].receiver == client_id(1)
    params = golden_params(p=4, clients=1)
    formula = comm_report(params, Protocol.SPLIT_SYNC)
    assert measured_comm(run.ledger, params, Protocol.SPLIT_SYNC).total_scalars == formula.total_scalars


def test_alternating_takes_turns_and_never_shares_weights():
    run = run_split_training(SPEC, 1, golden_shards(), Protocol.SPLIT_NOSYNC,
                             epochs=2, lr=0.01, seed=42)
    totals = run.ledger.totals_by_kind()
    assert totals[MessageKind.CLIENT_WEIGHTS] == 0
    # epoch e is handled by client (e mod K) + 1 alone
    for epoch, expected_client in ((0, client_id(1)), (1, client_id(2))):
        msgs = [m for m in run.ledger if m.epoch == epoch]
        senders = {m.sender for m in msgs} - {SERVER}
        assert senders == {expected_client}
        up = sum(m.scalar_count for m in msgs if m.kind is MessageKind.ACTIVATIONS)
        assert up == 3 * 3  # active shard x q
    # over K consecutive epochs the ledger moves 2 p q scalars
    total = measured_comm(run.ledger, golden_params(), Protocol.SPLIT_NOSYNC).total_scalars
    assert total == 36 == comm_report(golden_params(), Protocol.SPLIT_NOSYNC).total_scalars


def test_sync_batch_hand_off_per_batch():
    run = run_split_training(SPEC, 1, golden_shards(), Protocol.SPLIT_SYNC_BATCH,
                             epochs=1, lr=0.01, seed=42, batch_size=1)
    totals = run.ledger.totals_by_kind()
    assert totals[MessageKind.CLIENT_WEIGHTS] == 15 * 6  # one eta*N hand-off per batch
    assert totals[MessageKind.ACTIVATIONS] == 18
    report = verify_against_model(run.ledger, golden_params(batch_size=1, label_width=LABEL_WIDTH),
                                  Protocol.SPLIT_SYNC_BATCH)
    assert report.matches

    run2 = run_split_training(SPEC, 1, golden_shards(), Protocol.SPLIT_SYNC_BATCH,
                              epochs=1, lr=0.01, seed=42, batch_size=2)
    assert run2.ledger.totals_by_kind()[MessageKind.CLIENT_WEIGHTS] == 15 * 4  # ceil(3/2) per client
    assert verify_against_model(run2.ledger, golden_params(batch_size=2, label_width=LABEL_WIDTH),
                                Protocol.SPLIT_SYNC_BATCH).matches


def test_a_sync_batch_turn_without_records_hands_off_no_weights():
    # lenient shards of 1, 1, 0 and 0 records: client 3's turn trains no batch and hands nothing
    # to client 4, who still holds the initial weights, while client 3 holds client 2's
    x, y = random_dataset(SPEC, 2, 42)
    run = run_split_training(SPEC, 1, partition_dataset(x, y, 4, strict=False), Protocol.SPLIT_SYNC_BATCH,
                             epochs=1, lr=0.01, seed=42, batch_size=1)
    first, second, third, fourth = run.client_params
    initial = init_params(SPEC, 42)[:first.size]
    assert np.array_equal(fourth, initial) and np.array_equal(third, second)
    assert not np.array_equal(second, initial) and not np.array_equal(second, first)
    assert run.ledger.totals_by_kind()[MessageKind.CLIENT_WEIGHTS] == 15 * 2


@pytest.mark.parametrize("variant, batch_size, logged", [
    # shards of 4, 3 and 3 records: client 1's turn is one full batch and a
    # ragged one of 1 record, each sent once, so every run of the epoch is
    # one repeat-1 run
    (Protocol.SPLIT_SYNC_BATCH, 3, [([([9, 6, 9, 15], 1), ([3, 2, 3, 15], 1)], [1]),
                                    ([([9, 6, 9, 15], 1)], [1]), ([([9, 6, 9, 15], 1)], [1])]),
    (Protocol.SPLIT_SYNC, 3, [([([9, 6, 9], 1), ([3, 2, 3], 1)], [1]), ([([15], 1)], [1]),
                              ([([9, 6, 9], 1)], [1]), ([([15], 1)], [1]),
                              ([([9, 6, 9], 1)], [1]), ([([15], 1)], [1])]),
    # at batch 2 client 1's two full batches are one run of repeat 2, and
    # the later turns' one-off batches and hand-offs extend one repeat-1 run
    (Protocol.SPLIT_SYNC_BATCH, 2, [([([6, 4, 6, 15], 2)], [2]),
                                    ([([6, 4, 6, 15], 1), ([3, 2, 3, 15], 1)], [2, 1]),
                                    ([([6, 4, 6, 15], 1), ([3, 2, 3, 15], 1)], [2, 1])]),
    (Protocol.SPLIT_SYNC, 2, [([([6, 4, 6], 2)], [2]), ([([15], 1)], [2, 1]),
                              ([([6, 4, 6], 1), ([3, 2, 3], 1)], [2, 1]), ([([15], 1)], [2, 1]),
                              ([([6, 4, 6], 1), ([3, 2, 3], 1)], [2, 1]), ([([15], 1)], [2, 1])]),
], ids=["sync_batch-3", "sync-3", "sync_batch-2", "sync-2"])
def test_the_simulator_logs_each_split_turn_as_its_runs(variant, batch_size, logged, monkeypatch):
    # per log_turn call (a hand-off append is one): the runs it names, full
    # batches, then a ragged batch, the hand-off last in each batch under
    # sync_batch; and the ledger's repeats after it
    calls = []
    log_turn = TrafficLedger.log_turn

    def recorded(self, epoch, batch, runs):
        log_turn(self, epoch, batch, runs)
        calls.append(([(list(counts), repeat) for counts, repeat in runs], list(self._repeats)))

    monkeypatch.setattr(TrafficLedger, "log_turn", recorded)
    x, y = random_dataset(SPEC, 10, 42)
    run = run_split_training(SPEC, 1, partition_dataset(x, y, 3, strict=False), variant,
                             epochs=1, lr=0.01, seed=42, batch_size=batch_size)
    assert calls == logged
    params = golden_params(p=10, clients=3, batch_size=batch_size, label_width=LABEL_WIDTH)
    assert verify_against_model(run.ledger, params, variant).matches


def test_activation_traffic_is_batch_size_invariant():
    for batch_size in (1, 2, 3):
        run = run_split_training(SPEC, 1, golden_shards(), Protocol.SPLIT_SYNC,
                                 epochs=1, lr=0.01, seed=42, batch_size=batch_size)
        totals = run.ledger.totals_by_kind()
        assert totals[MessageKind.ACTIVATIONS] == 18
        assert totals[MessageKind.GRADIENTS] == 18
        assert totals[MessageKind.CLIENT_WEIGHTS] == 30


def test_zero_records_leaves_only_sync_weight_traffic():
    shards = golden_shards(p=0, clients=3)
    run = run_split_training(SPEC, 1, shards, Protocol.SPLIT_SYNC, epochs=1, lr=0.01, seed=1)
    kinds = {m.kind for m in run.ledger}
    assert kinds == {MessageKind.CLIENT_WEIGHTS}
    assert measured_comm(run.ledger, golden_params(p=0, clients=3), Protocol.SPLIT_SYNC).total_scalars == 15 * 3
    assert math.isnan(run.losses[0])

    for variant in (Protocol.SPLIT_NOSYNC, Protocol.SPLIT_SYNC_BATCH):
        empty = run_split_training(SPEC, 1, shards, variant, epochs=1, lr=0.01, seed=1)
        assert len(empty.ledger) == 0


def test_split_training_rejects_federated():
    with pytest.raises(InvalidParam):
        run_split_training(SPEC, 1, golden_shards(), Protocol.FEDERATED, epochs=1, lr=0.01, seed=42)


def test_epoch_losses_finite_for_small_lr():
    for variant in (Protocol.SPLIT_SYNC, Protocol.SPLIT_SYNC_BATCH, Protocol.SPLIT_NOSYNC):
        run = run_split_training(SPEC, 1, golden_shards(), variant, epochs=4, lr=0.01, seed=42)
        assert len(run.losses) == 4
        assert all(math.isfinite(loss) for loss in run.losses)


@pytest.mark.filterwarnings("error")
def test_diverged_run_raises_at_its_first_non_finite_epoch():
    # lr 1e30: epoch 0's losses are huge but finite, epoch 1's are NaN; no
    # numpy overflow warning escapes on the way (warnings are errors here).
    for variant in (Protocol.SPLIT_SYNC, Protocol.SPLIT_SYNC_BATCH):
        with pytest.raises(Diverged, match="epoch 1 loss is nan"):
            run_split_training(SPEC, 1, golden_shards(), variant, epochs=3, lr=1e30, seed=42)
    with pytest.raises(Diverged, match="epoch 2 loss is nan"):
        run_split_training(SPEC, 1, golden_shards(), Protocol.SPLIT_NOSYNC, epochs=3, lr=1e30, seed=42)
    with pytest.raises(Diverged, match="round 2 loss is nan"):
        run_federated_training(SPEC, golden_shards(), rounds=3, local_lr=1e30, seed=42)


def test_split_run_deterministic():
    a = run_split_training(SPEC, 1, golden_shards(), Protocol.SPLIT_SYNC, epochs=2, lr=0.01, seed=42)
    b = run_split_training(SPEC, 1, golden_shards(), Protocol.SPLIT_SYNC, epochs=2, lr=0.01, seed=42)
    assert list(a.ledger) == list(b.ledger)
    assert np.array_equal(a.server_params, b.server_params)
    assert all(np.array_equal(x, y) for x, y in zip(a.client_params, b.client_params))
    assert a.losses == b.losses


SPLIT_PROTOCOLS = (Protocol.SPLIT_SYNC, Protocol.SPLIT_SYNC_BATCH, Protocol.SPLIT_NOSYNC)


def test_single_client_split_equals_monolithic_sgd():
    # manual whole-model SGD is the oracle; the split run must match bit for bit
    lr, epochs = 0.05, 3
    for activation, batch_size in itertools.product(Activation, (1, 3)):
        spec = ModelSpec((5, 4, 3, 2, 2), activation)  # 4 weight layers, cuts 1..3
        x, y = random_dataset(spec, 8, 5)
        shards = partition_dataset(x, y, 1)
        params = init_params(spec, 7)
        starts = range(0, x.shape[0], batch_size)
        for _ in range(epochs):
            for lo in starts:
                xb, yb = x[lo : lo + batch_size], y[lo : lo + batch_size]
                params = sgd_step(params, gradients(spec, params, xb, yb)[1], lr)
        records = [min(batch_size, x.shape[0] - lo) for lo in starts] * epochs
        for cut, variant in itertools.product(range(1, spec.weight_layers), SPLIT_PROTOCOLS):
            run = run_split_training(spec, cut, shards, variant, epochs=epochs, lr=lr, seed=7,
                                     batch_size=batch_size)
            stitched = np.concatenate([run.client_params[0], run.server_params])
            assert np.array_equal(stitched, params), (activation, batch_size, cut, variant)
            # each batch's Activations and Gradients messages carry records x q scalars
            q = spec.layer_widths[cut]
            for kind in (MessageKind.ACTIVATIONS, MessageKind.GRADIENTS):
                assert [m.scalar_count for m in run.ledger if m.kind is kind] == [r * q for r in records]


def test_held_weights_never_alias(monkeypatch):
    # A split turn copies weights in and out of the run's one working model,
    # a hand-off copies into the receiver's buffer, and a run returns its own
    # vectors: no held, server or global vector shares memory with another,
    # or with a working model's weights and its step plans' SGD scratch. A
    # federated round of three clients trains in base, the working model and
    # the global model itself, which is the run's server vector and whose plans
    # take base's scratch: those are its only shares.
    models = []

    class RecordedModel(protocol_sim._WorkingModel):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            models.append(self)

    monkeypatch.setattr(protocol_sim, "_WorkingModel", RecordedModel)
    shards = partition_dataset(*random_dataset(SPEC, 6, 42), 3)
    for variant in (*SPLIT_PROTOCOLS, Protocol.FEDERATED):
        if variant is Protocol.FEDERATED:
            run = run_federated_training(SPEC, shards, rounds=2, local_lr=0.01, seed=42)
            working, base, last = models
            assert last.params is run.server_params
            assert all(plan.scratch is base.plans[1].scratch for plan in last.plans.values())
            models.remove(last)
        else:
            run = run_split_training(SPEC, 1, shards, variant, epochs=2, lr=0.01, seed=42)
        buffers = [*run.client_params, run.server_params, *(model.params for model in models),
                   *(plan.scratch for model in models for plan in model.plans.values())]
        models.clear()
        for i, a in enumerate(buffers):
            for b in buffers[i + 1 :]:
                assert not np.shares_memory(a, b), variant
        if variant in (Protocol.SPLIT_SYNC, Protocol.SPLIT_SYNC_BATCH):
            # the ring's last hand-off gave client1 a copy of client3's weights
            assert np.array_equal(run.client_params[0], run.client_params[2])


@pytest.mark.parametrize("variant", [*SPLIT_PROTOCOLS, Protocol.FEDERATED])
@pytest.mark.parametrize("batch_size", [1, 2])
def test_losses_reduced_as_the_bounded_rows_fill_keep_their_bits(monkeypatch, variant, batch_size):
    # A plan holds at most DIFF_BLOCK scalars of differences, so a shard's
    # labels are not held twice; a turn with more batches reduces its losses
    # each time the rows fill. With room for 12 scalars (3 rows of SPEC's two
    # outputs at batch 2, 6 at batch 1) against one reduction per turn,
    # shards of 11 and 10 records train to the same weights and losses.
    shards = partition_dataset(*random_dataset(SPEC, 21, 7), 2, strict=False)

    def run():
        if variant is Protocol.FEDERATED:
            result = run_federated_training(SPEC, shards, rounds=2, local_lr=0.05, seed=3, batch_size=batch_size)
        else:
            result = run_split_training(SPEC, 1, shards, variant, epochs=2, lr=0.05, seed=3, batch_size=batch_size)
        return [*result.client_params, result.server_params], result.losses

    whole_turns = run()
    monkeypatch.setattr(nn_core, "DIFF_BLOCK", 12)
    assert nn_core.StepPlan(SPEC, np.zeros(param_count(SPEC)), batch_size, 11).diffs.size <= 12
    params, losses = run()
    assert losses == whole_turns[1]
    assert [p.tobytes() for p in params] == [p.tobytes() for p in whole_turns[0]]


@pytest.mark.parametrize("variant", [Protocol.SPLIT_SYNC_BATCH, Protocol.FEDERATED])
@pytest.mark.parametrize("activation", list(Activation))
def test_ragged_batches_run_in_the_full_plans_buffers_with_the_same_bits(monkeypatch, variant, activation):
    # Shards of 10, 9 and 9 records at batch 4 leave ragged batches of 2 and 1
    # records. In each working model the 2-record plan borrows the front of
    # every buffer of the 4-record plan and both ragged plans its SGD scratch,
    # so a ragged batch holds no step memory of its own; a federated round's
    # last client trains in the global model, whose 4-record plan borrows
    # base's. The run keeps the bits of one where every plan makes its own
    # buffers.
    spec = ModelSpec((4, 6, 5, 3), activation)
    shards = partition_dataset(*random_dataset(spec, 28, 7), 3, strict=False)
    models = []

    class RecordedModel(protocol_sim._WorkingModel):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            models.append(self)

    def run():
        if variant is Protocol.FEDERATED:
            result = run_federated_training(spec, shards, rounds=2, local_lr=0.05, seed=3, batch_size=4)
        else:
            result = run_split_training(spec, 2, shards, variant, epochs=2, lr=0.05, seed=3, batch_size=4)
        return [p.tobytes() for p in (*result.client_params, result.server_params)], result.losses

    monkeypatch.setattr(protocol_sim, "_WorkingModel", RecordedModel)
    shared = run()
    assert len(models) == (3 if variant is Protocol.FEDERATED else 1)
    for model in models:
        full, two, one = (model.plans[r] for r in (4, 2, 1))
        assert len(two._buffers) == len(full._buffers)
        assert all(np.shares_memory(a, b) for a, b in zip(two._buffers, full._buffers))
        assert two.scratch is full.scratch and one.scratch is full.scratch
        # a one-record input ends in a 1 that no other plan's rows overwrite
        assert not any(np.shares_memory(a, b) for a in one.acts[:-1] for b in full._buffers + two._buffers)
    if variant is Protocol.FEDERATED:
        _, base, last = (model.plans[4] for model in models)
        assert last.scratch is base.scratch
        assert all(np.shares_memory(a, b) for a, b in zip(last._buffers, base._buffers))

    plan = nn_core.StepPlan
    monkeypatch.setattr(nn_core, "StepPlan", lambda *args, base=None: plan(*args))
    assert run() == shared


def test_shard_widths_checked_once_per_run():
    x, y = random_dataset(SPEC, 6, 42)
    wide_x = [(np.zeros((3, 5)), y[:3])]
    wide_y = [(x[:3], np.zeros((3, 3)))]
    short_y = [(x[:3], y[:2])]
    for bad in (wide_x, wide_y, short_y):
        with pytest.raises(ShapeMismatch):
            run_split_training(SPEC, 1, bad, Protocol.SPLIT_SYNC, epochs=1, lr=0.01, seed=42)
        with pytest.raises(ShapeMismatch):
            run_federated_training(SPEC, bad, rounds=1, local_lr=0.01, seed=42)


class _ReadAgainShards(collections.abc.Sequence):
    """Two shards of three records, read as such on the check pass; every
    later read returns ``later(k)`` instead."""

    def __init__(self, later):
        self.x, self.y = random_dataset(SPEC, 6, 42)
        self.later, self.reads = later, 0

    def __len__(self):
        return 2

    def __getitem__(self, k):
        if not 0 <= k < len(self):
            raise IndexError(k)
        self.reads += 1
        if self.reads <= len(self):
            return self.x[3 * k : 3 * k + 3], self.y[3 * k : 3 * k + 3]
        return self.later(self, k)


_RUNS = (
    lambda shards: run_split_training(SPEC, 1, shards, Protocol.SPLIT_SYNC, epochs=1, lr=0.01, seed=42),
    lambda shards: run_federated_training(SPEC, shards, rounds=1, local_lr=0.01, seed=42),
)


@pytest.mark.parametrize("later", [
    lambda s, k: (s.x[3 * k : 3 * k + 3], s.y[3 * k : 3 * k + 1]),  # one label row, which would broadcast
    lambda s, k: (s.x[3 * k : 3 * k + 2], s.y[3 * k : 3 * k + 2]),  # a whole shard of two records
    lambda s, k: (s.x[:1], s.y[:1]),  # one record, which would broadcast
    lambda s, k: (s.x[3 * k : 3 * k + 3, :3], s.y[3 * k : 3 * k + 3]),  # too narrow
    lambda s, k: (s.x[3 * k : 3 * k + 2].tolist(), s.y[3 * k : 3 * k + 2].tolist()),  # two records, as lists
])
def test_a_turn_holds_its_shard_to_the_shape_the_check_found(later):
    for run in _RUNS:
        with pytest.raises(ShapeMismatch):
            run(_ReadAgainShards(later))


def test_a_turn_converts_a_shard_read_again_as_the_check_does():
    # lists of the checked shape are made float64 as the check pass makes them: the same run
    for run in _RUNS:
        want = run(_ReadAgainShards(lambda s, k: (s.x[3 * k : 3 * k + 3], s.y[3 * k : 3 * k + 3])))
        got = run(_ReadAgainShards(lambda s, k: (s.x[3 * k : 3 * k + 3].tolist(), s.y[3 * k : 3 * k + 3].tolist())))
        assert list(got.ledger) == list(want.ledger) and got.losses == want.losses
        assert all(map(np.array_equal, got.client_params + [got.server_params],
                       want.client_params + [want.server_params]))


class _CountingCore:
    """Stands in for protocol_sim's ``nn_core``, counting the calls made
    through it, under a lock: a federated round's two lanes call at once."""

    def __init__(self):
        self.calls, self.lock = Counter(), threading.Lock()

    def __getattr__(self, name):
        fn = getattr(nn_core, name)

        def counted(*args, **kwargs):
            with self.lock:
                self.calls[name] += 1
            return fn(*args, **kwargs)

        return counted


STEP_PHASES = ("_forward_layers", "_mse_and_grad", "_backward_layers", "sgd_step", "fold_centered", "centered_mean")


@pytest.mark.parametrize("variant", [*SPLIT_PROTOCOLS, Protocol.FEDERATED])
def test_training_step_calls_through_nn_core(monkeypatch, variant):
    # The benchmark tracer wraps these names on protocol_sim's nn_core, and
    # counts one training step per _mse_and_grad call.
    core = _CountingCore()
    monkeypatch.setattr(protocol_sim, "nn_core", core)
    shards = golden_shards(p=10, clients=2)  # 5 records per client
    rounds, batch_size = 3, 2
    if variant is Protocol.FEDERATED:
        run_federated_training(SPEC, shards, rounds=rounds, local_lr=0.01, seed=42, batch_size=batch_size)
        batches = rounds * 2 * 3
    else:
        run_split_training(SPEC, 1, shards, variant, epochs=rounds, lr=0.01, seed=42, batch_size=batch_size)
        turns = rounds if variant is Protocol.SPLIT_NOSYNC else rounds * 2
        batches = turns * 3
    # one whole-model step per batch, split or federated
    expected = {"_forward_layers": batches, "_mse_and_grad": batches, "_backward_layers": batches,
                "sgd_step": batches,
                # federated folds each of the 2 uploads as its client finishes, then takes the mean once a round
                "fold_centered": rounds * 2 if variant is Protocol.FEDERATED else 0,
                "centered_mean": rounds if variant is Protocol.FEDERATED else 0}
    assert {name: core.calls[name] for name in STEP_PHASES} == expected


# --- federated training ------------------------------------------------------

def test_federated_golden_totals():
    run = run_federated_training(SPEC, golden_shards(), rounds=5, local_lr=0.01, seed=42)
    assert measured_comm(run.ledger, golden_params(epochs=5), Protocol.FEDERATED).total_scalars == 460  # 2 K N rounds
    totals = run.ledger.totals_by_kind()
    assert totals[MessageKind.GLOBAL_WEIGHTS] == 23 * 2 * 5
    assert totals[MessageKind.CLIENT_WEIGHTS] == 23 * 2 * 5
    assert totals[MessageKind.ACTIVATIONS] == 0


def test_federated_memory_does_not_grow_with_clients():
    # Each upload is folded into a running sum as its client finishes, so a
    # round holds the same few N-vectors at K = 2 as at K = 16.
    spec = ModelSpec((256, 768, 256, 10))

    def traced_peak(clients):
        shards = partition_dataset(*random_dataset(spec, clients, 5), clients)
        tracemalloc.start()
        try:
            run_federated_training(spec, shards, rounds=1, local_lr=0.01, seed=5)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    n_vector_bytes = 8 * param_count(spec)
    assert abs(traced_peak(16) - traced_peak(2)) < n_vector_bytes


def test_federated_round_holds_four_model_vectors():
    # Global, working weights, base and sum are N scalars each; the SGD step
    # writes its gradient block by block into a scratch of at most SGD_BLOCK
    # scalars (an N-sized gradient buffer would read five vectors).
    spec = ModelSpec((256, 768, 256, 10))
    shards = partition_dataset(*random_dataset(spec, 2, 5), 2)
    tracemalloc.start()
    try:
        run_federated_training(spec, shards, rounds=1, local_lr=0.01, seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.5 * 8 * param_count(spec)


def test_federated_one_download_one_upload_per_client_per_round():
    run = run_federated_training(SPEC, golden_shards(), rounds=3, local_lr=0.01, seed=42)
    for rnd in range(3):
        msgs = [m for m in run.ledger if m.epoch == rnd]
        downloads = [m for m in msgs if m.kind is MessageKind.GLOBAL_WEIGHTS]
        uploads = [m for m in msgs if m.kind is MessageKind.CLIENT_WEIGHTS]
        assert [m.receiver for m in downloads] == [client_id(1), client_id(2)]
        assert [m.sender for m in uploads] == [client_id(1), client_id(2)]
        assert all(m.scalar_count == 23 for m in downloads + uploads)


@pytest.mark.parametrize("clients", [1, 2, 5])
def test_a_federated_round_logs_its_downloads_as_k_appends_did(clients, monkeypatch):
    # a round's K GlobalWeights downloads are one log_turn call; the ledger holds,
    # writes and tallies them as K appends of one message each did
    rounds, n = 3, param_count(SPEC)
    calls = Counter()
    log_turn = TrafficLedger.log_turn

    def counted(self, epoch, batch, runs):
        calls[len(batch)] += 1
        log_turn(self, epoch, batch, runs)

    monkeypatch.setattr(TrafficLedger, "log_turn", counted)
    run = run_federated_training(SPEC, golden_shards(p=10, clients=clients), rounds, local_lr=0.01, seed=42)
    monkeypatch.undo()
    # per round: the downloads as one K-message turn, then each upload as a one-message append
    assert calls == ({1: rounds * (clients + 1)} if clients == 1 else {clients: rounds, 1: rounds * clients})
    by_append = TrafficLedger()
    for epoch in range(rounds):
        for k in range(clients):
            by_append.append(epoch, SERVER, client_id(k + 1), MessageKind.GLOBAL_WEIGHTS, n)
        for k in range(clients):
            by_append.append(epoch, client_id(k + 1), SERVER, MessageKind.CLIENT_WEIGHTS, n)
    columns = ("_senders", "_receivers", "_kinds", "_counts", "_run_epochs", "_run_starts", "_repeats", "_names")
    assert [getattr(run.ledger, c) for c in columns] == [getattr(by_append, c) for c in columns]
    assert len(run.ledger) == len(by_append) == 2 * rounds * clients
    run_csv, append_csv = io.StringIO(), io.StringIO()
    run.ledger.to_csv(run_csv)
    by_append.to_csv(append_csv)
    assert run_csv.getvalue() == append_csv.getvalue()
    assert run.ledger.tally() == by_append.tally()


def test_federated_zero_rounds():
    run = run_federated_training(SPEC, golden_shards(), rounds=0, local_lr=0.01, seed=42)
    assert len(run.ledger) == 0
    assert np.array_equal(run.server_params, init_params(SPEC, 42))


def test_federated_identical_shards_match_single_client_training():
    x, y = random_dataset(SPEC, 4, seed=3)
    clones = [(x, y)] * 3
    run = run_federated_training(SPEC, clones, rounds=4, local_lr=0.05, seed=11)

    params = init_params(SPEC, 11)
    for _ in range(4):
        for i in range(x.shape[0]):
            grads = gradients(SPEC, params, x[i : i + 1], y[i : i + 1])[1]
            params = sgd_step(params, grads, 0.05)
    assert np.array_equal(run.server_params, params)


@pytest.mark.parametrize("clients, steps", [
    (1, [(0,)]),
    (2, [(0, 1)]),
    (3, [(0, 1), (2,)]),
    (4, [(0, 1), (2, 3)]),
    (5, [(0, 1), (2,), (3, 4)]),
    (7, [(0, 1), (2,), (3,), (4,), (5, 6)]),
])
def test_a_federated_round_pairs_its_first_two_and_last_two_clients(clients, steps):
    # client 1 trains in base, client 2 and the middle clients in the working
    # model, and from K = 3 the last client in the global model: consecutive
    # clients in different vectors train at once
    x, y = random_dataset(SPEC, clients, 1)
    shards = partition_dataset(x, y, clients)
    sizes = [1] * clients
    working = protocol_sim._WorkingModel(SPEC, init_params(SPEC, 1), 1, sizes, 0.01)
    scheduler = protocol_sim._FederatedRound(SPEC, shards, sizes, working)
    assert [tuple(step) for step in scheduler.steps] == steps
    vectors = [model.params for model in scheduler.models]
    assert vectors[0] is not scheduler.global_vec and not np.shares_memory(vectors[0], working.params)
    assert all(v is working.params for v in vectors[1 : max(2, clients - 1)])
    assert (vectors[-1] is scheduler.global_vec) == (clients >= 3)


def _federated_bytes(run):
    csv = io.StringIO()
    run.ledger.to_csv(csv)
    return run.server_params.tobytes(), run.losses, list(run.ledger), csv.getvalue()


@pytest.mark.parametrize("activation", [Activation.SIGMOID, Activation.RELU])
@pytest.mark.parametrize("clients", [1, 2, 3, 4, 5, 7])
@pytest.mark.parametrize("batch_size, records", [
    # even shards of two records
    pytest.param(1, lambda k: 2 * k, id="batch1-even"),
    # lenient shards of 4 and 5 records: ragged batches of 1 and 2
    pytest.param(3, lambda k: 4 * k + k // 2 + 1, id="batch3-ragged"),
    # lenient shards of one record and, from K = 2, a client with none
    pytest.param(3, lambda k: max(1, k - 1), id="batch3-empty-client"),
])
def test_federated_bits_do_not_depend_on_the_lane_count(monkeypatch, activation, clients, batch_size, records):
    spec = ModelSpec((4, 6, 5, 3), activation)
    shards = partition_dataset(*random_dataset(spec, records(clients), 7), clients, strict=False)

    def run(lanes):
        monkeypatch.setattr(protocol_sim, "LANES", lanes)
        return _federated_bytes(run_federated_training(spec, shards, rounds=3, local_lr=0.05, seed=3,
                                                       batch_size=batch_size))

    one = run(1)
    assert all(math.isfinite(loss) for loss in one[1])
    assert run(2) == one
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # the lanes trade the interpreter as often as it lets them
    try:
        assert run(2) == one
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("on_partner", [True, False])
def test_a_failure_in_either_lane_is_raised_after_the_partner_joins(monkeypatch, on_partner):
    # the step raises on one lane's client and is slowed on the other's; the
    # run raises it once the other lane has finished, so no partner thread
    # outlives the run
    class StepFailed(Exception):
        pass

    caller, sgd = threading.current_thread(), nn_core.sgd_step

    def failing(plan, lr):
        if (threading.current_thread() is not caller) == on_partner:
            raise StepFailed
        time.sleep(0.01)
        return sgd(plan, lr)

    monkeypatch.setattr(protocol_sim, "LANES", 2)
    monkeypatch.setattr(protocol_sim.nn_core, "sgd_step", failing)
    threads = threading.active_count()
    with pytest.raises(StepFailed):
        run_federated_training(SPEC, golden_shards(p=8, clients=4), rounds=2, local_lr=0.01, seed=42)
    assert threading.active_count() == threads


# --- measured reports and verification ----------------------------------------

def test_measured_comm_empty_ledger():
    report = measured_comm(TrafficLedger(), golden_params(clients=3), method=Protocol.SPLIT_SYNC)
    assert report.per_client_scalars == 0 and report.total_scalars == 0


def test_measured_comm_golden_run():
    run = run_split_training(SPEC, 1, golden_shards(), Protocol.SPLIT_SYNC,
                             epochs=1, lr=0.01, seed=42)
    report = measured_comm(run.ledger, golden_params(), method=Protocol.SPLIT_SYNC)
    assert report.method is Protocol.SPLIT_SYNC
    assert report.total_scalars == 66
    # per client: 9 activations out, 9 gradients in, the one hand-off it sends
    assert report.per_client_scalars == 9 + 9 + 15

    with_labels = measured_comm(run.ledger, golden_params(label_width=2), method=Protocol.SPLIT_SYNC)
    assert with_labels.total_scalars == 66 + 6 * 2


def test_verify_golden_runs_exactly():
    shards = golden_shards()
    sync = run_split_training(SPEC, 1, shards, Protocol.SPLIT_SYNC, epochs=2, lr=0.01, seed=42)
    assert verify_against_model(sync.ledger, golden_params(epochs=2, label_width=LABEL_WIDTH),
                                Protocol.SPLIT_SYNC).matches

    alt = run_split_training(SPEC, 1, shards, Protocol.SPLIT_NOSYNC, epochs=4, lr=0.01, seed=42)
    assert verify_against_model(alt.ledger, golden_params(epochs=4, label_width=LABEL_WIDTH),
                                Protocol.SPLIT_NOSYNC).matches

    fed = run_federated_training(SPEC, shards, rounds=3, local_lr=0.01, seed=42)
    assert verify_against_model(fed.ledger, golden_params(epochs=3, label_width=LABEL_WIDTH),
                                Protocol.FEDERATED).matches


def test_verify_alternating_cycle_equals_nosync_closed_form():
    # K simulated epochs form one full data pass: totals match the no-sync
    # closed form at one epoch
    shards = golden_shards(p=12, clients=3)
    run = run_split_training(SPEC, 1, shards, Protocol.SPLIT_NOSYNC, epochs=3, lr=0.01, seed=9)
    params = golden_params(p=12, clients=3, epochs=1)
    formula = comm_report(params, Protocol.SPLIT_NOSYNC)
    assert measured_comm(run.ledger, params, Protocol.SPLIT_NOSYNC).total_scalars == formula.total_scalars


@pytest.mark.parametrize("protocol", list(Protocol))
def test_turn_rule_visits_each_client_as_often_as_the_closed_form_counts(protocol):
    # The simulator's _turns and client_kind_totals' visit arithmetic stay
    # apart, so the ledger check stays independent; this links the two rules
    # beyond the ledger properties' K <= 4 and epochs <= 4.
    for k in range(1, 10):
        p = 2 * k + 1  # uneven shards, every client holding records
        for epochs in range(1, 21):
            params = golden_params(p=p, clients=k, epochs=epochs)
            visits = Counter(i for e in range(epochs) for i in protocol_sim._turns(protocol, e, k))
            forms = protocol_sim.client_kind_totals(params, protocol)
            for i, size in enumerate(shard_sizes(p, k, strict=False)):
                one_epoch = traffic_by_kind(params._replace(epochs=1), protocol, size)
                assert forms[client_id(i + 1)] == {kind: n * visits[i] for kind, n in one_epoch.items()}, (k, epochs)
            assert sum(visits.values()) == epochs * (1 if protocol is Protocol.SPLIT_NOSYNC else k)


def test_verify_flags_injected_fault():
    run = run_split_training(SPEC, 1, golden_shards(), Protocol.SPLIT_SYNC,
                             epochs=1, lr=0.01, seed=42)
    run.ledger.append(0, client_id(1), SERVER, MessageKind.ACTIVATIONS, 3)
    report = verify_against_model(run.ledger, golden_params(label_width=LABEL_WIDTH), Protocol.SPLIT_SYNC)
    assert not report.matches
    assert report.deltas == {MessageKind.ACTIVATIONS: 3}
    assert "Activations" in report.describe() and "+3" in report.describe()


def test_verify_flags_hand_off_credited_to_the_wrong_client():
    run = run_split_training(SPEC, 1, golden_shards(), Protocol.SPLIT_SYNC,
                             epochs=1, lr=0.01, seed=42)
    forged = TrafficLedger()
    for m in run.ledger:
        if m.kind is MessageKind.CLIENT_WEIGHTS and m.sender == client_id(1):
            # client2 now appears to send client1's hand-off: per-kind totals are unchanged
            m = Message(m.epoch, client_id(2), client_id(1), m.kind, m.scalar_count)
        forged.append(*m)
    assert forged.totals_by_kind() == run.ledger.totals_by_kind()
    report = verify_against_model(forged, golden_params(label_width=LABEL_WIDTH), Protocol.SPLIT_SYNC)
    assert not report.matches
    assert report.deltas == {}
    assert report.client == client_id(1)
    assert report.client_deltas == {MessageKind.CLIENT_WEIGHTS: -15}
    assert "first differing client client1 (ClientWeights -15)" in report.describe()


def test_verify_flags_a_message_no_client_owns():
    run = run_split_training(SPEC, 1, golden_shards(), Protocol.SPLIT_SYNC,
                             epochs=1, lr=0.01, seed=42)
    run.ledger.append(0, SERVER, client_id(3), MessageKind.GRADIENTS, 3)
    report = verify_against_model(run.ledger, golden_params(label_width=LABEL_WIDTH), Protocol.SPLIT_SYNC)
    assert not report.matches
    assert report.client == client_id(3)
    assert report.deltas == {MessageKind.GRADIENTS: 3}


def test_verify_method_aliases():
    run = run_split_training(SPEC, 1, golden_shards(), Protocol.SPLIT_SYNC,
                             epochs=1, lr=0.01, seed=42)
    assert verify_against_model(run.ledger, golden_params(label_width=LABEL_WIDTH), Protocol.SPLIT_SYNC).matches
    alt = run_split_training(SPEC, 1, golden_shards(), Protocol.SPLIT_NOSYNC,
                             epochs=2, lr=0.01, seed=42)
    assert verify_against_model(alt.ledger, golden_params(epochs=2, label_width=LABEL_WIDTH),
                                Protocol.SPLIT_NOSYNC).matches


def test_verify_lenient_shards():
    x, y = random_dataset(SPEC, 7, 1)
    shards = partition_dataset(x, y, 2, strict=False)
    run = run_split_training(SPEC, 1, shards, Protocol.SPLIT_SYNC, epochs=1, lr=0.01, seed=1)
    params = golden_params(p=7)
    assert verify_against_model(run.ledger, params._replace(label_width=LABEL_WIDTH), Protocol.SPLIT_SYNC).matches
    # forward+backward split traffic still totals 2 p q regardless of the remainder
    measured = measured_comm(run.ledger, params, Protocol.SPLIT_SYNC).total_scalars
    assert measured == comm_report(params, Protocol.SPLIT_SYNC, strict=False).total_scalars


# --- ledger CSV --------------------------------------------------------------

def test_ledger_csv_format_and_order():
    run = run_split_training(SPEC, 1, golden_shards(), Protocol.SPLIT_SYNC,
                             epochs=1, lr=0.01, seed=42)
    buf = io.StringIO()
    run.ledger.to_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "epoch,sender,receiver,kind,scalar_count"
    # default batch size is one record, so each transfer carries one record's payload
    assert lines[1] == "0,client1,server,Activations,3"
    assert lines[2] == "0,client1,server,Labels,2"
    assert lines[3] == "0,server,client1,Gradients,3"
    assert lines[10] == "0,client1,client2,ClientWeights,15"
    assert len(lines) == 1 + len(run.ledger)


# --- the ledger's columns ------------------------------------------------------

def ledger_state(ledger):
    buf = io.StringIO()
    ledger.to_csv(buf)
    return list(ledger), ledger.tally(), ledger.totals_by_kind(), buf.getvalue()


@pytest.mark.parametrize("bad, epoch, sender, receiver, kind, count", [
    ("kind", 0, client_id(1), SERVER, "Activations", 3),  # equal to a kind, but a str
    ("epoch", -1, client_id(1), SERVER, MessageKind.ACTIVATIONS, 3),
    ("epoch", 2**31, client_id(1), SERVER, MessageKind.ACTIVATIONS, 3),
    ("epoch", 1.0, client_id(1), SERVER, MessageKind.ACTIVATIONS, 3),
    ("count", 0, client_id(1), SERVER, MessageKind.ACTIVATIONS, 3.5),
    ("count", 0, client_id(1), SERVER, MessageKind.ACTIVATIONS, -1),
    ("count", 0, client_id(1), SERVER, MessageKind.ACTIVATIONS, 2**63),
    ("sender", 0, "client 1", SERVER, MessageKind.ACTIVATIONS, 3),  # no identifier: the CSV would need quoting
    ("receiver", 0, client_id(3), None, MessageKind.ACTIVATIONS, 3),
    ("sender", 0, [client_id(1)], SERVER, MessageKind.ACTIVATIONS, 3),  # unhashable
    ("epoch", True, client_id(1), SERVER, MessageKind.ACTIVATIONS, 3),  # bool is an int subclass
    ("count", 0, client_id(1), SERVER, MessageKind.ACTIVATIONS, True),
    ("count", 0, client_id(1), SERVER, MessageKind.ACTIVATIONS, np.int64(3)),
    ("count", 0, client_id(3), client_id(4), MessageKind.CLIENT_WEIGHTS, -1),  # two new endpoints
], ids=["kind-str", "epoch-negative", "epoch-past-int32", "epoch-float", "count-float", "count-negative",
        "count-past-int64", "sender-not-identifier", "receiver-none", "sender-unhashable", "epoch-bool",
        "count-bool", "count-int64", "count-negative-new-endpoints"])
def test_append_refuses_a_bad_message_and_changes_nothing(bad, epoch, sender, receiver, kind, count):
    # the error names the bad value
    named = re.escape(repr(dict(epoch=epoch, sender=sender, receiver=receiver, kind=kind, count=count)[bad]))
    ledger = TrafficLedger()
    ledger.append(0, client_id(1), SERVER, MessageKind.LABELS, 2)
    before = ledger_state(ledger)
    with pytest.raises(InvalidParam, match=named):
        ledger.append(epoch, sender, receiver, kind, count)
    assert ledger_state(ledger) == before
    # a turn of three runs of two-message batches whose second message is the
    # bad one's, its count in the first, the middle or the last run
    batch = ((client_id(1), SERVER, MessageKind.ACTIVATIONS), (sender, receiver, kind))
    for at in range(3):
        runs = [([3, 3], 2)] * 3
        runs[at] = ([3, count], 1 + at)
        with pytest.raises(InvalidParam, match=named):
            ledger.log_turn(epoch, batch, runs)
        assert ledger_state(ledger) == before
    # the columns stay in step: the next message is read back whole
    ledger.append(2**31 - 1, SERVER, client_id(2), MessageKind.GRADIENTS, 2**63 - 1)
    assert list(ledger)[1:] == [Message(2**31 - 1, SERVER, client_id(2), MessageKind.GRADIENTS, 2**63 - 1)]
    assert ledger_state(ledger)[3].endswith(f"\n{2**31 - 1},server,client2,Gradients,{2**63 - 1}\n")
    # and the refusals left no trace: a fresh ledger given only the valid calls is the same
    fresh = TrafficLedger()
    fresh.append(0, client_id(1), SERVER, MessageKind.LABELS, 2)
    fresh.append(2**31 - 1, SERVER, client_id(2), MessageKind.GRADIENTS, 2**63 - 1)
    assert ledger_state(ledger) == ledger_state(fresh)


@pytest.mark.parametrize("entry", [(client_id(1), SERVER), None, (client_id(1), SERVER, MessageKind.LABELS, 2)],
                         ids=["pair", "none", "four-fields"])
def test_log_turn_refuses_a_batch_entry_that_is_not_a_triple(entry):
    ledger = TrafficLedger()
    ledger.append(0, client_id(1), SERVER, MessageKind.LABELS, 2)
    before = ledger_state(ledger)
    for batch in ([entry], [(client_id(1), SERVER, MessageKind.ACTIVATIONS), entry]):
        with pytest.raises(InvalidParam, match=re.escape(repr(entry))):
            ledger.log_turn(0, batch, [([1] * len(batch), 1)])
        assert ledger_state(ledger) == before


TWO_MESSAGES = ((client_id(1), SERVER, MessageKind.ACTIVATIONS), (SERVER, client_id(1), MessageKind.GRADIENTS))


@pytest.mark.parametrize("batch, runs, why", [
    (TWO_MESSAGES, [([3, 3], 2), ([3, 3, 3], 1)], "has 3 scalar counts"),
    (TWO_MESSAGES, [([3], 0)], "has 1 scalar counts"),  # checked though it logs nothing
    ((), [], "at least one message"),
    ((), [([], 1)], "at least one message"),
    (TWO_MESSAGES, [([3, 3], 2), ([3, 3], -1)], "got -1"),
    (TWO_MESSAGES, [([3, 3], True)], "got True"),  # bool is an int subclass
    (TWO_MESSAGES, [([3, 3], 2.0)], "got 2.0"),
    (TWO_MESSAGES, [([3, 3], np.int64(2))], re.escape(f"got {np.int64(2)!r}")),
    (TWO_MESSAGES, [([3, 3], 1), ([3, 3], 2**63)], f"got {2**63}"),
    ((TWO_MESSAGES[0], (client_id(3), client_id(4), MessageKind.CLIENT_WEIGHTS)), [([3, 3], 2**63)],
     f"got {2**63}"),  # two new endpoints
], ids=["3-counts-for-2", "1-count-for-2-unsent", "empty-batch", "empty-batch-1-run", "repeat-negative",
        "repeat-bool", "repeat-float", "repeat-int64", "repeat-past-int64", "repeat-past-int64-new-endpoints"])
def test_log_turn_refuses_a_bad_run_and_changes_nothing(batch, runs, why):
    ledger = TrafficLedger()
    ledger.append(0, client_id(1), SERVER, MessageKind.LABELS, 2)
    before = ledger_state(ledger)
    with pytest.raises(InvalidParam, match=why):
        ledger.log_turn(0, batch, runs)
    assert ledger_state(ledger) == before
    # no endpoint joined the table: the next new one takes the next index
    ledger.append(0, client_id(5), SERVER, MessageKind.LABELS, 2)
    assert ledger._names == [SERVER, client_id(1), client_id(5)]


def test_a_turn_of_no_batches_logs_nothing_but_checks_its_batch():
    ledger = TrafficLedger()
    ledger.log_turn(0, ((client_id(1), SERVER, MessageKind.ACTIVATIONS),), [])
    ledger.log_turn(0, ((client_id(1), SERVER, MessageKind.ACTIVATIONS),), [([5], 0), ([6], 0)])
    assert len(ledger) == 0 and ledger.tally() == {} and ledger._names == [SERVER]
    for epoch, batch, runs in [(0, ((client_id(1), SERVER, "Activations"),), []),
                               (-1, ((client_id(1), SERVER, MessageKind.ACTIVATIONS),), []),
                               (0, (("client 1", SERVER, MessageKind.ACTIVATIONS),), []),
                               (0, ((client_id(1), SERVER, MessageKind.ACTIVATIONS),), [([-1], 0)])]:
        with pytest.raises(InvalidParam):
            ledger.log_turn(epoch, batch, runs)
    assert ledger_state(ledger) == ([], {}, dict.fromkeys(MessageKind, 0), "epoch,sender,receiver,kind,scalar_count\n")


def held_per_message(log):
    """A new ledger filled by ``log(ledger)``, and the traced bytes it holds per message."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        ledger = TrafficLedger()
        log(ledger)
        held = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    return ledger, held / len(ledger)


RING_CLIENTS, RING_RECORDS = 256, 50


def log_ring_epochs(ledger, epochs=3):
    # ring-many-clients' pattern, logged as the simulator logs it: one call
    # per turn for its records' Activations and Labels up and Gradients down,
    # then the hand-off that ends the turn.
    names = [client_id(k + 1) for k in range(RING_CLIENTS)]
    for epoch in range(epochs):
        for k, me in enumerate(names):
            batch = ((me, SERVER, MessageKind.ACTIVATIONS), (me, SERVER, MessageKind.LABELS),
                     (SERVER, me, MessageKind.GRADIENTS))
            ledger.log_turn(epoch, batch, [([4, 4, 8], RING_RECORDS)])
            ledger.append(epoch, me, names[(k + 1) % RING_CLIENTS], MessageKind.CLIENT_WEIGHTS, 172)


def append_alternating(ledger, messages=20_000):
    for i in range(messages):
        ledger.append(0, client_id(1 + i % 2), SERVER if i % 3 else client_id(2 - i % 2),
                      MessageKind.ACTIVATIONS, i % 7)


def log_changing_turns(ledger, turns=1_000, batches=50):
    # 100,000 messages in turns whose counts change every batch
    batch = ((client_id(1), SERVER, MessageKind.ACTIVATIONS), (SERVER, client_id(2), MessageKind.GRADIENTS))
    for turn in range(turns):
        ledger.log_turn(0, batch, [([turn + b] * len(batch), 1) for b in range(batches)])


def test_ledger_holds_a_message_in_24_bytes():
    # The worst case for runs: no batch repeats, so every message is stored,
    # and consecutive one-off batches of an epoch share one run. With Python
    # 3.11 the appends hold 18.0 bytes a message and the turns 17.4. Appends
    # stay at 20,000: under tracemalloc each takes about 0.17 ms.
    for log in (append_alternating, log_changing_turns):
        ledger, per_message = held_per_message(log)
        assert len(ledger) >= 20_000 and len(ledger._repeats) == 1
        assert per_message <= 24


def test_ledger_holds_ring_turns_as_runs_in_4_bytes_a_message():
    # ring-many-clients' pattern over 3 epochs: each turn is two runs, its 50
    # identical batches and its hand-off, so 115,968 messages are 1,536 runs,
    # 1.5 bytes a message with Python 3.11 (22.7 when every message took a
    # row of five columns).
    ledger, per_message = held_per_message(log_ring_epochs)
    assert len(ledger) == 3 * RING_CLIENTS * (3 * RING_RECORDS + 1) == 115_968
    assert len(ledger._repeats) == 2 * 3 * RING_CLIENTS
    assert per_message <= 4


def test_a_long_run_is_read_in_bounded_copies_that_hold_no_column():
    # one run of 100,000 one-off messages (1.7 MB of columns) is read a few
    # thousand messages at a time, and an iterator left part read does not
    # stop the ledger growing
    ledger = TrafficLedger()
    log_changing_turns(ledger)
    assert len(ledger._repeats) == 1
    ends = ((client_id(1), SERVER, MessageKind.ACTIVATIONS), (SERVER, client_id(2), MessageKind.GRADIENTS))
    expected = [Message(0, *end, turn + b) for turn in range(1_000) for b in range(50) for end in ends]
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        read = sum(1 for _ in ledger)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert read == len(ledger) == 100_000 and peak < 256 * 1024
    assert list(ledger) == expected
    part_read = iter(ledger)
    next(part_read)
    ledger.append(1, client_id(1), SERVER, MessageKind.LABELS, 5)
    assert list(ledger) == expected + [Message(1, client_id(1), SERVER, MessageKind.LABELS, 5)]


class WriteSizes(io.StringIO):
    """A text file that records the size of every write."""

    def __init__(self):
        super().__init__()
        self.sizes = []

    def write(self, text):
        self.sizes.append(len(text))
        return super().write(text)


def test_to_csv_writes_a_long_turn_in_bounded_chunks():
    # a 100,000-batch turn is one run: its batch is formatted once and written
    # in chunks of at most 64 KB, never as one string
    me, batches = client_id(1), 100_000
    batch = ((me, SERVER, MessageKind.ACTIVATIONS), (me, SERVER, MessageKind.LABELS),
             (SERVER, me, MessageKind.GRADIENTS))
    ledger = TrafficLedger()
    ledger.log_turn(3, batch, [([8, 4, 8], batches - 1), ([1, 1, 1], 1)])
    out = WriteSizes()
    ledger.to_csv(out)
    lines = "3,client1,server,Activations,8\n3,client1,server,Labels,4\n3,server,client1,Gradients,8\n"
    assert out.getvalue() == ("epoch,sender,receiver,kind,scalar_count\n" + lines * (batches - 1)
                              + "3,client1,server,Activations,1\n3,client1,server,Labels,1\n"
                              "3,server,client1,Gradients,1\n")
    assert max(out.sizes) <= 1 << 16 and len(out.sizes) < batches // 100  # nor a write a line


# --- shards made on their turn -------------------------------------------------

@st.composite
def dataset_splits(draw):
    """(spec, records, clients, strict): strict splits evenly, lenient may leave
    shards of no records; an input width up to 40,000 puts shard offsets past
    nn_core.STREAM_BLOCK outputs."""
    spec = ModelSpec((draw(st.sampled_from([1, 3, 16, 9_999, 40_000])), 2, draw(st.integers(1, 5))))
    clients, strict = draw(st.integers(1, 6)), draw(st.booleans())
    records = clients * draw(st.integers(0, 3)) if strict else draw(st.integers(0, 12))
    return spec, records, clients, strict


@settings(max_examples=60, deadline=None)
@given(split=dataset_splits(), seed=st.integers(-(1 << 70), 1 << 70), data=st.data())
def test_generated_shards_are_the_partitioned_dataset_bit_for_bit(split, seed, data):
    # against the whole-vector stream of tests/_stream.py, the reference
    # random_dataset matches bit for bit; shards are read in a drawn order,
    # each at least once, so reads inside and outside the held block are met
    spec, records, clients, strict = split
    eager = partition_dataset(*_stream.random_dataset(spec, records, seed), clients, strict=strict)
    shards = protocol_sim.GeneratedShards(random_dataset, spec, records, seed, clients, strict)
    assert len(shards) == len(eager) == clients
    order = data.draw(st.permutations(range(clients))) + data.draw(st.lists(st.integers(0, clients - 1), max_size=6))
    for k in order:
        for got, want in zip(shards[k], eager[k]):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_generated_shards_make_each_record_once_a_pass_in_blocks():
    # one-record shards, as in a run with as many clients as records: a pass
    # over the shards in order makes each record once, a block of
    # STREAM_BLOCK scalars (1,365 records of 6) a call, not a call a shard
    spec, records, made = ModelSpec((4, 3, 2)), 3_000, []

    def make(*args):
        made.append(args[3])
        return random_dataset(*args)

    shards = protocol_sim.GeneratedShards(make, spec, records, 1, records)
    run = run_split_training(spec, 1, shards, Protocol.SPLIT_SYNC, epochs=2, lr=0.01, seed=1)
    assert len(run.ledger) == 2 * records * 4
    one_pass = [range(0, 1_365), range(1_365, 2_730), range(2_730, 3_000)]
    assert made == one_pass * 3  # the check, then a pass an epoch
    eager = partition_dataset(*random_dataset(spec, records, 1), records)
    want = run_split_training(spec, 1, eager, Protocol.SPLIT_SYNC, epochs=2, lr=0.01, seed=1)
    assert list(run.ledger) == list(want.ledger) and run.losses == want.losses
    assert all(map(np.array_equal, run.client_params + [run.server_params], want.client_params + [want.server_params]))


def test_generated_shards_read_again_after_a_failed_make():
    spec, fail = ModelSpec((4, 3, 2)), [True]

    def make(*args):
        if fail.pop():
            raise MemoryError
        return random_dataset(*args)

    shards = protocol_sim.GeneratedShards(make, spec, 6, 3, 3)
    with pytest.raises(MemoryError):
        shards[1]
    fail.append(False)
    want = partition_dataset(*random_dataset(spec, 6, 3), 3)[1]
    assert all(map(np.array_equal, shards[1], want))


def test_generated_shards_refuse_an_uneven_strict_split():
    with pytest.raises(DivisibilityError):
        protocol_sim.GeneratedShards(random_dataset, SPEC, 7, 1, 2)


def test_a_run_holds_one_block_of_generated_shards_at_a_time():
    # ring-many-clients' shape: the whole dataset is 12,800 records of 16
    # inputs and 4 labels, 2,048,000 bytes; a run over shards made when read,
    # eight to a 64 KB block, peaks at about 0.9 MB, the working model, the held client weights
    # and the ledger included (3.6 MB with the dataset made whole and
    # partitioned first).
    spec = ModelSpec((16, 8, 4))
    shards = protocol_sim.GeneratedShards(random_dataset, spec, RING_CLIENTS * RING_RECORDS, 1, RING_CLIENTS)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        run = run_split_training(spec, 1, shards, Protocol.SPLIT_SYNC, epochs=1, lr=0.01, seed=1)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert len(run.ledger) == 38_656
    assert peak < RING_CLIENTS * RING_RECORDS * 20 * 8
