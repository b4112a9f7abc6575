"""Protocol runs, the traffic ledger, and the ledger-versus-formula cross-check."""

import io
import itertools
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from splitfed import (
    Activation,
    Diverged,
    DivisibilityError,
    InvalidParam,
    Message,
    MessageKind,
    Method,
    ModelSpec,
    Protocol,
    ScenarioParams,
    ShapeMismatch,
    ShardedDataset,
    SplitVariant,
    TrafficLedger,
    backward,
    comm_report,
    init_params,
    measured_comm,
    param_count,
    partition_dataset,
    random_dataset,
    run_federated_training,
    run_split_training,
    sgd_step,
    verify_against_model,
)
from splitfed import nn_core, protocol_sim
from splitfed.protocol_sim import SERVER, client_id


SPEC = ModelSpec((4, 3, 2))


def golden_shards(p=6, clients=2, seed=42):
    x, y = random_dataset(SPEC, p, seed)
    return partition_dataset(x, y, clients)


def golden_params(p=6, clients=2, epochs=1):
    return ScenarioParams.from_model(SPEC, 1, clients=clients, dataset_size=p, epochs=epochs)


# --- dataset partitioning ----------------------------------------------------

def test_partition_even():
    shards = golden_shards()
    assert shards.sizes == (3, 3)
    assert shards.total_records == 6


def test_partition_strict_rejects_remainder():
    x, y = random_dataset(SPEC, 7, 1)
    with pytest.raises(DivisibilityError):
        partition_dataset(x, y, 2)


def test_partition_lenient_and_order_preserving():
    x, y = random_dataset(SPEC, 7, 1)
    shards = partition_dataset(x, y, 2, strict=False)
    assert shards.sizes == (4, 3)
    assert np.array_equal(np.vstack([s[0] for s in shards.shards]), x)
    assert np.array_equal(np.vstack([s[1] for s in shards.shards]), y)


# --- split training ledger ---------------------------------------------------

def test_sync_epoch_golden_ledger():
    run = run_split_training(SPEC, 1, golden_shards(), SplitVariant.SYNC_EPOCH,
                             epochs=1, lr=0.01, seed=42)
    totals = run.ledger.totals_by_kind()
    assert totals[MessageKind.ACTIVATIONS] == 18
    assert totals[MessageKind.GRADIENTS] == 18
    assert totals[MessageKind.CLIENT_WEIGHTS] == 30
    assert totals[MessageKind.GLOBAL_WEIGHTS] == 0
    assert totals[MessageKind.LABELS] == 12  # 6 records x label width 2
    assert run.ledger.total_scalars() == 66
    assert run.ledger.total_scalars() == comm_report(golden_params(), Protocol.SPLIT_SYNC).total_scalars


def test_sync_epoch_ring_closes():
    run = run_split_training(SPEC, 1, golden_shards(), SplitVariant.SYNC_EPOCH,
                             epochs=1, lr=0.01, seed=42)
    hand_offs = [m for m in run.ledger if m.kind is MessageKind.CLIENT_WEIGHTS]
    assert [(m.sender, m.receiver) for m in hand_offs] == [
        (client_id(1), client_id(2)),
        (client_id(2), client_id(1)),
    ]


def test_sync_epoch_self_loop_when_single_client():
    shards = golden_shards(p=4, clients=1)
    run = run_split_training(SPEC, 1, shards, SplitVariant.SYNC_EPOCH, epochs=1, lr=0.01, seed=1)
    hand_offs = [m for m in run.ledger if m.kind is MessageKind.CLIENT_WEIGHTS]
    assert len(hand_offs) == 1 and hand_offs[0].sender == hand_offs[0].receiver == client_id(1)
    formula = comm_report(golden_params(p=4, clients=1), Protocol.SPLIT_SYNC)
    assert run.ledger.total_scalars() == formula.total_scalars


def test_alternating_takes_turns_and_never_shares_weights():
    run = run_split_training(SPEC, 1, golden_shards(), SplitVariant.ALTERNATING,
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
    assert run.ledger.total_scalars() == 36
    assert run.ledger.total_scalars() == comm_report(golden_params(), Protocol.SPLIT_NOSYNC).total_scalars


def test_sync_batch_hand_off_per_batch():
    run = run_split_training(SPEC, 1, golden_shards(), SplitVariant.SYNC_BATCH,
                             epochs=1, lr=0.01, seed=42, batch_size=1)
    totals = run.ledger.totals_by_kind()
    assert totals[MessageKind.CLIENT_WEIGHTS] == 15 * 6  # one eta*N hand-off per batch
    assert totals[MessageKind.ACTIVATIONS] == 18
    report = verify_against_model(run.ledger, golden_params(), SplitVariant.SYNC_BATCH, batch_size=1)
    assert report.matches

    run2 = run_split_training(SPEC, 1, golden_shards(), SplitVariant.SYNC_BATCH,
                              epochs=1, lr=0.01, seed=42, batch_size=2)
    assert run2.ledger.totals_by_kind()[MessageKind.CLIENT_WEIGHTS] == 15 * 4  # ceil(3/2) per client
    assert verify_against_model(run2.ledger, golden_params(), SplitVariant.SYNC_BATCH, batch_size=2).matches


def test_activation_traffic_is_batch_size_invariant():
    for batch_size in (1, 2, 3):
        run = run_split_training(SPEC, 1, golden_shards(), SplitVariant.SYNC_EPOCH,
                                 epochs=1, lr=0.01, seed=42, batch_size=batch_size)
        totals = run.ledger.totals_by_kind()
        assert totals[MessageKind.ACTIVATIONS] == 18
        assert totals[MessageKind.GRADIENTS] == 18
        assert totals[MessageKind.CLIENT_WEIGHTS] == 30


def test_zero_records_leaves_only_sync_weight_traffic():
    shards = golden_shards(p=0, clients=3)
    run = run_split_training(SPEC, 1, shards, SplitVariant.SYNC_EPOCH, epochs=1, lr=0.01, seed=1)
    kinds = {m.kind for m in run.ledger}
    assert kinds == {MessageKind.CLIENT_WEIGHTS}
    assert run.ledger.total_scalars() == 15 * 3
    assert math.isnan(run.epoch_losses[0])

    for variant in (SplitVariant.ALTERNATING, SplitVariant.SYNC_BATCH):
        empty = run_split_training(SPEC, 1, shards, variant, epochs=1, lr=0.01, seed=1)
        assert len(empty.ledger) == 0


def test_split_training_rejects_federated():
    with pytest.raises(InvalidParam):
        run_split_training(SPEC, 1, golden_shards(), Protocol.FEDERATED, epochs=1, lr=0.01, seed=42)


def test_epoch_losses_finite_for_small_lr():
    for variant in (SplitVariant.SYNC_EPOCH, SplitVariant.SYNC_BATCH, SplitVariant.ALTERNATING):
        run = run_split_training(SPEC, 1, golden_shards(), variant, epochs=4, lr=0.01, seed=42)
        assert len(run.epoch_losses) == 4
        assert all(math.isfinite(loss) for loss in run.epoch_losses)


@pytest.mark.filterwarnings("error")
def test_diverged_run_raises_at_its_first_non_finite_epoch():
    # lr 1e30: epoch 0's losses are huge but finite, epoch 1's are NaN; no
    # numpy overflow warning escapes on the way (warnings are errors here).
    for variant in (SplitVariant.SYNC_EPOCH, SplitVariant.SYNC_BATCH):
        with pytest.raises(Diverged, match="epoch 1 loss is nan"):
            run_split_training(SPEC, 1, golden_shards(), variant, epochs=3, lr=1e30, seed=42)
    with pytest.raises(Diverged, match="epoch 2 loss is nan"):
        run_split_training(SPEC, 1, golden_shards(), SplitVariant.ALTERNATING, epochs=3, lr=1e30, seed=42)
    with pytest.raises(Diverged, match="round 2 loss is nan"):
        run_federated_training(SPEC, golden_shards(), rounds=3, local_lr=1e30, seed=42)


def test_split_run_deterministic():
    a = run_split_training(SPEC, 1, golden_shards(), SplitVariant.SYNC_EPOCH, epochs=2, lr=0.01, seed=42)
    b = run_split_training(SPEC, 1, golden_shards(), SplitVariant.SYNC_EPOCH, epochs=2, lr=0.01, seed=42)
    assert list(a.ledger) == list(b.ledger)
    assert np.array_equal(a.server_params, b.server_params)
    assert all(np.array_equal(x, y) for x, y in zip(a.client_params, b.client_params))
    assert a.epoch_losses == b.epoch_losses


SPLIT_PROTOCOLS = (SplitVariant.SYNC_EPOCH, SplitVariant.SYNC_BATCH, SplitVariant.ALTERNATING)


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
                params = sgd_step(params, backward(spec, params, xb, yb).param_grads, lr)
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
    # A turn copies weights in and out of the run's one working model, a
    # hand-off copies into the receiver's buffer, and a run returns its own
    # vectors: no held, server or global vector shares memory with another,
    # or with the working model's weights and gradients.
    models = []

    class RecordedModel(protocol_sim._WorkingModel):
        def __init__(self, *args):
            super().__init__(*args)
            models.append(self)

    monkeypatch.setattr(protocol_sim, "_WorkingModel", RecordedModel)
    shards = partition_dataset(*random_dataset(SPEC, 6, 42), 3)
    for variant in (*SPLIT_PROTOCOLS, Method.FEDERATED):
        if variant is Method.FEDERATED:
            run = run_federated_training(SPEC, shards, rounds=2, local_lr=0.01, seed=42)
            held = [run.global_params]
        else:
            run = run_split_training(SPEC, 1, shards, variant, epochs=2, lr=0.01, seed=42)
            held = [*run.client_params, run.server_params]
        (model,) = models
        models.clear()
        buffers = [*held, model.params, model.grads]
        for i, a in enumerate(buffers):
            for b in buffers[i + 1 :]:
                assert not np.shares_memory(a, b), variant
        if variant in (SplitVariant.SYNC_EPOCH, SplitVariant.SYNC_BATCH):
            # the ring's last hand-off gave client1 a copy of client3's weights
            assert np.array_equal(run.client_params[0], run.client_params[2])


def test_shard_widths_checked_once_per_run():
    x, y = random_dataset(SPEC, 6, 42)
    wide_x = ShardedDataset(shards=((np.zeros((3, 5)), y[:3]),))
    wide_y = ShardedDataset(shards=((x[:3], np.zeros((3, 3))),))
    short_y = ShardedDataset(shards=((x[:3], y[:2]),))
    for bad in (wide_x, wide_y, short_y):
        with pytest.raises(ShapeMismatch):
            run_split_training(SPEC, 1, bad, SplitVariant.SYNC_EPOCH, epochs=1, lr=0.01, seed=42)
        with pytest.raises(ShapeMismatch):
            run_federated_training(SPEC, bad, rounds=1, local_lr=0.01, seed=42)


class _CountingCore:
    """Stands in for protocol_sim's ``nn_core``, counting the calls made through it."""

    def __init__(self):
        self.calls = Counter()

    def __getattr__(self, name):
        fn = getattr(nn_core, name)

        def counted(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)

        return counted


STEP_PHASES = ("_forward_layers", "_mse_and_grad", "_backward_layers", "sgd_step", "fold_centered", "centered_mean")


@pytest.mark.parametrize("variant", [*SPLIT_PROTOCOLS, Method.FEDERATED])
def test_training_step_calls_through_nn_core(monkeypatch, variant):
    # The benchmark tracer wraps these names on protocol_sim's nn_core, and
    # counts one training step per _mse_and_grad call.
    core = _CountingCore()
    monkeypatch.setattr(protocol_sim, "nn_core", core)
    shards = golden_shards(p=10, clients=2)  # 5 records per client
    rounds, batch_size = 3, 2
    if variant is Method.FEDERATED:
        run_federated_training(SPEC, shards, rounds=rounds, local_lr=0.01, seed=42, batch_size=batch_size)
        batches = rounds * 2 * 3
    else:
        run_split_training(SPEC, 1, shards, variant, epochs=rounds, lr=0.01, seed=42, batch_size=batch_size)
        turns = rounds if variant is SplitVariant.ALTERNATING else rounds * 2
        batches = turns * 3
    # one whole-model step per batch, split or federated
    expected = {"_forward_layers": batches, "_mse_and_grad": batches, "_backward_layers": batches,
                "sgd_step": batches,
                # federated folds each of the 2 uploads as its client finishes, then takes the mean once a round
                "fold_centered": rounds * 2 if variant is Method.FEDERATED else 0,
                "centered_mean": rounds if variant is Method.FEDERATED else 0}
    assert {name: core.calls[name] for name in STEP_PHASES} == expected


# --- federated training ------------------------------------------------------

def test_federated_golden_totals():
    run = run_federated_training(SPEC, golden_shards(), rounds=5, local_lr=0.01, seed=42)
    assert run.ledger.total_scalars() == 460  # 2 K N rounds
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


def test_federated_one_download_one_upload_per_client_per_round():
    run = run_federated_training(SPEC, golden_shards(), rounds=3, local_lr=0.01, seed=42)
    for rnd in range(3):
        msgs = [m for m in run.ledger if m.epoch == rnd]
        downloads = [m for m in msgs if m.kind is MessageKind.GLOBAL_WEIGHTS]
        uploads = [m for m in msgs if m.kind is MessageKind.CLIENT_WEIGHTS]
        assert [m.receiver for m in downloads] == [client_id(1), client_id(2)]
        assert [m.sender for m in uploads] == [client_id(1), client_id(2)]
        assert all(m.scalar_count == 23 for m in downloads + uploads)


def test_federated_zero_rounds():
    run = run_federated_training(SPEC, golden_shards(), rounds=0, local_lr=0.01, seed=42)
    assert len(run.ledger) == 0
    assert np.array_equal(run.global_params, init_params(SPEC, 42))


def test_federated_identical_shards_match_single_client_training():
    x, y = random_dataset(SPEC, 4, seed=3)
    from splitfed.protocol_sim import ShardedDataset

    clones = ShardedDataset(shards=tuple((x, y) for _ in range(3)))
    run = run_federated_training(SPEC, clones, rounds=4, local_lr=0.05, seed=11)

    params = init_params(SPEC, 11)
    for _ in range(4):
        for i in range(x.shape[0]):
            grads = backward(SPEC, params, x[i : i + 1], y[i : i + 1]).param_grads
            params = sgd_step(params, grads, 0.05)
    assert np.array_equal(run.global_params, params)


# --- measured reports and verification ----------------------------------------

def test_measured_comm_empty_ledger():
    report = measured_comm(TrafficLedger(), clients=3, method=Method.SPLIT_SYNC)
    assert report.per_client_scalars == 0 and report.total_scalars == 0


def test_measured_comm_golden_run():
    run = run_split_training(SPEC, 1, golden_shards(), SplitVariant.SYNC_EPOCH,
                             epochs=1, lr=0.01, seed=42)
    report = measured_comm(run.ledger, clients=2, method=Method.SPLIT_SYNC)
    assert report.method is Method.SPLIT_SYNC
    assert report.total_scalars == 66
    # per client: 9 activations out, 9 gradients in, the one hand-off it sends
    assert report.per_client_scalars == 9 + 9 + 15

    with_labels = measured_comm(run.ledger, clients=2, method=Method.SPLIT_SYNC, exclude=())
    assert with_labels.total_scalars == 66 + 6 * 2


def test_verify_golden_runs_exactly():
    shards = golden_shards()
    sync = run_split_training(SPEC, 1, shards, SplitVariant.SYNC_EPOCH, epochs=2, lr=0.01, seed=42)
    assert verify_against_model(sync.ledger, golden_params(epochs=2), SplitVariant.SYNC_EPOCH).matches

    alt = run_split_training(SPEC, 1, shards, SplitVariant.ALTERNATING, epochs=4, lr=0.01, seed=42)
    assert verify_against_model(alt.ledger, golden_params(epochs=4), SplitVariant.ALTERNATING).matches

    fed = run_federated_training(SPEC, shards, rounds=3, local_lr=0.01, seed=42)
    assert verify_against_model(fed.ledger, golden_params(epochs=3), Method.FEDERATED).matches


def test_verify_alternating_cycle_equals_nosync_closed_form():
    # K simulated epochs form one full data pass: totals match the no-sync
    # closed form at one epoch
    shards = golden_shards(p=12, clients=3)
    run = run_split_training(SPEC, 1, shards, SplitVariant.ALTERNATING, epochs=3, lr=0.01, seed=9)
    formula = comm_report(golden_params(p=12, clients=3, epochs=1), Protocol.SPLIT_NOSYNC)
    assert run.ledger.total_scalars() == formula.total_scalars


def test_verify_flags_injected_fault():
    run = run_split_training(SPEC, 1, golden_shards(), SplitVariant.SYNC_EPOCH,
                             epochs=1, lr=0.01, seed=42)
    run.ledger.append(0, client_id(1), SERVER, MessageKind.ACTIVATIONS, 3)
    report = verify_against_model(run.ledger, golden_params(), SplitVariant.SYNC_EPOCH)
    assert not report.matches
    assert report.deltas == {MessageKind.ACTIVATIONS: 3}
    assert "Activations" in report.describe() and "+3" in report.describe()


def test_verify_flags_hand_off_credited_to_the_wrong_client():
    run = run_split_training(SPEC, 1, golden_shards(), SplitVariant.SYNC_EPOCH,
                             epochs=1, lr=0.01, seed=42)
    forged = TrafficLedger()
    for m in run.ledger:
        if m.kind is MessageKind.CLIENT_WEIGHTS and m.sender == client_id(1):
            # client2 now appears to send client1's hand-off: per-kind totals are unchanged
            m = Message(m.epoch, client_id(2), client_id(1), m.kind, m.scalar_count)
        forged.append(*m)
    assert forged.totals_by_kind() == run.ledger.totals_by_kind()
    report = verify_against_model(forged, golden_params(), SplitVariant.SYNC_EPOCH)
    assert not report.matches
    assert report.deltas == {}
    assert report.client == client_id(1)
    assert report.client_deltas == {MessageKind.CLIENT_WEIGHTS: -15}
    assert "first differing client client1 (ClientWeights -15)" in report.describe()


def test_verify_flags_a_message_no_client_owns():
    run = run_split_training(SPEC, 1, golden_shards(), SplitVariant.SYNC_EPOCH,
                             epochs=1, lr=0.01, seed=42)
    run.ledger.append(0, SERVER, client_id(3), MessageKind.GRADIENTS, 3)
    report = verify_against_model(run.ledger, golden_params(), SplitVariant.SYNC_EPOCH)
    assert not report.matches
    assert report.client == client_id(3)
    assert report.deltas == {MessageKind.GRADIENTS: 3}


def test_verify_method_aliases():
    run = run_split_training(SPEC, 1, golden_shards(), SplitVariant.SYNC_EPOCH,
                             epochs=1, lr=0.01, seed=42)
    assert verify_against_model(run.ledger, golden_params(), Method.SPLIT_SYNC).matches
    alt = run_split_training(SPEC, 1, golden_shards(), SplitVariant.ALTERNATING,
                             epochs=2, lr=0.01, seed=42)
    assert verify_against_model(alt.ledger, golden_params(epochs=2), Method.SPLIT_NOSYNC).matches


def test_verify_lenient_shards():
    x, y = random_dataset(SPEC, 7, 1)
    shards = partition_dataset(x, y, 2, strict=False)
    run = run_split_training(SPEC, 1, shards, SplitVariant.SYNC_EPOCH, epochs=1, lr=0.01, seed=1)
    params = golden_params(p=7)
    report = verify_against_model(run.ledger, params, SplitVariant.SYNC_EPOCH,
                                  shard_sizes_override=shards.sizes)
    assert report.matches
    # forward+backward split traffic still totals 2 p q regardless of the remainder
    assert run.ledger.total_scalars() == comm_report(params, Protocol.SPLIT_SYNC, strict=False).total_scalars


# --- ledger CSV --------------------------------------------------------------

def test_ledger_csv_format_and_order():
    run = run_split_training(SPEC, 1, golden_shards(), SplitVariant.SYNC_EPOCH,
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
