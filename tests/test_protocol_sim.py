"""Protocol runs, the traffic ledger, and the ledger-versus-formula cross-check."""

import io
import math

import numpy as np
import pytest

from splitfed import (
    DivisibilityError,
    InvalidParam,
    Message,
    MessageKind,
    Method,
    ModelSpec,
    Protocol,
    ScenarioParams,
    SplitVariant,
    TrafficLedger,
    backward,
    comm_report,
    init_params,
    measured_comm,
    partition_dataset,
    random_dataset,
    run_federated_training,
    run_split_training,
    sgd_step,
    verify_against_model,
)
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
        senders = {m.sender for m in run.ledger.messages_in_epoch(epoch)} - {SERVER}
        assert senders == {expected_client}
        up = sum(m.scalar_count for m in run.ledger.messages_in_epoch(epoch)
                 if m.kind is MessageKind.ACTIVATIONS)
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


def test_split_run_deterministic():
    a = run_split_training(SPEC, 1, golden_shards(), SplitVariant.SYNC_EPOCH, epochs=2, lr=0.01, seed=42)
    b = run_split_training(SPEC, 1, golden_shards(), SplitVariant.SYNC_EPOCH, epochs=2, lr=0.01, seed=42)
    assert a.ledger.messages == b.ledger.messages
    assert np.array_equal(a.server_params, b.server_params)
    assert all(np.array_equal(x, y) for x, y in zip(a.client_params, b.client_params))
    assert a.epoch_losses == b.epoch_losses


def test_single_client_split_equals_monolithic_sgd():
    # manual whole-model SGD is the oracle; the split run must match bit for bit
    shards = golden_shards(p=8, clients=1, seed=5)
    lr, epochs = 0.05, 3
    for variant in (SplitVariant.SYNC_EPOCH, SplitVariant.ALTERNATING):
        run = run_split_training(SPEC, 1, shards, variant, epochs=epochs, lr=lr, seed=7)
        params = init_params(SPEC, 7)
        x, y = shards.shards[0]
        for _ in range(epochs):
            for i in range(x.shape[0]):
                grads = backward(SPEC, params, x[i : i + 1], y[i : i + 1]).param_grads
                params = sgd_step(params, grads, lr)
        stitched = np.concatenate([run.client_params[0], run.server_params])
        assert np.array_equal(stitched, params)


# --- federated training ------------------------------------------------------

def test_federated_golden_totals():
    run = run_federated_training(SPEC, golden_shards(), rounds=5, local_lr=0.01, seed=42)
    assert run.ledger.total_scalars() == 460  # 2 K N rounds
    totals = run.ledger.totals_by_kind()
    assert totals[MessageKind.GLOBAL_WEIGHTS] == 23 * 2 * 5
    assert totals[MessageKind.CLIENT_WEIGHTS] == 23 * 2 * 5
    assert totals[MessageKind.ACTIVATIONS] == 0


def test_federated_one_download_one_upload_per_client_per_round():
    run = run_federated_training(SPEC, golden_shards(), rounds=3, local_lr=0.01, seed=42)
    for rnd in range(3):
        msgs = run.ledger.messages_in_epoch(rnd)
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
    # per client: 9 activations out, 9 gradients in, one hand-off sent and one received
    assert report.per_client_scalars == 9 + 9 + 15 + 15

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
    run.ledger.append(Message(0, client_id(1), SERVER, MessageKind.ACTIVATIONS, 3))
    report = verify_against_model(run.ledger, golden_params(), SplitVariant.SYNC_EPOCH)
    assert not report.matches
    assert report.deltas == {MessageKind.ACTIVATIONS: 3}
    assert "Activations" in report.describe() and "+3" in report.describe()


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
