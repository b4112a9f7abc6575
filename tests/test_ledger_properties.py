"""Property tests of the traffic ledger.

Each message is owned by the client that sends it, or by the client the
server sends it to. These properties check that rule against
``traffic_by_kind`` evaluated on one client's shard, over random
architectures, shard splits, batch sizes, epochs and all four protocols,
check that any one fault in a run's ledger makes the check name an owner
the fault touched, and check the ledger's rows, CSV and cached tally over
random message sequences, and over random turns, stored as runs, against
the same calls expanded into messages.
"""

import csv
import io
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitfed import (
    InvalidParam,
    Message,
    MessageKind,
    ModelSpec,
    Protocol,
    ScenarioParams,
    TrafficLedger,
    comm_report,
    measured_comm,
    partition_dataset,
    random_dataset,
    run_federated_training,
    run_split_training,
    traffic_by_kind,
    verify_against_model,
)
from splitfed.protocol_sim import SERVER, client_id

PROTOCOLS = list(Protocol)


@st.composite
def architectures(draw):
    widths = draw(st.lists(st.integers(1, 4), min_size=3, max_size=4))
    cut = draw(st.integers(1, len(widths) - 2))
    return ModelSpec(tuple(widths)), cut


def simulate(spec, cut, protocol, shards, epochs, batch_size):
    if protocol is Protocol.FEDERATED:
        return run_federated_training(spec, shards, rounds=epochs, local_lr=0.01, seed=3,
                                      batch_size=batch_size).ledger
    return run_split_training(spec, cut, shards, protocol, epochs=epochs, lr=0.01, seed=3,
                              batch_size=batch_size).ledger


@settings(max_examples=80, deadline=None)
@given(
    arch=architectures(),
    protocol=st.sampled_from(PROTOCOLS),
    clients=st.integers(1, 4),
    records=st.integers(0, 11),
    epochs=st.integers(1, 4),
    batch_size=st.integers(1, 4),
)
def test_tally_equals_per_client_closed_form(arch, protocol, clients, records, epochs, batch_size):
    spec, cut = arch
    x, y = random_dataset(spec, records, seed=5)
    shards = partition_dataset(x, y, clients, strict=False)
    ledger = simulate(spec, cut, protocol, shards, epochs, batch_size)
    params = ScenarioParams.from_model(spec, cut, clients=clients, dataset_size=records, epochs=epochs,
                                       batch_size=batch_size, label_width=spec.output_width)

    tally = ledger.tally()
    assert set(tally) <= {client_id(k + 1) for k in range(clients)}
    # alternating epoch t belongs to client (t mod K) alone; a one-visit form scales by visits
    one_pass = replace(params, epochs=1) if protocol is Protocol.SPLIT_NOSYNC else params
    for k in range(clients):
        size = records // clients + (k < records % clients)  # the first p mod K clients hold one more
        visits = sum(1 for t in range(epochs) if t % clients == k) if protocol is Protocol.SPLIT_NOSYNC else 1
        form = traffic_by_kind(one_pass, protocol, size)
        assert tally.get(client_id(k + 1), dict.fromkeys(MessageKind, 0)) == {
            kind: n * visits for kind, n in form.items()}

    totals = ledger.totals_by_kind()
    assert {kind: sum(kinds[kind] for kinds in tally.values()) for kind in MessageKind} == totals
    assert verify_against_model(ledger, params, protocol).matches


@settings(max_examples=60, deadline=None)
@given(
    arch=architectures(),
    protocol=st.sampled_from(PROTOCOLS),
    clients=st.integers(1, 4),
    per_client=st.integers(0, 3),
    passes=st.integers(1, 3),
)
def test_measured_per_client_equals_comm_report(arch, protocol, clients, per_client, passes):
    # comm_report describes batch 1 and one data pass per epoch; an
    # alternating run needs K simulated epochs for one pass.
    spec, cut = arch
    records = clients * per_client
    x, y = random_dataset(spec, records, seed=5)
    shards = partition_dataset(x, y, clients)
    epochs = passes * clients if protocol is Protocol.SPLIT_NOSYNC else passes
    ledger = simulate(spec, cut, protocol, shards, epochs, batch_size=1)
    params = ScenarioParams.from_model(spec, cut, clients=clients, dataset_size=records, epochs=passes)

    for label_width in (0, spec.output_width):
        counted = replace(params, label_width=label_width)
        measured = measured_comm(ledger, counted, protocol)
        formula = comm_report(counted, protocol)
        assert measured.per_client_scalars == formula.per_client_scalars
        assert measured.total_scalars == formula.total_scalars


def owner(message):
    return message.receiver if message.sender == SERVER else message.sender


@settings(max_examples=120, deadline=None)
@given(
    arch=architectures(),
    protocol=st.sampled_from(PROTOCOLS),
    clients=st.integers(1, 4),
    records=st.integers(1, 11),
    epochs=st.integers(1, 3),
    batch_size=st.integers(1, 4),
    fault=st.sampled_from(["add", "drop", "resize", "move"]),
    data=st.data(),
)
def test_any_single_fault_mismatches_and_names_an_owner_it_touched(arch, protocol, clients, records, epochs,
                                                                   batch_size, fault, data):
    spec, cut = arch
    shards = partition_dataset(*random_dataset(spec, records, seed=5), clients, strict=False)
    log = list(simulate(spec, cut, protocol, shards, epochs, batch_size))
    params = ScenarioParams.from_model(spec, cut, clients=clients, dataset_size=records, epochs=epochs,
                                       batch_size=batch_size, label_width=spec.output_width)
    if fault == "add":  # a message of any kind, Labels included, owned by some client
        added = Message(data.draw(st.integers(0, epochs - 1)), client_id(data.draw(st.integers(1, clients))),
                        SERVER, data.draw(st.sampled_from(list(MessageKind))), data.draw(st.integers(1, 10**6)))
        log.insert(data.draw(st.integers(0, len(log))), added)
        touched = {owner(added)}
    else:  # one of the run's own messages, of whatever kind it is
        at = data.draw(st.integers(0, len(log) - 1))
        message = log[at]
        touched = {owner(message)}
        if fault == "drop":
            del log[at]
        elif fault == "resize":
            step = -1 if message.scalar_count and data.draw(st.booleans()) else 1
            log[at] = message._replace(scalar_count=message.scalar_count + step)
        else:  # to another client, client K+1 included, which no closed form allows
            moved = data.draw(st.sampled_from([client_id(k) for k in range(1, clients + 2)
                                               if client_id(k) != owner(message)]))
            log[at] = message._replace(**{"receiver" if message.sender == SERVER else "sender": moved})
            touched.add(moved)
    ledger = TrafficLedger()
    for message in log:
        ledger.append(*message)

    report = verify_against_model(ledger, params, protocol)
    assert not report.matches
    assert report.client in touched


ENDPOINTS = [SERVER] + [client_id(k) for k in range(1, 12)]
messages = st.lists(st.builds(
    Message,
    epoch=st.integers(0, 5),
    sender=st.sampled_from(ENDPOINTS),
    receiver=st.sampled_from(ENDPOINTS),
    kind=st.sampled_from(list(MessageKind)),
    scalar_count=st.integers(0, 10**9),
), max_size=60)


def naive_tally(log):
    tally = {}
    for m in log:
        owner = m.receiver if m.sender == SERVER else m.sender
        tally.setdefault(owner, dict.fromkeys(MessageKind, 0))[m.kind] += m.scalar_count
    return tally


def csv_writer_bytes(log):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["epoch", "sender", "receiver", "kind", "scalar_count"])
    for m in log:
        writer.writerow([m.epoch, m.sender, m.receiver, m.kind.value, m.scalar_count])
    return buf.getvalue().encode()


@settings(max_examples=150, deadline=None)
@given(first=messages, later=messages)
def test_ledger_rows_csv_and_cached_tally(first, later):
    ledger = TrafficLedger()
    log = []
    for batch in (first, later):
        for m in batch:
            ledger.append(m.epoch, m.sender, m.receiver, m.kind, m.scalar_count)
        log += batch
        # iteration yields the appended fields as Messages, in order
        assert list(ledger) == log and all(type(m) is Message for m in ledger)
        assert len(ledger) == len(log)
        buf = io.StringIO()
        ledger.to_csv(buf)
        assert buf.getvalue().encode() == csv_writer_bytes(log)
        # the cached tally follows every append, and a caller's copy cannot corrupt it
        assert ledger.tally() == naive_tally(log)
        for kinds in ledger.tally().values():
            kinds[MessageKind.ACTIVATIONS] += 1
        assert ledger.tally() == naive_tally(log)
        assert ledger.totals_by_kind() == {kind: sum(m.scalar_count for m in log if m.kind is kind)
                                           for kind in MessageKind}
        # Labels count exactly when the params count a label width
        for label_width in (0, 1):
            one_client = ScenarioParams(1, 1, 0, 1, 0, label_width=label_width)
            assert measured_comm(ledger, one_client, Protocol.SPLIT_SYNC).total_scalars == sum(
                m.scalar_count for m in log if label_width or m.kind is not MessageKind.LABELS)

    with pytest.raises(InvalidParam):
        ledger.append(0, client_id(1), SERVER, MessageKind.ACTIVATIONS, -1)
    assert list(ledger) == log


# A turn's runs in the shapes a caller names them: one batch repeated with a
# ragged last run, batches that change every time, runs of repeats, and runs
# of repeat 0, which log nothing (any repeat of the first and third may be 0).
@st.composite
def turn_runs(draw, width):
    one_batch = st.lists(st.integers(0, 3) | st.integers(0, 10**9), min_size=width, max_size=width)
    shape = draw(st.sampled_from(["repeated", "changing", "runs", "unsent"]))
    if shape == "unsent":
        return draw(st.lists(st.tuples(one_batch, st.just(0)), max_size=3))
    if shape == "repeated":  # the last run, if any, is a ragged batch sent once
        return [(draw(one_batch), draw(st.integers(0, 60)))] + draw(st.lists(st.tuples(one_batch, st.just(1)),
                                                                            max_size=1))
    if shape == "changing":
        return draw(st.lists(st.tuples(one_batch, st.just(1)), max_size=60))
    return draw(st.lists(st.tuples(one_batch, st.integers(0, 20)), max_size=8))


def expanded(epoch, batch, runs):
    """A turn's messages, one by one: each run's batch ``repeat`` times."""
    return [Message(epoch, *entry, n) for counts, repeat in runs for _ in range(repeat)
            for entry, n in zip(batch, counts)]


turns = st.lists(st.tuples(
    st.integers(0, 5),
    st.lists(st.tuples(st.sampled_from(ENDPOINTS), st.sampled_from(ENDPOINTS), st.sampled_from(list(MessageKind))),
             min_size=1, max_size=4),
    st.data(),
), max_size=8)


@settings(max_examples=150, deadline=None)
@given(turns=turns)
def test_a_turn_logs_what_its_messages_appended_one_by_one_log(turns):
    by_turn, by_message = TrafficLedger(), TrafficLedger()
    for epoch, batch, data in turns:
        runs = data.draw(turn_runs(len(batch)))
        by_turn.log_turn(epoch, batch, runs)
        for m in expanded(epoch, batch, runs):
            by_message.append(*m)
    assert len(by_turn) == len(by_message)
    assert list(by_turn) == list(by_message)
    turn_csv, message_csv = io.StringIO(), io.StringIO()
    by_turn.to_csv(turn_csv)
    by_message.to_csv(message_csv)
    assert turn_csv.getvalue().encode() == message_csv.getvalue().encode()
    assert by_turn.tally() == by_message.tally()
    assert by_turn.totals_by_kind() == by_message.totals_by_kind()


# An endpoint a call may add: a known one, or one never seen before.
endpoints = st.sampled_from(ENDPOINTS) | st.from_regex(r"[a-z]{1,3}[0-9]{0,2}", fullmatch=True)


@st.composite
def ledger_calls(draw):
    """(epoch, batch, runs) of each call; a one-message batch sent once is an append."""
    calls = []
    for _ in range(draw(st.integers(0, 12))):
        width = draw(st.integers(1, 4))
        batch = draw(st.lists(st.tuples(endpoints, endpoints, st.sampled_from(list(MessageKind))),
                              min_size=width, max_size=width))
        calls.append((draw(st.integers(0, 3)), batch, draw(turn_runs(width))))
    return calls


@settings(max_examples=100, deadline=None)
@given(calls=ledger_calls())
def test_the_run_ledger_reads_as_its_calls_expanded_into_messages(calls):
    ledger, log = TrafficLedger(), []
    for epoch, batch, runs in calls:
        if len(batch) == len(runs) == 1 and runs[0][1] == 1:
            ledger.append(epoch, *batch[0], runs[0][0][0])
        else:
            ledger.log_turn(epoch, batch, runs)
        log += expanded(epoch, batch, runs)
    assert list(ledger) == log
    assert len(ledger) == len(log)
    buf = io.StringIO()
    ledger.to_csv(buf)
    assert buf.getvalue().encode() == csv_writer_bytes(log)
    assert ledger.tally() == naive_tally(log)
    assert ledger.totals_by_kind() == {kind: sum(m.scalar_count for m in log if m.kind is kind)
                                       for kind in MessageKind}
