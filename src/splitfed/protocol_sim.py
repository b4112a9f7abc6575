"""Deterministic protocol simulator with a per-message traffic ledger.

Runs split training (three weight-sync variants) and federated averaging as
event sequences in a fixed order over an in-process message bus with zero
loss and zero latency; only payload sizes matter. One loop walks epochs
(federated rounds), client turns and batches for every protocol and returns a
:class:`RunResult`, whose ``server_params`` is the global model under
federated. A federated round's clients do not depend on each other until the
average, so they train two at a time (:class:`_FederatedRound`), the ledger
and the average still written in client order. Each working model trains
through step plans built once per run (:class:`.nn_core.StepPlan`), and a
turn's batch losses are reduced once, when the turn ends. Split loss averages
an epoch's batches; federated loss averages a round's per-client means.
Every transfer lands in an append-only ledger whose scalar counts come from
the actual array sizes, so comparing ledger totals against the closed forms
in :mod:`.cost_model` is a genuine cross-check rather than the same formula
evaluated twice.
"""

from __future__ import annotations

import math
import os
import threading
from array import array
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import accumulate, chain, islice, pairwise
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from . import nn_core
from .cost_model import _KINDS, CommReport, MessageKind, Protocol, ScenarioParams, _member, shard_sizes, traffic_by_kind
from .errors import Diverged, InvalidParam, ShapeMismatch
from .nn_core import ModelSpec

SERVER = "server"


def client_id(k: int) -> str:
    """Endpoint id for 1-based client index k."""
    return f"client{k}"


# An old name of Protocol; perfbench/workloads.py is its last reader.
SplitVariant = Protocol


class Message(NamedTuple):
    epoch: int
    sender: str
    receiver: str
    kind: MessageKind
    scalar_count: int


# Kind codes of the ledger's kind column, the ranges of its epochs and counts,
# the most CSV text to_csv writes in one call, and the most messages of a run
# read out of the columns as one copy.
_KIND_CODES = {kind: code for code, kind in enumerate(_KINDS)}
_EPOCH_END = 1 << 31
_COUNT_END = 1 << 63
_CSV_CHUNK = 1 << 16
_ROW_CHUNK = 1 << 12


class TrafficLedger:
    """Append-only, ordered log of every simulated transfer, stored as runs.

    A run is one batch of messages sent ``repeat`` times in a row in one
    epoch. Its batch takes 17 bytes a message, one entry in each of four
    stdlib ``array`` columns: the sender and the receiver as indices into the
    ledger's endpoint table (``i``; SERVER is 0), the kind's code (``B``) and
    the scalar count (``q``). The run table holds each run's epoch (``i``), its
    batch's first message in those columns (``q``) and its repeat (``q``), 20
    bytes a run. A turn names its runs, and a batch sent once extends the
    epoch's last such run, so a split turn of any length holds a few runs
    and a ledger of one-off messages about 17 bytes each. Iterating the
    ledger yields the messages one by one as :class:`Message` rows with
    string endpoints. Every write is a :meth:`log_turn`, which checks the
    whole turn first, so nothing grows on a refusal. Endpoint ids are
    identifiers, so no CSV field ever needs quoting.
    """

    def __init__(self) -> None:
        self._senders, self._receivers = array("i"), array("i")
        self._kinds, self._counts = array("B"), array("q")
        self._run_epochs, self._run_starts, self._repeats = array("i"), array("q"), array("q")
        self._size = 0  # messages, counting each run's batch ``repeat`` times
        self._names = [SERVER]  # the endpoint table: index -> id
        self._index = {SERVER: 0}
        self._tally: list[list[int] | None] = [None]  # per endpoint: scalars it owns by kind code, or None

    def append(self, epoch: int, sender: str, receiver: str, kind: MessageKind, scalar_count: int) -> None:
        """Log one message: the one-message case of :meth:`log_turn`."""
        self.log_turn(epoch, ((sender, receiver, kind),), (((scalar_count,), 1),))

    def log_turn(self, epoch: int, batch: Sequence[tuple[str, str, MessageKind]],
                 runs: Sequence[tuple[Sequence[int], int]]) -> None:
        """Log a turn's messages in ``epoch``: ``batch`` gives the (sender,
        receiver, kind) of each message a batch sends, and each of ``runs``
        a ``(counts, repeat)`` pair: the batch's scalar counts, one per
        entry, sent ``repeat`` times in a row.

        One pass checks the turn in the order a message is read: ``batch``
        not empty, ``epoch`` an int in [0, 2**31), each entry a triple of
        two endpoints, known or identifiers, and a :class:`MessageKind`;
        then each run's ``len(batch)`` counts and its repeat, each an int in
        [0, 2**63). The first failure raises :class:`InvalidParam` naming
        the bad value and leaves the ledger as it was; only then do new
        endpoints join the table and the runs the columns, and the tally
        grows once a run. A repeat of 0 logs nothing."""
        width = len(batch)
        if not width:
            raise InvalidParam("a turn's batch must hold at least one message")
        if type(epoch) is not int or not 0 <= epoch < _EPOCH_END:
            raise InvalidParam(f"epoch must be an int in [0, 2**31), got {epoch!r}")
        # each entry's endpoint indices and kind code; ``new`` holds the
        # endpoints the turn adds, with the indices they will take
        index, names, new, ends = self._index, self._names, {}, []
        for entry in batch:
            try:
                sender, receiver, kind = entry
            except (TypeError, ValueError):
                raise InvalidParam(f"a batch entry must be (sender, receiver, kind), got {entry!r}") from None
            if type(kind) is not MessageKind:
                raise InvalidParam(f"kind must be a MessageKind, got {kind!r} in {entry!r}")
            pair = []
            for name in (sender, receiver):
                code = index.get(name) if isinstance(name, str) else None
                if code is None:
                    if type(name) is not str or not name.isidentifier():
                        raise InvalidParam(f"endpoint id must be an identifier, got {name!r} in {entry!r}")
                    code = new.setdefault(name, len(names) + len(new))
                pair.append(code)
            ends.append((*pair, _KIND_CODES[kind]))
        runs, batches = list(runs), 0  # read twice: checked, then stored
        for counts, repeat in runs:
            if len(counts) != width:
                raise InvalidParam(f"a run of {width}-message batches has {len(counts)} scalar counts")
            for entry, n in zip(batch, counts):
                if type(n) is not int or not 0 <= n < _COUNT_END:
                    raise InvalidParam(f"scalar_count must be an int in [0, 2**63), got {n!r} "
                                       f"in {Message(epoch, *entry, n)}")
            if type(repeat) is not int or not 0 <= repeat < _COUNT_END:
                raise InvalidParam(f"repeat must be an int in [0, 2**63), got {repeat!r}")
            batches += repeat
        if not batches:
            return
        index.update(new)
        names += new
        self._size += batches * width
        tally = self._tally
        tally += [None] * len(new)
        for s, r, _ in ends:  # the owner: the client that sends it, or the client the server (0) sends it to
            if tally[s or r] is None:  # the owner's first message
                tally[s or r] = [0] * len(_KINDS)
        senders, receivers, codes = zip(*ends)
        run_epochs, repeats = self._run_epochs, self._repeats
        for counts, repeat in runs:
            if not repeat:
                continue
            # a batch sent once extends the epoch's last run if it too was sent once
            if repeat > 1 or not repeats or repeats[-1] > 1 or run_epochs[-1] != epoch:
                run_epochs.append(epoch)
                self._run_starts.append(len(self._kinds))
                repeats.append(repeat)
            self._senders.extend(senders)
            self._receivers.extend(receivers)
            self._kinds.extend(codes)
            self._counts.extend(counts)
            for (s, r, code), n in zip(ends, counts):
                tally[s or r][code] += n * repeat

    def _runs(self) -> Iterator[tuple[int, Iterator[tuple[int, int, int, int]], int]]:
        """Each run as (epoch, its batch's (sender, receiver, kind code, count) rows, repeat)."""
        starts = self._run_starts
        stops = chain(islice(starts, 1, None), (len(self._kinds),))
        for epoch, lo, hi, repeat in zip(self._run_epochs, starts, stops, self._repeats):
            yield epoch, self._rows(lo, hi), repeat

    def _rows(self, lo: int, hi: int) -> Iterator[tuple[int, int, int, int]]:
        # Sliced _ROW_CHUNK messages at a time: a repeat-1 run can span an
        # epoch, and a slice is a copy. (A memoryview would copy nothing, but
        # an iterator left suspended would then stop the columns growing.)
        columns = self._senders, self._receivers, self._kinds, self._counts
        for a in range(lo, hi, _ROW_CHUNK):
            yield from zip(*(column[a : min(hi, a + _ROW_CHUNK)] for column in columns))

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[Message]:
        names = self._names
        for epoch, rows, repeat in self._runs():
            batch = (Message(epoch, names[s], names[r], _KINDS[k], n) for s, r, k, n in rows)
            if repeat == 1:
                yield from batch
            else:
                batch = tuple(batch)
                for _ in range(repeat):
                    yield from batch

    def totals_by_kind(self) -> dict[MessageKind, int]:
        owned = [row for row in self._tally if row is not None]  # every message has exactly one owner
        return {kind: sum(row[code] for row in owned) for code, kind in enumerate(_KINDS)}

    def tally(self) -> dict[str, dict[MessageKind, int]]:
        """Scalars per (owner, kind), as a copy the caller owns. A message's one
        owner is the client that sends it, or the client the server sends it to;
        logging a message adds it to its owner's row."""
        return {name: dict(zip(_KINDS, row)) for name, row in zip(self._names, self._tally) if row is not None}

    def to_csv(self, path_or_file) -> None:
        """Write "epoch,sender,receiver,kind,scalar_count"; row order = event order."""
        if hasattr(path_or_file, "write"):
            self._write_csv(path_or_file)
        else:
            with open(path_or_file, "w", encoding="utf-8", newline="") as fh:
                self._write_csv(fh)

    def _write_csv(self, fh) -> None:
        # The bytes csv.writer would write: no field of ints and identifiers
        # needs quoting. A repeated run's batch is formatted once and written
        # in chunks of at most _CSV_CHUNK characters (or one batch).
        names, values = self._names, [kind.value for kind in _KINDS]
        fh.write("epoch,sender,receiver,kind,scalar_count\n")
        for epoch, rows, repeat in self._runs():
            lines = (f"{epoch},{names[s]},{names[r]},{values[k]},{n}\n" for s, r, k, n in rows)
            if repeat == 1:
                fh.writelines(lines)
                continue
            text = "".join(lines)
            per_chunk = max(1, _CSV_CHUNK // len(text))
            for done in range(0, repeat, per_chunk):
                fh.write(text * min(per_chunk, repeat - done))


def _shard_bounds(records: int, clients: int, strict: bool) -> list[tuple[int, int]]:
    """Each client's (first, end) record of a dataset split by :func:`shard_sizes`."""
    return list(pairwise(accumulate(shard_sizes(records, clients, strict=strict), initial=0)))


def partition_dataset(inputs, labels, clients: int, strict: bool = True) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Slice the dataset into consecutive per-client (inputs, labels) blocks,
    sized by :func:`shard_sizes`: strict mode demands an even split; lenient
    mode gives the first ``p % clients`` clients one extra record.
    """
    x = np.asarray(inputs, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if x.shape[0] != y.shape[0]:
        raise InvalidParam(f"{x.shape[0]} inputs but {y.shape[0]} labels")
    return tuple((x[lo:hi], y[lo:hi]) for lo, hi in _shard_bounds(x.shape[0], clients, strict))


class GeneratedShards:
    """The shards ``partition_dataset(*make(spec, records, seed), clients, strict)``
    gives, made when they are read, a block at a time: reading shard k makes
    its records and the records after it, up to ``nn_core.STREAM_BLOCK``
    scalars, with ``make(spec, records, seed, range(first, end))`` (see
    :func:`.nn_core.random_dataset`), and holds that block; a shard within
    it is read as a view. So reading every shard in order makes each record
    once, a one-record shard costs no call of ``make``, and no more than
    one block, or one shard if larger, is held; a caller that keeps a shard
    while it reads the next, as a federated round's two lanes do, keeps
    that shard's block too, so up to one block a lane exists. A run reads
    each shard once to check it and once a turn."""

    def __init__(self, make, spec: ModelSpec, records: int, seed: int, clients: int, strict: bool = True) -> None:
        self._make, self._spec, self._records, self._seed = make, spec, records, seed
        self._bounds = _shard_bounds(records, clients, strict)
        self._block_records = max(1, nn_core.STREAM_BLOCK // (spec.input_width + spec.output_width))
        self._held = 0, 0, None  # the records held, first and end, and their (inputs, labels)

    def __len__(self) -> int:
        return len(self._bounds)

    def __getitem__(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = self._bounds[k]
        first, end, block = self._held
        if block is None or not first <= lo <= hi <= end:
            self._held, block = (0, 0, None), None  # dropped before the next block is made
            first, end = lo, min(self._records, max(hi, lo + self._block_records))
            block = self._make(self._spec, self._records, self._seed, range(first, end))
            self._held = first, end, block
        x, y = block
        return x[lo - first : hi - first], y[lo - first : hi - first]


def _checked_shard(spec: ModelSpec, shard) -> tuple[np.ndarray, np.ndarray]:
    """A shard as float64 (inputs, labels) of the model's widths."""
    x, y = shard
    x = nn_core._check_batch(x, spec.input_width, "shard inputs")
    y = nn_core._check_batch(y, spec.output_width, "shard labels")
    if x.shape[0] != y.shape[0]:
        raise ShapeMismatch(f"shard has {x.shape[0]} records but {y.shape[0]} labels")
    return x, y


def _checked_run(spec: ModelSpec, shards: Sequence, unit: str, count: int, batch_size: int) -> list[int]:
    """Check a run's ``count`` epochs or rounds, its batch size and every shard,
    read one at a time and dropped, and return each shard's record count."""
    if count < 0:
        raise InvalidParam(f"{unit} must be >= 0, got {count}")
    if batch_size < 1:
        raise InvalidParam(f"batch_size must be >= 1, got {batch_size}")
    if not shards:
        raise InvalidParam("need at least one client shard")
    return [_checked_shard(spec, shard)[0].shape[0] for shard in shards]


_FLOAT64 = np.dtype(np.float64)


def _turn_shard(spec: ModelSpec, shard, records: int) -> tuple[np.ndarray, np.ndarray]:
    """A shard read again for a turn, held to the shapes the check pass found,
    ``records`` rows of the model's input and output widths: float64 arrays of
    those shapes pass as they are, and anything else is checked as on that
    pass and must have them too. A read that changed shape raises
    ShapeMismatch, so it never broadcasts."""
    x, y = shard
    if not (type(x) is type(y) is np.ndarray and x.dtype is _FLOAT64 and y.dtype is _FLOAT64):
        x, y = _checked_shard(spec, (x, y))
    if x.shape != (records, spec.input_width) or y.shape != (records, spec.output_width):
        raise ShapeMismatch(f"shard read as inputs {x.shape} and labels {y.shape}, "
                            f"checked with {records} records")
    return x, y


class _WorkingModel:
    """A model a run trains: a flat weight vector and the step plans over it,
    built once per run: one for the shards' full batches, with a row of
    differences for each of a turn's batches (up to ``nn_core.DIFF_BLOCK``
    scalars), and one for each size of ragged last batch they leave, which
    runs in the front of the largest plan's buffers. ``lr`` is a 0-d float64
    array. A split run has one, and a turn copies the weights it trains in and
    out; a federated run has one per vector its clients train in
    (:class:`_FederatedRound`). ``lender``, a model over another vector whose
    passes never run while this one's do, lends its largest plan's buffers
    and SGD scratch to this model's largest plan: a plan's buffers hold
    nothing from one pass to the next."""

    def __init__(self, spec: ModelSpec, params: np.ndarray, batch_size: int, shard_sizes, lr: float,
                 lender: _WorkingModel | None = None) -> None:
        self.params, self.batch_size, self.lr = params, batch_size, np.array(lr, dtype=np.float64)
        runs = {batch_size: max(shard_sizes) // batch_size, **{size % batch_size: 1 for size in shard_sizes}}
        self.plans: dict[int, nn_core.StepPlan] = {}
        lent = None if lender is None else next(iter(lender.plans.values()), None)
        for records, batches in sorted(runs.items(), reverse=True):
            if records and batches:
                base = next(iter(self.plans.values()), lent)
                self.plans[records] = nn_core.StepPlan(spec, params, records, batches, base=base)


def _local_pass(model: _WorkingModel, x: np.ndarray, y: np.ndarray, cut: int | None, hand_off: int | None):
    """Train ``model`` on one shard, batch by batch: every protocol's one training step.

    Each batch runs forward, loss, backward and one ``sgd_step`` on the whole
    flat vector through the plan for its record count: the shard's full
    batches share one, and a ragged last batch has its own, in the front
    of the full plan's buffers. Losses are reduced once the batches'
    differences fill the plan's rows, and at the end, so the full batches'
    are reduced before the ragged batch overwrites their rows. Returns the
    batches' losses, one array per reduction, and for a ``cut`` (None under
    federated) the :meth:`TrafficLedger.log_turn` runs of the batches'
    scalar counts there, one a plan, read from the arrays that cross it:
    Activations, Labels and Gradients, then any ``hand_off``.
    """
    losses, runs = [], []
    records, size, lr = x.shape[0], model.batch_size, model.lr
    full = records - records % size
    # looked up once a pass, on whatever nn_core this module holds then (a tracer may replace it)
    forward, mse, backward, sgd = (nn_core._forward_layers, nn_core._mse_and_grad, nn_core._backward_layers,
                                   nn_core.sgd_step)
    for lo, hi in ((0, full), (full, records)):
        if lo == hi:
            continue
        plan = model.plans[min(hi - lo, size)]
        step, rows = plan.records, plan.diffs.shape[0]  # rows: the batches one loss reduction takes
        batches = (hi - lo) // step
        # the batches as (step, width) row views of the shard
        xs, ys = x[lo:hi].reshape(batches, step, -1), y[lo:hi].reshape(batches, step, -1)
        for first in range(0, batches, rows):
            for row, (inputs, labels) in enumerate(zip(xs[first : first + rows], ys[first : first + rows])):
                forward(plan, inputs)
                mse(plan, labels, row)
                backward(plan)
                sgd(plan, lr)
            losses.append(nn_core.batch_losses(plan, row + 1))
        if cut is not None:
            sent = [plan.acts[cut].size, labels.size, plan.act_grads[cut].size]
            runs.append((sent + [hand_off] if hand_off else sent, batches))
    return losses, runs


def _turns(protocol: Protocol, epoch: int, clients: int) -> range:
    """The clients that take a turn in ``epoch``, in order: all K, or client
    (epoch mod K)+1 alone if ``protocol`` rotates."""
    return range(epoch % clients, epoch % clients + 1) if protocol.rotates else range(clients)


# The clients of a federated round that train at once: two, or one where this
# process may run on one CPU (or the machine has one, where affinity is not
# known), and then a pair's second client trains after its first. A round
# has the same bits either way, so it is not an option. Two lanes pay where
# a step's numpy calls are long enough to run without the GIL (wide-fedavg's
# shape); a model of a few thousand parameters trains slower with them.
LANES = min(2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)


def _at_once(calls: list, lanes: int) -> list:
    """The results of ``calls``, one or two, in order. With two calls and two
    lanes, the second runs on a partner thread while the first runs on this
    one. The partner runs in this thread's numpy error state (numpy keeps it
    per thread) and is joined before anything leaves, and an exception raised
    in it is raised again here."""
    if len(calls) < 2 or lanes < 2:
        return [call() for call in calls]
    first, second = calls
    state, out = np.geterr(), [None, None]  # the partner's result, or its exception

    def partner() -> None:
        try:
            with np.errstate(**state):
                out[0] = second()
        except BaseException as exc:
            out[1] = exc

    thread = threading.Thread(target=partner, name="splitfed-lane")
    thread.start()
    try:
        mine = first()
    finally:
        thread.join()
    if out[1] is not None:
        raise out[1]
    return [mine, out[0]]


class _FederatedRound:
    """A federated run's round scheduler and its four N-vectors: the global
    model, the working model's weights, client 1's base and the sum.

    Client 1 trains in ``base`` itself, client 2 and the middle clients take
    turns in the working model, and from K = 3 the last client trains in the
    global model, after every other client has copied it. Two consecutive
    clients in different vectors train at once (:func:`_at_once`), each lane
    in its own vector's plans: so (1, 2) from K = 2, and (K-1, K) from K = 4.
    The global model's plans borrow base's buffers and scratch, since the two
    never train in one step. Shards are read (:func:`_turn_shard`), uploads
    logged, folded (:func:`.nn_core.fold_centered`) and per-client losses
    taken on the calling thread, in client order, so the round has the bits
    of one where the clients train one after another."""

    def __init__(self, spec: ModelSpec, shards: Sequence, sizes: list[int], working: _WorkingModel) -> None:
        self.spec, self.shards, self.sizes = spec, shards, sizes
        self.global_vec, self.total = working.params.copy(), np.empty_like(working.params)
        base = _WorkingModel(spec, np.empty_like(working.params), working.batch_size, sizes, working.lr)
        self.models = [base] + [working] * (len(sizes) - 1)  # the model each client trains in
        if len(sizes) >= 3:
            self.models[-1] = _WorkingModel(spec, self.global_vec, working.batch_size, sizes, working.lr,
                                            lender=base)
        self.steps, k = [], 0  # the clients that train at once, step by step
        while k < len(sizes):
            step = 2 if k + 1 < len(sizes) and self.models[k + 1] is not self.models[k] else 1
            self.steps.append(range(k, k + step))
            k += step

    def run(self, epoch: int, ledger: TrafficLedger) -> list[np.ndarray]:
        """Train every client from the global model, log its upload, fold it
        and replace the global model with the mean; returns each client's mean
        loss, for the clients with records."""
        base, losses = self.models[0].params, []
        for step in self.steps:
            passes = []
            for k in step:
                model = self.models[k]
                if model.params is not self.global_vec:
                    np.copyto(model.params, self.global_vec)
                x, y = _turn_shard(self.spec, self.shards[k], self.sizes[k])
                passes.append(partial(_local_pass, model, x, y, None, None))
            for k, (turn_losses, _) in zip(step, _at_once(passes, LANES)):
                ledger.append(epoch, client_id(k + 1), SERVER, MessageKind.CLIENT_WEIGHTS, base.size)
                nn_core.fold_centered(self.total, self.models[k].params, base)
                if turn_losses:  # federated loss: the mean of the per-client means
                    losses.append(np.mean(np.concatenate(turn_losses), keepdims=True))
        nn_core.centered_mean(base, self.total, len(self.sizes), out=self.global_vec)
        return losses


@dataclass
class RunResult:
    client_params: list[np.ndarray]  # per split client, latest weights held; [] under federated
    server_params: np.ndarray  # the split server's back, or the federated global model
    ledger: TrafficLedger
    losses: list[float]  # per epoch (federated round)


@np.errstate(over="ignore", invalid="ignore")
def _train(spec: ModelSpec, cut: int | None, shards: Sequence, protocol: Protocol, epochs: int, lr: float,
           seed: int, batch_size: int) -> RunResult:
    """Every protocol's run, as its row says: epochs, then the clients of
    :func:`_turns`, then the batches of :func:`_local_pass`. Each shard is
    checked once before the first turn and read again for each of its turns,
    held to the shape found (:func:`_turn_shard`), so a run holds one shard a
    lane at a time. A split turn copies its client's weights into the front
    ``[:n_client]`` of the one working model, logs its traffic at ``cut`` in
    one :meth:`TrafficLedger.log_turn` call when the turn ends, and copies
    them back out. A federated round logs its downloads and runs its
    :class:`_FederatedRound`. A non-finite loss over trained records raises
    :class:`Diverged`."""
    federated, hand_off = not protocol.splits, protocol.hand_off
    sizes = _checked_run(spec, shards, "rounds" if federated else "epochs", epochs, batch_size)
    c = None if federated else nn_core._cut_index(spec, cut)
    k_clients = len(sizes)
    model = _WorkingModel(spec, nn_core.init_params(spec, seed), batch_size, sizes, lr)  # split: front, then back
    front = model.params if federated else model.params[:nn_core.client_param_count(spec, c)]
    if federated:
        scheduler = _FederatedRound(spec, shards, sizes, model)
    else:
        held = [front.copy() for _ in range(k_clients)]
    ledger, losses = TrafficLedger(), []

    for epoch in range(epochs):
        turns = _turns(protocol, epoch, k_clients)
        if federated:  # the round's downloads, one message a client, logged as one turn
            ledger.log_turn(epoch, [(SERVER, client_id(k + 1), MessageKind.GLOBAL_WEIGHTS) for k in turns],
                            [([front.size] * len(turns), 1)])
            epoch_losses = scheduler.run(epoch, ledger)
        else:
            epoch_losses = []  # split loss: the mean over the epoch's batches
            for k in turns:
                me, nxt = client_id(k + 1), client_id((k + 1) % k_clients + 1)
                mine, receiver = held[k], held[(k + 1) % k_clients]
                np.copyto(front, mine)
                turn_losses, runs = _local_pass(model, *_turn_shard(spec, shards[k], sizes[k]), c,
                                                front.size if hand_off == "batch" else None)
                batch = ((me, SERVER, MessageKind.ACTIVATIONS), (me, SERVER, MessageKind.LABELS),
                         (SERVER, me, MessageKind.GRADIENTS), (me, nxt, MessageKind.CLIENT_WEIGHTS))
                ledger.log_turn(epoch, batch if hand_off == "batch" else batch[:3], runs)
                np.copyto(mine, front)
                epoch_losses += turn_losses
                if hand_off == "turn":
                    ledger.append(epoch, me, nxt, MessageKind.CLIENT_WEIGHTS, front.size)
                # a hand-off per batch copies the last one alone: no one reads it before the receiver's turn
                if hand_off == "turn" or hand_off and runs:
                    np.copyto(receiver, front)
        loss = float(np.mean(np.concatenate(epoch_losses))) if epoch_losses else math.nan  # NaN: no records seen
        if epoch_losses and not math.isfinite(loss):
            raise Diverged(f"training diverged: {'round' if federated else 'epoch'} {epoch} loss is {loss} "
                           "(try a smaller learning rate)")
        losses.append(loss)

    server = scheduler.global_vec if federated else model.params[front.size:].copy()
    return RunResult([] if federated else held, server, ledger, losses)


def run_split_training(
    spec: ModelSpec,
    cut: int,
    shards: Sequence[tuple[np.ndarray, np.ndarray]],
    variant: Protocol,
    epochs: int,
    lr: float,
    seed: int,
    batch_size: int = 1,
) -> RunResult:
    """Simulate split training and log every transfer.

    Per batch the active client sends Activations and Labels up and receives
    Gradients back, each records*width scalars sized from the real arrays.
    A hand-off (``variant.hand_off``) passes ClientWeights to the next
    client, the last closing the ring to client 1; without one each client
    keeps its own stale front weights between turns.

    Epoch loss is the mean training loss over the batches processed in that
    epoch (NaN when the epoch saw no records); the overflows on the way to a
    :class:`Diverged` epoch raise no numpy warning.
    """
    if not _member(variant).splits:
        raise InvalidParam("run_split_training needs a split protocol; use run_federated_training")
    return _train(spec, cut, shards, variant, epochs, lr, seed, batch_size)


def run_federated_training(
    spec: ModelSpec,
    shards: Sequence[tuple[np.ndarray, np.ndarray]],
    rounds: int,
    local_lr: float,
    seed: int,
    batch_size: int = 1,
) -> RunResult:
    """Simulate federated averaging; the result's ``server_params`` is the global model.

    Each round the server sends the N-scalar global model down to every
    client, every client runs one local epoch of SGD on its shard, uploads
    its full N-scalar model, and the server replaces the global model with
    the elementwise average of the uploads, folded in client order
    (:func:`nn_core.fold_centered`) around client 1's upload. Clients 1 and
    2 train at once, and from K = 4 so do clients K-1 and K, on up to
    ``LANES`` threads; any others train one at a time. Client 1 trains in the base, client 2
    and the middle clients in the working weights, and from K = 3 the last
    client in the global model itself, so a run still holds four N-vectors
    (global, working weights, base, sum) whatever K is, and each lane one
    SGD block scratch and one shard. The weights, losses and ledger are the
    same bits whatever the lane count. Round loss is the mean over clients
    with records of their mean batch loss (NaN when no client had records).
    """
    return _train(spec, None, shards, Protocol.FEDERATED, rounds, local_lr, seed, batch_size)


def measured_comm(ledger: TrafficLedger, params: ScenarioParams, method: Protocol) -> CommReport:
    """Traffic report of a run of ``method`` over ``params.clients`` clients,
    measured from its ledger: Labels count exactly when ``params.label_width``
    is nonzero, as the closed forms count them.

    per_client is the maximum over clients of the scalars each owns in the
    counted kinds (see :meth:`TrafficLedger.tally`), the paper's per-client
    column. total counts every counted message once.
    """
    counted = [kind for kind in MessageKind if params.label_width or kind is not MessageKind.LABELS]
    owned = {owner: sum(kinds[kind] for kind in counted) for owner, kinds in ledger.tally().items()}
    per_client = max((owned.get(client_id(k + 1), 0) for k in range(params.clients)), default=0)
    return CommReport.from_scalars(_member(method), per_client, sum(owned.values()), params.bytes_per_scalar)


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of the ledger-versus-closed-form cross-check."""

    matches: bool
    expected: dict[MessageKind, int]
    actual: dict[MessageKind, int]
    deltas: dict[MessageKind, int]  # actual - expected, nonzero kinds only
    client: str | None = None  # first owner whose tally differs from its closed form
    client_deltas: dict[MessageKind, int] = field(default_factory=dict)  # that owner's deltas

    def describe(self) -> str:
        if self.matches:
            return "exact match"
        parts = [
            f"{kind.value}: expected {self.expected[kind]}, got {self.actual[kind]} ({delta:+d})"
            for kind, delta in self.deltas.items()
        ]
        owned = ", ".join(f"{kind.value} {delta:+d}" for kind, delta in self.client_deltas.items())
        return "mismatch: " + "; ".join(parts + [f"first differing client {self.client} ({owned})"])


def client_kind_totals(params: ScenarioParams, variant: Protocol) -> dict[str, dict[MessageKind, int]]:
    """Closed-form per-kind scalars each client owns over a simulated run of
    ``params.epochs`` epochs (or federated rounds), keyed client1..clientK:
    each client's one-client, one-epoch form on its :func:`shard_sizes` share,
    times the epochs that visit it: every epoch, or if ``variant`` rotates, the
    epochs t with client (t mod K)+1, counted here in arithmetic, apart from
    the simulator's turn rule."""
    k, e = params.clients, params.epochs
    visits = [e // k + (i < e % k) for i in range(k)] if _member(variant).rotates else [e] * k
    one_epoch = replace(params, epochs=1)
    runs = list(zip(shard_sizes(params.dataset_size, k, strict=False), visits))
    forms = {(size, v): {kind: n * v for kind, n in traffic_by_kind(one_epoch, variant, size).items()}
             for size, v in set(runs)}
    return {client_id(i + 1): forms[run] for i, run in enumerate(runs)}


def expected_kind_totals(
    params: ScenarioParams, variant: Protocol, batch_size: int | None = None
) -> dict[MessageKind, int]:
    """Closed-form per-kind scalar totals of a simulated run: the sums of its clients' forms.

    ``batch_size``, if given, replaces ``params.batch_size``; an old call form
    kept because perfbench/workloads.py still passes it.
    """
    if batch_size is not None:
        params = replace(params, batch_size=batch_size)
    forms = client_kind_totals(params, variant)
    return {kind: sum(form[kind] for form in forms.values()) for kind in MessageKind}


def verify_against_model(ledger: TrafficLedger, params: ScenarioParams, variant: Protocol) -> VerificationReport:
    """Exact integer check of every client's tally against its own closed form,
    on the shard :func:`shard_sizes` gives it in lenient mode (strict mode
    either agrees or refuses to split).

    Every kind is compared, Labels at ``params.label_width`` scalars a record
    (the simulator sends the model's output width). A message owned by
    anything but client1..clientK is a mismatch. A mismatch is a result, not
    an error.
    """
    forms = client_kind_totals(params, variant)
    tally = ledger.tally()
    zero = dict.fromkeys(MessageKind, 0)
    # client1..clientK first, then any other owner, which no closed form allows
    by_owner = {o: _deltas(tally.get(o, zero), forms.get(o, zero)) for o in {**forms, **tally}}
    client = next((owner for owner, deltas in by_owner.items() if deltas), None)
    expected = {kind: sum(form[kind] for form in forms.values()) for kind in MessageKind}
    actual = ledger.totals_by_kind()
    return VerificationReport(
        client is None, expected, actual, _deltas(actual, expected), client, by_owner.get(client, {})
    )


def _deltas(actual: dict[MessageKind, int], expected: dict[MessageKind, int]) -> dict[MessageKind, int]:
    return {kind: actual[kind] - expected[kind] for kind in MessageKind if actual[kind] != expected[kind]}
