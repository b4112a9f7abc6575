"""Deterministic protocol simulator with a per-message traffic ledger.

Runs split training (three weight-sync variants) and federated averaging as
strictly sequential event sequences over an in-process message bus with zero
loss and zero latency; only payload sizes matter. Every transfer lands in an
append-only ledger whose scalar counts come from the actual array sizes, so
comparing ledger totals against the closed forms in :mod:`.cost_model` is a
genuine cross-check rather than the same formula evaluated twice.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field, replace
from itertools import accumulate, pairwise
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from . import nn_core
from .cost_model import CommReport, MessageKind, Protocol, ScenarioParams, shard_sizes, traffic_by_kind
from .errors import Diverged, InvalidParam, ShapeMismatch
from .nn_core import CutPoint, ModelSpec

SERVER = "server"


def client_id(k: int) -> str:
    """Endpoint id for 1-based client index k."""
    return f"client{k}"


# The simulator's name for the protocol it runs (SYNC_EPOCH, SYNC_BATCH, ALTERNATING).
SplitVariant = Protocol


class Message(NamedTuple):
    epoch: int
    sender: str
    receiver: str
    kind: MessageKind
    scalar_count: int


class TrafficLedger:
    """Append-only, ordered log of every simulated transfer.

    Each message is stored as a plain row ``(epoch, sender, receiver, kind,
    scalar_count)``; iterating the ledger yields them as :class:`Message`.
    Endpoint ids are identifiers, so no CSV field ever needs quoting.
    """

    def __init__(self) -> None:
        self._rows: list[tuple[int, str, str, MessageKind, int]] = []
        self._tally: dict[str, dict[MessageKind, int]] | None = None

    def append(self, epoch: int, sender: str, receiver: str, kind: MessageKind, scalar_count: int) -> None:
        if scalar_count < 0:
            raise InvalidParam(f"negative scalar_count in {Message(epoch, sender, receiver, kind, scalar_count)}")
        self._rows.append((epoch, sender, receiver, kind, scalar_count))
        self._tally = None

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Message]:
        return map(Message._make, self._rows)

    def total_scalars(self, exclude: Iterable[MessageKind] = (MessageKind.LABELS,)) -> int:
        included = set(MessageKind).difference(exclude)
        return sum(kinds[kind] for kinds in self._owned().values() for kind in included)

    def totals_by_kind(self) -> dict[MessageKind, int]:
        owned = self._owned().values()  # every message has exactly one owner
        return {kind: sum(kinds[kind] for kinds in owned) for kind in MessageKind}

    def tally(self) -> dict[str, dict[MessageKind, int]]:
        """Scalars per (owner, kind), as a copy the caller owns. A message's one
        owner is the client that sends it, or the client the server sends it to."""
        return {owner: dict(kinds) for owner, kinds in self._owned().items()}

    def _owned(self) -> dict[str, dict[MessageKind, int]]:
        """The shared tally, computed in one pass the first time it is read after an append."""
        if self._tally is None:
            tally = defaultdict(lambda: dict.fromkeys(MessageKind, 0))
            for _, sender, receiver, kind, count in self._rows:
                tally[receiver if sender == SERVER else sender][kind] += count
            self._tally = dict(tally)
        return self._tally

    def to_csv(self, path_or_file) -> None:
        """Write "epoch,sender,receiver,kind,scalar_count"; row order = event order."""
        if hasattr(path_or_file, "write"):
            self._write_csv(path_or_file)
        else:
            with open(path_or_file, "w", newline="") as fh:
                self._write_csv(fh)

    def _write_csv(self, fh) -> None:
        # The bytes csv.writer would write: no field of ints and identifiers needs quoting.
        fh.write("epoch,sender,receiver,kind,scalar_count\n")
        fh.writelines(f"{e},{s},{r},{k.value},{n}\n" for e, s, r, k, n in self._rows)


@dataclass(frozen=True)
class ShardedDataset:
    """Per-client (inputs, labels) blocks; record order is preserved."""

    shards: tuple[tuple[np.ndarray, np.ndarray], ...]

    @property
    def clients(self) -> int:
        return len(self.shards)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(x.shape[0] for x, _ in self.shards)

    @property
    def total_records(self) -> int:
        return sum(self.sizes)


def partition_dataset(inputs, labels, clients: int, strict: bool = True) -> ShardedDataset:
    """Slice the dataset into consecutive per-client blocks.

    Strict mode demands an even split; lenient mode gives the first
    ``p % clients`` clients one extra record.
    """
    x = np.asarray(inputs, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if x.shape[0] != y.shape[0]:
        raise InvalidParam(f"{x.shape[0]} inputs but {y.shape[0]} labels")
    bounds = pairwise(accumulate(shard_sizes(x.shape[0], clients, strict=strict), initial=0))
    return ShardedDataset(shards=tuple((x[lo:hi], y[lo:hi]) for lo, hi in bounds))


def _checked_run(spec: ModelSpec, shards: ShardedDataset, unit: str, count: int, batch_size: int) -> list:
    """Check a run's ``count`` epochs or rounds and its batch size, and return
    every shard as float64 (inputs, labels) of the model's widths."""
    if count < 0:
        raise InvalidParam(f"{unit} must be >= 0, got {count}")
    if batch_size < 1:
        raise InvalidParam(f"batch_size must be >= 1, got {batch_size}")
    if shards.clients < 1:
        raise InvalidParam("need at least one client shard")
    checked = []
    for x, y in shards.shards:
        x = nn_core._check_batch(x, spec.input_width, "shard inputs")
        y = nn_core._check_batch(y, spec.output_width, "shard labels")
        if x.shape[0] != y.shape[0]:
            raise ShapeMismatch(f"shard has {x.shape[0]} records but {y.shape[0]} labels")
        checked.append((x, y))
    return checked


class _WorkingModel:
    """The one model a run trains: a flat weight vector and a gradient buffer,
    each with its per-layer views, built once per run. A turn copies the
    weights it trains in and out; nothing else holds a view of them."""

    def __init__(self, spec: ModelSpec, params: np.ndarray) -> None:
        self.activation, self.params, self.grads = spec.activation, params, np.empty_like(params)
        self.layers, self.grad_layers = [nn_core.unpack_params(spec, v) for v in (params, self.grads)]


def _local_pass(model: _WorkingModel, x: np.ndarray, y: np.ndarray, batch_size: int, lr: float):
    """Train ``model`` on one shard, batch by batch: every protocol's one training step.

    Each batch runs forward, loss, backward and one ``sgd_step`` on the whole
    flat vector, then yields ``(loss, activations, activation gradients,
    labels)``; index ``c`` of both lists is what crosses a cut at ``c``.
    """
    for lo in range(0, x.shape[0], batch_size):
        yb = y[lo : lo + batch_size]
        zs, acts = nn_core._forward_layers(model.layers, model.activation, x[lo : lo + batch_size])
        loss, dout = nn_core._mse_and_grad(acts[-1], yb)
        act_grads = nn_core._backward_layers(model.layers, model.activation, zs, acts, dout, model.grad_layers)
        nn_core.sgd_step(model.params, model.grads, lr)
        yield loss, acts, act_grads, yb


def _epoch_loss(losses: list[float], unit: str, index: int) -> float:
    """Mean of an epoch's (or round's) losses; NaN when it saw no records.

    A non-finite mean over records it did train on means the run diverged,
    which raises :class:`Diverged` naming ``unit`` and ``index``.
    """
    if not losses:
        return math.nan
    loss = float(np.mean(losses))
    if not math.isfinite(loss):
        raise Diverged(f"training diverged: {unit} {index} loss is {loss} (try a smaller learning rate)")
    return loss


@dataclass
class SplitRunResult:
    client_params: list[np.ndarray]  # per client, latest weights held
    server_params: np.ndarray
    ledger: TrafficLedger
    epoch_losses: list[float]


@dataclass
class FederatedRunResult:
    global_params: np.ndarray
    ledger: TrafficLedger
    round_losses: list[float]


@np.errstate(over="ignore", invalid="ignore")
def run_split_training(
    spec: ModelSpec,
    cut: CutPoint | int,
    shards: ShardedDataset,
    variant: Protocol,
    epochs: int,
    lr: float,
    seed: int,
    batch_size: int = 1,
) -> SplitRunResult:
    """Simulate split training and log every transfer.

    Per batch the active client sends Activations and Labels up and receives
    Gradients back, each records*width scalars sized from the real arrays.
    SyncEpoch passes ClientWeights to the next client after each turn, the
    last client closing the ring back to client 1 (so every epoch moves
    exactly K hand-offs, including the self-loop when K = 1). SyncBatch makes
    the same hand-off after every batch. AlternatingNoSync gives epoch e to
    client (e mod K)+1 alone and never exchanges client weights; each client
    keeps its own stale front weights between turns. A turn copies the
    client's weights into the front of the run's one working model and back
    out; a hand-off copies them into the receiver's own vector.

    Epoch loss is the mean training loss over the batches processed in that
    epoch (NaN when the epoch saw no records). An epoch whose records give a
    non-finite loss raises :class:`Diverged` when it ends; the overflows on
    the way there raise no numpy warning.
    """
    data = _checked_run(spec, shards, "epochs", epochs, batch_size)
    if variant is Protocol.FEDERATED:
        raise InvalidParam("run_split_training needs a split protocol; use run_federated_training")
    c = nn_core._cut_index(spec, cut)
    k_clients = len(data)
    # The client layers are the front of the working model, the server's its back.
    model = _WorkingModel(spec, nn_core.init_params(spec, seed))
    n_client = nn_core.client_param_count(spec, c)
    front = model.params[:n_client]
    client_vecs = [front.copy() for _ in range(k_clients)]
    ledger = TrafficLedger()
    epoch_losses: list[float] = []

    for epoch in range(epochs):
        batch_losses: list[float] = []
        turns = [epoch % k_clients] if variant is Protocol.SPLIT_NOSYNC else range(k_clients)
        for k in turns:
            me, nxt = client_id(k + 1), client_id((k + 1) % k_clients + 1)
            held, receiver = client_vecs[k], client_vecs[(k + 1) % k_clients]
            np.copyto(front, held)
            for loss, acts, act_grads, yb in _local_pass(model, *data[k], batch_size, lr):
                ledger.append(epoch, me, SERVER, MessageKind.ACTIVATIONS, acts[c].size)
                ledger.append(epoch, me, SERVER, MessageKind.LABELS, yb.size)
                ledger.append(epoch, SERVER, me, MessageKind.GRADIENTS, act_grads[c].size)
                batch_losses.append(loss)
                if variant is Protocol.SPLIT_SYNC_BATCH:
                    ledger.append(epoch, me, nxt, MessageKind.CLIENT_WEIGHTS, front.size)
                    np.copyto(receiver, front)
            np.copyto(held, front)
            if variant is Protocol.SPLIT_SYNC:
                ledger.append(epoch, me, nxt, MessageKind.CLIENT_WEIGHTS, front.size)
                np.copyto(receiver, front)
        epoch_losses.append(_epoch_loss(batch_losses, "epoch", epoch))

    return SplitRunResult(client_vecs, model.params[n_client:].copy(), ledger, epoch_losses)


@np.errstate(over="ignore", invalid="ignore")
def run_federated_training(
    spec: ModelSpec,
    shards: ShardedDataset,
    rounds: int,
    local_lr: float,
    seed: int,
    batch_size: int = 1,
) -> FederatedRunResult:
    """Simulate federated averaging.

    Each round the server sends the N-scalar global model down to every
    client, every client runs one local epoch of SGD on its shard, uploads
    its full N-scalar model, and the server replaces the global model with
    the elementwise average of the uploads.

    Clients train one after another, so the server folds each upload into a
    running sum as its client finishes (:func:`nn_core.fold_centered`).
    Every client trains in the run's one working model, and client 1's upload
    is kept as the ``base`` of the sum. A run holds five N-vectors (global,
    working weights and gradient, base, sum) whatever K is.

    Round loss is the mean over clients with records of their mean batch
    loss (NaN when no client had records); a non-finite one raises
    :class:`Diverged`, as for split training.
    """
    data = _checked_run(spec, shards, "rounds", rounds, batch_size)
    global_vec = nn_core.init_params(spec, seed)
    model = _WorkingModel(spec, np.empty_like(global_vec))
    base, total = np.empty_like(global_vec), np.empty_like(global_vec)
    ledger = TrafficLedger()
    round_losses: list[float] = []

    for rnd in range(rounds):
        for k in range(len(data)):
            ledger.append(rnd, SERVER, client_id(k + 1), MessageKind.GLOBAL_WEIGHTS, global_vec.size)
        client_losses: list[float] = []
        for k, (x, y) in enumerate(data):
            np.copyto(model.params, global_vec)
            batch_losses = [loss for loss, *_ in _local_pass(model, x, y, batch_size, local_lr)]
            ledger.append(rnd, client_id(k + 1), SERVER, MessageKind.CLIENT_WEIGHTS, model.params.size)
            if k == 0:  # client 1's upload, kept as the base the others are folded around
                np.copyto(base, model.params)
            nn_core.fold_centered(total, model.params if k else base, base)
            if batch_losses:
                client_losses.append(float(np.mean(batch_losses)))
        nn_core.centered_mean(base, total, len(data), out=global_vec)
        round_losses.append(_epoch_loss(client_losses, "round", rnd))

    return FederatedRunResult(global_params=global_vec, ledger=ledger, round_losses=round_losses)


def measured_comm(
    ledger: TrafficLedger,
    clients: int,
    method: Protocol,
    exclude: Iterable[MessageKind] = (MessageKind.LABELS,),
    bytes_per_scalar: int = 4,
) -> CommReport:
    """Traffic report of a run of ``method``, measured from its ledger.

    per_client is the maximum over clients of the scalars each owns in the
    included kinds (see :meth:`TrafficLedger.tally`), the paper's per-client
    column. total counts every included message once.
    """
    included = set(MessageKind).difference(exclude)
    owned = {owner: sum(kinds[kind] for kind in included) for owner, kinds in ledger.tally().items()}
    per_client = max((owned.get(client_id(k + 1), 0) for k in range(clients)), default=0)
    return CommReport.from_scalars(method, per_client, sum(owned.values()), bytes_per_scalar)


CHECKED_KINDS = tuple(kind for kind in MessageKind if kind is not MessageKind.LABELS)


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of the ledger-versus-closed-form cross-check (Labels excluded)."""

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


def client_kind_totals(
    params: ScenarioParams,
    variant: Protocol,
    shard_sizes_override: Sequence[int] | None = None,
    batch_size: int = 1,
) -> dict[str, dict[MessageKind, int]]:
    """Closed-form per-kind scalars each client owns over a simulated run of
    ``params.epochs`` epochs (or federated rounds), keyed client1..clientK."""
    if (shards := shard_sizes_override) is None:
        shards = shard_sizes(params.dataset_size, params.clients, strict=False)
    k, e = len(shards), params.epochs
    if variant is Protocol.SPLIT_NOSYNC:
        # Epoch t goes to client (t mod K) alone, so a client's shard counts
        # once per epoch that visits it, and a full pass takes K epochs.
        visits = [(size,) * (e // k + (i < e % k)) for i, size in enumerate(shards)]
        params = replace(params, epochs=1)
    else:
        visits = [(size,) for size in shards]
    forms = {run: traffic_by_kind(params, variant, run, batch_size) for run in set(visits)}
    return {client_id(i + 1): forms[run] for i, run in enumerate(visits)}


def expected_kind_totals(
    params: ScenarioParams,
    variant: Protocol,
    shard_sizes_override: Sequence[int] | None = None,
    batch_size: int = 1,
) -> dict[MessageKind, int]:
    """Closed-form per-kind scalar totals of a simulated run: the sums of its clients' forms."""
    forms = client_kind_totals(params, variant, shard_sizes_override, batch_size)
    return {kind: sum(form[kind] for form in forms.values()) for kind in MessageKind}


def verify_against_model(
    ledger: TrafficLedger,
    params: ScenarioParams,
    variant: Protocol,
    shard_sizes_override: Sequence[int] | None = None,
    batch_size: int = 1,
) -> VerificationReport:
    """Exact integer check of every client's tally against its own closed form.

    A message owned by anything but client1..clientK is a mismatch. Labels
    are excluded on both sides. A mismatch is a result, not an error.
    """
    forms = client_kind_totals(params, variant, shard_sizes_override, batch_size)
    tally = ledger.tally()
    zero = dict.fromkeys(MessageKind, 0)
    # client1..clientK first, then any other owner, which no closed form allows
    by_owner = {o: _deltas(tally.get(o, zero), forms.get(o, zero)) for o in {**forms, **tally}}
    client = next((owner for owner, deltas in by_owner.items() if deltas), None)
    expected = {kind: sum(form[kind] for form in forms.values()) for kind in CHECKED_KINDS}
    actual = {kind: sum(kinds[kind] for kinds in tally.values()) for kind in CHECKED_KINDS}
    return VerificationReport(
        client is None, expected, actual, _deltas(actual, expected), client, by_owner.get(client, {})
    )


def _deltas(actual: dict[MessageKind, int], expected: dict[MessageKind, int]) -> dict[MessageKind, int]:
    return {kind: actual[kind] - expected[kind] for kind in CHECKED_KINDS if actual[kind] != expected[kind]}
