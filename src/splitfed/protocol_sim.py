"""Deterministic protocol simulator with a per-message traffic ledger.

Runs split training (three weight-sync variants) and federated averaging as
strictly sequential event sequences over an in-process message bus with zero
loss and zero latency; only payload sizes matter. Every transfer lands in an
append-only ledger whose scalar counts come from the actual array sizes, so
comparing ledger totals against the closed forms in :mod:`.cost_model` is a
genuine cross-check rather than the same formula evaluated twice.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from . import nn_core
from .cost_model import CommReport, MessageKind, Protocol, ScenarioParams, shard_sizes, traffic_by_kind
from .errors import InvalidParam
from .nn_core import CutPoint, ModelSpec

SERVER = "server"


def client_id(k: int) -> str:
    """Endpoint id for 1-based client index k."""
    return f"client{k}"


# The simulator's name for the protocol it runs (SYNC_EPOCH, SYNC_BATCH, ALTERNATING).
SplitVariant = Protocol


@dataclass(frozen=True)
class Message:
    epoch: int
    sender: str
    receiver: str
    kind: MessageKind
    scalar_count: int


class TrafficLedger:
    """Append-only, ordered log of every simulated transfer."""

    def __init__(self) -> None:
        self.messages: list[Message] = []

    def append(self, message: Message) -> None:
        if message.scalar_count < 0:
            raise InvalidParam(f"negative scalar_count in {message}")
        self.messages.append(message)

    def __len__(self) -> int:
        return len(self.messages)

    def __iter__(self):
        return iter(self.messages)

    def total_scalars(self, exclude: Iterable[MessageKind] = (MessageKind.LABELS,)) -> int:
        excluded = frozenset(exclude)
        return sum(m.scalar_count for m in self.messages if m.kind not in excluded)

    def totals_by_kind(self) -> dict[MessageKind, int]:
        totals = {kind: 0 for kind in MessageKind}
        for m in self.messages:
            totals[m.kind] += m.scalar_count
        return totals

    def endpoint_scalars(self, endpoint: str, exclude: Iterable[MessageKind] = (MessageKind.LABELS,)) -> int:
        """Scalars sent plus received by one endpoint."""
        excluded = frozenset(exclude)
        return sum(
            m.scalar_count
            for m in self.messages
            if m.kind not in excluded and endpoint in (m.sender, m.receiver)
        )

    def messages_in_epoch(self, epoch: int) -> list[Message]:
        return [m for m in self.messages if m.epoch == epoch]

    def to_csv(self, path_or_file) -> None:
        """Write "epoch,sender,receiver,kind,scalar_count"; row order = event order."""
        if hasattr(path_or_file, "write"):
            self._write_csv(path_or_file)
        else:
            with open(path_or_file, "w", newline="") as fh:
                self._write_csv(fh)

    def _write_csv(self, fh) -> None:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["epoch", "sender", "receiver", "kind", "scalar_count"])
        for m in self.messages:
            writer.writerow([m.epoch, m.sender, m.receiver, m.kind.value, m.scalar_count])


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
    sizes = shard_sizes(x.shape[0], clients, strict=strict)
    shards = []
    offset = 0
    for size in sizes:
        shards.append((x[offset : offset + size], y[offset : offset + size]))
        offset += size
    return ShardedDataset(shards=tuple(shards))


def _batches(x: np.ndarray, y: np.ndarray, batch_size: int):
    for lo in range(0, x.shape[0], batch_size):
        yield x[lo : lo + batch_size], y[lo : lo + batch_size]


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
    keeps its own stale front weights between turns.

    Epoch loss is the mean training loss over the batches processed in that
    epoch (NaN when the epoch saw no records).
    """
    if epochs < 0:
        raise InvalidParam(f"epochs must be >= 0, got {epochs}")
    if batch_size < 1:
        raise InvalidParam(f"batch_size must be >= 1, got {batch_size}")
    if shards.clients < 1:
        raise InvalidParam("need at least one client shard")
    if variant is Protocol.FEDERATED:
        raise InvalidParam("run_split_training needs a split protocol; use run_federated_training")
    c = nn_core._cut_index(spec, cut)
    k_clients = shards.clients
    init_client, server = nn_core.split_params(spec, c, nn_core.init_params(spec, seed))
    client_vecs = [init_client.copy() for _ in range(k_clients)]
    ledger = TrafficLedger()
    epoch_losses: list[float] = []

    for epoch in range(epochs):
        batch_losses: list[float] = []
        turns = [epoch % k_clients] if variant is Protocol.SPLIT_NOSYNC else range(k_clients)
        for k in turns:
            me, nxt = client_id(k + 1), client_id((k + 1) % k_clients + 1)
            weights = client_vecs[k]
            x_shard, y_shard = shards.shards[k]
            for xb, yb in _batches(x_shard, y_shard, batch_size):
                front_layers, front_zs, front_acts = nn_core._front_trace(spec, c, weights, xb)
                smashed = front_acts[-1]
                ledger.append(Message(epoch, me, SERVER, MessageKind.ACTIVATIONS, smashed.size))
                ledger.append(Message(epoch, me, SERVER, MessageKind.LABELS, yb.size))
                back_layers, back_zs, back_acts = nn_core._back_trace(spec, c, server, smashed)
                loss, dout = nn_core._mse_and_grad(back_acts[-1], yb)
                server_grads, back_act_grads = nn_core._backward_layers(
                    back_layers, spec.activation, back_zs, back_acts, dout, c, spec.weight_layers
                )
                cut_grad = back_act_grads[0]
                ledger.append(Message(epoch, SERVER, me, MessageKind.GRADIENTS, cut_grad.size))
                client_grads, _ = nn_core._backward_layers(
                    front_layers, spec.activation, front_zs, front_acts, cut_grad, 0, spec.weight_layers
                )
                weights = nn_core.sgd_step(weights, client_grads, lr)
                server = nn_core.sgd_step(server, server_grads, lr)
                batch_losses.append(loss)
                if variant is Protocol.SPLIT_SYNC_BATCH:
                    ledger.append(Message(epoch, me, nxt, MessageKind.CLIENT_WEIGHTS, weights.size))
                    client_vecs[(k + 1) % k_clients] = weights
            client_vecs[k] = weights
            if variant is Protocol.SPLIT_SYNC:
                ledger.append(Message(epoch, me, nxt, MessageKind.CLIENT_WEIGHTS, weights.size))
                client_vecs[(k + 1) % k_clients] = weights
        epoch_losses.append(float(np.mean(batch_losses)) if batch_losses else math.nan)

    return SplitRunResult(
        client_params=client_vecs,
        server_params=server,
        ledger=ledger,
        epoch_losses=epoch_losses,
    )


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
    """
    if rounds < 0:
        raise InvalidParam(f"rounds must be >= 0, got {rounds}")
    if batch_size < 1:
        raise InvalidParam(f"batch_size must be >= 1, got {batch_size}")
    if shards.clients < 1:
        raise InvalidParam("need at least one client shard")
    k_clients = shards.clients
    global_vec = nn_core.init_params(spec, seed)
    ledger = TrafficLedger()
    round_losses: list[float] = []

    for rnd in range(rounds):
        for k in range(k_clients):
            ledger.append(Message(rnd, SERVER, client_id(k + 1), MessageKind.GLOBAL_WEIGHTS, global_vec.size))
        uploads = []
        client_losses: list[float] = []
        for k in range(k_clients):
            weights = global_vec
            x_shard, y_shard = shards.shards[k]
            batch_losses = []
            for xb, yb in _batches(x_shard, y_shard, batch_size):
                layers = nn_core.unpack_params(spec, weights)
                zs, acts = nn_core._forward_layers(layers, spec.activation, xb, 0, spec.weight_layers)
                loss, dout = nn_core._mse_and_grad(acts[-1], yb)
                grads, _ = nn_core._backward_layers(
                    layers, spec.activation, zs, acts, dout, 0, spec.weight_layers
                )
                weights = nn_core.sgd_step(weights, grads, local_lr)
                batch_losses.append(loss)
            uploads.append(weights)
            ledger.append(Message(rnd, client_id(k + 1), SERVER, MessageKind.CLIENT_WEIGHTS, weights.size))
            if batch_losses:
                client_losses.append(float(np.mean(batch_losses)))
        global_vec = nn_core.average_params(uploads)
        round_losses.append(float(np.mean(client_losses)) if client_losses else math.nan)

    return FederatedRunResult(global_params=global_vec, ledger=ledger, round_losses=round_losses)


def measured_comm(
    ledger: TrafficLedger,
    clients: int,
    method: Protocol,
    exclude: Iterable[MessageKind] = (MessageKind.LABELS,),
    bytes_per_scalar: int = 4,
) -> CommReport:
    """Traffic report of a run of ``method``, measured from its ledger.

    per_client is the maximum over clients of scalars sent plus received in
    the included kinds (uniform for equal-shard runs; note a ring hand-off
    counts on both the sender and the receiver). total counts every included
    message once.
    """
    excluded = frozenset(exclude)
    per_client = max(
        (ledger.endpoint_scalars(client_id(k + 1), excluded) for k in range(clients)),
        default=0,
    )
    total = ledger.total_scalars(excluded)
    return CommReport.from_scalars(method, per_client, total, bytes_per_scalar)


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of the ledger-versus-closed-form cross-check (Labels excluded)."""

    matches: bool
    expected: dict[MessageKind, int]
    actual: dict[MessageKind, int]
    deltas: dict[MessageKind, int]  # actual - expected, nonzero kinds only

    def describe(self) -> str:
        if self.matches:
            return "exact match"
        parts = [
            f"{kind.value}: expected {self.expected[kind]}, got {self.actual[kind]} ({delta:+d})"
            for kind, delta in self.deltas.items()
        ]
        return "mismatch: " + "; ".join(parts)


def expected_kind_totals(
    params: ScenarioParams,
    variant: Protocol,
    shard_sizes_override: Sequence[int] | None = None,
    batch_size: int = 1,
) -> dict[MessageKind, int]:
    """Closed-form per-kind scalar totals of a simulated run, from
    :func:`~splitfed.cost_model.traffic_by_kind`.

    ``params.epochs`` counts simulated epochs or federated rounds. An
    alternating (nosync) epoch is one client's turn, so a full pass over the
    data takes K of them.
    """
    shards = shard_sizes_override
    if variant is Protocol.SPLIT_NOSYNC:
        # Epoch t goes to client (t mod K) alone, so the run is one pass over
        # the shards its epochs visit.
        if shards is None:
            shards = shard_sizes(params.dataset_size, params.clients, strict=False)
        shards = [shards[t % len(shards)] for t in range(params.epochs)]
        params = replace(params, epochs=1)
    return traffic_by_kind(params, variant, shards, batch_size)


def verify_against_model(
    ledger: TrafficLedger,
    params: ScenarioParams,
    variant,
    shard_sizes_override: Sequence[int] | None = None,
    batch_size: int = 1,
) -> VerificationReport:
    """Exact integer comparison of ledger totals against the closed forms.

    Labels are excluded on both sides. A mismatch is a result, not an error.
    """
    expected = expected_kind_totals(params, variant, shard_sizes_override, batch_size)
    actual = ledger.totals_by_kind()
    actual.pop(MessageKind.LABELS, None)
    expected.pop(MessageKind.LABELS, None)
    deltas = {
        kind: actual[kind] - expected[kind]
        for kind in MessageKind
        if kind is not MessageKind.LABELS and actual[kind] != expected[kind]
    }
    return VerificationReport(matches=not deltas, expected=expected, actual=actual, deltas=deltas)
