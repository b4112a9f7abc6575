"""Closed-form communication accounting for split versus federated training.

Everything is counted in scalars (one weight or one activation value); wire
bytes are scalars times ``bytes_per_scalar``. With K clients, N model
parameters, p dataset records, q scalars per record at the cut layer and
eta the client-side fraction of parameters, the per-epoch totals are

    split, with client weight sharing:   2*p*q + eta*N*K
    split, no client weight sharing:     2*p*q
    federated averaging:                 2*K*N

:func:`traffic_by_kind` is the one place these forms are written out, split
by message kind; reports, the efficiency ratio and the simulator's ledger
check all sum its kinds. rho = (federated total) / (split total) decides the
winner: rho > 1 favors split, rho < 1 favors federated. Setting rho = 1 and
solving for N gives the break-even hyperbola in the (K, N) plane:
N* = 2*p*q / ((2 - eta) * K) with weight sharing, N* = p*q / K without.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields
from enum import Enum
from fractions import Fraction
from itertools import product
from typing import Mapping, Sequence

from .errors import DivisibilityError, InvalidParam, SplitFedError

# |rho - 1| within this relative band is a tie, so exact-integer break-even
# scenarios classify stably under float evaluation.
TIE_REL_TOL = 1e-12


class MessageKind(str, Enum):
    ACTIVATIONS = "Activations"
    LABELS = "Labels"
    GRADIENTS = "Gradients"
    CLIENT_WEIGHTS = "ClientWeights"
    GLOBAL_WEIGHTS = "GlobalWeights"


class Protocol(str, Enum):
    """A training protocol.

    The value is the scenario-file ``variant`` name, so ``Protocol("nosync")``
    is the one lookup from that string; ``label`` names the protocol in
    reports.
    """

    SPLIT_SYNC = "sync", "SplitSync"
    SPLIT_NOSYNC = "nosync", "SplitNoSync"
    SPLIT_SYNC_BATCH = "sync_batch", "SplitSyncBatch"
    FEDERATED = "federated", "Federated"

    # The simulator's names for the split protocols.
    SYNC_EPOCH = SPLIT_SYNC
    ALTERNATING = SPLIT_NOSYNC
    SYNC_BATCH = SPLIT_SYNC_BATCH

    def __new__(cls, variant: str, label: str) -> "Protocol":
        member = str.__new__(cls, variant)
        member._value_ = variant
        member.label = label
        return member

    @property
    def rho_split(self) -> "Protocol":
        """The split form rho weighs against federated for a scenario of this
        protocol: nosync its own, every other the epoch-level sync form."""
        return self if self is Protocol.SPLIT_NOSYNC else Protocol.SPLIT_SYNC


# The name reports give a protocol: CommReport.method and the CSV "method" column.
Method = Protocol

# The three protocols every report lists, in row order.
REPORTED = (Protocol.SPLIT_SYNC, Protocol.SPLIT_NOSYNC, Protocol.FEDERATED)


class Winner(str, Enum):
    SPLIT = "Split"
    FEDERATED = "Federated"
    TIE = "Tie"


def _even_split(dataset_size: int, clients: int, strict: bool) -> tuple[int, int]:
    """(base, rem): the first ``rem`` clients hold base + 1 records, the rest base."""
    if clients < 1:
        raise InvalidParam(f"clients must be >= 1, got {clients}")
    if dataset_size < 0:
        raise InvalidParam(f"dataset_size must be >= 0, got {dataset_size}")
    base, rem = divmod(dataset_size, clients)
    if rem and strict:
        raise DivisibilityError(
            f"{dataset_size} records do not split evenly across {clients} clients"
        )
    return base, rem


def shard_sizes(dataset_size: int, clients: int, strict: bool = True) -> list[int]:
    """Records per client.

    Strict mode requires an even split; lenient mode hands the remainder to
    the first ``dataset_size % clients`` clients.
    """
    base, rem = _even_split(dataset_size, clients, strict)
    return [base + 1 if k < rem else base for k in range(clients)]


@dataclass(frozen=True)
class ScenarioParams:
    """One point in the comparison space.

    ``client_fraction`` may be a ``Fraction`` (exact, as derived from a model
    cut) or a plain float for analytic studies. ``model_params`` is integral
    for anything that crosses a wire; break-even round trips may pass a real
    value.
    """

    clients: int
    model_params: int | float
    dataset_size: int
    smashed_size: int
    client_fraction: float | Fraction
    bytes_per_scalar: int = 4
    epochs: int = 1

    def __post_init__(self) -> None:
        if not isinstance(self.clients, int) or self.clients < 1:
            raise InvalidParam(f"clients must be a positive integer, got {self.clients}")
        if not 1 <= self.model_params < math.inf:
            raise InvalidParam(f"model_params must be finite and >= 1, got {self.model_params}")
        if not isinstance(self.dataset_size, int) or self.dataset_size < 0:
            raise InvalidParam(f"dataset_size must be a non-negative integer, got {self.dataset_size}")
        if not isinstance(self.smashed_size, int) or self.smashed_size < 1:
            raise InvalidParam(f"smashed_size must be a positive integer, got {self.smashed_size}")
        if not 0 <= self.client_fraction <= 1:
            raise InvalidParam(f"client_fraction must lie in [0, 1], got {self.client_fraction}")
        if not isinstance(self.bytes_per_scalar, int) or self.bytes_per_scalar < 1:
            raise InvalidParam(f"bytes_per_scalar must be a positive integer, got {self.bytes_per_scalar}")
        if not isinstance(self.epochs, int) or self.epochs < 1:
            raise InvalidParam(f"epochs must be a positive integer, got {self.epochs}")

    @classmethod
    def from_model(
        cls,
        spec,
        cut,
        clients: int,
        dataset_size: int,
        bytes_per_scalar: int = 4,
        epochs: int = 1,
    ) -> "ScenarioParams":
        """Derive (N, q, eta) from a dense network and a cut position.

        eta is stored as an exact rational so ledger comparisons stay
        integer-exact.
        """
        from . import nn_core

        q, eta = nn_core.cut_stats(spec, cut)
        return cls(
            clients=clients,
            model_params=nn_core.param_count(spec),
            dataset_size=dataset_size,
            smashed_size=q,
            client_fraction=eta,
            bytes_per_scalar=bytes_per_scalar,
            epochs=epochs,
        )

    @property
    def client_weights(self) -> Fraction:
        """eta*N, exactly: ``Fraction`` of a float is exact, so eta and N turn
        rational here, once, and no float arithmetic follows."""
        return Fraction(self.client_fraction) * Fraction(self.model_params)

    @property
    def client_param_count(self) -> int:
        """Client-side weights on the wire: eta*N rounded once, to the nearest
        whole scalar (ties to even)."""
        return round(self.client_weights)


@dataclass(frozen=True)
class CommReport:
    """Per-client and total traffic for one method, in scalars and bytes."""

    method: Protocol
    per_client_scalars: int
    total_scalars: int
    per_client_bytes: int
    total_bytes: int

    @classmethod
    def from_scalars(
        cls, method: Protocol, per_client: int, total: int, bytes_per_scalar: int
    ) -> "CommReport":
        return cls(
            method=method,
            per_client_scalars=per_client,
            total_scalars=total,
            per_client_bytes=per_client * bytes_per_scalar,
            total_bytes=total * bytes_per_scalar,
        )


@dataclass(frozen=True)
class EfficiencyReport:
    rho: float
    winner: Winner


@dataclass(frozen=True)
class BreakEvenCurve:
    """(K, N*) locus where rho = 1 for fixed (p, q, eta) and variant."""

    variant: Protocol
    dataset_size: int
    smashed_size: int
    client_fraction: float | Fraction
    points: tuple[tuple[int, float], ...]


def traffic_by_kind(
    params: ScenarioParams,
    protocol: Protocol,
    shards: Sequence[int] | None = None,
    batch_size: int = 1,
    label_width: int = 0,
    exact: bool = False,
) -> dict[MessageKind, int | Fraction]:
    """Closed-form scalars per message kind over ``params.epochs`` epochs.

    With K clients holding p records, each epoch (one pass over the data, or
    one federated round) moves

        sync:        Activations = Gradients = p*q, ClientWeights = eta*N*K
                     (one hand-off after each client's turn)
        sync_batch:  as sync, with a hand-off after every batch instead
        nosync:      Activations = Gradients = p*q
                     (the simulator spends K of its epochs on one such pass)
        federated:   GlobalWeights = ClientWeights = K*N

    and, for the split protocols, ``label_width`` label scalars per record.
    ``shards`` lists each client's records, so K and p are its length
    and sum; by default p = ``params.dataset_size`` records are spread over
    K = ``params.clients`` clients as evenly as possible.

    Wire counts round each hand-off to ``client_param_count`` and need a
    whole N. ``exact=True`` keeps eta*N and N exact rationals, as the
    break-even algebra behind rho needs.
    """
    if shards is None:
        k, p = params.clients, params.dataset_size
    else:
        k, p = len(shards), sum(shards)
    q, e = params.smashed_size, params.epochs
    n = Fraction(params.model_params) if exact else int(params.model_params)
    if n != params.model_params:
        raise InvalidParam(f"wire traffic needs a whole model_params, got {params.model_params}")
    kinds = dict.fromkeys(MessageKind, 0)
    if protocol is Protocol.FEDERATED:
        kinds[MessageKind.GLOBAL_WEIGHTS] = kinds[MessageKind.CLIENT_WEIGHTS] = k * n * e
        return kinds
    if protocol is Protocol.SPLIT_SYNC:
        hand_offs = k
    elif protocol is Protocol.SPLIT_SYNC_BATCH:
        sizes = shard_sizes(p, k, strict=False) if shards is None else shards
        hand_offs = sum(-(-size // batch_size) for size in sizes)
    elif protocol is Protocol.SPLIT_NOSYNC:
        hand_offs = 0
    else:
        raise InvalidParam(f"unknown protocol {protocol!r}")
    kinds[MessageKind.ACTIVATIONS] = kinds[MessageKind.GRADIENTS] = p * q * e
    kinds[MessageKind.LABELS] = p * label_width * e
    if hand_offs:
        weights = params.client_weights if exact else params.client_param_count
        kinds[MessageKind.CLIENT_WEIGHTS] = weights * hand_offs * e
    return kinds


def comm_report(
    params: ScenarioParams,
    protocol: Protocol,
    strict: bool = True,
    include_labels: bool = False,
    label_width: int = 1,
) -> CommReport:
    """Per-client and total traffic of one protocol, summed from its kinds.

    Label records are excluded unless ``include_labels`` is set (adds
    ``label_width`` scalars per record). The per-client figure is the client
    with the largest shard, ceil(p/K) records; strict mode requires an even
    split. The total is exact either way.
    """
    base, rem = _even_split(params.dataset_size, params.clients, strict)
    width = label_width if include_labels else 0
    per_client = traffic_by_kind(params, protocol, [base + (rem > 0)], label_width=width)
    total = traffic_by_kind(params, protocol, label_width=width)
    return CommReport.from_scalars(
        protocol, sum(per_client.values()), sum(total.values()), params.bytes_per_scalar
    )


def efficiency_ratio(params: ScenarioParams, variant: Protocol) -> EfficiencyReport:
    """rho = federated total over split total, both summed from exact kinds.

    The hand-off stays at the exact eta*N rather than its wire rounding, so
    rho(N*) = 1 at the break-even size. Independent of epochs and of
    bytes_per_scalar since both methods scale identically. A zero split
    denominator (p = 0 with no weight sharing, or p = 0 and eta = 0) reports
    winner Split with rho = +inf.
    """
    if variant not in (Protocol.SPLIT_SYNC, Protocol.SPLIT_NOSYNC):
        raise InvalidParam(f"variant must be a split method, got {variant!r}")
    split = sum(traffic_by_kind(params, variant, exact=True).values())
    if split == 0:
        return EfficiencyReport(rho=math.inf, winner=Winner.SPLIT)
    rho = sum(traffic_by_kind(params, Protocol.FEDERATED, exact=True).values()) / split
    rho_f = float(rho)
    if rho == 1 or abs(rho_f - 1.0) <= TIE_REL_TOL * max(1.0, abs(rho_f)):
        winner = Winner.TIE
    elif rho_f > 1.0:
        winner = Winner.SPLIT
    else:
        winner = Winner.FEDERATED
    return EfficiencyReport(rho=rho_f, winner=winner)


def break_even_model_size(
    dataset_size: int,
    smashed_size: int,
    clients: int,
    client_fraction: float | Fraction = 0.0,
    variant: Protocol = Protocol.SPLIT_SYNC,
) -> float:
    """Model size N* at which both methods move the same traffic.

    N* = 2*p*q / ((2 - eta) * K) with weight sharing, N* = p*q / K without.
    """
    if dataset_size < 1 or smashed_size < 1:
        raise InvalidParam("break-even is undefined for p = 0 or q = 0")
    if clients < 1:
        raise InvalidParam(f"clients must be >= 1, got {clients}")
    if variant is Protocol.SPLIT_SYNC:
        if not 0 <= client_fraction <= 1:
            raise InvalidParam(f"client_fraction must lie in [0, 1], got {client_fraction}")
        return 2.0 * dataset_size * smashed_size / ((2.0 - float(client_fraction)) * clients)
    if variant is Protocol.SPLIT_NOSYNC:
        return dataset_size * smashed_size / clients
    raise InvalidParam(f"variant must be a split method, got {variant!r}")


def break_even_curve(
    dataset_size: int,
    smashed_size: int,
    client_fraction: float | Fraction,
    clients_values: Sequence[int],
    variant: Protocol = Protocol.SPLIT_SYNC,
) -> BreakEvenCurve:
    """Evaluate the break-even hyperbola over a set of client counts."""
    if not clients_values:
        raise InvalidParam("clients_values must be non-empty")
    ks = sorted(set(int(k) for k in clients_values))
    points = tuple(
        (k, break_even_model_size(dataset_size, smashed_size, k, client_fraction, variant))
        for k in ks
    )
    return BreakEvenCurve(
        variant=variant,
        dataset_size=dataset_size,
        smashed_size=smashed_size,
        client_fraction=client_fraction,
        points=points,
    )


# Cartesian sweeps evaluate axes in this order, rightmost varying fastest.
SWEEP_FIELD_ORDER = tuple(f.name for f in fields(ScenarioParams))


@dataclass(frozen=True)
class SweepRow:
    """One grid cell: parameters, all three reports, the ratio, or an error."""

    values: dict
    params: ScenarioParams | None
    reports: dict[Protocol, CommReport] | None
    efficiency: EfficiencyReport | None
    error: str | None


def sweep(
    grid: Mapping[str, object],
    variant: Protocol = Protocol.SPLIT_SYNC,
    strict: bool = True,
    include_labels: bool = False,
    label_width: int = 1,
) -> list[SweepRow]:
    """Evaluate the Cartesian product of per-parameter value lists.

    Scalar grid entries count as single-value axes. Per-cell failures (for
    example a divisibility violation in strict mode) become row-level error
    markers; the sweep itself never aborts.
    """
    unknown = set(grid) - set(SWEEP_FIELD_ORDER)
    if unknown:
        raise InvalidParam(f"unknown sweep parameters: {sorted(unknown)}")
    axes = []
    for field in fields(ScenarioParams):
        name = field.name
        if name in grid:
            value = grid[name]
            values = list(value) if isinstance(value, (list, tuple)) else [value]
        elif field.default is not MISSING:
            values = [field.default]
        else:
            raise InvalidParam(f"sweep grid is missing required parameter {name!r}")
        if not values:
            raise InvalidParam(f"sweep axis {name!r} is empty")
        axes.append(values)

    rows: list[SweepRow] = []
    for combo in product(*axes):
        values = dict(zip(SWEEP_FIELD_ORDER, combo))
        try:
            params = ScenarioParams(**values)
            reports = {m: comm_report(params, m, strict, include_labels, label_width) for m in REPORTED}
            efficiency = efficiency_ratio(params, variant)
        except SplitFedError as exc:
            rows.append(SweepRow(values, None, None, None, str(exc)))
            continue
        rows.append(SweepRow(values, params, reports, efficiency, None))
    return rows
