"""Closed-form communication accounting for split versus federated training.

Everything is counted in scalars (one weight or one activation value); wire
bytes are scalars times ``bytes_per_scalar``. With K clients, N model
parameters, p dataset records, q scalars per record at the cut layer and
eta the client-side fraction of parameters, the per-epoch totals are

    split, with client weight sharing:   2*p*q + eta*N*K
    split, no client weight sharing:     2*p*q
    federated averaging:                 2*K*N

:func:`_epoch_counts` gives a protocol's per-epoch counts (records sent up,
client-weight hand-offs, full-model round trips), so every total is a line
A + B*N. :func:`traffic_by_kind` spreads them over message kinds; reports and
the ledger check sum its kinds. rho and N* read one integer line per protocol
instead, scaled by v for eta = u/v (:func:`_scaled_line`); the tests check
them against the same kinds summed as ``Fraction``s, eta*N and N kept exact
(``tests/_closed_forms.py``).
rho = (federated total) / (split total): rho > 1 favors split, rho < 1 federated.
The lines meet at the break-even size N* = (A_s - A_f) / (B_f - B_s), the
hyperbola in the (K, N) plane; where B_s >= B_f no positive N* exists.

A dense network's shape (:class:`ModelSpec`) and the integers read off it
(N, and q and eta at a cut) live here too, so the closed forms, model-form
scenarios included, run without numpy; ``nn_core`` re-exports them.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import MISSING, dataclass, fields
from enum import Enum
from fractions import Fraction
from itertools import product
from typing import Mapping, Sequence

from .errors import CutOutOfRange, DivisibilityError, InvalidParam, SplitFedError

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

    # An old name of SPLIT_SYNC; perfbench/workloads.py is its last reader.
    SYNC_EPOCH = SPLIT_SYNC

    def __new__(cls, variant: str, label: str) -> "Protocol":
        member = str.__new__(cls, variant)
        member._value_ = variant
        member.label = label
        return member


# An old name of Protocol; perfbench/workloads.py is its last reader.
Method = Protocol

# The three protocols every report lists, in row order.
REPORTED = (Protocol.SPLIT_SYNC, Protocol.SPLIT_NOSYNC, Protocol.FEDERATED)

# Iterating the enum costs traffic_by_kind more than its own arithmetic.
_KINDS = tuple(MessageKind)


def reported(protocol: Protocol) -> tuple[Protocol, ...]:
    """A report's rows: REPORTED, plus ``protocol`` if REPORTED lacks it, in enum order."""
    return tuple(p for p in Protocol if p in REPORTED or p is protocol)


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


class Activation(str, Enum):
    IDENTITY = "Identity"
    RELU = "ReLU"
    SIGMOID = "Sigmoid"


@dataclass(frozen=True)
class ModelSpec:
    """Dense network: ordered layer widths plus the hidden-layer activation."""

    layer_widths: tuple[int, ...]
    activation: Activation = Activation.SIGMOID

    def __post_init__(self) -> None:
        widths = tuple(int(w) for w in self.layer_widths)
        object.__setattr__(self, "layer_widths", widths)
        if len(widths) < 2:
            raise InvalidParam("layer_widths needs an input and an output width")
        if any(w < 1 for w in widths):
            raise InvalidParam(f"layer widths must be positive, got {widths}")
        if not isinstance(self.activation, Activation):
            raise InvalidParam(f"unknown activation {self.activation!r}")

    @property
    def weight_layers(self) -> int:
        return len(self.layer_widths) - 1

    @property
    def input_width(self) -> int:
        return self.layer_widths[0]

    @property
    def output_width(self) -> int:
        return self.layer_widths[-1]


def _cut_index(spec: ModelSpec, cut: int) -> int:
    """``cut`` as an interior boundary index: the client holds weight layers 1..cut."""
    c = int(cut)
    if not 1 <= c <= spec.weight_layers - 1:
        raise CutOutOfRange(
            f"cut {c} invalid for {spec.weight_layers} weight layers "
            f"(valid range 1..{spec.weight_layers - 1})"
        )
    return c


def layer_param_counts(spec: ModelSpec) -> tuple[int, ...]:
    """Weights plus biases per layer."""
    w = spec.layer_widths
    return tuple(w[i] * w[i + 1] + w[i + 1] for i in range(spec.weight_layers))


def param_count(spec: ModelSpec) -> int:
    return sum(layer_param_counts(spec))


def client_param_count(spec: ModelSpec, cut: int) -> int:
    c = _cut_index(spec, cut)
    return sum(layer_param_counts(spec)[:c])


def cut_stats(spec: ModelSpec, cut: int) -> tuple[int, Fraction]:
    """Smashed width q and exact client-side parameter fraction eta at the cut."""
    c = _cut_index(spec, cut)
    q = spec.layer_widths[c]
    eta = Fraction(client_param_count(spec, c), param_count(spec))
    return q, eta


@dataclass(frozen=True)
class ScenarioParams:
    """One point in the comparison space, and the shape of the run it counts.

    ``client_fraction`` may be a ``Fraction`` (exact, as derived from a model
    cut) or a plain float for analytic studies. ``model_params`` is integral
    for anything that crosses a wire; break-even round trips may pass a real
    value. ``batch_size`` records per batch sets sync_batch's hand-offs;
    ``label_width`` label scalars go up with each record, and the default 0
    leaves labels out of every total and of rho.
    """

    clients: int
    model_params: int | float
    dataset_size: int
    smashed_size: int
    client_fraction: float | Fraction
    bytes_per_scalar: int = 4
    epochs: int = 1
    batch_size: int = 1
    label_width: int = 0

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
        if not isinstance(self.batch_size, int) or self.batch_size < 1:
            raise InvalidParam(f"batch_size must be >= 1, got {self.batch_size}")
        if not isinstance(self.label_width, int) or self.label_width < 0:
            raise InvalidParam(f"label_width must be >= 0, got {self.label_width}")

    @classmethod
    def from_model(cls, spec: ModelSpec, cut: int, **fields) -> "ScenarioParams":
        """Derive (N, q, eta) from a dense network and a cut position; ``fields``
        give the rest (clients and dataset_size at least).

        eta is stored as an exact rational so ledger comparisons stay
        integer-exact.
        """
        q, eta = cut_stats(spec, cut)
        return cls(model_params=param_count(spec), smashed_size=q, client_fraction=eta, **fields)

    @property
    def client_param_count(self) -> int:
        """Client-side weights on the wire: eta*N rounded once, to the nearest
        whole scalar (ties to even), in integers: eta = u/v and N = a/b exactly."""
        u, v = self.client_fraction.as_integer_ratio()
        a, b = self.model_params.as_integer_ratio()
        den = v * b
        # floor(eta*N + 1/2); an exact tie (no remainder) landing on an odd count steps down
        count, rem = divmod(2 * u * a + den, 2 * den)
        return count - 1 if rem == 0 and count % 2 else count


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
    """(K, N*) locus where rho = 1 for fixed (p, q, eta) and variant, as two
    columns of one length: the client counts in ascending order (a ``range``
    stays one) and the break-even model size N* at each, an ``array('d')``."""

    variant: Protocol
    dataset_size: int
    smashed_size: int
    client_fraction: float | Fraction
    clients: Sequence[int]
    break_even_sizes: array

    @property
    def points(self) -> tuple[tuple[int, float], ...]:
        """The (K, N*) pairs, built from the two columns on each read."""
        return tuple(zip(self.clients, self.break_even_sizes))


def _epoch_counts(protocol: Protocol, k: int, p: int, batch_size: int) -> tuple[int, int, int]:
    """(records sent up, client-weight hand-offs, full-model round trips) in one
    epoch over k clients and p records, the one place protocols differ: sync hands
    off after each client's turn, sync_batch after every batch of the even split's
    shards, nosync never (the simulator spends K of its epochs on one such pass);
    federated makes one round trip per client."""
    if protocol is Protocol.SPLIT_SYNC:
        return p, k, 0
    if protocol is Protocol.SPLIT_NOSYNC:
        return p, 0, 0
    if protocol is Protocol.FEDERATED:
        return 0, 0, k
    if protocol is not Protocol.SPLIT_SYNC_BATCH:
        raise InvalidParam(f"unknown protocol {protocol!r}")
    if batch_size < 1:
        raise InvalidParam(f"batch_size must be >= 1, got {batch_size}")
    base, rem = _even_split(p, k, strict=False)
    return p, rem * -(-(base + 1) // batch_size) + (k - rem) * -(-base // batch_size), 0


def _scaled_line(protocol: Protocol, k: int, p: int, q: int, u: int, v: int,
                 batch_size: int = 1, label_width: int = 0) -> tuple[int, int]:
    """(A, B) of one epoch's total scalars over k clients and p records, each record
    sent up moving q Activations, q Gradients and ``label_width`` Labels, scaled by
    v for eta = u/v: v * total = A + B*N, in integers."""
    records, hand_offs, round_trips = _epoch_counts(protocol, k, p, batch_size)
    return (2 * q + label_width) * v * records, u * hand_offs + 2 * v * round_trips


def _kind_scalars(params: ScenarioParams, protocol: Protocol, k: int, p: int) -> tuple[int, int, int, int, int]:
    """:func:`traffic_by_kind`'s scalars over k clients and p records, in ``_KINDS`` order."""
    if params.model_params != int(params.model_params):
        raise InvalidParam(f"wire traffic needs a whole model_params, got {params.model_params}")
    records, hand_offs, round_trips = _epoch_counts(protocol, k, p, params.batch_size)
    e = params.epochs
    smashed = records * params.smashed_size * e
    global_weights = int(params.model_params) * round_trips * e
    client_weights = global_weights + (params.client_param_count * hand_offs * e if hand_offs else 0)
    return smashed, records * params.label_width * e, smashed, client_weights, global_weights


def traffic_by_kind(params: ScenarioParams, protocol: Protocol, shard: int | None = None) -> dict[MessageKind, int]:
    """Closed-form scalars per message kind over ``params.epochs`` epochs.

    Each record sent up moves q Activations, q Gradients and
    ``params.label_width`` Labels, each hand-off eta*N ClientWeights, and
    each round trip N GlobalWeights and N ClientWeights; :func:`_epoch_counts`
    counts them.

    By default p = ``params.dataset_size`` records are spread over K =
    ``params.clients`` clients as :func:`shard_sizes` splits them; ``shard``
    counts one client holding that many records instead (K = 1, p = shard).

    Wire counts round each hand-off to ``client_param_count`` and need a
    whole N.
    """
    k, p = (params.clients, params.dataset_size) if shard is None else (1, shard)
    return dict(zip(_KINDS, _kind_scalars(params, protocol, k, p)))


def comm_report(params: ScenarioParams, protocol: Protocol, strict: bool = True) -> CommReport:
    """Per-client and total traffic of one protocol, summed from its kinds.

    Labels count as :func:`traffic_by_kind` counts them, ``params.label_width``
    per record sent up. The per-client figure is the client with the largest
    shard, ceil(p/K) records; strict mode requires an even split. The total
    is exact either way.
    """
    base, rem = _even_split(params.dataset_size, params.clients, strict)
    # the K-client total sums one-shard forms: rem clients hold base + 1 records, the rest base
    small = sum(_kind_scalars(params, protocol, 1, base))
    big = sum(_kind_scalars(params, protocol, 1, base + 1)) if rem else small
    total = rem * big + (params.clients - rem) * small
    return CommReport.from_scalars(protocol, big, total, params.bytes_per_scalar)


def efficiency_ratio(params: ScenarioParams, protocol: Protocol) -> EfficiencyReport:
    """rho = federated total over ``protocol``'s total, from the two scaled integer lines.

    With eta = u/v and N = a/b, v*b times each one-epoch total is the integer
    A*b + B*a on its scaled line (:func:`_scaled_line`), so rho is one
    int / int division, correctly rounded: the float nearest the exact ratio
    of the rational totals, which ``tests/_closed_forms.py`` sums as
    ``Fraction``s. Labels count as in :func:`comm_report`, so rho and the
    winner weigh the totals it reports. The hand-off stays at the exact eta*N
    rather than its wire rounding, so rho(N*) = 1 at the break-even size;
    federated against itself is rho = 1, a tie. Independent of epochs and of
    bytes_per_scalar since both methods scale identically. A zero split
    denominator (p = 0 with no weight sharing, or p = 0 and eta = 0), or a
    ratio past the float range (p = 0 and a subnormal eta), reports winner
    Split with rho = +inf.
    """
    k, p, q = params.clients, params.dataset_size, params.smashed_size
    u, v = params.client_fraction.as_integer_ratio()
    a, b = params.model_params.as_integer_ratio()
    a_s, b_s = _scaled_line(protocol, k, p, q, u, v, params.batch_size, params.label_width)
    a_f, b_f = _scaled_line(Protocol.FEDERATED, k, p, q, u, v)
    fed, split = a_f * b + b_f * a, a_s * b + b_s * a
    try:
        rho = fed / split
    except (ZeroDivisionError, OverflowError):
        return EfficiencyReport(rho=math.inf, winner=Winner.SPLIT)
    if fed == split or abs(rho - 1.0) <= TIE_REL_TOL * max(1.0, abs(rho)):
        winner = Winner.TIE
    elif rho > 1.0:
        winner = Winner.SPLIT
    else:
        winner = Winner.FEDERATED
    return EfficiencyReport(rho=rho, winner=winner)


def break_even_curve(
    dataset_size: int,
    smashed_size: int,
    client_fraction: float | Fraction,
    clients_values: Sequence[int],
    variant: Protocol = Protocol.SPLIT_SYNC,
    batch_size: int = 1,
) -> BreakEvenCurve:
    """The break-even hyperbola: N* = (A_s - A_f) / (B_f - B_s) on the two lines
    A + B*N at each client count, labels left out. Scaled by v for eta = u/v
    (:func:`_scaled_line`), N* is a ratio of integers, so int / int rounds it
    correctly. Raises InvalidParam at a K where no positive N balances the
    two, or where N* lies past the float range, before the curve exists.
    An ascending ``range`` of client counts is kept as the curve's K column;
    any other sequence is sorted and rid of repeats.
    """
    if dataset_size < 1 or smashed_size < 1:
        raise InvalidParam("break-even is undefined for p = 0 or q = 0")
    if not 0 <= client_fraction <= 1:
        raise InvalidParam(f"client_fraction must lie in [0, 1], got {client_fraction}")
    if not clients_values:
        raise InvalidParam("clients_values must be non-empty")
    u, v = client_fraction.as_integer_ratio()
    # Federated makes one round trip per client, so its line at K is K times its one-client line.
    a_f1, b_f1 = _scaled_line(Protocol.FEDERATED, 1, dataset_size, smashed_size, u, v)
    ks = (clients_values if isinstance(clients_values, range) and clients_values.step > 0
          else sorted(set(map(int, clients_values))))
    sizes = array("d")
    for k in ks:
        a_s, b_s = _scaled_line(variant, k, dataset_size, smashed_size, u, v, batch_size)
        a_f, b_f = k * a_f1, k * b_f1
        if b_f <= b_s:
            raise InvalidParam(f"no model size balances {variant.label} and Federated traffic at K={k}")
        try:
            sizes.append((a_s - a_f) / (b_f - b_s))
        except OverflowError:
            raise InvalidParam(f"the break-even model size at K={k} lies past the float range") from None
    return BreakEvenCurve(variant, dataset_size, smashed_size, client_fraction, ks, sizes)


# Cartesian sweeps evaluate axes in this order, rightmost varying fastest.
SWEEP_FIELD_ORDER = tuple(f.name for f in fields(ScenarioParams))


@dataclass(frozen=True)
class SweepRow:
    """One grid cell: parameters, the reports of ``reported(variant)``, the ratio, or an error."""

    values: dict
    reports: dict[Protocol, CommReport] | None
    efficiency: EfficiencyReport | None
    error: str | None


def sweep(grid: Mapping[str, object], variant: Protocol = Protocol.SPLIT_SYNC, strict: bool = True) -> list[SweepRow]:
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

    methods = reported(variant)
    rows: list[SweepRow] = []
    for combo in product(*axes):
        values = dict(zip(SWEEP_FIELD_ORDER, combo))
        try:
            params = ScenarioParams(**values)
            reports = {m: comm_report(params, m, strict) for m in methods}
            efficiency = efficiency_ratio(params, variant)
        except SplitFedError as exc:
            rows.append(SweepRow(values, None, None, str(exc)))
            continue
        rows.append(SweepRow(values, reports, efficiency, None))
    return rows
