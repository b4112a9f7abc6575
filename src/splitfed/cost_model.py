"""Closed-form communication accounting for split versus federated training.

Everything is counted in scalars (one weight or one activation value); wire
bytes are scalars times ``bytes_per_scalar``. With K clients, N model
parameters, p dataset records, q scalars per record at the cut layer and
eta the client-side fraction of parameters, the per-epoch totals are

    split, with client weight sharing:   2*p*q + eta*N*K
    split, no client weight sharing:     2*p*q
    federated averaging:                 2*K*N

:func:`_epoch_counts` gives a protocol's per-epoch counts (records sent up,
client-weight hand-offs, full-model round trips), and :func:`_epoch_total` is
the one formula over them: reports read it at the wire sizes, rho and N* as
lines A + B*N scaled to integers (:func:`_scaled_line`), and
:func:`traffic_by_kind` spreads it over message kinds for the ledger check.
The tests check them against ``Fraction`` sums (``tests/_closed_forms.py``).
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
from itertools import islice, product, repeat
from typing import Mapping, NamedTuple, Sequence

from .errors import CutOutOfRange, DivisibilityError, InvalidParam

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
    """A training protocol and its row, the one place protocols differ.

    The value is the scenario-file ``variant`` name, so ``Protocol("nosync")``
    is the one lookup from that string; ``label`` names it in reports.
    ``splits``: records cross a cut, else a turn is a whole-model round trip
    and a round folds the uploads. ``hand_off``: client weights pass on after
    each "turn" or "batch", or never (None). ``rotates``: a simulated epoch is
    one client's turn; the closed forms' epoch is a pass over all K.
    """

    SPLIT_SYNC = "sync", "SplitSync", True, "turn", False
    SPLIT_NOSYNC = "nosync", "SplitNoSync", True, None, True
    SPLIT_SYNC_BATCH = "sync_batch", "SplitSyncBatch", True, "batch", False
    FEDERATED = "federated", "Federated", False, None, False

    # An old name of SPLIT_SYNC; perfbench/workloads.py is its last reader.
    SYNC_EPOCH = SPLIT_SYNC

    def __new__(cls, variant: str, *row) -> "Protocol":
        member = str.__new__(cls, variant)
        member._value_ = variant
        member.label, member.splits, member.hand_off, member.rotates = row
        return member


def _member(protocol) -> Protocol:
    """``protocol`` if a Protocol member, whose row a call reads; else InvalidParam."""
    if type(protocol) is not Protocol:
        raise InvalidParam(f"unknown protocol {protocol!r}")
    return protocol


def _shown(value, form=str) -> str:
    """``value`` as an error quotes it: ``form`` of its first 20 characters, then any '...'.
    An int past 21 digits is cut by a power of ten first, keeping at least 21, so
    no int is written out whole past ``str``'s digit limit."""
    cut = int((value.bit_length() - 1) * math.log10(2)) - 21 if type(value) is int else 0
    text = "-" * (value < 0) + str(abs(value) // 10**cut) if cut > 0 else str(value)
    return form(text[:20]) + "..." * (len(text) > 20)


# An old name of Protocol; perfbench/workloads.py is its last reader.
Method = Protocol

# The three protocols every report lists, in row order.
REPORTED = (Protocol.SPLIT_SYNC, Protocol.SPLIT_NOSYNC, Protocol.FEDERATED)

# Iterating the enum costs traffic_by_kind more than its own arithmetic.
_KINDS = tuple(MessageKind)


def reported(protocol: Protocol) -> tuple[Protocol, ...]:
    """A report's rows: REPORTED, plus ``protocol`` if REPORTED lacks it, in enum order."""
    protocol = _member(protocol)
    return tuple(p for p in Protocol if p in REPORTED or p is protocol)


class Winner(str, Enum):
    SPLIT = "Split"
    FEDERATED = "Federated"
    TIE = "Tie"


def _uneven(dataset_size: int, clients: int) -> DivisibilityError:
    """Strict mode's refusal of a split with a remainder."""
    return DivisibilityError(f"{dataset_size} records do not split evenly across {clients} clients")


def _even_split(dataset_size: int, clients: int, strict: bool) -> tuple[int, int]:
    """(base, rem): the first ``rem`` clients hold base + 1 records, the rest base."""
    if clients < 1:
        raise InvalidParam(f"clients must be >= 1, got {clients}")
    if dataset_size < 0:
        raise InvalidParam(f"dataset_size must be >= 0, got {dataset_size}")
    base, rem = divmod(dataset_size, clients)
    if rem and strict:
        raise _uneven(dataset_size, clients)
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


def _whole_from(least: int):
    """A field check: an int (a bool among them) of at least ``least``."""
    return lambda value: isinstance(value, int) and value >= least


# Each ScenarioParams field's check, in field order: a value passes if
# ``valid(value)`` and is otherwise refused with ``message.format(value)``.
# ScenarioParams checks every field of one point; sweep checks each axis value once.
_FIELD_CHECKS = {
    "clients": (_whole_from(1), "clients must be a positive integer, got {}"),
    "model_params": (lambda n: 1 <= n < math.inf, "model_params must be finite and >= 1, got {}"),
    "dataset_size": (_whole_from(0), "dataset_size must be a non-negative integer, got {}"),
    "smashed_size": (_whole_from(1), "smashed_size must be a positive integer, got {}"),
    "client_fraction": (lambda eta: 0 <= eta <= 1, "client_fraction must lie in [0, 1], got {}"),
    "bytes_per_scalar": (_whole_from(1), "bytes_per_scalar must be a positive integer, got {}"),
    "epochs": (_whole_from(1), "epochs must be a positive integer, got {}"),
    "batch_size": (_whole_from(1), "batch_size must be >= 1, got {}"),
    "label_width": (_whole_from(0), "label_width must be >= 0, got {}"),
}


def _field_error(name: str, value) -> str | None:
    """Why ``value`` cannot be field ``name``, or None if it can."""
    valid, message = _FIELD_CHECKS[name]
    return None if valid(value) else message.format(value)


def _wire_count(u: int, v: int, a: int, b: int) -> int:
    """eta*N rounded once to the nearest whole scalar, ties to even, for eta = u/v
    and N = a/b exactly: floor(eta*N + 1/2), less one where an exact tie lands on
    an odd count."""
    den = v * b
    count, rem = divmod(2 * u * a + den, 2 * den)
    return count - 1 if rem == 0 and count % 2 else count


def _whole_model(model_params) -> int:
    """N as an int, for the wire; InvalidParam if N is not whole."""
    n = int(model_params)
    if model_params != n:
        raise InvalidParam(f"wire traffic needs a whole model_params, got {model_params}")
    return n


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
        for name in _FIELD_CHECKS:
            error = _field_error(name, getattr(self, name))
            if error is not None:
                raise InvalidParam(error)

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
        whole scalar (ties to even), in integers (:func:`_wire_count`)."""
        return _wire_count(*self.client_fraction.as_integer_ratio(), *self.model_params.as_integer_ratio())


class CommReport(NamedTuple):
    """Per-client and total traffic for one method, in scalars and bytes."""

    method: Protocol
    per_client_scalars: int
    total_scalars: int
    per_client_bytes: int
    total_bytes: int

    @classmethod
    def from_scalars(cls, method: Protocol, per_client: int, total: int, bytes_per_scalar: int) -> "CommReport":
        return cls(method, per_client, total, per_client * bytes_per_scalar, total * bytes_per_scalar)


class EfficiencyReport(NamedTuple):
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


def _batch_hand_offs(k: int, p: int, batch_size: int) -> int:
    """Per-batch client-weight hand-offs in one epoch: one after every batch of
    each of the k shards the even split makes of p records."""
    if batch_size < 1:
        raise InvalidParam(f"batch_size must be >= 1, got {batch_size}")
    base, rem = _even_split(p, k, strict=False)
    return rem * -(-(base + 1) // batch_size) + (k - rem) * -(-base // batch_size)


def _epoch_counts(protocol: Protocol, k: int, p: int, batch_size: int) -> tuple[int, int, int]:
    """(records sent up, client-weight hand-offs, full-model round trips) in one
    epoch over k clients and p records, read off ``protocol``'s row."""
    splits, hand_off = _member(protocol).splits, protocol.hand_off
    hand_offs = k if hand_off == "turn" else _batch_hand_offs(k, p, batch_size) if hand_off else 0
    return p * splits, hand_offs, k * (not splits)


def _epoch_total(counts: tuple[int, int, int], record: int, hand_off: int, model: int) -> int:
    """One epoch's scalars for ``counts`` (:func:`_epoch_counts`): ``record`` per
    record sent up, ``hand_off`` per client-weight hand-off and ``model`` each way
    of a full-model round trip. The one traffic formula: reports read it with the
    wire sizes (2q and the label width a record, eta*N rounded a hand-off, N
    each way), rho and N* as :func:`_scaled_line`'s lines."""
    records, hand_offs, round_trips = counts
    return records * record + hand_offs * hand_off + 2 * round_trips * model


def _shard_counts(protocol: Protocol, k: int, p: int, batch_size: int) -> tuple[tuple[int, int, int], ...]:
    """(counts of the client holding the largest shard, ceil(p/k) records, counts
    of all k clients), each count a sum over the even split's shards."""
    return _epoch_counts(protocol, 1, -(-p // k), batch_size), _epoch_counts(protocol, k, p, batch_size)


def _report(protocol: Protocol, counts, record: int, hand_off: int, model: int, epochs: int,
            bytes_per_scalar: int, make=CommReport):
    """``make`` (a :class:`CommReport` by default) of ``protocol``'s four figures,
    from its :func:`_shard_counts` and the wire sizes."""
    largest, every = counts
    per_client = epochs * _epoch_total(largest, record, hand_off, model)
    total = epochs * _epoch_total(every, record, hand_off, model)
    return make(protocol, per_client, total, per_client * bytes_per_scalar, total * bytes_per_scalar)


# the winner off a tie, by rho > 1, read faster than the enum's attributes
_WINNERS = Winner.FEDERATED, Winner.SPLIT


def _rho(federated: tuple[int, int], split: tuple[int, int], a: int, b: int) -> tuple[float, Winner]:
    """(rho, winner) from the lines (:func:`_scaled_line`) of federated and of the split
    protocol: at N = a/b, b(A + B*N) is an integer, so rho is one int / int division."""
    fed, split = federated[0] * b + federated[1] * a, split[0] * b + split[1] * a
    try:
        rho = fed / split
    except (ZeroDivisionError, OverflowError):
        return math.inf, Winner.SPLIT
    if fed == split or 0.5 < rho < 2.0 and abs(rho - 1.0) <= TIE_REL_TOL * max(1.0, abs(rho)):  # ties lie in (0.5, 2)
        return rho, Winner.TIE
    return rho, _WINNERS[rho > 1.0]


def traffic_by_kind(params: ScenarioParams, protocol: Protocol, shard: int | None = None) -> dict[MessageKind, int]:
    """Closed-form scalars per message kind over ``params.epochs`` epochs.

    Each record sent up moves q Activations, q Gradients and
    ``params.label_width`` Labels, each hand-off eta*N ClientWeights, and
    each round trip N GlobalWeights and N ClientWeights; :func:`_epoch_counts`
    counts them, and the kinds sum to :func:`_epoch_total` of those counts.

    By default p = ``params.dataset_size`` records are spread over K =
    ``params.clients`` clients; ``shard`` counts one client holding that many
    records instead. A hand-off is ``client_param_count``, and N must be whole.
    """
    k, p = (params.clients, params.dataset_size) if shard is None else (1, shard)
    n = _whole_model(params.model_params)
    records, hand_offs, round_trips = _epoch_counts(protocol, k, p, params.batch_size)
    e = params.epochs
    smashed = records * params.smashed_size * e
    global_weights = n * round_trips * e
    client_weights = global_weights + (params.client_param_count * hand_offs * e if hand_offs else 0)
    return dict(zip(_KINDS, (smashed, records * params.label_width * e, smashed, client_weights, global_weights)))


def comm_report(params: ScenarioParams, protocol: Protocol, strict: bool = True) -> CommReport:
    """Per-client and total traffic of one protocol, the sum of its kinds.

    Labels count ``params.label_width`` a record sent up. The per-client
    figure is the client with the largest shard, ceil(p/K) records; strict
    mode requires an even split.
    """
    k, p = params.clients, params.dataset_size
    _even_split(p, k, strict)  # refuses an uneven split in strict mode
    n = _whole_model(params.model_params)
    counts = _shard_counts(protocol, k, p, params.batch_size)
    hand_off = params.client_param_count if counts[1][1] else 0  # read only where weights are handed off
    return _report(protocol, counts, 2 * params.smashed_size + params.label_width, hand_off, n, params.epochs,
                   params.bytes_per_scalar)


def efficiency_ratio(params: ScenarioParams, protocol: Protocol) -> EfficiencyReport:
    """rho = federated total over ``protocol``'s total, in integers (:func:`_rho`).

    rho is the float nearest the exact ratio of the rational totals. Labels
    count as in :func:`comm_report`. The hand-off stays at the exact eta*N,
    not its wire rounding, so rho(N*) = 1 at the break-even size; federated
    against itself is rho = 1, a tie. Epochs and bytes_per_scalar cancel. A
    zero split total (p = 0 with no weight sharing, or p = 0 and eta = 0), or
    a ratio past the float range, reports winner Split with rho = +inf.
    """
    k, p = params.clients, params.dataset_size
    scaled = 2 * params.smashed_size + params.label_width, *params.client_fraction.as_integer_ratio()
    return EfficiencyReport(*_rho(_scaled_line(_epoch_counts(Protocol.FEDERATED, k, p, 1), *scaled),
                                  _scaled_line(_epoch_counts(protocol, k, p, params.batch_size), *scaled),
                                  *params.model_params.as_integer_ratio()))


def _scaled_line(counts: tuple[int, int, int], record: int, u: int, v: int) -> tuple[int, int]:
    """(A, B) of one epoch's total for ``counts``, ``record`` scalars a record, scaled
    by v for eta = u/v: v * total = A + B*N, and at N = a/b, as the total is linear
    in its sizes, A*b + B*a = ``_epoch_total(counts, record*v*b, u*a, v*a)``."""
    return _epoch_total(counts, record * v, 0, 0), _epoch_total(counts, 0, u, v)


def break_even_curve(
    dataset_size: int,
    smashed_size: int,
    client_fraction: float | Fraction,
    clients_values: Sequence[int],
    variant: Protocol = Protocol.SPLIT_SYNC,
    batch_size: int = 1,
) -> BreakEvenCurve:
    """The break-even hyperbola: N* = (A_s - A_f) / (B_f - B_s) on the two lines
    A + B*N (:func:`_scaled_line`) at each client count, labels left out, one
    int / int division. Raises InvalidParam at a K where no positive N balances
    the two, or where N* lies past the float range or rounds to 0, before the
    curve exists.
    An ascending ``range`` of client counts is kept as the curve's K column;
    any other sequence is sorted and rid of repeats.

    Records sent up do not depend on K, and every other count is K times its
    one-client count but per-batch hand-offs, which follow the shards; so the
    lines are read at K = 1, and only those hand-offs at each K.
    """
    if dataset_size < 1 or smashed_size < 1:
        raise InvalidParam("break-even is undefined for p = 0 or q = 0")
    if not 0 <= client_fraction <= 1:
        raise InvalidParam(f"client_fraction must lie in [0, 1], got {client_fraction}")
    if not clients_values:
        raise InvalidParam("clients_values must be non-empty")
    u, v = client_fraction.as_integer_ratio()
    a_s, b_s = _scaled_line(_epoch_counts(variant, 1, dataset_size, batch_size), 2 * smashed_size, u, v)
    a_f, b_f = _scaled_line(_epoch_counts(Protocol.FEDERATED, 1, dataset_size, 1), 2 * smashed_size, u, v)
    ks = (clients_values if isinstance(clients_values, range) and clients_values.step > 0
          else sorted(set(map(int, clients_values))))
    gap = a_s - a_f

    def n_star(k: int, span: int) -> float:
        if span <= 0:
            raise InvalidParam(f"no model size balances {variant.label} and Federated traffic at K={_shown(k)}")
        try:
            if n := gap / span:
                return n
        except OverflowError:
            raise InvalidParam(f"the break-even model size at K={_shown(k)} lies past the float range") from None
        raise InvalidParam(f"the break-even model size at K={_shown(k)} rounds to 0")

    if variant.hand_off == "batch":
        sizes = array("d", (n_star(k, k * b_f - u * _batch_hand_offs(k, dataset_size, batch_size)) for k in ks))
    else:
        # the span is K*slope, slope >= 0 (2v - u, 2v, or 0 for federated against itself): N* falls
        # as K grows, so past the first K no span is <= 0 or N* overflows, and zeros end the column
        slope = b_f - b_s
        sizes = array("d", [n_star(ks[0], ks[0] * slope)])
        sizes.extend(map(gap.__truediv__, map(slope.__mul__, islice(ks, 1, None))))
        if not sizes[-1]:
            n_star(k := ks[sizes.index(0.0)], k * slope)
    return BreakEvenCurve(variant, dataset_size, smashed_size, client_fraction, ks, sizes)


# Cartesian sweeps evaluate axes in this order, rightmost varying fastest.
SWEEP_FIELD_ORDER = tuple(f.name for f in fields(ScenarioParams))


class SweepRow(NamedTuple):
    """One grid cell: parameters, the reports of ``reported(variant)``, the ratio, or an error."""

    values: dict
    reports: dict[Protocol, CommReport] | None
    efficiency: EfficiencyReport | None
    error: str | None


def _axis_check(name: str, value):
    """``value``'s field check as a sweep cell reads it: None, the message, or
    the error raised comparing a value that does not compare (None, say), which
    its first cell raises as ScenarioParams would."""
    try:
        return _field_error(name, value)
    except (TypeError, ValueError, ArithmeticError) as exc:
        return exc


def _model_ratio(n, fractions: list) -> tuple:
    """A checked N as its whole int, as a/b, and the hand-off (:func:`_wire_count`)
    at each checked eta of ``fractions``; or why N is not whole."""
    try:
        whole = _whole_model(n)
    except InvalidParam as exc:
        return str(exc), None, None, None
    a, b = n.as_integer_ratio()
    return whole, a, b, [None if eta is None else _wire_count(eta[0], eta[1], a, b) for eta in fractions]


def sweep_axes(grid: Mapping[str, object]) -> list[list]:
    """The value lists whose product :func:`sweep_cells` walks, one per field in
    ``SWEEP_FIELD_ORDER``: a list or tuple entry's values, any other entry as
    one value, a left-out field's default. Raises InvalidParam for an unknown
    field, a missing required one or an empty axis."""
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
    return axes


def sweep_cells(grid: Mapping[str, object], variant: Protocol = Protocol.SPLIT_SYNC, strict: bool = True,
                make=CommReport):
    """Walk the cells of the product of :func:`sweep_axes`, in ``product`` order,
    yielding a cell's error as a str or (its reports in ``reported(variant)``
    order as a tuple, rho, winner). A report is ``make`` of its protocol and its
    four figures (:func:`_report`), a :class:`CommReport` by default.

    A cell's error is what ScenarioParams, :func:`comm_report` and
    :func:`efficiency_ratio` raise for it: the first field that fails its
    check, in field order, then an uneven split in strict mode, then a
    fractional N. Each axis value is checked and read as an integer ratio once,
    and the hand-off is rounded once per (N, eta). The walk goes K, then N:
    each K builds a table over the other fields' product, an entry being their
    first failing check, the uneven split, or the federated and split lines
    (:func:`_scaled_line`, as :func:`break_even_curve` reads them) and report
    caches, and each N walks it, a cell's rho :func:`_rho` of the lines at N. A
    protocol's report is made once per tuple of what its counts read: K, p,
    batch size, epochs, bytes per scalar, and the record size, hand-off or N if
    it sends records, hands off or round-trips.
    """
    axes = sweep_axes(grid)
    checks = [[_axis_check(name, value) for value in values] for name, values in zip(SWEEP_FIELD_ORDER, axes)]
    # per checked eta its (u, v) and place on its axis, per checked N what _model_ratio returns
    fractions = [None if error is not None else (*eta.as_integer_ratio(), j)
                 for j, (eta, error) in enumerate(zip(axes[4], checks[4]))]
    models = [None if error is not None else _model_ratio(n, fractions) for n, error in zip(axes[1], checks[1])]
    methods = reported(variant)
    # past K and N, each cell's first failing check or its values, eta as its triple
    inner = [next(filter(None, errors), values)
             for values, errors in zip(product(*axes[2:4], fractions, *axes[5:]), product(*checks[2:]))]
    for k, k_error in zip(axes[0], checks[0]):
        # shared: (p, batch size, epochs, bytes per scalar) -> rho's two counts, and per protocol its
        # counts, whether it reads the record size, hand-off and N, and its reports by those
        table, shared = [], {}
        for entry in inner if k_error is None else ():
            if type(entry) is tuple:
                p, q, (u, v, j), bytes_per_scalar, epochs, batch_size, label_width = entry
                if strict and p % k:
                    entry = str(_uneven(p, k))
                else:
                    counts = shared.get((p, batch_size, epochs, bytes_per_scalar))
                    if counts is None:
                        every = {m: _shard_counts(m, k, p, batch_size) for m in methods}
                        counts = shared[p, batch_size, epochs, bytes_per_scalar] = (
                            every[Protocol.FEDERATED][1], every[variant][1],
                            [(m, c, *map(bool, c[1]), {}) for m, c in every.items()])
                    federated, split, protocols = counts
                    record = 2 * q + label_width
                    entry = (_scaled_line(federated, record, u, v), _scaled_line(split, record, u, v), record, j,
                             epochs, bytes_per_scalar, protocols)
            table.append(entry)
        for model, n_error in zip(models, checks[1]):
            block = k_error if k_error is not None else n_error  # every cell's error, K's or N's check
            n, a, b, hand_offs = model or (block, None, None, None)
            for entry in table if block is None else repeat(block, len(inner)):
                if type(entry) is not tuple or hand_offs is None:  # its error, or why N is not whole
                    error = n if type(entry) is tuple else entry
                    if not isinstance(error, str):
                        raise error
                    yield error
                    continue
                federated, split, record, j, epochs, bytes_per_scalar, protocols = entry
                hand_off = hand_offs[j]
                reports = []
                for m, c, sends, hands_off, round_trips, made in protocols:
                    inputs = record if sends else 0, hand_off if hands_off else 0, n if round_trips else 0
                    report = made.get(inputs)
                    if report is None:
                        report = made[inputs] = _report(m, c, record, hand_off, n, epochs, bytes_per_scalar, make)
                    reports.append(report)
                yield (tuple(reports), *_rho(federated, split, a, b))


def sweep(grid: Mapping[str, object], variant: Protocol = Protocol.SPLIT_SYNC, strict: bool = True) -> list[SweepRow]:
    """Evaluate the Cartesian product of per-parameter value lists (:func:`sweep_axes`),
    a row for each cell of :func:`sweep_cells`.

    Per-cell failures (an uneven split in strict mode, say) become row-level
    error markers; the sweep never aborts. Rows whose cells share a report
    hold the same :class:`CommReport`.
    """
    methods = reported(variant)
    rows: list[SweepRow] = []
    for (k, n, p, q, eta, bytes_per_scalar, epochs, batch_size, label_width), cell in zip(
            product(*sweep_axes(grid)), sweep_cells(grid, variant, strict)):
        # in SWEEP_FIELD_ORDER, spelled out: a literal builds in a third of dict(zip(...))'s time
        values = {"clients": k, "model_params": n, "dataset_size": p, "smashed_size": q, "client_fraction": eta,
                  "bytes_per_scalar": bytes_per_scalar, "epochs": epochs, "batch_size": batch_size,
                  "label_width": label_width}
        rows.append(SweepRow(values, None, None, cell) if type(cell) is str else
                    SweepRow(values, dict(zip(methods, cell[0])), EfficiencyReport(cell[1], cell[2]), None))
    return rows
