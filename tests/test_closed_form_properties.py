"""The integer closed forms against the Fraction arithmetic they replaced.

``reference_*`` are the earlier ``cost_model`` functions, kept verbatim but
for the names they call: the wire count rounded ``Fraction(eta) *
Fraction(N)`` and the kinds kept eta*N exact (both in ``_closed_forms.py``),
``comm_report`` summed the K-client form next to the one-client form, and
``efficiency_ratio`` divided two sums of exact ``Fraction`` kinds. The
integer forms must give the same rounded count, the same four report
figures, the same rho bits and the same winner, or raise the same error.

``sweep`` and ``break_even_curve`` hoist what does not vary per cell or per
K; they are held to the per-cell and per-K forms they replaced: a cell's
row built from ``ScenarioParams(**values)``, ``comm_report`` and
``efficiency_ratio``, and each K's quotient of its two scaled lines.
"""

import fractions
import math
import sys
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from splitfed.cost_model import (
    SWEEP_FIELD_ORDER,
    TIE_REL_TOL,
    CommReport,
    EfficiencyReport,
    Protocol,
    ScenarioParams,
    SweepRow,
    Winner,
    _epoch_counts,
    _even_split,
    break_even_curve,
    comm_report,
    efficiency_ratio,
    reported,
    sweep,
)
from splitfed.errors import InvalidParam, SplitFedError

from _closed_forms import reference_client_param_count, reference_traffic_by_kind


def reference_comm_report(params, protocol, strict=True):
    base, rem = _even_split(params.dataset_size, params.clients, strict)
    per_client = reference_traffic_by_kind(params, protocol, base + (rem > 0))
    total = reference_traffic_by_kind(params, protocol)
    return CommReport.from_scalars(
        protocol, sum(per_client.values()), sum(total.values()), params.bytes_per_scalar
    )


def reference_efficiency_ratio(params, protocol):
    split = sum(reference_traffic_by_kind(params, protocol, exact=True).values())
    fed = sum(reference_traffic_by_kind(params, Protocol.FEDERATED, exact=True).values())
    try:
        rho = fed / split
        rho_f = float(rho)
    except (ZeroDivisionError, OverflowError):
        return EfficiencyReport(rho=math.inf, winner=Winner.SPLIT)
    if rho == 1 or abs(rho_f - 1.0) <= TIE_REL_TOL * max(1.0, abs(rho_f)):
        winner = Winner.TIE
    elif rho_f > 1.0:
        winner = Winner.SPLIT
    else:
        winner = Winner.FEDERATED
    return EfficiencyReport(rho=rho_f, winner=winner)


def _outcome(fn, *args):
    """The value, or the type and message of the SplitFedError raised."""
    try:
        return fn(*args)
    except SplitFedError as exc:
        return type(exc), str(exc)


def _bits(eff):
    return (eff.rho.hex(), eff.winner) if isinstance(eff, EfficiencyReport) else eff


# eta*N = m + 1/2 exactly, m odd and even: an odd numerator over 2^(j+1) (a float or a
# Fraction) times N = 2^j * c with c odd.
_HALVES = st.tuples(st.integers(0, 30), st.integers(0, 2**31), st.integers(0, 10**4),
                    st.booleans()).map(
    lambda t: ((float if t[3] else Fraction)(Fraction(2 * (t[1] % 2**t[0]) + 1, 2 ** (t[0] + 1))),
               2 ** t[0] * (2 * t[2] + 1)))
_ETAS = st.one_of(
    st.sampled_from([0, 1, 5e-324, 0.5, Fraction(1, 2)]),
    st.floats(0, 1),
    st.integers(1, 10**6).flatmap(lambda b: st.integers(0, b).map(lambda a: Fraction(a, b))),
)
_PROTOCOLS = st.sampled_from(list(Protocol))


def _eta_and_n(n_strategy):
    return st.one_of(st.tuples(_ETAS, n_strategy), _HALVES)


def _params(eta_n, k, p, q, epochs=1, bytes_per_scalar=4, batch_size=1, label_width=0):
    eta, n = eta_n
    return ScenarioParams(k, n, p, q, eta, bytes_per_scalar, epochs, batch_size, label_width)


@example(eta_n=(Fraction(1, 2), 3))  # 1.5 -> 2
@example(eta_n=(0.5, 5))  # 2.5 -> 2
@example(eta_n=(0.37, 150))  # 55.4999... -> 55, where float multiplication gives 55.5 -> 56
@example(eta_n=(5e-324, 10**12))
@given(eta_n=st.one_of(_eta_and_n(st.integers(1, 10**15)),
                       st.tuples(_ETAS, st.floats(1, 1e15))))
def test_client_param_count_rounds_as_the_fraction_did(eta_n):
    params = _params(eta_n, 1, 0, 1)
    count = params.client_param_count
    assert type(count) is int and count == reference_client_param_count(params)


@given(
    eta_n=_eta_and_n(st.one_of(st.integers(1, 10**12), st.floats(1, 1e15))),
    protocol=_PROTOCOLS,
    batch=st.integers(1, 64),
    k=st.integers(1, 3000),
    records_per_client=st.integers(0, 300),
    spare=st.one_of(st.just(0), st.integers(0, 10**4)),
    q=st.integers(1, 4096),
    strict=st.booleans(),
    label_width=st.one_of(st.just(0), st.integers(1, 4096)),
    epochs=st.integers(1, 3),
    bytes_per_scalar=st.integers(1, 8),
)
def test_comm_report_equals_the_fraction_path(eta_n, protocol, batch, k, records_per_client, spare, q, strict,
                                              label_width, epochs, bytes_per_scalar):
    # p = 0 with no spare records; an uneven p is refused in strict mode, split up front in lenient mode
    params = _params(eta_n, k, k * records_per_client + spare, q, epochs, bytes_per_scalar, batch, label_width)
    args = (params, protocol, strict)
    got = _outcome(comm_report, *args)
    assert got == _outcome(reference_comm_report, *args)
    if isinstance(got, CommReport):
        figures = (got.per_client_scalars, got.total_scalars, got.per_client_bytes, got.total_bytes)
        assert all(type(x) is int for x in figures)


# past the float range; a zero split total; an exact tie; a tie only when labels count
@example(eta_n=(5e-324, 1), protocol=Protocol.SPLIT_SYNC, batch=1, k=1, p=0, q=1, label_width=0)
@example(eta_n=(0, 10), protocol=Protocol.SPLIT_SYNC, batch=1, k=3, p=0, q=1, label_width=0)
@example(eta_n=(1.0, 2000), protocol=Protocol.SPLIT_SYNC, batch=1, k=10, p=1000, q=10, label_width=0)
@example(eta_n=(1.0, 2000), protocol=Protocol.SPLIT_SYNC, batch=1, k=10, p=1000, q=9, label_width=2)
@given(
    eta_n=st.one_of(_eta_and_n(st.integers(1, 10**12)),
                    st.tuples(_ETAS, st.floats(1, 1e15).filter(lambda n: not n.is_integer()))),
    protocol=_PROTOCOLS,
    batch=st.integers(1, 64),
    k=st.integers(1, 3000),
    p=st.one_of(st.just(0), st.integers(0, 10**6)),
    q=st.integers(1, 4096),
    label_width=st.one_of(st.just(0), st.integers(1, 4096)),
)
def test_efficiency_ratio_has_the_bits_of_the_fraction_path(eta_n, protocol, batch, k, p, q, label_width):
    params = _params(eta_n, k, p, q, batch_size=batch, label_width=label_width)
    got = _outcome(efficiency_ratio, params, protocol)
    assert _bits(got) == _bits(_outcome(reference_efficiency_ratio, params, protocol))


def test_the_wire_path_builds_no_fraction():
    # A rational eta and an odd split, on every protocol: reports and rho call
    # into fractions.py only to read eta's integer ratio, and build no Fraction.
    params = ScenarioParams(7, 10**9 + 7, 10**6 + 3, 64, Fraction(15, 23), batch_size=8, label_width=3)
    called = set()

    def record(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == fractions.__file__:
            called.add(frame.f_code.co_name)

    sys.setprofile(record)
    try:
        for protocol in Protocol:
            comm_report(params, protocol, strict=False)
            efficiency_ratio(params, protocol)
    finally:
        sys.setprofile(None)
    assert called == {"as_integer_ratio"}


def reference_sweep_row(values, variant, strict):
    """The earlier sweep's cell, verbatim: ScenarioParams, then a report per method, then rho."""
    try:
        params = ScenarioParams(**values)
        reports = {m: comm_report(params, m, strict) for m in reported(variant)}
        efficiency = efficiency_ratio(params, variant)
    except SplitFedError as exc:
        return SweepRow(values, None, None, str(exc))
    return SweepRow(values, reports, efficiency, None)


def _row_bits(row):
    eff = row.efficiency and (row.efficiency.rho.hex(), row.efficiency.winner)
    return list(row.values.items()), [type(v) for v in row.values.values()], row.reports, eff, row.error


def _axis(values):
    """An axis of one or more values, a single value drawn sometimes as a bare scalar."""
    return st.lists(values, min_size=1, max_size=3).flatmap(
        lambda vs: st.sampled_from([vs, vs[0]]) if len(vs) == 1 else st.just(vs))


# N = 10**400 and eta = 1/10**400 take rho past the float range (rho = inf, Split);
# eta = 10**400/3 is refused
_SWEEP_N = st.one_of(st.integers(1, 10**12), st.integers(1, 10**6).map(float), st.floats(1, 1e6),
                     st.sampled_from([1.5, 0, -3, math.inf, math.nan, 0.5, 10**400]))
_SWEEP_ETA = st.one_of(_ETAS, st.sampled_from([1.5, -0.25, math.nan, Fraction(3, 2), Fraction(10**400, 3),
                                               Fraction(1, 10**400)]))
_SMALL = st.integers(-1, 3)


@example(axes={"clients": [2, 0], "model_params": [10.5, math.nan], "dataset_size": [3, -1], "smashed_size": 0,
               "client_fraction": [1.5, 0.5], "bytes_per_scalar": [4], "epochs": [0, 1], "batch_size": 1,
               "label_width": [-1, 0]}, variant=Protocol.SPLIT_SYNC, strict=True)
@example(axes={"clients": [1, 3], "model_params": [10**400, 7], "dataset_size": [0, 6], "smashed_size": 2,
               "client_fraction": [Fraction(10**400, 3), Fraction(1, 10**400), Fraction(1, 3)]},
         variant=Protocol.SPLIT_SYNC_BATCH, strict=True)
@given(
    axes=st.fixed_dictionaries({
        "clients": _axis(st.integers(-1, 12)),
        "model_params": _axis(_SWEEP_N),
        "dataset_size": _axis(st.one_of(st.integers(-1, 40), st.integers(0, 10**6))),
        "smashed_size": _axis(st.integers(0, 64)),
        "client_fraction": _axis(_SWEEP_ETA),
    }, optional={
        "bytes_per_scalar": _axis(_SMALL), "epochs": _axis(_SMALL), "batch_size": _axis(_SMALL),
        "label_width": _axis(st.integers(-1, 3)),
    }),
    variant=_PROTOCOLS,
    strict=st.booleans(),
)
def test_every_sweep_row_is_the_row_built_per_cell(axes, variant, strict):
    # several axes hold invalid values at once, so a cell's first failing field
    # is tested, then an uneven split, then a fractional N
    rows = sweep(axes, variant, strict)
    lists = [axes[name] if isinstance(axes.get(name), list) else [axes.get(name, default)]
             for name, default in zip(SWEEP_FIELD_ORDER, (None,) * 5 + (4, 1, 1, 0))]
    want = [reference_sweep_row(dict(zip(SWEEP_FIELD_ORDER, combo)), variant, strict) for combo in product(*lists)]
    assert list(map(_row_bits, rows)) == list(map(_row_bits, want))
    assert all(list(row.values) == list(SWEEP_FIELD_ORDER) for row in rows)


def test_a_sweep_value_that_does_not_compare_raises_at_its_first_cell_as_scenario_params_does():
    # an earlier field's failure makes every cell an error row before N is compared
    rows = sweep({"clients": 0, "model_params": [None, 5], "dataset_size": 4, "smashed_size": 1,
                  "client_fraction": 0.5})
    assert [row.error for row in rows] == ["clients must be a positive integer, got 0"] * 2
    grid = {"clients": 1, "model_params": [5, None], "dataset_size": 4, "smashed_size": 1, "client_fraction": 0.5}
    with pytest.raises(TypeError) as raised:
        sweep(grid)
    with pytest.raises(TypeError) as want:
        ScenarioParams(1, None, 4, 1, 0.5)
    assert str(raised.value) == str(want.value)


def reference_scaled_line(protocol, k, p, q, u, v, batch_size=1):
    """The earlier ``_scaled_line``, labels left out: v * total = A + B*N."""
    records, hand_offs, round_trips = _epoch_counts(protocol, k, p, batch_size)
    return 2 * q * v * records, u * hand_offs + 2 * v * round_trips


def reference_break_even(p, q, eta, ks, variant, batch_size):
    """The earlier per-K loop: both lines at each K, one quotient, or the error at the first bad K."""
    u, v = eta.as_integer_ratio()
    ks = ks if isinstance(ks, range) and ks.step > 0 else sorted(set(ks))
    sizes = []
    for k in ks:
        a_s, b_s = reference_scaled_line(variant, k, p, q, u, v, batch_size)
        a_f, b_f = reference_scaled_line(Protocol.FEDERATED, k, p, q, u, v)
        if b_f <= b_s:
            raise InvalidParam(f"no model size balances {variant.label} and Federated traffic at K={k}")
        try:
            sizes.append((a_s - a_f) / (b_f - b_s))
        except OverflowError:
            raise InvalidParam(f"the break-even model size at K={k} lies past the float range") from None
    return list(ks), [n.hex() for n in sizes]


def _curve_bits(p, q, eta, ks, variant, batch_size):
    curve = break_even_curve(p, q, eta, ks, variant, batch_size)
    return list(curve.clients), [n.hex() for n in curve.break_even_sizes]


_KS = st.one_of(
    st.tuples(st.integers(-2, 400), st.integers(0, 300), st.integers(1, 40)).map(
        lambda t: range(t[0], t[0] + t[1], t[2])),
    st.lists(st.integers(-2, 5000), min_size=1, max_size=40),
)


@example(p=10**300, q=10**10, eta=0.5, ks=range(1, 4), variant=Protocol.SPLIT_SYNC, batch_size=1)  # past float range
@example(p=6, q=3, eta=Fraction(15, 23), ks=[4, 1, 2], variant=Protocol.SPLIT_SYNC_BATCH, batch_size=1)
@example(p=1000, q=3, eta=Fraction(1, 100), ks=range(1, 12), variant=Protocol.SPLIT_SYNC_BATCH, batch_size=1)
@given(
    p=st.one_of(st.integers(1, 10**6), st.integers(1, 50)),
    q=st.integers(1, 4096),
    eta=_ETAS,
    ks=_KS,
    variant=_PROTOCOLS,
    batch_size=st.integers(1, 64),
)
def test_break_even_curve_is_the_per_k_quotient_of_the_scaled_lines(p, q, eta, ks, variant, batch_size):
    if not ks:
        return
    assert _outcome(_curve_bits, p, q, eta, ks, variant, batch_size) == \
        _outcome(reference_break_even, p, q, eta, ks, variant, batch_size)
