"""The integer closed forms against the Fraction arithmetic they replaced.

``reference_*`` are the earlier ``cost_model`` functions, kept verbatim but
for the names they call: the wire count rounded ``Fraction(eta) *
Fraction(N)`` and the kinds kept eta*N exact (both in ``_closed_forms.py``),
``comm_report`` summed the K-client form next to the one-client form, and
``efficiency_ratio`` divided two sums of exact ``Fraction`` kinds. The
integer forms must give the same rounded count, the same four report
figures, the same rho bits and the same winner, or raise the same error.
"""

import fractions
import math
import sys
from fractions import Fraction

from hypothesis import example, given
from hypothesis import strategies as st

from splitfed.cost_model import (
    TIE_REL_TOL,
    CommReport,
    EfficiencyReport,
    Protocol,
    ScenarioParams,
    Winner,
    _even_split,
    comm_report,
    efficiency_ratio,
)
from splitfed.errors import SplitFedError

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
    return eff if isinstance(eff, tuple) else (eff.rho.hex(), eff.winner)


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
