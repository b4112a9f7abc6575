"""Closed-form traffic formulas, the efficiency ratio, and break-even solving."""

import math
from collections import Counter
from itertools import product
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitfed import (
    CutOutOfRange,
    DivisibilityError,
    InvalidParam,
    MessageKind,
    ModelSpec,
    Protocol,
    ScenarioParams,
    Winner,
    break_even_curve,
    comm_report,
    efficiency_ratio,
    shard_sizes,
    sweep,
    traffic_by_kind,
)
from splitfed import cost_model, nn_core, protocol_sim
from splitfed.cli import compared_protocol
from splitfed.cost_model import REPORTED, reported

from _closed_forms import reference_client_weights, reference_epoch_counts, reference_traffic_by_kind


def make_params(K, N, p, q, eta, bytes_per_scalar=4, epochs=1, batch_size=1, label_width=0):
    return ScenarioParams(K, N, p, q, eta, bytes_per_scalar, epochs, batch_size, label_width)


def break_even_at(p, q, k, eta=0.0, variant=Protocol.SPLIT_SYNC, batch_size=1):
    """N* at one client count: the one point of that curve."""
    return break_even_curve(make_params(1, 1, p, q, eta, batch_size=batch_size), [k], variant).points[0][1]


# --- shard sizes -------------------------------------------------------------

def test_shard_sizes_even():
    assert shard_sizes(6, 2) == [3, 3]


def test_shard_sizes_strict_rejects_remainder():
    with pytest.raises(DivisibilityError):
        shard_sizes(7, 2, strict=True)


def test_shard_sizes_lenient_front_loads_remainder():
    assert shard_sizes(7, 2, strict=False) == [4, 3]
    assert shard_sizes(10, 4, strict=False) == [3, 3, 2, 2]


# --- ScenarioParams ----------------------------------------------------------

def test_params_validation():
    with pytest.raises(InvalidParam):
        make_params(0, 10, 5, 1, 0.5)
    with pytest.raises(InvalidParam):
        make_params(1, 0, 5, 1, 0.5)
    with pytest.raises(InvalidParam):
        make_params(1, 10, -1, 1, 0.5)
    with pytest.raises(InvalidParam):
        make_params(1, 10, 5, 0, 0.5)
    with pytest.raises(InvalidParam):
        make_params(1, 10, 5, 1, 1.5)
    with pytest.raises(InvalidParam):
        make_params(1, 10, 5, 1, 0.5, bytes_per_scalar=0)
    with pytest.raises(InvalidParam):
        make_params(1, 10, 5, 1, 0.5, epochs=0)


def test_client_param_count_exact_fraction():
    params = make_params(2, 23, 6, 3, Fraction(15, 23))
    assert params.client_param_count == 15


def test_client_param_count_rounds_bare_float():
    assert make_params(2, 10, 4, 1, 0.5).client_param_count == 5
    assert make_params(2, 10, 4, 1, 0.33).client_param_count == 3


def test_client_param_count_rounds_the_exact_product():
    # The float 0.37 lies just below 37/100, so eta*N = 55.4999... exactly;
    # multiplying in floats first lands on 55.5, which rounds to 56.
    params = make_params(2, 150, 4, 1, 0.37)
    assert params.client_param_count == 55
    assert reference_client_weights(params) == Fraction(0.37) * 150 < Fraction(111, 2)
    sync_total = 2 * 4 * 1 + 55 * 2
    assert comm_report(params, Protocol.SPLIT_SYNC).total_scalars == sync_total
    row = sweep({"clients": 2, "model_params": 150, "dataset_size": 4,
                 "smashed_size": 1, "client_fraction": 0.37})[0]
    assert row.reports[Protocol.SPLIT_SYNC].total_scalars == sync_total


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_params_reject_non_finite(bad):
    with pytest.raises(InvalidParam):
        make_params(2, bad, 4, 1, 0.5)
    with pytest.raises(InvalidParam):
        make_params(2, 10, 4, 1, bad)


# A valid point, and values drawn for a field until one fails its check.
_VALID_FIELDS = dict(zip(cost_model.SWEEP_FIELD_ORDER, (2, 10, 4, 1, 0.5, 4, 1, 1, 0)))
_ANY_NUMBER = st.one_of(st.integers(-10**6, 10**6), st.floats(), st.fractions(), st.booleans())


def _raised(build) -> str:
    with pytest.raises(InvalidParam) as raised:
        build()
    return str(raised.value)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), names=st.sets(st.sampled_from(cost_model.SWEEP_FIELD_ORDER), min_size=1))
def test_every_scenario_params_construction_path_runs_the_field_checks(data, names):
    # one or more bad fields: the constructor, _make and _replace all refuse with the
    # first failing field's own message, in field order
    bad = {name: data.draw(_ANY_NUMBER.filter(lambda v, name=name: cost_model._field_error(name, v)), name)
           for name in names}
    values = {**_VALID_FIELDS, **bad}
    want = next(cost_model._field_error(name, values[name]) for name in cost_model.SWEEP_FIELD_ORDER
                if name in bad)
    assert _raised(lambda: ScenarioParams(**values)) == want
    assert _raised(lambda: ScenarioParams(*values.values())) == want
    assert _raised(lambda: ScenarioParams._make(values.values())) == want
    assert _raised(lambda: ScenarioParams(**_VALID_FIELDS)._replace(**bad)) == want


@pytest.mark.parametrize(("name", "value", "shown"), [
    # str() refuses an int past 4,300 digits; such a value is quoted cut to 20 characters,
    # as a break-even refusal quotes K, and one that str() writes keeps every digit
    ("clients", -10**5000, "-1" + "0" * 18 + "..."),
    ("dataset_size", -10**5000, "-1" + "0" * 18 + "..."),
    ("client_fraction", Fraction(10**5000, 3), "1" + "0" * 19 + "..."),
    ("client_fraction", Fraction(-3, 10**5000), "-3/1" + "0" * 16 + "..."),
    ("clients", -10**4000, str(-10**4000)),
], ids=["clients", "dataset_size", "eta-numerator", "eta-denominator", "clients-written-whole"])
def test_a_field_past_the_digit_limit_is_refused_with_its_value_cut_short(name, value, shown):
    want = cost_model._FIELD_CHECKS[name][1].format(shown)
    assert _raised(lambda: ScenarioParams(**{**_VALID_FIELDS, name: value})) == want
    assert _raised(lambda: ScenarioParams(**_VALID_FIELDS)._replace(**{name: value})) == want
    # a sweep cell yields the same message as its Error, and the next cell its reports
    error, cell = cost_model.sweep_cells({**_VALID_FIELDS, name: [value, _VALID_FIELDS[name]]})
    assert error == want and type(cell) is tuple


_MODEL_REFUSALS = st.one_of(
    st.lists(st.integers(1, 50), max_size=1).map(
        lambda w: (w, cost_model.Activation.RELU, "layer_widths needs an input and an output width")),
    st.lists(st.integers(-3, 50), min_size=2, max_size=6).filter(lambda w: min(w) < 1).map(
        lambda w: (w, cost_model.Activation.RELU, f"layer widths must be positive, got {tuple(w)}")),
    st.sampled_from(["Sigmoid", "relu", None, 1]).map(
        lambda a: ([4, 3, 2], a, f"unknown activation {a!r}")),
)


@settings(max_examples=200, deadline=None)
@given(case=_MODEL_REFUSALS)
def test_every_model_spec_construction_path_runs_its_checks(case):
    widths, activation, want = case
    assert _raised(lambda: ModelSpec(widths, activation)) == want
    assert _raised(lambda: ModelSpec(layer_widths=widths, activation=activation)) == want
    assert _raised(lambda: ModelSpec._make([widths, activation])) == want
    assert _raised(lambda: ModelSpec((5, 5))._replace(layer_widths=widths, activation=activation)) == want


def test_model_spec_replace_normalises_the_widths_as_the_constructor_does():
    for widths in ([4, 3, 2], [4, np.int64(3), 2.0]):
        spec = ModelSpec((5, 5), cost_model.Activation.RELU)._replace(layer_widths=widths)
        assert spec == ModelSpec(widths, cost_model.Activation.RELU)
        assert type(spec) is ModelSpec and type(spec.layer_widths) is tuple
        assert spec.layer_widths == (4, 3, 2) and all(type(w) is int for w in spec.layer_widths)


@pytest.mark.parametrize("bad", [4.7, "3", math.nan, math.inf, None, Fraction(7, 2), np.float64(0.5)])
def test_model_spec_refuses_a_width_that_is_not_a_whole_number(bad):
    # once truncated by int(): (4.7, 3, 2) became (4, 3, 2) and a '3' was accepted
    want = f"layer widths must be whole numbers, got {bad!r}"
    assert _raised(lambda: ModelSpec((4, bad, 2))) == want
    assert _raised(lambda: ModelSpec((5, 5))._replace(layer_widths=(bad, 3, 2))) == want


def test_model_spec_quotes_a_width_past_the_digit_limit_cut_short():
    # str() refuses an int past 4,300 digits: the refusal once raised ValueError
    assert _raised(lambda: ModelSpec((4, -10**5000))) == "layer widths must be positive, got (4, -1" + "0" * 18 + "...)"


@pytest.mark.parametrize("bad", [1.5, "1", math.nan, math.inf, None, Fraction(3, 2)])
def test_a_cut_that_is_not_a_whole_number_is_refused_as_given(bad):
    # once truncated by int(): cut_stats(spec, 1.5) read cut 1
    spec = ModelSpec((4, 3, 2))
    for read in (cost_model.cut_stats, cost_model.client_param_count, ScenarioParams.from_model):
        with pytest.raises(CutOutOfRange) as raised:
            read(spec, bad)
        assert str(raised.value) == f"cut {bad!r} invalid for 2 weight layers (valid range 1..1)"
    # a whole cut of another type reads as its int; a past-the-digit-limit one is quoted cut short
    assert cost_model.cut_stats(spec, 1.0) == cost_model.cut_stats(spec, np.int64(1)) == cost_model.cut_stats(spec, 1)
    with pytest.raises(CutOutOfRange, match=r"^cut 1" + "0" * 19 + r"\.\.\. invalid"):
        cost_model.cut_stats(spec, 10**5000)


# --- protocols and the per-kind closed form ------------------------------------

def test_protocol_is_the_one_variant_lookup():
    names = ("sync", "nosync", "sync_batch", "federated")
    assert [Protocol(name) for name in names] == list(Protocol)
    # the aliases the benchmark's output check still imports
    assert cost_model.Method is Protocol and protocol_sim.SplitVariant is Protocol
    assert Protocol.SYNC_EPOCH is Protocol.SPLIT_SYNC
    assert [p.label for p in REPORTED] == ["SplitSync", "SplitNoSync", "Federated"]
    # a scenario is compared as its own protocol; a federated one, which has no
    # split side, as sync
    assert [compared_protocol(name) for name in names] == [
        Protocol.SPLIT_SYNC, Protocol.SPLIT_NOSYNC, Protocol.SPLIT_SYNC_BATCH, Protocol.SPLIT_SYNC]
    # a report lists REPORTED, plus the compared protocol where REPORTED lacks it
    assert [reported(compared_protocol(name)) for name in names] == [
        REPORTED, REPORTED,
        (Protocol.SPLIT_SYNC, Protocol.SPLIT_NOSYNC, Protocol.SPLIT_SYNC_BATCH, Protocol.FEDERATED),
        REPORTED]


def test_traffic_by_kind_golden_432_cut1():
    params = make_params(2, 23, 6, 3, Fraction(15, 23), epochs=2)
    kinds = {kind: 0 for kind in MessageKind}
    assert traffic_by_kind(params, Protocol.SPLIT_SYNC) == dict(kinds, **{
        MessageKind.ACTIVATIONS: 36, MessageKind.GRADIENTS: 36, MessageKind.CLIENT_WEIGHTS: 60})
    assert traffic_by_kind(params._replace(label_width=2), Protocol.SPLIT_NOSYNC) == dict(kinds, **{
        MessageKind.ACTIVATIONS: 36, MessageKind.GRADIENTS: 36, MessageKind.LABELS: 24})
    assert traffic_by_kind(params, Protocol.FEDERATED) == dict(kinds, **{
        MessageKind.CLIENT_WEIGHTS: 92, MessageKind.GLOBAL_WEIGHTS: 92})
    # batches of 2 over shards of 3 and 3 records: two hand-offs per client per epoch
    batched = traffic_by_kind(params._replace(batch_size=2), Protocol.SPLIT_SYNC_BATCH)
    assert batched[MessageKind.CLIENT_WEIGHTS] == 15 * 4 * 2
    # one client's shard: K = 1, p = shard
    assert traffic_by_kind(params, Protocol.SPLIT_SYNC, 4)[MessageKind.CLIENT_WEIGHTS] == 15 * 2


def test_traffic_by_kind_exact_keeps_the_rational_hand_off():
    params = make_params(2, 150, 4, 1, 0.37)
    # the tests' rational reference keeps eta*N exact; the wire form rounds it once
    exact = reference_traffic_by_kind(params, Protocol.SPLIT_SYNC, exact=True)
    assert exact[MessageKind.CLIENT_WEIGHTS] == Fraction(0.37) * 150 * 2
    assert traffic_by_kind(params, Protocol.SPLIT_SYNC)[MessageKind.CLIENT_WEIGHTS] == 55 * 2
    assert traffic_by_kind(params, Protocol.SPLIT_SYNC) == reference_traffic_by_kind(params, Protocol.SPLIT_SYNC)
    half = make_params(2, 10.5, 4, 1, 0.5)
    assert reference_traffic_by_kind(half, Protocol.FEDERATED, exact=True)[MessageKind.GLOBAL_WEIGHTS] == 21
    with pytest.raises(InvalidParam):
        traffic_by_kind(half, Protocol.FEDERATED)  # no wire carries half a weight
    with pytest.raises(InvalidParam):
        traffic_by_kind(params, "sync")


# --- closed-form totals --------------------------------------------------------

def test_split_sync_golden_432_cut1():
    # [4,3,2] cut at 1: N=23, q=3, eta=15/23; ledger-verified in protocol tests
    params = make_params(2, 23, 6, 3, Fraction(15, 23))
    report = comm_report(params, Protocol.SPLIT_SYNC)
    assert report.per_client_scalars == 33
    assert report.total_scalars == 66
    assert report.per_client_bytes == 132
    assert report.total_bytes == 264


def test_split_sync_zero_data_leaves_weight_traffic():
    for k in (1, 3, 10):
        report = comm_report(make_params(k, 10, 0, 1, 0.5), Protocol.SPLIT_SYNC)
        assert report.per_client_scalars == 5
        assert report.total_scalars == 5 * k


def test_split_sync_break_even_point_matches_federated():
    params = make_params(10, 2000, 1000, 10, 1.0)
    assert comm_report(params, Protocol.SPLIT_SYNC).total_scalars == 40000
    assert comm_report(params, Protocol.FEDERATED).total_scalars == 40000


def test_split_sync_strict_divisibility():
    with pytest.raises(DivisibilityError):
        comm_report(make_params(2, 23, 7, 3, Fraction(15, 23)), Protocol.SPLIT_SYNC)


def test_split_sync_lenient_total_is_exact():
    params = make_params(2, 23, 7, 3, Fraction(15, 23))
    report = comm_report(params, Protocol.SPLIT_SYNC, strict=False)
    assert report.total_scalars == 2 * 7 * 3 + 15 * 2
    # per-client reports the largest shard (4 records)
    assert report.per_client_scalars == 2 * 4 * 3 + 15


def test_split_sync_epoch_scaling():
    one = comm_report(make_params(2, 23, 6, 3, Fraction(15, 23)), Protocol.SPLIT_SYNC)
    five = comm_report(make_params(2, 23, 6, 3, Fraction(15, 23), epochs=5), Protocol.SPLIT_SYNC)
    assert five.total_scalars == 5 * one.total_scalars
    assert five.per_client_scalars == 5 * one.per_client_scalars


def test_split_sync_label_accounting():
    base = comm_report(make_params(2, 23, 6, 3, Fraction(15, 23)), Protocol.SPLIT_SYNC)
    with_labels = comm_report(make_params(2, 23, 6, 3, Fraction(15, 23), label_width=2), Protocol.SPLIT_SYNC)
    assert with_labels.total_scalars == base.total_scalars + 6 * 2
    assert with_labels.per_client_scalars == base.per_client_scalars + 3 * 2


def test_split_nosync_examples():
    report = comm_report(make_params(2, 23, 6, 3, Fraction(15, 23)), Protocol.SPLIT_NOSYNC)
    assert report.per_client_scalars == 18
    assert report.total_scalars == 36

    zero = comm_report(make_params(3, 23, 0, 3, 0.5), Protocol.SPLIT_NOSYNC)
    assert zero.per_client_scalars == 0
    assert zero.total_scalars == 0

    single = comm_report(make_params(1, 50, 100, 5, 0.5), Protocol.SPLIT_NOSYNC)
    assert single.per_client_scalars == 1000
    assert single.total_scalars == 1000


def test_federated_examples():
    r = comm_report(make_params(3, 10, 0, 1, 0.5), Protocol.FEDERATED)
    assert r.per_client_scalars == 20
    assert r.total_scalars == 60

    tiny = comm_report(make_params(1, 1, 0, 1, 0.0), Protocol.FEDERATED)
    assert tiny.per_client_scalars == 2
    assert tiny.total_scalars == 2

    rounds = comm_report(make_params(2, 23, 6, 3, Fraction(15, 23), epochs=5), Protocol.FEDERATED)
    assert rounds.total_scalars == 460


def test_sync_total_dominates_nosync_iff_weight_traffic():
    rng = np.random.default_rng(11)
    for _ in range(50):
        k = int(rng.integers(1, 9))
        n = int(rng.integers(1, 500))
        p = k * int(rng.integers(0, 40))
        q = int(rng.integers(1, 20))
        eta = Fraction(int(rng.integers(0, n + 1)), n)
        params = make_params(k, n, p, q, eta)
        sync_total = comm_report(params, Protocol.SPLIT_SYNC).total_scalars
        nosync_total = comm_report(params, Protocol.SPLIT_NOSYNC).total_scalars
        assert sync_total >= nosync_total
        assert (sync_total == nosync_total) == (eta == 0)


# --- efficiency ratio --------------------------------------------------------

def test_efficiency_examples():
    eff = efficiency_ratio(make_params(100, 10**6, 10**5, 1000, 0.2), Protocol.SPLIT_SYNC)
    assert eff.rho == pytest.approx(10 / 11, rel=1e-12)
    assert eff.winner is Winner.FEDERATED

    eff = efficiency_ratio(make_params(4, 10, 0, 1, 0.5), Protocol.SPLIT_SYNC)
    assert eff.rho == pytest.approx(4.0)
    assert eff.winner is Winner.SPLIT

    eff = efficiency_ratio(make_params(10, 2000, 1000, 10, 1.0), Protocol.SPLIT_SYNC)
    assert eff.rho == pytest.approx(1.0, rel=1e-15)
    assert eff.winner is Winner.TIE


def test_efficiency_undefined_denominator_is_split_with_inf():
    eff = efficiency_ratio(make_params(3, 10, 0, 1, 0.0), Protocol.SPLIT_SYNC)
    assert math.isinf(eff.rho) and eff.winner is Winner.SPLIT
    eff = efficiency_ratio(make_params(3, 10, 0, 1, 0.7), Protocol.SPLIT_NOSYNC)
    assert math.isinf(eff.rho) and eff.winner is Winner.SPLIT
    # 2KN over a subnormal eta*N*K hand-off is past the float range
    eff = efficiency_ratio(make_params(1, 1, 0, 1, 5e-324), Protocol.SPLIT_SYNC)
    assert math.isinf(eff.rho) and eff.winner is Winner.SPLIT


def test_efficiency_federated_against_itself_is_a_tie():
    eff = efficiency_ratio(make_params(2, 10, 4, 1, 0.5), Protocol.FEDERATED)
    assert eff.rho == 1.0 and eff.winner is Winner.TIE


def _assert_rho_sign_matches_totals(params, variant):
    eff = efficiency_ratio(params, variant)
    fed = comm_report(params, Protocol.FEDERATED).total_scalars
    split = comm_report(params, variant).total_scalars
    if eff.winner is Winner.TIE:
        assert fed == split
    else:
        assert (eff.rho > 1) == (fed > split), (params, variant, eff, fed, split)


def test_rho_sign_matches_total_comparison():
    # a cell of the golden nosync sweep with labels: 7 * 448 = 3136 scalars
    # against federated's 2 * 64 * 23 = 2944, so federated wins
    _assert_rho_sign_matches_totals(make_params(64, 23, 448, 3, 0, label_width=1), Protocol.SPLIT_NOSYNC)
    rng = np.random.default_rng(7)
    for _ in range(200):
        k = int(rng.integers(1, 20))
        n = int(rng.integers(1, 10**4))
        p = k * int(rng.integers(0, 100))
        q = int(rng.integers(1, 100))
        eta = Fraction(int(rng.integers(0, n + 1)), n)
        batch = int(rng.integers(1, 6))
        for label_width in (0, 1, 3):
            params = make_params(k, n, p, q, eta, batch_size=batch, label_width=label_width)
            for variant in (Protocol.SPLIT_SYNC, Protocol.SPLIT_NOSYNC, Protocol.SPLIT_SYNC_BATCH):
                _assert_rho_sign_matches_totals(params, variant)


def test_rho_invariant_under_epochs_and_byte_width():
    base = make_params(8, 5000, 400, 25, 0.3)
    scaled = make_params(8, 5000, 400, 25, 0.3, bytes_per_scalar=8, epochs=7)
    for variant in (Protocol.SPLIT_SYNC, Protocol.SPLIT_NOSYNC):
        assert efficiency_ratio(base, variant).rho == efficiency_ratio(scaled, variant).rho


def test_rho_monotonicity_on_grids():
    # Every split protocol: non-decreasing in N, non-increasing in p, q and eta
    # (p, q > 0 fixed elsewhere). Sync: strictly increasing in K and N and
    # decreasing in p and q; nosync: non-decreasing in K. Sync_batch's hand-off
    # count rounds with K, so nothing is claimed for it in K.
    base = dict(K=50, N=10**6, p=10**5, q=100, eta=0.3)
    ks = [1, 5, 50, 500, 5000]
    ns = [10**3, 10**4, 10**5, 10**6, 10**7]
    ps = [10**3, 10**4, 10**5, 10**6]
    qs = [10, 100, 1000, 10000]
    etas = [0.0, 0.1, Fraction(1, 3), 0.7, 1.0]

    for protocol, batch in ((Protocol.SPLIT_SYNC, 1), (Protocol.SPLIT_NOSYNC, 1),
                            (Protocol.SPLIT_SYNC_BATCH, 1), (Protocol.SPLIT_SYNC_BATCH, 64)):
        def rho_of(**kw):
            a = dict(base, **kw)
            return efficiency_ratio(make_params(a["K"], a["N"], a["p"], a["q"], a["eta"], batch_size=batch),
                                    protocol).rho

        for key, grid in (("N", ns), ("p", ps[::-1]), ("q", qs[::-1]), ("eta", etas[::-1])):
            values = [rho_of(**{key: g}) for g in grid]
            assert all(a <= b for a, b in zip(values, values[1:])), (protocol, batch, key, values)
        if protocol is not Protocol.SPLIT_SYNC_BATCH:
            assert all(rho_of(K=a) <= rho_of(K=b) for a, b in zip(ks, ks[1:])), protocol
        if protocol is Protocol.SPLIT_SYNC:
            assert all(rho_of(K=a) < rho_of(K=b) for a, b in zip(ks, ks[1:]))
            assert all(rho_of(N=a) < rho_of(N=b) for a, b in zip(ns, ns[1:]))
            assert all(rho_of(p=a) > rho_of(p=b) for a, b in zip(ps, ps[1:]))
            assert all(rho_of(q=a) > rho_of(q=b) for a, b in zip(qs, qs[1:]))


_ETAS = st.one_of(st.floats(0, 1), st.integers(1, 10**6).flatmap(
    lambda b: st.integers(0, b).map(lambda a: Fraction(a, b))))


@settings(max_examples=300, deadline=None)
@given(
    protocol=st.sampled_from([Protocol.SPLIT_SYNC, Protocol.SPLIT_NOSYNC, Protocol.SPLIT_SYNC_BATCH]),
    batch=st.integers(1, 64),
    ks=st.lists(st.integers(1, 200), min_size=2, max_size=2).map(sorted),
    ns=st.lists(st.integers(1, 10**12), min_size=2, max_size=2).map(sorted),
    per_shard=st.lists(st.integers(0, 50), min_size=2, max_size=2).map(sorted),
    qs=st.lists(st.integers(1, 4096), min_size=2, max_size=2).map(sorted),
    etas=st.lists(_ETAS, min_size=2, max_size=2).map(sorted),
)
def test_rho_is_monotone_in_every_parameter(protocol, batch, ks, ns, per_shard, qs, etas):
    # Against federated, rho never falls as K or N grows and never rises as
    # p, q or eta grows. Both p values split evenly over both K values.
    (k, k_up), (n, n_up), (q, q_up), (eta, eta_up) = ks, ns, qs, etas
    p, p_up = (math.lcm(k, k_up) * r for r in per_shard)

    def rho(**moved):
        a = {"K": k, "N": n, "p": p, "q": q, "eta": eta, **moved}
        return efficiency_ratio(make_params(a["K"], a["N"], a["p"], a["q"], a["eta"], batch_size=batch), protocol).rho

    at = rho()
    assert rho(K=k_up) >= at and rho(N=n_up) >= at
    assert rho(p=p_up) <= at and rho(q=q_up) <= at and rho(eta=eta_up) <= at


# --- break-even --------------------------------------------------------------

def test_break_even_examples():
    assert break_even_at(1000, 10, 10, 1.0, Protocol.SPLIT_SYNC) == pytest.approx(2000.0)
    assert break_even_at(1000, 10, 10, variant=Protocol.SPLIT_NOSYNC) == pytest.approx(1000.0)


def test_break_even_eta_zero_matches_nosync():
    for p, q, k in ((1000, 10, 10), (7, 3, 2), (123, 45, 6)):
        sync = break_even_at(p, q, k, 0.0, Protocol.SPLIT_SYNC)
        nosync = break_even_at(p, q, k, variant=Protocol.SPLIT_NOSYNC)
        assert sync == pytest.approx(nosync, rel=1e-15)


def test_break_even_degenerate_inputs():
    with pytest.raises(InvalidParam):
        break_even_at(0, 10, 10, 0.5)
    with pytest.raises(InvalidParam):
        break_even_at(10, 0, 10, 0.5)


def test_break_even_round_trip_spot():
    n_star = break_even_at(1000, 10, 10, 1.0, Protocol.SPLIT_SYNC)
    eff = efficiency_ratio(make_params(10, n_star, 1000, 10, 1.0), Protocol.SPLIT_SYNC)
    assert eff.winner is Winner.TIE


def _line(params_at, protocol):
    """(A, B) of the exact total A + B*N, read off the rational reference at N = 1 and 2."""
    one, two = (sum(reference_traffic_by_kind(params_at(n), protocol, exact=True).values()) for n in (1, 2))
    return one - (two - one), two - one


@settings(max_examples=300, deadline=None)
@given(
    k=st.integers(1, 3000),
    records_per_client=st.integers(1, 1000),
    spare=st.integers(0, 2999),
    q=st.integers(1, 2048),
    eta=_ETAS,
    batch=st.integers(1, 64),
    protocol=st.sampled_from([Protocol.SPLIT_SYNC, Protocol.SPLIT_NOSYNC, Protocol.SPLIT_SYNC_BATCH]),
)
def test_break_even_is_the_exact_crossing_of_the_two_lines(k, records_per_client, spare, q, eta, batch,
                                                           protocol):
    p = k * records_per_client + spare % k  # p >= K, so N* >= 1 wherever it exists

    def params_at(n):
        return ScenarioParams(k, n, p, q, eta, batch_size=batch)

    a_s, b_s = _line(params_at, protocol)
    a_f, b_f = _line(params_at, Protocol.FEDERATED)
    if b_s >= b_f:  # split moves at least as many weights: no N balances the two
        with pytest.raises(InvalidParam, match=f"K={k}"):
            break_even_at(p, q, k, eta, protocol, batch)
        return
    n_star = (a_s - a_f) / (b_f - b_s)
    split, fed = (sum(reference_traffic_by_kind(params_at(n_star), m, exact=True).values())
                  for m in (protocol, Protocol.FEDERATED))
    assert split == fed
    assert efficiency_ratio(params_at(n_star), protocol).winner is Winner.TIE
    # correctly rounded: float() of a Fraction is the nearest float
    assert break_even_at(p, q, k, eta, protocol, batch) == float(n_star)
    curve = break_even_curve(params_at(1), [k, 2 * k], protocol)
    assert curve.points[0] == (k, float(n_star))
    # the O(1) form over K clients is the sum of their one-client shard= shares
    holders = Counter(shard_sizes(p, k, strict=False))
    shares = {size: traffic_by_kind(params_at(1), protocol, size) for size in holders}
    assert traffic_by_kind(params_at(1), protocol) == {
        kind: sum(n * shares[size][kind] for size, n in holders.items()) for kind in MessageKind}


def test_break_even_without_a_crossing_raises():
    # one client with six batches hands off 6*eta*N > 2N for eta = 15/23: no N* at K=1
    with pytest.raises(InvalidParam, match="K=1"):
        break_even_at(6, 3, 1, Fraction(15, 23), Protocol.SPLIT_SYNC_BATCH)
    for protocol in (Protocol.SPLIT_SYNC, Protocol.SPLIT_NOSYNC, Protocol.SPLIT_SYNC_BATCH):
        with pytest.raises(InvalidParam):
            break_even_at(6, 3, 0, 0.5, protocol)
    with pytest.raises(InvalidParam, match="K=1"):
        break_even_curve(make_params(1, 1, 6, 3, Fraction(15, 23)), [1, 2, 4], Protocol.SPLIT_SYNC_BATCH)
    with pytest.raises(InvalidParam):  # federated against itself ties at every N
        break_even_at(6, 3, 2, 0.5, Protocol.FEDERATED)
    assert break_even_at(6, 3, 2, Fraction(15, 23), Protocol.SPLIT_SYNC_BATCH) == 414


def test_break_even_curve_decreasing_in_k():
    curve = break_even_curve(make_params(1, 1, 1000, 10, 1.0), [1, 10, 100], Protocol.SPLIT_SYNC)
    values = [n for _, n in curve.points]
    assert values == pytest.approx([20000.0, 2000.0, 200.0])
    assert all(a > b for a, b in zip(values, values[1:]))


def test_break_even_curve_keeps_two_columns():
    # an ascending range stays the K column; N* is one array('d')
    ks = range(3, 3000, 7)
    curve = break_even_curve(make_params(1, 1, 1000, 10, Fraction(1, 3)), ks, Protocol.SPLIT_SYNC)
    assert curve.clients is ks and curve.break_even_sizes.typecode == "d"
    assert curve.points == tuple((k, break_even_at(1000, 10, k, Fraction(1, 3))) for k in ks)
    # any other sequence of client counts is sorted and rid of repeats
    assert break_even_curve(make_params(1, 1, 1000, 10, 0.5), [10, 1, 10]).clients == [1, 10]
    assert break_even_curve(make_params(1, 1, 1000, 10, 0.5), range(10, 0, -3)).clients == [1, 4, 7, 10]


@pytest.mark.parametrize("variant", [Protocol.SPLIT_SYNC, Protocol.SPLIT_NOSYNC, Protocol.SPLIT_SYNC_BATCH])
def test_break_even_refuses_the_first_k_whose_n_star_rounds_to_0(variant):
    # at p = q = 1 and eta = 0, N* = 1/K, which is 0.0 as a float for K past about 4e323;
    # the error quotes K's first 20 digits
    with pytest.raises(InvalidParam, match=r"K=1" + "0" * 19 + r"\.\.\. rounds to 0$"):
        break_even_curve(make_params(1, 1, 1, 1, 0), [1, 2, 10**330, 10**331], variant)
    # within a range's column: the zeros are a suffix, and the first of them is named
    ks = range(10**323, 10**324 + 1, 10**323)
    first = next(k for k in ks if not 1 / k)
    assert first == 5 * 10**323
    with pytest.raises(InvalidParam, match=r"K=5" + "0" * 19 + r"\.\.\. rounds to 0$"):
        break_even_curve(make_params(1, 1, 1, 1, 0), ks, variant)
    assert break_even_curve(make_params(1, 1, 1, 1, 0), ks[:4], variant).break_even_sizes.tolist() == \
        [1 / k for k in ks[:4]]


@pytest.mark.parametrize(("p", "eta", "variant", "why", "ks"), [
    # N* = 1/K rounds to 0 only past about 4e323, so only a long K gets there; a K
    # of 5,001 digits is past the 4,300 that str(int) writes by default
    (lambda k: 1, 0, Protocol.SPLIT_SYNC, "the break-even model size at K={} rounds to 0", [10**330, 10**5000]),
    (lambda k: 10**700, 0.5, Protocol.SPLIT_SYNC, "the break-even model size at K={} lies past the float range",
     [10**330, 10**19]),
    # one record a batch hands off 6 * 15/23 > 2 model sizes a client
    (lambda k: 6 * k, Fraction(15, 23), Protocol.SPLIT_SYNC_BATCH,
     "no model size balances SplitSyncBatch and Federated traffic at K={}", [10**330, 10**19, 10**5000]),
    (lambda k: 1, 0, Protocol.FEDERATED, "no model size balances Federated and Federated traffic at K={}",
     [10**5000, 10**19]),
], ids=["rounds-to-0", "past-float-range", "no-balance", "federated"])
def test_break_even_refusals_cut_k_to_20_digits(p, eta, variant, why, ks):
    # as a bad --k-range item is cut: 20 characters, then "..."; a K of 20 digits is quoted whole
    for k in ks:
        with pytest.raises(InvalidParam) as raised:
            break_even_curve(make_params(1, 1, p(k), 1, eta), [k], variant)
        assert str(raised.value) == why.format("1" + "0" * 19 + "..." if k > 10**20 else k)


@pytest.mark.parametrize("variant", list(Protocol))
@pytest.mark.parametrize(("ks", "shown"), [
    ([0, 1, 2], "0"),
    ([3, 0, -4], "0"),  # the first bad K in the order given, not the least
    (range(0, 3), "0"),
    (range(-5, 40_000), "-5"),  # an ascending range is checked by its first K
    (range(3, -1, -1), "0"),
    ([2.5, 3.9], "2.5"),
    ([1, 3.0], "3.0"),
    (["3"], "3"),
    ([-10**5000], "-" + "1" + "0" * 18 + "..."),  # cut to 20 characters, as every break-even refusal
])
def test_break_even_refuses_a_client_count_that_is_not_an_int_of_at_least_1(variant, ks, shown):
    # the clients field's own message (ScenarioParams(clients=...)'s), under every
    # protocol, before any arithmetic
    with pytest.raises(InvalidParam) as raised:
        break_even_curve(make_params(1, 1, 6, 3, 0.5), ks, variant)
    assert str(raised.value) == f"clients must be a positive integer, got {shown}"


# --- the protocol's row ------------------------------------------------------

def test_epoch_counts_read_off_the_row_match_the_reference_table():
    # src reads each protocol's counts off its row; the reference writes them out per protocol
    for protocol, k, p, batch in product(Protocol, range(1, 13), range(41), range(1, 8)):
        assert cost_model._epoch_counts(protocol, k, p, batch) == reference_epoch_counts(protocol, k, p, batch), \
            (protocol, k, p, batch)


_ROW_PARAMS = make_params(2, 23, 6, 3, 0.5)
_ROW_GRID = {"clients": [1, 2], "model_params": 23, "dataset_size": 6, "smashed_size": 3, "client_fraction": 0.5}
_TAKES_A_PROTOCOL = {
    "traffic_by_kind": lambda bad: traffic_by_kind(_ROW_PARAMS, bad),
    "comm_report": lambda bad: comm_report(_ROW_PARAMS, bad),
    "efficiency_ratio": lambda bad: efficiency_ratio(_ROW_PARAMS, bad),
    "break_even_curve": lambda bad: break_even_curve(_ROW_PARAMS, [1, 2], bad),
    "sweep": lambda bad: sweep(_ROW_GRID, bad),
    "sweep_cells": lambda bad: list(cost_model.sweep_cells(_ROW_GRID, bad)),
    "run_split_training": lambda bad: protocol_sim.run_split_training(
        ModelSpec((4, 3, 2)), 1, [(np.zeros((3, 4)), np.zeros((3, 2)))] * 2, bad, 1, 0.01, 1),
    "client_kind_totals": lambda bad: protocol_sim.client_kind_totals(_ROW_PARAMS, bad),
    "verify_against_model": lambda bad: protocol_sim.verify_against_model(
        protocol_sim.TrafficLedger(), _ROW_PARAMS, bad),
    "measured_comm": lambda bad: protocol_sim.measured_comm(protocol_sim.TrafficLedger(), _ROW_PARAMS, bad),
    "reported": reported,
}


@pytest.mark.parametrize("bad", ["sync", "sync_batch", "nosync", None])
@pytest.mark.parametrize("name", list(_TAKES_A_PROTOCOL))
def test_every_function_that_takes_a_protocol_refuses_a_non_member(name, bad):
    # "sync" == Protocol.SPLIT_SYNC as a str, but it has no row: it once ran
    # run_split_training with no hand-offs, and sweep("sync_batch") raised KeyError
    with pytest.raises(InvalidParam, match="unknown protocol"):
        _TAKES_A_PROTOCOL[name](bad)


# --- counts handed in as plain arguments -------------------------------------

_BAD_COUNTS = {"-1": -1, "2.5": 2.5, "2.0": 2.0, "nan": math.nan, "inf": math.inf, "'3'": "3", "None": None,
               "-10**5000": -10**5000}
_SPEC = ModelSpec((4, 3, 2))
_SHARDS = protocol_sim.partition_dataset(*nn_core.random_dataset(_SPEC, 4, 1), 2)


def _field_rule(name, shown=format, default=()):
    """(a value's check, its refusal): the field table's rule for ``name``; a ``default`` value passes too."""
    return (lambda v: v in default or cost_model._field_error(name, v, shown) is None,
            lambda v: cost_model._field_error(name, v, shown))


def _own_rule(name):
    """(a value's check, its refusal): an int >= 0, the rule of a run's epochs or rounds and a stream's length."""
    return cost_model._whole_from(0), lambda v: f"{name} must be a non-negative integer, got {cost_model._shown(v)}"


def _split_run(epochs=1, batch_size=1):
    return protocol_sim.run_split_training(_SPEC, 1, _SHARDS, Protocol.SPLIT_SYNC, epochs, 0.01, 1, batch_size)


# Each function that takes a count as a plain argument: (its rule, a call with the count).
_TAKES_A_COUNT = {
    "shard_sizes-dataset_size": (_field_rule("dataset_size"), lambda v: shard_sizes(v, 2)),
    "shard_sizes-clients": (_field_rule("clients"), lambda v: shard_sizes(4, v)),
    "partition_dataset": (_field_rule("clients"), lambda v: protocol_sim.partition_dataset(*_SHARDS[0], v)),
    "GeneratedShards-records": (_field_rule("dataset_size"),
                                lambda v: protocol_sim.GeneratedShards(nn_core.random_dataset, _SPEC, v, 1, 2)),
    "GeneratedShards-clients": (_field_rule("clients"),
                                lambda v: protocol_sim.GeneratedShards(nn_core.random_dataset, _SPEC, 4, 1, v)),
    # shard=None, the default, counts all K clients
    "traffic_by_kind-shard": (_field_rule("dataset_size", default=(None,)),
                              lambda v: traffic_by_kind(_ROW_PARAMS, Protocol.SPLIT_SYNC, shard=v)),
    "run_split_training-batch_size": (_field_rule("batch_size"), lambda v: _split_run(batch_size=v)),
    "run_split_training-epochs": (_own_rule("epochs"), lambda v: _split_run(epochs=v)),
    "run_federated_training-batch_size": (_field_rule("batch_size"), lambda v: protocol_sim.run_federated_training(
        _SPEC, _SHARDS, 1, 0.01, 1, v)),
    "run_federated_training-rounds": (_own_rule("rounds"), lambda v: protocol_sim.run_federated_training(
        _SPEC, _SHARDS, v, 0.01, 1)),
    "random_dataset": (_field_rule("dataset_size"), lambda v: nn_core.random_dataset(_SPEC, v, 1)),
    "splitmix64": (_own_rule("count"), lambda v: nn_core.splitmix64(1, v)),
    "break_even_curve-clients": (_field_rule("clients", cost_model._shown),
                                 lambda v: break_even_curve(_ROW_PARAMS, [v])),
}


@pytest.mark.parametrize("name", list(_TAKES_A_COUNT))
def test_every_function_that_takes_a_count_refuses_it_with_its_rule(name):
    # a count the rule refuses raises InvalidParam with the rule's text, whatever its
    # type: no traceback from numpy or range, no silent truncation, no negative total
    (valid, refusal), call = _TAKES_A_COUNT[name]
    for label, bad in _BAD_COUNTS.items():
        if not valid(bad):
            assert _raised(lambda: call(bad)) == refusal(bad), label


# --- sweep -------------------------------------------------------------------

def test_sweep_two_rows_all_split():
    rows = sweep({"clients": [1, 2], "model_params": [10], "dataset_size": 0,
                  "smashed_size": 1, "client_fraction": 0.5})
    assert len(rows) == 2
    assert all(row.error is None for row in rows)
    assert all(row.efficiency.winner is Winner.SPLIT for row in rows)


def test_sweep_cartesian_order():
    grid = {
        "clients": [1, 2, 4],
        "model_params": [10, 20, 30],
        "dataset_size": [0, 4, 8],
        "smashed_size": 1,
        "client_fraction": 0.5,
    }
    rows = sweep(grid)
    assert len(rows) == 27
    combos = [(r.values["clients"], r.values["model_params"], r.values["dataset_size"]) for r in rows]
    assert combos == sorted(combos)  # lexicographic in declared field order


def test_sweep_error_rows_do_not_abort():
    rows = sweep({"clients": [2], "model_params": [10], "dataset_size": [4, 7],
                  "smashed_size": 1, "client_fraction": 0.5})
    assert rows[0].error is None
    assert rows[1].error is not None and "7" in rows[1].error
    assert rows[1].reports is None


def test_sweep_rejects_bad_grids():
    with pytest.raises(InvalidParam):
        sweep({"clients": []})
    with pytest.raises(InvalidParam):
        sweep({"clients": [1], "bogus": [2]})
    with pytest.raises(InvalidParam):
        sweep({"clients": [1]})  # missing required axes


def test_sweep_non_finite_cells_become_error_rows():
    rows = sweep({"clients": 2, "model_params": [10, math.inf, math.nan], "dataset_size": 4,
                  "smashed_size": 1, "client_fraction": [0.5, math.nan, math.inf]})
    assert len(rows) == 9
    assert [row.error is None for row in rows] == [True] + [False] * 8
    assert all(row.reports is None and row.efficiency is None for row in rows[1:])
    assert "model_params" in rows[3].error and "client_fraction" in rows[1].error


def test_sweep_cells_with_the_same_report_inputs_share_one_report():
    # Federated reads N alone, SplitNoSync the record size (q here) alone, and
    # SplitSync the record size and the hand-off, eta*N rounded: 1/2 of 1,000
    # and 1/4 of 2,000 both hand off 500 scalars
    rows = sweep({"clients": 2, "model_params": [1000, 2000], "dataset_size": 8, "smashed_size": [3, 5],
                  "client_fraction": [Fraction(1, 2), 0.25]})
    cells = {(row.values["model_params"], row.values["smashed_size"], row.values["client_fraction"]): row.reports
             for row in rows}
    for protocol, reads in ((Protocol.FEDERATED, lambda n, q, eta: n),
                            (Protocol.SPLIT_NOSYNC, lambda n, q, eta: q),
                            (Protocol.SPLIT_SYNC, lambda n, q, eta: (q, round(eta * n)))):
        by_inputs = {}
        for cell, reports in cells.items():
            by_inputs.setdefault(reads(*cell), []).append(reports[protocol])
            assert reports[protocol] == comm_report(make_params(2, cell[0], 8, cell[1], cell[2]), protocol)
        for shared in by_inputs.values():
            assert all(report is shared[0] for report in shared)
        assert len({id(shared[0]) for shared in by_inputs.values()}) == len(by_inputs)
    # SplitSync's 8 cells: hand-offs 250, 500 (twice) and 1,000 at each q
    assert sorted(map(len, by_inputs.values())) == [1, 1, 1, 1, 2, 2]


@pytest.mark.parametrize("field, values, variant, shared", [
    ("batch_size", [1, 2], Protocol.SPLIT_SYNC_BATCH, set()),
    ("label_width", [0, 1], Protocol.SPLIT_SYNC, {Protocol.FEDERATED}),  # federated sends no records
    ("epochs", [1, 2], Protocol.SPLIT_SYNC, set()),
    ("bytes_per_scalar", [4, 8], Protocol.SPLIT_SYNC, set()),
])
def test_sweep_cells_that_differ_in_a_report_input_do_not_share_a_report(field, values, variant, shared):
    grid = {"clients": 2, "model_params": 1000, "dataset_size": 6, "smashed_size": 3, "client_fraction": 0.5,
            field: values}
    first, second = sweep(grid, variant)
    assert list(first.reports) == list(second.reports) == list(reported(variant))
    for row in (first, second):
        params = ScenarioParams(**row.values)
        assert row.reports == {m: comm_report(params, m) for m in reported(variant)}
    assert {m for m in first.reports if first.reports[m] is second.reports[m]} == shared


def test_sweep_at_benchmark_scale_matches_exact_integers():
    # A grid shaped like the closed-form-grid benchmark: K from 1 to 9,900, three
    # p values every K divides and one (a prime past K's range added on) that only
    # K = 1 divides, q up to 2048, float and rational eta.
    h = 2**5 * 3**3 * 5**2 * 7 * 11 * 13
    ks = [1, 3, 12, 77, 360, 1430, 5544, 9900]
    ps = [h, 3 * h, 7 * h, 2 * h + 10_007]
    etas = [0.123456789, 0.987654321, Fraction(1, 997), Fraction(496, 997)]
    rows = sweep({"clients": ks, "model_params": [123_457, 98_765_431], "dataset_size": ps,
                  "smashed_size": [1, 777, 2048], "client_fraction": etas})
    assert len(rows) == 8 * 2 * 4 * 3 * 4
    errors = 0
    for row in rows:
        k, n, p, q, eta = (row.values[name] for name in
                           ("clients", "model_params", "dataset_size", "smashed_size", "client_fraction"))
        if p % k:
            assert row.error == f"{p} records do not split evenly across {k} clients"
            errors += 1
            continue
        weights = round(Fraction(eta) * n)  # eta*N to the nearest scalar, exactly
        totals = {m: (r.per_client_scalars, r.total_scalars) for m, r in row.reports.items()}
        assert totals == {
            Protocol.SPLIT_SYNC: (2 * (p // k) * q + weights, 2 * p * q + weights * k),
            Protocol.SPLIT_NOSYNC: (2 * (p // k) * q, 2 * p * q),
            Protocol.FEDERATED: (2 * n, 2 * k * n),
        }
        assert row.efficiency.rho == float(Fraction(2 * k * n) / (2 * p * q + Fraction(eta) * n * k))
    assert errors == 7 * 2 * 3 * 4  # the last p on every K > 1
