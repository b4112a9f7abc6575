"""Closed-form traffic formulas, the efficiency ratio, and break-even solving."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitfed import (
    DivisibilityError,
    InvalidParam,
    MessageKind,
    Method,
    Protocol,
    SplitVariant,
    ScenarioParams,
    Winner,
    break_even_curve,
    break_even_model_size,
    comm_report,
    efficiency_ratio,
    shard_sizes,
    sweep,
    traffic_by_kind,
)
from splitfed.cli import compared_protocol
from splitfed.cost_model import REPORTED, reported


def make_params(K, N, p, q, eta, bytes_per_scalar=4, epochs=1):
    return ScenarioParams(K, N, p, q, eta, bytes_per_scalar, epochs)


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
    assert params.client_weights == Fraction(0.37) * 150
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


# --- protocols and the per-kind closed form ------------------------------------

def test_protocol_is_the_one_variant_lookup():
    names = ("sync", "nosync", "sync_batch", "federated")
    assert [Protocol(name) for name in names] == list(Protocol)
    assert Method is Protocol and SplitVariant is Protocol
    assert SplitVariant.SYNC_EPOCH is Protocol.SPLIT_SYNC
    assert SplitVariant.SYNC_BATCH is Protocol.SPLIT_SYNC_BATCH
    assert SplitVariant.ALTERNATING is Protocol.SPLIT_NOSYNC
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
    assert traffic_by_kind(params, Protocol.SPLIT_NOSYNC, label_width=2) == dict(kinds, **{
        MessageKind.ACTIVATIONS: 36, MessageKind.GRADIENTS: 36, MessageKind.LABELS: 24})
    assert traffic_by_kind(params, Protocol.FEDERATED) == dict(kinds, **{
        MessageKind.CLIENT_WEIGHTS: 92, MessageKind.GLOBAL_WEIGHTS: 92})
    # batches of 2 over shards of 3 and 3 records: two hand-offs per client per epoch
    batched = traffic_by_kind(params, Protocol.SPLIT_SYNC_BATCH, batch_size=2)
    assert batched[MessageKind.CLIENT_WEIGHTS] == 15 * 4 * 2
    # explicit shards set K and p
    assert traffic_by_kind(params, Protocol.SPLIT_SYNC, [4])[MessageKind.CLIENT_WEIGHTS] == 15 * 2


def test_traffic_by_kind_exact_keeps_the_rational_hand_off():
    params = make_params(2, 150, 4, 1, 0.37)
    exact = traffic_by_kind(params, Protocol.SPLIT_SYNC, exact=True)
    assert exact[MessageKind.CLIENT_WEIGHTS] == Fraction(0.37) * 150 * 2
    assert traffic_by_kind(params, Protocol.SPLIT_SYNC)[MessageKind.CLIENT_WEIGHTS] == 55 * 2
    half = make_params(2, 10.5, 4, 1, 0.5)
    assert traffic_by_kind(half, Protocol.FEDERATED, exact=True)[MessageKind.GLOBAL_WEIGHTS] == 21
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
    with_labels = comm_report(make_params(2, 23, 6, 3, Fraction(15, 23)), Protocol.SPLIT_SYNC,
                                  include_labels=True, label_width=2)
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
    eff = efficiency_ratio(make_params(100, 10**6, 10**5, 1000, 0.2), Method.SPLIT_SYNC)
    assert eff.rho == pytest.approx(10 / 11, rel=1e-12)
    assert eff.winner is Winner.FEDERATED

    eff = efficiency_ratio(make_params(4, 10, 0, 1, 0.5), Method.SPLIT_SYNC)
    assert eff.rho == pytest.approx(4.0)
    assert eff.winner is Winner.SPLIT

    eff = efficiency_ratio(make_params(10, 2000, 1000, 10, 1.0), Method.SPLIT_SYNC)
    assert eff.rho == pytest.approx(1.0, rel=1e-15)
    assert eff.winner is Winner.TIE


def test_efficiency_undefined_denominator_is_split_with_inf():
    eff = efficiency_ratio(make_params(3, 10, 0, 1, 0.0), Method.SPLIT_SYNC)
    assert math.isinf(eff.rho) and eff.winner is Winner.SPLIT
    eff = efficiency_ratio(make_params(3, 10, 0, 1, 0.7), Method.SPLIT_NOSYNC)
    assert math.isinf(eff.rho) and eff.winner is Winner.SPLIT


def test_efficiency_federated_against_itself_is_a_tie():
    eff = efficiency_ratio(make_params(2, 10, 4, 1, 0.5), Method.FEDERATED)
    assert eff.rho == 1.0 and eff.winner is Winner.TIE


def test_rho_sign_matches_total_comparison():
    rng = np.random.default_rng(7)
    for _ in range(200):
        k = int(rng.integers(1, 20))
        n = int(rng.integers(1, 10**4))
        p = k * int(rng.integers(0, 100))
        q = int(rng.integers(1, 100))
        eta = Fraction(int(rng.integers(0, n + 1)), n)
        params = make_params(k, n, p, q, eta)
        batch = int(rng.integers(1, 6))
        for variant in (Method.SPLIT_SYNC, Method.SPLIT_NOSYNC, Method.SPLIT_SYNC_BATCH):
            eff = efficiency_ratio(params, variant, batch)
            fed = comm_report(params, Protocol.FEDERATED).total_scalars
            split = comm_report(params, variant, batch_size=batch).total_scalars
            if eff.winner is Winner.TIE:
                assert fed == split
            else:
                assert (eff.rho > 1) == (fed > split)


def test_rho_invariant_under_epochs_and_byte_width():
    base = make_params(8, 5000, 400, 25, 0.3)
    scaled = make_params(8, 5000, 400, 25, 0.3, bytes_per_scalar=8, epochs=7)
    for variant in (Method.SPLIT_SYNC, Method.SPLIT_NOSYNC):
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

    for protocol, batch in ((Method.SPLIT_SYNC, 1), (Method.SPLIT_NOSYNC, 1),
                            (Method.SPLIT_SYNC_BATCH, 1), (Method.SPLIT_SYNC_BATCH, 64)):
        def rho_of(**kw):
            a = dict(base, **kw)
            return efficiency_ratio(make_params(a["K"], a["N"], a["p"], a["q"], a["eta"]),
                                    protocol, batch).rho

        for key, grid in (("N", ns), ("p", ps[::-1]), ("q", qs[::-1]), ("eta", etas[::-1])):
            values = [rho_of(**{key: g}) for g in grid]
            assert all(a <= b for a, b in zip(values, values[1:])), (protocol, batch, key, values)
        if protocol is not Method.SPLIT_SYNC_BATCH:
            assert all(rho_of(K=a) <= rho_of(K=b) for a, b in zip(ks, ks[1:])), protocol
        if protocol is Method.SPLIT_SYNC:
            assert all(rho_of(K=a) < rho_of(K=b) for a, b in zip(ks, ks[1:]))
            assert all(rho_of(N=a) < rho_of(N=b) for a, b in zip(ns, ns[1:]))
            assert all(rho_of(p=a) > rho_of(p=b) for a, b in zip(ps, ps[1:]))
            assert all(rho_of(q=a) > rho_of(q=b) for a, b in zip(qs, qs[1:]))


# --- break-even --------------------------------------------------------------

def test_break_even_examples():
    assert break_even_model_size(1000, 10, 10, 1.0, Method.SPLIT_SYNC) == pytest.approx(2000.0)
    assert break_even_model_size(1000, 10, 10, variant=Method.SPLIT_NOSYNC) == pytest.approx(1000.0)


def test_break_even_eta_zero_matches_nosync():
    for p, q, k in ((1000, 10, 10), (7, 3, 2), (123, 45, 6)):
        sync = break_even_model_size(p, q, k, 0.0, Method.SPLIT_SYNC)
        nosync = break_even_model_size(p, q, k, variant=Method.SPLIT_NOSYNC)
        assert sync == pytest.approx(nosync, rel=1e-15)


def test_break_even_degenerate_inputs():
    with pytest.raises(InvalidParam):
        break_even_model_size(0, 10, 10, 0.5)
    with pytest.raises(InvalidParam):
        break_even_model_size(10, 0, 10, 0.5)


def test_break_even_round_trip_spot():
    n_star = break_even_model_size(1000, 10, 10, 1.0, Method.SPLIT_SYNC)
    eff = efficiency_ratio(make_params(10, n_star, 1000, 10, 1.0), Method.SPLIT_SYNC)
    assert eff.winner is Winner.TIE


def _line(params_at, protocol, batch):
    """(A, B) of the exact total A + B*N, read off traffic_by_kind at N = 1 and 2."""
    one, two = (sum(traffic_by_kind(params_at(n), protocol, batch_size=batch, exact=True).values())
                for n in (1, 2))
    return one - (two - one), two - one


@settings(max_examples=300, deadline=None)
@given(
    k=st.integers(1, 3000),
    records_per_client=st.integers(1, 1000),
    spare=st.integers(0, 2999),
    q=st.integers(1, 2048),
    eta=st.one_of(st.floats(0, 1), st.integers(1, 10**6).flatmap(
        lambda b: st.integers(0, b).map(lambda a: Fraction(a, b)))),
    batch=st.integers(1, 64),
    protocol=st.sampled_from([Protocol.SPLIT_SYNC, Protocol.SPLIT_NOSYNC, Protocol.SPLIT_SYNC_BATCH]),
)
def test_break_even_is_the_exact_crossing_of_the_two_lines(k, records_per_client, spare, q, eta, batch,
                                                           protocol):
    p = k * records_per_client + spare % k  # p >= K, so N* >= 1 wherever it exists

    def params_at(n):
        return ScenarioParams(k, n, p, q, eta)

    a_s, b_s = _line(params_at, protocol, batch)
    a_f, b_f = _line(params_at, Protocol.FEDERATED, 1)
    if b_s >= b_f:  # split moves at least as many weights: no N balances the two
        with pytest.raises(InvalidParam, match=f"K={k}"):
            break_even_model_size(p, q, k, eta, protocol, batch)
        return
    n_star = (a_s - a_f) / (b_f - b_s)
    split, fed = (sum(traffic_by_kind(params_at(n_star), m, batch_size=batch, exact=True).values())
                  for m in (protocol, Protocol.FEDERATED))
    assert split == fed
    assert efficiency_ratio(params_at(n_star), protocol, batch).winner is Winner.TIE
    # correctly rounded: float() of a Fraction is the nearest float
    assert break_even_model_size(p, q, k, eta, protocol, batch) == float(n_star)
    curve = break_even_curve(p, q, eta, [k, 2 * k], protocol, batch)
    assert curve.points[0] == (k, float(n_star))
    # sync_batch's O(1) hand-off count equals the count over the K-long shard list
    assert traffic_by_kind(params_at(1), protocol, batch_size=batch) == traffic_by_kind(
        params_at(1), protocol, shard_sizes(p, k, strict=False), batch_size=batch)


def test_break_even_without_a_crossing_raises():
    # one client with six batches hands off 6*eta*N > 2N for eta = 15/23: no N* at K=1
    with pytest.raises(InvalidParam, match="K=1"):
        break_even_model_size(6, 3, 1, Fraction(15, 23), Protocol.SPLIT_SYNC_BATCH)
    for protocol in (Protocol.SPLIT_SYNC, Protocol.SPLIT_NOSYNC, Protocol.SPLIT_SYNC_BATCH):
        with pytest.raises(InvalidParam):
            break_even_model_size(6, 3, 0, 0.5, protocol)
    with pytest.raises(InvalidParam, match="K=1"):
        break_even_curve(6, 3, Fraction(15, 23), [1, 2, 4], Protocol.SPLIT_SYNC_BATCH)
    with pytest.raises(InvalidParam):  # federated against itself ties at every N
        break_even_model_size(6, 3, 2, 0.5, Protocol.FEDERATED)
    assert break_even_model_size(6, 3, 2, Fraction(15, 23), Protocol.SPLIT_SYNC_BATCH) == 414


def test_break_even_curve_decreasing_in_k():
    curve = break_even_curve(1000, 10, 1.0, [1, 10, 100], Method.SPLIT_SYNC)
    values = [n for _, n in curve.points]
    assert values == pytest.approx([20000.0, 2000.0, 200.0])
    assert all(a > b for a, b in zip(values, values[1:]))


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
