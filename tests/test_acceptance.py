"""Acceptance criteria, one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass lines.
"""

import math
import time

import numpy as np
import pytest

from splitfed import (
    Activation,
    MessageKind,
    Method,
    ModelSpec,
    Protocol,
    ScenarioParams,
    SplitVariant,
    Winner,
    backward,
    break_even_model_size,
    comm_report,
    efficiency_ratio,
    forward,
    forward_back,
    forward_front,
    init_params,
    partition_dataset,
    random_dataset,
    run_federated_training,
    run_split_training,
    sgd_step,
    split_params,
    verify_against_model,
)
from splitfed.cli import main
from splitfed.nn_core import mse_loss
from splitfed.protocol_sim import ShardedDataset
from splitfed.scenarios import load_scenario


def test_ledger_formula_identity_randomized():
    """Simulated traffic (Labels excluded) equals the closed forms exactly:
    2pq + eta*N*K per epoch with weight sharing, 2pq per K-epoch cycle
    without, 2KN per federated round. >= 200 configurations, zero tolerance,
    under 30 seconds."""
    rng = np.random.default_rng(20250809)
    start = time.monotonic()
    configs = 0
    arch_index = 0
    while configs < 200:
        arch_index += 1
        depth = int(rng.integers(3, 6))  # 2..4 weight layers, so 1..3 cuts
        widths = tuple(int(rng.integers(1, 17)) for _ in range(depth))
        spec = ModelSpec(widths, Activation.SIGMOID)
        k = int(rng.integers(1, 9))
        p = k * int(rng.integers(0, 256 // k + 1))
        seed = int(rng.integers(0, 2**32))
        x, y = random_dataset(spec, p, seed)
        shards = partition_dataset(x, y, k)
        batch = max(1, p)  # traffic totals are batch-size invariant
        for cut in range(1, spec.weight_layers):
            configs += 1
            epochs = int(rng.integers(1, 3))
            params = ScenarioParams.from_model(spec, cut, clients=k, dataset_size=p, epochs=epochs)

            sync = run_split_training(spec, cut, shards, SplitVariant.SYNC_EPOCH,
                                      epochs=epochs, lr=0.01, seed=seed, batch_size=batch)
            assert sync.ledger.total_scalars() == comm_report(params, Protocol.SPLIT_SYNC).total_scalars
            assert verify_against_model(sync.ledger, params, SplitVariant.SYNC_EPOCH).matches

            cycle_params = ScenarioParams.from_model(spec, cut, clients=k, dataset_size=p,
                                                     epochs=k * epochs)
            alt = run_split_training(spec, cut, shards, SplitVariant.ALTERNATING,
                                     epochs=k * epochs, lr=0.01, seed=seed, batch_size=batch)
            assert alt.ledger.total_scalars() == comm_report(params, Protocol.SPLIT_NOSYNC).total_scalars
            assert alt.ledger.totals_by_kind()[MessageKind.CLIENT_WEIGHTS] == 0
            assert verify_against_model(alt.ledger, cycle_params, SplitVariant.ALTERNATING).matches

            fed = run_federated_training(spec, shards, rounds=epochs, local_lr=0.01,
                                         seed=seed, batch_size=batch)
            assert fed.ledger.total_scalars() == comm_report(params, Protocol.FEDERATED).total_scalars
            assert verify_against_model(fed.ledger, params, Method.FEDERATED).matches
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"identity sweep took {elapsed:.1f}s"
    print(f"ACCEPTANCE PASS: ledger-formula identity "
          f"({configs} configurations over {arch_index} architectures, {elapsed:.1f}s, zero tolerance)")


def test_break_even_reproduction():
    """rho(N*) = 1 within 1e-12 relative for 1000 random (p, q, K, eta) per
    variant, and the curve CSV at p=1000, q=10, eta=1 hits {20000, 2000, 200}
    at K = {1, 10, 100}."""
    rng = np.random.default_rng(424242)
    accepted = 0
    while accepted < 1000:
        p = int(10 ** rng.uniform(2, 6))
        q = int(10 ** rng.uniform(0, 4))
        k = int(10 ** rng.uniform(0, 3))
        eta = float(rng.choice([0.0, 1.0, rng.uniform()]))
        n_sync = break_even_model_size(p, q, k, eta, Method.SPLIT_SYNC)
        n_nosync = break_even_model_size(p, q, k, variant=Method.SPLIT_NOSYNC)
        if n_sync < 1 or n_nosync < 1:
            continue
        accepted += 1
        assert n_sync == pytest.approx(2 * p * q / ((2 - eta) * k), rel=1e-12)
        assert n_nosync == pytest.approx(p * q / k, rel=1e-12)
        eff = efficiency_ratio(ScenarioParams(k, n_sync, p, q, eta), Method.SPLIT_SYNC)
        assert abs(eff.rho - 1.0) <= 1e-12 and eff.winner is Winner.TIE
        eff = efficiency_ratio(ScenarioParams(k, n_nosync, p, q, eta), Method.SPLIT_NOSYNC)
        assert abs(eff.rho - 1.0) <= 1e-12 and eff.winner is Winner.TIE

    import tempfile, os
    with tempfile.TemporaryDirectory() as tmp:
        sync_csv = os.path.join(tmp, "sync.csv")
        assert main(["breakeven", "--p", "1000", "--q", "10", "--eta", "1",
                     "--k-range", "1,10,100", "--csv", sync_csv]) == 0
        with open(sync_csv) as fh:
            rows = fh.read().splitlines()
        assert rows == ["K,N_break_even", "1,20000", "10,2000", "100,200"]
        nosync_csv = os.path.join(tmp, "nosync.csv")
        assert main(["breakeven", "--p", "1000", "--q", "10", "--eta", "1", "--variant",
                     "nosync", "--k-range", "1,10,100", "--csv", nosync_csv]) == 0
        with open(nosync_csv) as fh:
            rows = fh.read().splitlines()
        assert rows == ["K,N_break_even", "1,10000", "10,1000", "100,100"]
    print("ACCEPTANCE PASS: break-even round trip (1000 draws per variant, |rho-1| <= 1e-12) "
          "and curve CSV values {20000, 2000, 200}")


def test_regime_classification():
    """Built-in scenarios land on the expected side of the break-even curve,
    and rho is monotone: increasing in K and N, decreasing in p and q."""
    expected = {
        "biobank": Winner.SPLIT,
        "smartwatch-case-1": Winner.SPLIT,
        "hospital-case-3": Winner.FEDERATED,
        "smartwatch-case-3": Winner.FEDERATED,
    }
    for name, winner in expected.items():
        params = load_scenario(name).params()
        eff = efficiency_ratio(params, Method.SPLIT_SYNC)
        assert eff.winner is winner, f"{name}: rho={eff.rho}"

    def rho(K=50, N=10**6, p=10**5, q=100, eta=0.3):
        return efficiency_ratio(ScenarioParams(K, N, p, q, eta), Method.SPLIT_SYNC).rho

    for grid, key, increasing in (
        ([1, 4, 16, 64, 256, 1024], "K", True),
        ([10**3, 10**4, 10**5, 10**6, 10**7], "N", True),
        ([10**3, 10**4, 10**5, 10**6, 10**7], "p", False),
        ([1, 10, 100, 1000, 10000], "q", False),
    ):
        values = [rho(**{key: g}) for g in grid]
        pairs = zip(values, values[1:])
        assert all((a < b) if increasing else (a > b) for a, b in pairs), (key, values)
    print("ACCEPTANCE PASS: regime classification (built-in winners and rho monotone "
          "in K, N up and p, q down)")


def test_numerical_core():
    """Gradients match central finite differences within 1e-6 relative;
    split and monolithic passes agree within 1e-12 relative (they are exact
    here); averaging identical clients reproduces single-client training bit
    for bit."""
    rng = np.random.default_rng(99)
    for activation in Activation:
        for _ in range(3):
            depth = int(rng.integers(3, 5))
            widths = tuple(int(rng.integers(1, 9)) for _ in range(depth))
            spec = ModelSpec(widths, activation)
            seed = int(rng.integers(0, 2**31))
            params = init_params(spec, seed)
            x, y = random_dataset(spec, int(rng.integers(1, 9)), seed + 1)
            analytic = backward(spec, params, x, y).param_grads
            h = 1e-5
            numeric = np.zeros_like(params)
            for i in range(params.size):
                up = params.copy(); up[i] += h
                dn = params.copy(); dn[i] -= h
                numeric[i] = (mse_loss(forward(spec, up, x).outputs, y)
                              - mse_loss(forward(spec, dn, x).outputs, y)) / (2 * h)
            rel = np.abs(analytic - numeric) / np.maximum(np.abs(analytic) + np.abs(numeric), 1e-300)
            rel[(analytic == 0) & (numeric == 0)] = 0.0
            assert rel.max() < 1e-6, (activation, widths, rel.max())

            full = forward(spec, params, x)
            for cut in range(1, spec.weight_layers):
                client, server = split_params(spec, cut, params)
                outputs = forward_back(spec, cut, server, forward_front(spec, cut, client, x))
                assert np.allclose(outputs, full.outputs, rtol=1e-12, atol=0.0)
                assert np.array_equal(outputs, full.outputs)  # exact, same operation order

    spec = ModelSpec((5, 4, 2))
    x, y = random_dataset(spec, 6, 123)
    clones = ShardedDataset(shards=tuple((x, y) for _ in range(5)))
    fed = run_federated_training(spec, clones, rounds=3, local_lr=0.05, seed=321)
    single = init_params(spec, 321)
    for _ in range(3):
        for i in range(x.shape[0]):
            grads = backward(spec, single, x[i : i + 1], y[i : i + 1]).param_grads
            single = sgd_step(single, grads, 0.05)
    assert np.array_equal(fed.global_params, single)
    print("ACCEPTANCE PASS: numerical core (gradcheck 1e-6, split equivalence exact, "
          "identical-client averaging bit-equal)")


def test_determinism_of_golden_ledgers(tmp_path):
    """Two runs of a golden scenario with the same seed emit byte-identical
    ledger CSVs."""
    for variant in ("sync", "nosync"):
        a = tmp_path / f"{variant}_a.csv"
        b = tmp_path / f"{variant}_b.csv"
        assert main(["simulate", "--scenario", "tiny-dense", "--variant", variant,
                     "--csv", str(a)]) == 0
        assert main(["simulate", "--scenario", "tiny-dense", "--variant", variant,
                     "--csv", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
    print("ACCEPTANCE PASS: determinism (byte-identical ledger CSVs across repeated runs)")
