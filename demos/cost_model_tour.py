#!/usr/bin/env python3
"""Tour of the closed-form cost model.

Walks the three per-epoch totals, shows how the winner flips as clients and
model size move, and evaluates the built-in use-case suites.
"""

from fractions import Fraction

from splitfed import Protocol, ScenarioParams, comm_report, efficiency_ratio
from splitfed.scenarios import BUILTIN_SUITES, load_scenario

print("=" * 72)
print("1. The three totals on a toy scenario")
print("=" * 72)

# A 23-parameter dense net cut so that 15 parameters sit client-side,
# 6 records across 2 clients, smashed width 3.
params = ScenarioParams(clients=2, model_params=23, dataset_size=6,
                        smashed_size=3, client_fraction=Fraction(15, 23))
for protocol in (Protocol.SPLIT_SYNC, Protocol.SPLIT_NOSYNC, Protocol.FEDERATED):
    report = comm_report(params, protocol)
    print(f"  {report.method.label:<12} per-client {report.per_client_scalars:>6} scalars"
          f"   total {report.total_scalars:>6} scalars ({report.total_bytes} bytes at 4 B/scalar)")

print()
print("With weight sharing the split total is 2pq + eta*N*K = 36 + 30 = 66;")
print("without sharing it is just the activation/gradient flow 2pq = 36;")
print("federated moves the whole model down and up per client: 2KN = 92.")

print()
print("=" * 72)
print("2. The winner flips with scale")
print("=" * 72)
print(f"  {'K':>8} {'N':>12} {'p':>12} {'rho':>12}  winner")
for k, n, p in [
    (5, 10**6, 10**6),
    (50, 10**6, 10**6),
    (50, 10**8, 10**6),
    (5000, 10**8, 10**6),
    (5, 10**8, 10**8),
]:
    sp = ScenarioParams(k, n, p, 1000, 0.05)
    eff = efficiency_ratio(sp, Protocol.SPLIT_SYNC)
    print(f"  {k:>8} {n:>12} {p:>12} {eff.rho:>12.4f}  {eff.winner.value}")
print()
print("More clients or a bigger model pushes rho up (split wins); more data")
print("pushes it down (federated wins).")

print()
print("=" * 72)
print("3. Built-in use-case suites")
print("=" * 72)
for suite, cases in BUILTIN_SUITES.items():
    print(f"  -- {suite}")
    for name in cases:
        sp = load_scenario(name).params()
        eff = efficiency_ratio(sp, Protocol.SPLIT_SYNC)
        print(f"     {name:<20} K={sp.clients:<9} N={sp.model_params:<12} "
              f"p={sp.dataset_size:<10} rho={eff.rho:>10.3f}  {eff.winner.value}")
