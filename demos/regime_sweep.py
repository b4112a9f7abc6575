#!/usr/bin/env python3
"""Parameter sweeps: how the efficiency ratio moves across regimes.

Sweeps rho over client count and model size (it rises in both) and over
dataset size (it falls), then prints the built-in suites as one sweep table,
the same data the CLI's ``sweep`` subcommand emits as CSV.
"""

from splitfed import Protocol, sweep
from splitfed.scenarios import load_suite

print("=" * 72)
print("1. rho across a K x N grid (p=1e5, q=100, eta=0.3)")
print("=" * 72)
grid = {
    "clients": [1, 10, 100, 1000],
    "model_params": [10**4, 10**5, 10**6, 10**7],
    "dataset_size": 10**5,
    "smashed_size": 100,
    "client_fraction": 0.3,
}
rows = sweep(grid, variant=Protocol.SPLIT_SYNC)
ns = grid["model_params"]
header = "K / N"
print(f"{header:>8} " + " ".join(f"{n:>12}" for n in ns))
for i, k in enumerate(grid["clients"]):
    cells = rows[i * len(ns) : (i + 1) * len(ns)]
    line = " ".join(f"{cell.efficiency.rho:>12.4g}" for cell in cells)
    print(f"{k:>8} {line}")
print("rho grows along both axes: every extra client or parameter favors split.")

print()
print("=" * 72)
print("2. rho against dataset size (K=100, N=1e6, q=100, eta=0.3)")
print("=" * 72)
rows = sweep({
    "clients": 100,
    "model_params": 10**6,
    "dataset_size": [10**4, 10**5, 10**6, 10**7, 10**8],
    "smashed_size": 100,
    "client_fraction": 0.3,
})
for row in rows:
    eff = row.efficiency
    print(f"  p={row.values['dataset_size']:>10}  rho={eff.rho:>10.4g}  {eff.winner.value}")
print("More data favors federated: the split side pays 2pq while the")
print("federated side does not see p at all.")

print()
print("=" * 72)
print("3. Built-in suites as sweep tables")
print("=" * 72)
for suite in ("smartwatch", "hospital", "biobank"):
    print(f"  -- {suite}")
    for sc in load_suite(suite):
        for row in sweep(sc.grid(), variant=Protocol.SPLIT_SYNC):
            sync = row.reports[Protocol.SPLIT_SYNC]
            fed = row.reports[Protocol.FEDERATED]
            print(f"     {sc.name:<20} split {sync.total_scalars:>16}  "
                  f"federated {fed.total_scalars:>16}  rho={row.efficiency.rho:>10.3f}  "
                  f"{row.efficiency.winner.value}")
