#!/usr/bin/env python3
"""Break-even curves: the (K, N) hyperbola separating the two regimes.

Solving rho = 1 for N gives N* = 2pq / ((2 - eta) K) with client weight
sharing and N* = pq / K without. Moving the cut deeper into the network
changes q and eta together, which shifts the whole curve; this script traces
that for three cuts of one architecture and writes CSV plus SVG artifacts.
"""

import os

from splitfed import ModelSpec, Protocol, break_even_curve, cut_stats, efficiency_ratio
from splitfed import ScenarioParams
from splitfed.svg import render_breakeven_svg

OUT_DIR = os.path.join(os.path.dirname(__file__), "out")
os.makedirs(OUT_DIR, exist_ok=True)

P, CLIENT_COUNTS = 100_000, [1, 10, 100, 1000, 10_000]

print("=" * 72)
print("1. One curve, checked against the ratio")
print("=" * 72)
# K and N stand in for the curve's two axes, which it does not read
params = ScenarioParams(clients=1, model_params=1, dataset_size=1000, smashed_size=10, client_fraction=1.0)
curve = break_even_curve(params, [1, 10, 100], Protocol.SPLIT_SYNC)
for k, n_star in curve.points:
    eff = efficiency_ratio(params._replace(clients=k, model_params=n_star), Protocol.SPLIT_SYNC)
    print(f"  K={k:<6} N*={n_star:<10.6g} rho(N*)={eff.rho:.15f} -> {eff.winner.value}")

print()
print("=" * 72)
print("2. Moving the cut: wider smashed layer, more client-side weights")
print("=" * 72)
# A narrowing feature extractor: cutting later shrinks q but grows eta.
spec = ModelSpec((256, 128, 64, 32, 8))
for cut in range(1, spec.weight_layers):
    q, eta = cut_stats(spec, cut)
    curve = break_even_curve(ScenarioParams.from_model(spec, cut, clients=1, dataset_size=P), CLIENT_COUNTS,
                             Protocol.SPLIT_SYNC)
    csv_path = os.path.join(OUT_DIR, f"breakeven_cut{cut}.csv")
    svg_path = os.path.join(OUT_DIR, f"breakeven_cut{cut}.svg")
    with open(csv_path, "w") as fh:
        fh.write("K,N_break_even\n")
        for k, n_star in curve.points:
            fh.write(f"{k},{n_star:.12g}\n")
    render_breakeven_svg(curve, svg_path)
    row = "  ".join(f"K={k}: {n:.3g}" for k, n in curve.points)
    print(f"  cut {cut} (q={q}, eta={float(eta):.4f}): {row}")
    print(f"    wrote {csv_path} and {svg_path}")

print()
print("Above each curve (bigger models) split learning is cheaper; below it")
print("federated averaging is. Doubling q doubles every N*; more clients")
print("always lowers the break-even model size.")
