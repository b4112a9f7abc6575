"""Command-line front end: analyze, simulate, breakeven, sweep.

Exit codes: 0 ok, 2 scenario/config error, 3 domain error (for example a
divisibility or range violation), 4 ledger-versus-formula mismatch. The
environment variable SPLITFED_SEED overrides the scenario seed in simulate,
the only subcommand that uses a seed; no other subcommand reads it.

CSV output is byte-stable across runs: integers verbatim, reals with 12
significant digits, "\n" line endings.
"""

from __future__ import annotations

import argparse
import math
import operator
import os
import sys
from fractions import Fraction

from . import protocol_sim
from .cost_model import (
    CommReport,
    MessageKind,
    Protocol,
    break_even_curve,
    comm_report,
    efficiency_ratio,
    reported,
    sweep,
)
from .errors import InvalidParam, ScenarioError, SplitFedError
from .nn_core import random_dataset
from .scenarios import PARAM_KEYS, _as_field, _parse_number, load_scenario, load_suite
from .svg import render_breakeven_svg

# cmd_simulate refuses anything bigger than these, before it allocates; the
# simulator moves real tensors and is meant for desk-scale cross-checks, not
# production training.
SIMULATE_MAX_PARAMS = 10**6  # N
SIMULATE_MAX_RECORDS = 10**5  # p
# K * N bounds a split run's K held client vectors (up to N float64 scalars
# each, 80 MB at the limit) and the K hand-offs a round copies. Federated folds
# each upload into a running mean and holds five N-vectors whatever K is, so
# K * N does not bound it.
SIMULATE_MAX_HELD_SCALARS = 10**7
# epochs * K * N bounds a federated run's copy and fold work: every round
# copies the N-scalar global model into each of K clients' buffers and folds
# the K uploads into the running sum.
SIMULATE_MAX_FOLDED_SCALARS = 10**9
# p * (input + output width) bounds the synthetic dataset, generated whole
# before training (80 MB of float64 at the limit).
SIMULATE_MAX_DATA_SCALARS = 10**7
# epochs * max(p, K) bounds a run's training steps and its ledger, which logs
# at most 4 messages per batch plus 2 per client in every epoch.
SIMULATE_MAX_RECORD_EPOCHS = 10**6
# breakeven refuses a --k-range with more points than this.
K_RANGE_MAX_POINTS = 10**6

# The parameter columns of a report row, field -> key (bytes_per_scalar shows
# only in the byte columns), and the getter that reads them from a dict of fields.
REPORT_KEYS = {name: key for name, key in PARAM_KEYS.items() if name != "bytes_per_scalar"}
_param_columns = operator.itemgetter(*REPORT_KEYS)
CSV_HEADER = [
    "method", *REPORT_KEYS.values(),
    "per_client_scalars", "total_scalars", "per_client_bytes", "total_bytes",
    "rho", "winner",
]


def _fmt(x) -> str:
    if isinstance(x, Fraction):
        x = float(x)
    if isinstance(x, int):
        return str(x)
    if isinstance(x, float):
        if math.isinf(x):
            return "inf"
        if math.isnan(x):
            return "nan"
        if x == int(x) and abs(x) < 1e15:
            return str(int(x))
        return format(x, ".12g")
    return str(x)


def _write_csv_lines(path: str, header: list[str], rows: list) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _report_rows(values: dict, reports: dict[Protocol, CommReport], rho, winner) -> list[tuple]:
    columns = _param_columns(values)
    return [
        (method.label, *columns, r.per_client_scalars, r.total_scalars, r.per_client_bytes, r.total_bytes,
         rho, winner)
        for method, r in reports.items()
    ]


def _error_rows(values: dict, message: str) -> list[tuple]:
    return [("Error", *_param_columns(values), "", "", "", "", "", message)]


def compared_protocol(variant: str) -> Protocol:
    """What analyze, sweep and breakeven weigh against federated: the scenario's own protocol, or sync."""
    return Protocol.SPLIT_SYNC if variant == Protocol.FEDERATED else Protocol(variant)


def cmd_analyze(args) -> int:
    sc = load_scenario(args.scenario)
    split = compared_protocol(args.variant or sc.variant)
    params = sc.params()
    values = vars(params)
    strict = not args.lenient_shards
    label_width = sc.label_width if args.include_labels else 0
    reports = {m: comm_report(params, m, strict, label_width, sc.batch_size) for m in reported(split)}
    eff = efficiency_ratio(params, split, sc.batch_size)

    print(f"scenario {sc.name}: " + " ".join(f"{key}={_fmt(values[name])}" for name, key in REPORT_KEYS.items()))
    print(f"{'method':<14} {'per-client':>16} {'total':>16} {'per-client bytes':>18} {'total bytes':>16}")
    for method, r in reports.items():
        print(
            f"{method.label:<14} {r.per_client_scalars:>16} {r.total_scalars:>16} "
            f"{r.per_client_bytes:>18} {r.total_bytes:>16}"
        )
    print(f"rho ({split.label} vs Federated) = {_fmt(eff.rho)}  winner: {eff.winner.value}")

    if args.csv:
        _write_csv_lines(args.csv, CSV_HEADER, _report_rows(values, reports, eff.rho, eff.winner.value))
        print(f"wrote {args.csv}")
    return 0


def cmd_simulate(args) -> int:
    sc = load_scenario(args.scenario)
    env_seed = os.environ.get("SPLITFED_SEED")
    if env_seed is not None:
        try:
            sc.seed = int(env_seed)
        except ValueError as exc:
            raise ScenarioError(f"SPLITFED_SEED must be an integer, got {env_seed!r}") from exc
    if not sc.is_model_form:
        raise ScenarioError("simulate needs a model-form scenario (layer_widths + cut_index)")
    variant = Protocol(args.variant or sc.variant)
    if not math.isfinite(args.lr):
        raise InvalidParam(f"--lr must be finite, got {args.lr}")
    params = sc.params()
    k, n, p, epochs = params.clients, params.model_params, params.dataset_size, params.epochs
    held = (("epochs*K*N", epochs * k * n, SIMULATE_MAX_FOLDED_SCALARS) if variant is Protocol.FEDERATED
            else ("K*N", k * n, SIMULATE_MAX_HELD_SCALARS))
    for name, size, limit in (
        (PARAM_KEYS["model_params"], n, SIMULATE_MAX_PARAMS),
        (PARAM_KEYS["dataset_size"], p, SIMULATE_MAX_RECORDS),
        held,
        ("epochs*max(p,K)", epochs * max(p, k), SIMULATE_MAX_RECORD_EPOCHS),
        ("p*(input+output width)", p * (sc.model.input_width + sc.model.output_width), SIMULATE_MAX_DATA_SCALARS),
    ):
        if size > limit:
            raise InvalidParam(f"scenario too large to simulate ({name}={size} > {limit})")
    strict = not args.lenient_shards
    x, y = random_dataset(sc.model, params.dataset_size, sc.seed)
    shards = protocol_sim.partition_dataset(x, y, params.clients, strict=strict)

    if variant is Protocol.FEDERATED:
        run = protocol_sim.run_federated_training(
            sc.model, shards, rounds=params.epochs, local_lr=args.lr, seed=sc.seed, batch_size=sc.batch_size
        )
        losses = run.round_losses
    else:
        run = protocol_sim.run_split_training(
            sc.model, sc.cut_index, shards, variant,
            epochs=params.epochs, lr=args.lr, seed=sc.seed, batch_size=sc.batch_size,
        )
        losses = run.epoch_losses

    ledger = run.ledger
    if args.inject_fault:
        # verification self-test: one bogus message must trip a mismatch
        ledger.append(0, protocol_sim.client_id(1), protocol_sim.SERVER, MessageKind.ACTIVATIONS,
                      params.smashed_size)

    if args.csv:
        ledger.to_csv(args.csv)
        print(f"wrote {args.csv}")
    if args.loss_csv:
        _write_csv_lines(args.loss_csv, ["epoch", "loss"], [[i, loss] for i, loss in enumerate(losses)])
        print(f"wrote {args.loss_csv}")

    exclude = () if args.include_labels else (MessageKind.LABELS,)
    measured = protocol_sim.measured_comm(ledger, params.clients, variant, exclude=exclude,
                                          bytes_per_scalar=params.bytes_per_scalar)
    verdict = protocol_sim.verify_against_model(
        ledger, params, variant, shard_sizes_override=shards.sizes, batch_size=sc.batch_size
    )

    print(f"scenario {sc.name}: variant={variant.value} K={params.clients} p={params.dataset_size} "
          f"epochs={params.epochs} seed={sc.seed}")
    totals = ledger.totals_by_kind()
    print("traffic by kind (scalars): " + " ".join(f"{k.value}={totals[k]}" for k in MessageKind))
    print(f"measured total ({'labels included' if args.include_labels else 'labels excluded'}): "
          f"{measured.total_scalars} scalars, {measured.total_bytes} bytes; "
          f"per client max {measured.per_client_scalars} scalars")
    print(f"verification: {verdict.describe()}")
    return 0 if verdict.matches else 4


def _parse_k_range(text: str) -> list[int]:
    """A:B:STEP (arithmetic, inclusive), A:B:xF (geometric), or a comma list."""
    text = text.strip()
    try:
        if ":" not in text:
            values = [int(v) for v in text.split(",") if v.strip()]
        else:
            parts = text.split(":")
            if len(parts) == 2:
                parts.append("1")
            if len(parts) != 3:
                raise ValueError(f"expected A:B:STEP, got {text!r}")
            lo, hi = int(parts[0]), int(parts[1])
            step = parts[2].strip()
            values = []
            if step.lower().startswith("x"):
                factor = int(step[1:])
                if factor < 2 or lo < 1:  # else k never passes hi
                    raise ValueError("a geometric range needs A >= 1 and a factor >= 2")
                k = lo
                while k <= hi:
                    values.append(k)
                    k *= factor
            else:
                stride = int(step)
                if stride < 1:
                    raise ValueError("step must be >= 1")
                points = range(lo, hi + 1, stride)
                if len(points) > K_RANGE_MAX_POINTS:
                    raise InvalidParam(
                        f"K range {text!r} has {len(points)} points, more than {K_RANGE_MAX_POINTS}"
                    )
                values = list(points)
    except ValueError as exc:
        raise InvalidParam(f"bad K range {text!r}: {exc}") from exc
    if not values or any(v < 1 for v in values):
        raise InvalidParam(f"K range {text!r} yields no valid client counts")
    return values


def cmd_breakeven(args) -> int:
    p, q, eta = args.p, args.q, args.eta
    scenario_variant, batch_size = Protocol.SPLIT_SYNC, 1
    if args.scenario:
        sc = load_scenario(args.scenario)
        params, scenario_variant, batch_size = sc.params(), sc.variant, sc.batch_size
        p = params.dataset_size if p is None else p
        q = params.smashed_size if q is None else q
        eta = params.client_fraction if eta is None else eta
    if p is None or q is None or eta is None:
        raise ScenarioError("breakeven needs p, q and eta (via --scenario or --p/--q/--eta)")

    variant = compared_protocol(args.variant or scenario_variant)
    ks = _parse_k_range(args.k_range)
    curve = break_even_curve(p, q, eta, ks, variant, batch_size)

    print(f"break-even curve: p={_fmt(p)} q={_fmt(q)} eta={_fmt(eta)} variant={variant.label}")
    for k, n_star in curve.points:
        print(f"  K={k:<10} N*={_fmt(n_star)}")
    if args.csv:
        _write_csv_lines(args.csv, [PARAM_KEYS["clients"], "N_break_even"], [[k, n] for k, n in curve.points])
        print(f"wrote {args.csv}")
    if args.svg:
        render_breakeven_svg(curve, args.svg)
        print(f"wrote {args.svg}")
    return 0


def cmd_sweep(args) -> int:
    scenarios = load_suite(args.scenario)
    strict = not args.lenient_shards
    rows_out: list[tuple] = []
    cells = 0
    for sc in scenarios:
        split = compared_protocol(args.variant or sc.variant)
        label_width = sc.label_width if args.include_labels else 0
        for row in sweep(sc.grid(), split, strict, label_width, sc.batch_size):
            cells += 1
            if row.error is not None:
                rows_out.extend(_error_rows(row.values, row.error))
            else:
                rows_out.extend(
                    _report_rows(row.values, row.reports, row.efficiency.rho, row.efficiency.winner.value)
                )
    print(f"swept {cells} parameter combinations ({len(rows_out)} CSV rows)")
    if args.csv:
        _write_csv_lines(args.csv, CSV_HEADER, rows_out)
        print(f"wrote {args.csv}")
    else:
        print(",".join(CSV_HEADER))
        for row in rows_out:
            print(",".join(_fmt(v) for v in row))
    return 0


def _param_arg(name: str):
    """argparse type reading ScenarioParams field ``name`` as a scenario file
    does: underscores, scientific notation, and an exact ``a/b`` for eta."""
    key = PARAM_KEYS[name]

    def parse(text: str):
        try:
            return _as_field(name, _parse_number(text, key), key)
        except ScenarioError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc

    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splitfed",
        description="Communication cost analysis and simulation of split versus federated training.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, scenario_required=True, counts_traffic=True):
        p.add_argument("--scenario", required=scenario_required,
                       help="scenario file path or built-in name")
        p.add_argument("--variant", choices=[protocol.value for protocol in Protocol], default=None,
                       help="protocol to simulate or compare (default: scenario's)")
        if counts_traffic:
            p.add_argument("--include-labels", action="store_true",
                           help="count label transfers too")
            p.add_argument("--lenient-shards", action="store_true",
                           help="allow p not divisible by K (remainder to the first clients)")
        p.add_argument("--csv", metavar="PATH", default=None, help="write results as CSV")

    p_analyze = sub.add_parser("analyze", help="closed-form reports and the winner for one scenario")
    common(p_analyze)
    p_analyze.set_defaults(func=cmd_analyze)

    p_sim = sub.add_parser("simulate", help="run the protocol simulator and cross-check the ledger")
    common(p_sim)
    p_sim.add_argument("--loss-csv", metavar="PATH", default=None, help="write per-epoch loss CSV")
    p_sim.add_argument("--lr", type=float, default=0.01, help="SGD learning rate (default 0.01)")
    p_sim.add_argument("--inject-fault", action="store_true",
                       help="append one bogus message before verification (self-test)")
    p_sim.set_defaults(func=cmd_simulate)

    p_be = sub.add_parser("breakeven", help="break-even model size over a range of client counts")
    common(p_be, scenario_required=False, counts_traffic=False)
    p_be.add_argument("--p", type=_param_arg("dataset_size"), default=None, help="dataset size")
    p_be.add_argument("--q", type=_param_arg("smashed_size"), default=None, help="smashed layer width")
    p_be.add_argument("--eta", type=_param_arg("client_fraction"), default=None,
                      help="client-side parameter fraction, a decimal or an exact a/b")
    p_be.add_argument("--k-range", required=True,
                      help="client counts: A:B:STEP, A:B:xF (geometric), or comma list; "
                           f"at most {K_RANGE_MAX_POINTS} points")
    p_be.add_argument("--svg", metavar="PATH", default=None, help="write an SVG plot")
    p_be.set_defaults(func=cmd_breakeven)

    p_sweep = sub.add_parser("sweep", help="evaluate a parameter grid or a built-in suite")
    common(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SplitFedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
