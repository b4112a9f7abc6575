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
import contextlib
import math
import operator
import os
import sys
from fractions import Fraction

from . import protocol_sim
from .cost_model import (
    MessageKind,
    Protocol,
    SweepRow,
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
# sweep refuses a suite whose grids hold more cells than this, before it
# expands them: it holds every cell's SweepRow in memory, about 1.6 KB a cell.
SWEEP_MAX_CELLS = 10**5

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
    """One output value: an int verbatim; a real (a Fraction as its float) as an integer when
    integral and below 1e15 in size, "inf" if infinite, else to 12 significant digits; else str."""
    # exact types first: ints and floats skip isinstance, whose Fraction check goes through ABCMeta
    if type(x) is int:
        return str(x)
    if type(x) is not float:
        if isinstance(x, Fraction):
            x = float(x)
        elif not isinstance(x, float):
            return str(x)
    if x.is_integer() and -1e15 < x < 1e15:
        return str(int(x))
    if math.isinf(x):
        return "inf"
    return format(x, ".12g")  # "nan" for either NaN


@contextlib.contextmanager
def _csv_lines(path: str | None, header: list[str]):
    """The write function of a CSV stream, header written: a new file at ``path``, named on
    stdout once closed, or stdout itself when ``path`` is None. Lines go out as they are formatted."""
    with open(path, "w", encoding="utf-8", newline="") if path else contextlib.nullcontext(sys.stdout) as fh:
        fh.write(",".join(header) + "\n")
        yield fh.write
    if path:
        print(f"wrote {path}")


def _write_cell(write, cell: SweepRow) -> None:
    """One grid cell's CSV lines: an Error line, or a line per method. The columns
    the methods share (parameters, rho, winner) are formatted once."""
    columns = ",".join(map(_fmt, _param_columns(cell.values)))
    if cell.error is not None:
        write(f"Error,{columns},,,,,,{cell.error}\n")
        return
    tail = f"{_fmt(cell.efficiency.rho)},{cell.efficiency.winner.value}\n"
    for method, r in cell.reports.items():
        write(f"{method.label},{columns},{_fmt(r.per_client_scalars)},{_fmt(r.total_scalars)},"
              f"{_fmt(r.per_client_bytes)},{_fmt(r.total_bytes)},{tail}")


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
        with _csv_lines(args.csv, CSV_HEADER) as write:
            _write_cell(write, SweepRow(values, params, reports, eff, None))
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
        with _csv_lines(args.loss_csv, ["epoch", "loss"]) as write:
            for i, loss in enumerate(losses):
                write(f"{i},{_fmt(loss)}\n")

    exclude = () if args.include_labels else (MessageKind.LABELS,)
    measured = protocol_sim.measured_comm(ledger, params.clients, variant, exclude=exclude,
                                          bytes_per_scalar=params.bytes_per_scalar)
    verdict = protocol_sim.verify_against_model(ledger, params, variant, batch_size=sc.batch_size)

    print(f"scenario {sc.name}: variant={variant.value} K={params.clients} p={params.dataset_size} "
          f"epochs={params.epochs} seed={sc.seed}")
    totals = ledger.totals_by_kind()
    print("traffic by kind (scalars): " + " ".join(f"{k.value}={totals[k]}" for k in MessageKind))
    print(f"measured total ({'labels included' if args.include_labels else 'labels excluded'}): "
          f"{measured.total_scalars} scalars, {measured.total_bytes} bytes; "
          f"per client max {measured.per_client_scalars} scalars")
    print(f"verification: {verdict.describe()}")
    return 0 if verdict.matches else 4


def _k_int(item: str, where: str | int, least: int | None = None) -> int:
    """One integer of a K range at ``where``, a part or a comma-list item number; an
    error quotes that item alone, cut to 20 characters, never the whole range."""
    try:
        value = int(item)
    except ValueError:
        value = None
    if value is not None and (least is None or value >= least):
        return value
    shown = item.strip()
    shown = repr(shown) if len(shown) <= 20 else repr(shown[:20]) + "..."
    where = f"K at item {where}" if isinstance(where, int) else where
    if value is None:
        raise InvalidParam(f"bad K range: {where} is {shown}, not an integer")
    raise InvalidParam(f"bad K range: need {where} >= {least}, got {shown}")


def _parse_k_range(text: str) -> list[int]:
    """A:B:STEP (arithmetic, inclusive), A:B:xF (geometric), or a comma list.
    The points are counted before any list item is converted."""
    text = text.strip()
    if ":" not in text:
        items = text.split(",")
        count = sum(1 for v in items if v.strip())
        values = (_k_int(v, i, 1) for i, v in enumerate(items, 1) if v.strip())
    else:
        parts = text.split(":")
        if len(parts) == 2:
            parts.append("1")
        if len(parts) != 3:
            raise InvalidParam(f"bad K range: expected A:B:STEP, got {len(parts)} ':'-separated parts")
        lo, hi = _k_int(parts[0], "A", 1), _k_int(parts[1], "B")
        step = parts[2].strip()
        if step.lower().startswith("x"):
            factor = _k_int(step[1:], "F", 2)  # else k never passes hi
            values = []
            k = lo
            while k <= hi:
                values.append(k)
                k *= factor
        else:
            values = range(lo, hi + 1, _k_int(step, "STEP", 1))  # counted below before it is built
        # len() of a range fails beyond sys.maxsize points, so a range is counted by arithmetic
        count = len(values) if isinstance(values, list) else max(0, -((values.start - values.stop) // values.step))
    if count > K_RANGE_MAX_POINTS:
        raise InvalidParam(f"--k-range has {count} points, more than {K_RANGE_MAX_POINTS}")
    if not count:
        raise InvalidParam("K range yields no client counts")
    return list(values)


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
    show, header = sys.stdout.write, [PARAM_KEYS["clients"], "N_break_even"]
    # each N* is formatted once, for its stdout line and its CSV line
    with _csv_lines(args.csv, header) if args.csv else contextlib.nullcontext() as write:
        for k, n_star in curve.points:
            n_text = _fmt(n_star)
            show(f"  K={k:<10} N*={n_text}\n")
            if write:
                write(f"{k},{n_text}\n")
    if args.svg:
        render_breakeven_svg(curve, args.svg)
        print(f"wrote {args.svg}")
    return 0


def cmd_sweep(args) -> int:
    scenarios = load_suite(args.scenario)
    cells = sum(math.prod(map(len, sc.grids.values())) for sc in scenarios)
    if cells > SWEEP_MAX_CELLS:
        raise InvalidParam(f"sweep has {cells} cells, more than {SWEEP_MAX_CELLS}")
    strict = not args.lenient_shards
    rows = []
    for sc in scenarios:
        label_width = sc.label_width if args.include_labels else 0
        rows += sweep(sc.grid(), compared_protocol(args.variant or sc.variant), strict, label_width, sc.batch_size)
    csv_rows = sum(1 if row.error is not None else len(row.reports) for row in rows)
    print(f"swept {cells} parameter combinations ({csv_rows} CSV rows)")
    with _csv_lines(args.csv, CSV_HEADER) as write:
        for row in rows:
            _write_cell(write, row)
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
