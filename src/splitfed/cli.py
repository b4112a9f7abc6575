"""Command-line front end: analyze, simulate, breakeven, sweep.

Exit codes: 0 ok, 2 scenario/config error (an output path that cannot be
written among them: refused before any work where that can be foreseen, or
when a write to it fails, standard output included), 3 domain error (for
example a divisibility or range violation), 4 ledger-versus-formula mismatch. The
environment variable SPLITFED_SEED overrides the scenario seed in simulate,
the only subcommand that reads it.

CSV output is byte-stable across runs: integers verbatim, reals with 12
significant digits, "\n" line endings.

Only simulate needs the simulator: ``protocol_sim`` and ``random_dataset``
are names of this module that load, with numpy, on first use, as does
``render_breakeven_svg``, so only breakeven --svg loads the SVG module.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import functools
import math
import operator
import os
import sys
from dataclasses import replace
from fractions import Fraction
from itertools import product

from .cost_model import (
    MessageKind,
    Protocol,
    SWEEP_FIELD_ORDER,
    _shown,
    break_even_curve,
    comm_report,
    efficiency_ratio,
    reported,
    sweep,  # not called here; perfbench/tracing.py wraps the name
    sweep_axes,
    sweep_cells,
)
from .errors import InvalidParam, ScenarioError, SplitFedError
from .scenarios import PARAM_KEYS, _as_field, _parse_number, load_scenario, load_suite

# cmd_simulate refuses anything bigger than these, before it allocates: the
# simulator moves real tensors, for desk-scale cross-checks.
SIMULATE_MAX_PARAMS = 10**6  # N
SIMULATE_MAX_RECORDS = 10**5  # p
# K * N bounds a split run's K held client vectors (80 MB at the limit) and the
# K hand-offs a round copies. Federated folds each upload into a running mean,
# holding four N-vectors whatever K is.
SIMULATE_MAX_HELD_SCALARS = 10**7
# epochs * K * N bounds a federated run's copy and fold work: every round
# copies the N-scalar global model into each of K clients' buffers and folds
# the K uploads into the running sum.
SIMULATE_MAX_FOLDED_SCALARS = 10**9
# p * (input + output width) bounds the synthetic dataset. The shards are made
# when the run reads them, so a run holds one 64 KB block of short shards or
# one larger shard at a time: one client's shard is the whole dataset, one
# float64 vector (80 MB at the limit).
SIMULATE_MAX_DATA_SCALARS = 10**7
# epochs * max(p, K) bounds a run's training steps and the rows of its ledger
# CSV: at most 4 messages per batch plus 2 per client in every epoch. The
# ledger holds a turn's identical batches as one run: a sync run of (4, 3, 2)
# at K = 10, p = 100,000 and 10 epochs logs 3,000,100 messages and peaks at
# about 34 MB RSS, as its one-epoch run does (Python 3.11, numpy 2.4).
SIMULATE_MAX_RECORD_EPOCHS = 10**6
# breakeven refuses a --k-range with more points than this, a bound on time
# (about 1.7 s at the limit with --csv and --svg, best of 3 on a 2-vCPU Xeon):
# a curve holds 8 B a point and its SVG about 12.5 B; 10**6 points with --csv
# and --svg peak at about 49 MB RSS (Python 3.11, no numpy loaded).
K_RANGE_MAX_POINTS = 10**6
# breakeven formats and writes its stdout and CSV lines this many points at a time.
BREAKEVEN_BLOCK_POINTS = 1024
# sweep refuses a suite whose grids hold more cells than this, before it
# expands them, a bound on time (about 0.2 s at the limit with --csv, best of 3
# on a 2-vCPU Xeon) and on the text held without --csv. It sweeps a grid a
# slice of at most SWEEP_SLICE_CELLS cells at a time, formatting each cell as
# the walk yields it, so a slice holds its lines, about 410 B a cell
# (tracemalloc, Python 3.11); without --csv the lines wait for the summary
# line, ~150 B a cell.
SWEEP_MAX_CELLS = 10**5
SWEEP_SLICE_CELLS = 500

# The parameter columns of a report row, field -> key (bytes_per_scalar shows
# only in the byte columns, batch_size in none), and the getter of those past
# K and N from a cell's values on the axes past them.
REPORT_KEYS = {name: key for name, key in PARAM_KEYS.items() if name not in ("bytes_per_scalar", "batch_size")}
_inner_columns = operator.itemgetter(*(SWEEP_FIELD_ORDER.index(name) - 2 for name in list(REPORT_KEYS)[2:]))
CSV_HEADER = [
    "method", *REPORT_KEYS.values(),
    "per_client_scalars", "total_scalars", "per_client_bytes", "total_bytes",
    "rho", "winner",
]


def __getattr__(name: str):
    """Load ``protocol_sim``, ``random_dataset`` or ``render_breakeven_svg`` on first
    use; from then on the name is an ordinary global, which a caller may replace."""
    if name == "protocol_sim":
        from . import protocol_sim as value
    elif name == "random_dataset":
        from .nn_core import random_dataset as value
    elif name == "render_breakeven_svg":
        from .svg import render_breakeven_svg as value
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def _fmt(x) -> str:
    """One output value: an int verbatim; a real (a Fraction as its float) as an integer when
    integral and below 1e15 in size, "inf" if infinite, else to 12 significant digits (a Fraction
    past the float range rounded from its exact value); else str."""
    # exact types first, skipping isinstance, whose Fraction check goes through ABCMeta; first a
    # float that is not whole, as each rho and N* is: "%" is its quickest ".12g"
    if type(x) is float and not x.is_integer() and x != -math.inf:
        return "%.12g" % x  # "inf", and "nan" for either NaN
    if type(x) is int:
        return str(x)
    if type(x) is not float:
        if isinstance(x, Fraction):
            try:
                x = float(x)
            except OverflowError:
                from decimal import Context

                return format(Context(prec=12).divide(x.numerator, x.denominator).normalize(), "g")
        elif not isinstance(x, float):
            return str(x)
    if x.is_integer() and -1e15 < x < 1e15:
        return str(int(x))
    return "inf" if math.isinf(x) else format(x, ".12g")  # "nan" for either NaN


@contextlib.contextmanager
def _writing(path: str | None):
    """Name ``path`` in an OSError raised while it is written that names no file:
    a write or a close that fails after the file is open (a full disk, say)."""
    try:
        yield
    except OSError as exc:
        if exc.filename is None:
            exc.filename = path
        raise


@contextlib.contextmanager
def _csv_lines(path: str | None, header: list[str]):
    """The write function of a CSV stream, header written: a new file at ``path``, named on
    stdout once closed, or stdout itself when ``path`` is None. Lines go out as they are formatted."""
    with _writing(path):
        with open(path, "w", encoding="utf-8", newline="") if path else contextlib.nullcontext(sys.stdout) as fh:
            fh.write(",".join(header) + "\n")
            yield fh.write
    if path:
        print(f"wrote {path}")


def _csv_field(text: str) -> str:
    """``text`` as one CSV field: quoted RFC 4180 style if it holds a comma, a quote or a line break."""
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _report_texts(method: Protocol, per_client: int, total: int, per_client_bytes: int, total_bytes: int):
    """A report as its CSV line holds it, the text before and after a cell's parameter columns."""
    return f"{method.label},", f",{per_client},{total},{per_client_bytes},{total_bytes},"


def _write_rows(write, grid: dict, variant: Protocol, strict: bool) -> None:
    """Write the CSV lines of the sweep of ``grid``, a write each: an Error line
    or a line per method, formatted from the cells of :func:`sweep_cells` as
    the walk yields them. Each axis value and each shared report's figures are
    formatted once, and the columns past K and N joined once per slice; a
    cell's parameter columns follow the walk, K, then N, then the rest."""
    texts = [[_fmt(value) for value in values] if name in REPORT_KEYS else values
             for name, values in zip(SWEEP_FIELD_ORDER, sweep_axes(grid))]
    inner = [",".join(_inner_columns(values)) for values in product(*texts[2:])]
    joined = (f"{k},{n},{rest}" for k in texts[0] for n in texts[1] for rest in inner)
    for columns, cell in zip(joined, sweep_cells(grid, variant, strict, _report_texts)):
        if type(cell) is str:
            write(f"Error,{columns},,,,,,{_csv_field(cell)}\n")
            continue
        reports, rho, winner = cell
        tail = _fmt(rho) + "," + winner + "\n"  # a Winner is its value's str; .value is a slower descriptor
        for label, figures in reports:
            write(f"{label}{columns}{figures}{tail}")


def compared_protocol(variant: str) -> Protocol:
    """What analyze, sweep and breakeven weigh against federated: the scenario's own protocol, or sync."""
    return Protocol(variant) if Protocol(variant).splits else Protocol.SPLIT_SYNC


def _label_width(sc, args) -> int:
    """Label scalars counted per record: the scenario's label width under --include-labels, else 0."""
    return sc.label_width if args.include_labels else 0


def cmd_analyze(args) -> int:
    sc = load_scenario(args.scenario)
    split = compared_protocol(args.variant or sc.variant)
    params = replace(sc.params(), label_width=_label_width(sc, args))
    values = vars(params)
    strict = not args.lenient_shards
    reports = {m: comm_report(params, m, strict) for m in reported(split)}
    eff = efficiency_ratio(params, split)

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
            _write_rows(write, values, split, strict)
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
    if not (math.isfinite(args.lr) and args.lr >= 0):  # a negative rate climbs the loss; 0 moves only traffic
        raise InvalidParam(f"--lr must be finite and >= 0, got {args.lr}")
    params = replace(sc.params(), label_width=_label_width(sc, args))
    k, n, p, epochs = params.clients, params.model_params, params.dataset_size, params.epochs
    held = (("K*N", k * n, SIMULATE_MAX_HELD_SCALARS) if variant.splits
            else ("epochs*K*N", epochs * k * n, SIMULATE_MAX_FOLDED_SCALARS))
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
    # read through the module at call time, so a replaced name is the one called
    this = sys.modules[__name__]
    protocol_sim, random_dataset = this.protocol_sim, this.random_dataset
    shards = protocol_sim.GeneratedShards(random_dataset, sc.model, params.dataset_size, sc.seed, params.clients,
                                          strict)

    if variant.splits:
        run = protocol_sim.run_split_training(sc.model, sc.cut_index, shards, variant, epochs, args.lr, sc.seed,
                                              params.batch_size)
    else:
        run = protocol_sim.run_federated_training(sc.model, shards, epochs, args.lr, sc.seed, params.batch_size)
    ledger, losses = run.ledger, run.losses
    if args.inject_fault:
        # verification self-test: one bogus message must trip a mismatch
        ledger.append(0, protocol_sim.client_id(1), protocol_sim.SERVER, MessageKind.ACTIVATIONS,
                      params.smashed_size)

    if args.csv:
        with _writing(args.csv):
            ledger.to_csv(args.csv)
        print(f"wrote {args.csv}")
    if args.loss_csv:
        with _csv_lines(args.loss_csv, ["epoch", "loss"]) as write:
            for i, loss in enumerate(losses):
                write(f"{i},{_fmt(loss)}\n")

    measured = protocol_sim.measured_comm(ledger, params, variant)
    # the check counts every kind, Labels at the width the run sends
    verdict = protocol_sim.verify_against_model(ledger, replace(params, label_width=sc.label_width), variant)

    print(f"scenario {sc.name}: variant={variant.value} K={params.clients} p={params.dataset_size} "
          f"epochs={params.epochs} seed={sc.seed}")
    totals = ledger.totals_by_kind()
    print("traffic by kind (scalars): " + " ".join(f"{k.value}={totals[k]}" for k in MessageKind))
    print(f"measured total ({'labels included' if params.label_width else 'labels excluded'}): "
          f"{measured.total_scalars} scalars, {measured.total_bytes} bytes; "
          f"per client max {measured.per_client_scalars} scalars")
    print(f"verification: {verdict.describe()}")
    return 0 if verdict.matches else 4


def _k_int(item: str, where: str | int, least: int | None = None) -> int:
    """One integer of a K range at ``where``, a part or a comma-list item number; an
    error quotes that item alone, cut to 20 characters."""
    try:
        value = int(item)
    except ValueError:
        value = None
    if value is not None and (least is None or value >= least):
        return value
    shown = _shown(item.strip(), repr)
    where = f"K at item {where}" if isinstance(where, int) else where
    if value is None:
        raise InvalidParam(f"bad K range: {where} is {shown}, not an integer")
    raise InvalidParam(f"bad K range: need {where} >= {least}, got {shown}")


def _parse_k_range(text: str) -> range | list[int]:
    """A:B:STEP (arithmetic, inclusive, as a ``range``), A:B:xF (geometric), or a
    comma list. The points are counted before any list item is converted."""
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
    return values if isinstance(values, range) else list(values)


def cmd_breakeven(args) -> int:
    p, q, eta = args.p, args.q, args.eta
    scenario_variant, batch_size = Protocol.SPLIT_SYNC, 1
    if args.scenario:
        sc = load_scenario(args.scenario)
        params = sc.params()
        scenario_variant, batch_size = sc.variant, params.batch_size
        p = params.dataset_size if p is None else p
        q = params.smashed_size if q is None else q
        eta = params.client_fraction if eta is None else eta
    if p is None or q is None or eta is None:
        raise ScenarioError("breakeven needs p, q and eta (via --scenario or --p/--q/--eta)")

    variant = compared_protocol(args.variant or scenario_variant)
    ks = _parse_k_range(args.k_range)
    curve = break_even_curve(p, q, eta, ks, variant, batch_size)

    print(f"break-even curve: p={_fmt(p)} q={_fmt(q)} eta={_fmt(eta)} variant={variant.label}")
    ks, sizes, header = curve.clients, curve.break_even_sizes, [PARAM_KEYS["clients"], "N_break_even"]
    # one "%" a block: N* > 0 is finite, and below 1e12 "%.12g" writes it as _fmt does
    with _csv_lines(args.csv, header) if args.csv else contextlib.nullcontext() as write:
        for i in range(0, len(ks), BREAKEVEN_BLOCK_POINTS):
            block = sizes[i:i + BREAKEVEN_BLOCK_POINTS]
            m = len(block)
            flat = [0] * 2 * m
            flat[::2] = ks[i:i + m]
            flat[1::2] = ("%.12g\n" * m % tuple(block)).split("\n")[:m] if max(block) < 1e12 else map(_fmt, block)
            flat = tuple(flat)
            sys.stdout.write("  K=%-10d N*=%s\n" * m % flat)
            if write:
                write("%d,%s\n" * m % flat)
    if args.svg:
        # read through the module at call time, so a replaced name is the one called
        with _writing(args.svg):
            sys.modules[__name__].render_breakeven_svg(curve, args.svg)
        print(f"wrote {args.svg}")
    return 0


def _grid_slices(grid: dict, cells: int):
    """``grid`` cut into grids of at most ``cells`` cells, made as they are read:
    runs of consecutive values of its outermost multi-valued axis, or, when one
    value spans more cells, each value's grid cut the same way along the next
    axis. Their sweeps, one after another, give the grid's cells in order."""
    multi = [name for name in SWEEP_FIELD_ORDER
             if isinstance(grid.get(name), (list, tuple)) and len(grid[name]) > 1]
    if not multi or math.prod(len(grid[name]) for name in multi) <= cells:
        yield grid
        return
    outer, values = multi[0], grid[multi[0]]
    inner = math.prod(len(grid[name]) for name in multi[1:])
    if inner > cells:
        for value in values:
            yield from _grid_slices({**grid, outer: value}, cells)
    else:
        step = cells // inner
        for i in range(0, len(values), step):
            yield {**grid, outer: values[i:i + step]}


def cmd_sweep(args) -> int:
    scenarios = load_suite(args.scenario)
    cells = sum(math.prod(map(len, sc.grids.values())) for sc in scenarios)
    if cells > SWEEP_MAX_CELLS:
        raise InvalidParam(f"sweep has {cells} cells, more than {SWEEP_MAX_CELLS}")
    strict = not args.lenient_shards
    # every scenario's grid and protocol are checked before the CSV file is opened
    runs = [({**sc.grid(), "label_width": _label_width(sc, args)}, compared_protocol(args.variant or sc.variant))
            for sc in scenarios]
    # each slice's lines go out as one text; the summary comes first on stdout,
    # so without --csv those texts wait
    held: list[str] = []
    with _csv_lines(args.csv, CSV_HEADER) if args.csv else contextlib.nullcontext(held.append) as write:
        csv_rows = 0
        for grid, variant in runs:
            for part in _grid_slices(grid, SWEEP_SLICE_CELLS):
                lines: list[str] = []
                _write_rows(lines.append, part, variant, strict)
                csv_rows += len(lines)
                write("".join(lines))
        print(f"swept {cells} parameter combinations ({csv_rows} CSV rows)")
    if not args.csv:
        with _csv_lines(None, CSV_HEADER) as write:
            for text in held:
                write(text)
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


@functools.cache  # parse_args leaves the parser as it was
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

    common(sub.add_parser("analyze", help="closed-form reports and the winner for one scenario"))

    p_sim = sub.add_parser("simulate", help="run the protocol simulator and cross-check the ledger")
    common(p_sim)
    p_sim.add_argument("--loss-csv", metavar="PATH", default=None, help="write per-epoch loss CSV")
    p_sim.add_argument("--lr", type=float, default=0.01, help="SGD learning rate, finite and >= 0 (default 0.01)")
    p_sim.add_argument("--inject-fault", action="store_true",
                       help="append one bogus message before verification (self-test)")

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

    common(sub.add_parser("sweep", help="evaluate a parameter grid or a built-in suite"))
    return parser


def _check_outputs(args) -> None:
    """Refuse, before any work, two outputs that name one file, or an output path
    that names a directory or lies in a missing or unwritable one; open() still
    reports what this cannot see."""
    flags = {f"--{name.replace('_', '-')}": getattr(args, name, None) for name in ("csv", "loss_csv", "svg")}
    outputs = {flag: path for flag, path in flags.items() if path}
    named = {}  # real path -> the first flag that names it
    for flag, path in outputs.items():
        first = named.setdefault(os.path.realpath(path), flag)
        if first != flag:
            raise ScenarioError(f"{first} and {flag} both name {path}")
    for path in outputs.values():
        folder = os.path.dirname(path) or "."
        code = (errno.EISDIR if os.path.isdir(path)
                else errno.ENOENT if not os.path.exists(folder)
                else errno.ENOTDIR if not os.path.isdir(folder)
                else errno.EACCES if not os.access(path if os.path.exists(path) else folder, os.W_OK)
                else None)
        if code:
            raise OSError(code, os.strerror(code), path)


# The name an error gives standard output.
STDOUT = "<stdout>"


def _drop_stdout() -> None:
    """Point standard output's file descriptor at the null device, after a write
    to it failed, so the flush at exit writes what is left nowhere instead of
    failing again."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):  # no stream, or one without a descriptor
        return
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, fd)
    os.close(null)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _check_outputs(args)
        # every output file names itself in a failed write (_writing), so one that names none was to stdout
        with _writing(STDOUT):
            code = globals()[f"cmd_{args.command}"](args)  # looked up now, so a replaced name is called
            sys.stdout.flush()
        return code
    except SplitFedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ScenarioError) else 3
    except OSError as exc:
        # a scenario file that cannot be read is a ScenarioError, so a file named here is an output:
        # one refused before any work, one that open() refused, or one whose write or close failed
        if exc.filename == STDOUT:
            _drop_stdout()
        print(f"error: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
