"""breakeven's block writers against the per-point writers they replaced.

``reference_texts`` and ``reference_polyline`` are the earlier writers, kept
verbatim: each N* through ``_fmt`` once for its stdout line and its CSV line,
and each polyline vertex as ``f"{sx(k):.1f},{sy(n):.1f}"``. The CLI formats a
block of points with one ``%`` per output instead, and must write the same
bytes: stdout, the CSV and the SVG polyline. Curves come from real inputs under
every variant and from arbitrary N* columns (unordered, whole values on both
sides of 1e12 and 1e15), over K ranges whose blocks straddle 1,024 points.
"""

import contextlib
import io
import math
import random
import re
import tempfile
from array import array
from fractions import Fraction
from pathlib import Path
from unittest import mock

from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from splitfed import cli, svg
from splitfed.cli import _fmt, main
from splitfed.cost_model import BreakEvenCurve, Protocol, ScenarioParams, break_even_curve
from splitfed.errors import InvalidParam


def reference_texts(curve: BreakEvenCurve) -> tuple[str, str]:
    """The stdout lines and the CSV lines of the curve's points, a point at a time."""
    stdout, csv = [], []
    for k, n_star in zip(curve.clients, curve.break_even_sizes):
        n_text = _fmt(n_star)
        stdout.append(f"  K={k:<10} N*={n_text}\n")
        csv.append(f"{k},{n_text}\n")
    return "".join(stdout), "".join(csv)


def reference_polyline(curve: BreakEvenCurve) -> str:
    """The SVG polyline's points attribute, a vertex at a time."""
    ks, ns = curve.clients, curve.break_even_sizes
    x_lo, x_hi = svg._decade_range(ks[0], ks[-1])
    y_lo, y_hi = svg._decade_range(min(ns), max(ns))
    plot_w = svg._WIDTH - svg._MARGIN_LEFT - svg._MARGIN_RIGHT
    plot_h = svg._HEIGHT - svg._MARGIN_TOP - svg._MARGIN_BOTTOM

    def sx(k: float) -> float:
        return svg._MARGIN_LEFT + (math.log10(k) - x_lo) / (x_hi - x_lo) * plot_w

    def sy(n: float) -> float:
        return svg._MARGIN_TOP + (y_hi - math.log10(n)) / (y_hi - y_lo) * plot_h

    return " ".join(f"{sx(k):.1f},{sy(n):.1f}" for k, n in zip(ks, ns))


def _run(argv: list[str], folder: Path) -> tuple[int, str, str, str]:
    """Exit code, stdout, the CSV and the SVG polyline's points of one breakeven run into ``folder``."""
    csv_path, svg_path = folder / "curve.csv", folder / "curve.svg"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([*argv, "--csv", str(csv_path), "--svg", str(svg_path)])
    if code:
        return code, out.getvalue(), "", ""
    points = re.search(r'<polyline points="([^"]*)"', svg_path.read_text(encoding="utf-8")).group(1)
    return code, out.getvalue(), csv_path.read_text(encoding="utf-8"), points


def _assert_written_as_the_reference(curve: BreakEvenCurve, argv: list[str], head: str) -> None:
    with tempfile.TemporaryDirectory() as folder:
        code, stdout, csv, points = _run(argv, Path(folder))
        assert code == 0
        lines, csv_lines = reference_texts(curve)
        assert stdout == f"{head}{lines}wrote {folder}/curve.csv\nwrote {folder}/curve.svg\n"
        assert csv == "K,N_break_even\n" + csv_lines
        assert points == reference_polyline(curve)


# Each example runs the CLI over up to 2,100 points, so a failure is reported as
# drawn: shrinking one took minutes.
EXAMPLE_PHASES = (Phase.explicit, Phase.reuse, Phase.generate)

# K ranges as --k-range text: arithmetic runs of up to 2,100 points (one to
# three blocks), geometric runs, and unsorted comma lists with repeats
ARITHMETIC = st.builds(lambda lo, count, step: f"{lo}:{lo + (count - 1) * step}:{step}",
                       st.integers(1, 10**6), st.integers(1, 2100), st.integers(1, 50))
GEOMETRIC = st.builds(lambda lo, hi, factor: f"{lo}:{hi}:x{factor}",
                      st.integers(1, 1000), st.integers(1, 10**15), st.integers(2, 10))
COMMA_LIST = st.lists(st.integers(1, 10**7), min_size=1, max_size=1500).map(lambda ks: ",".join(map(str, ks)))
K_RANGES = st.one_of(ARITHMETIC, GEOMETRIC, COMMA_LIST)
ETAS = st.one_of(st.just(0), st.just(1), st.fractions(0, 1, max_denominator=1000),
                 st.floats(0, 1, allow_nan=False))


def _scenario_text(p: int, q: int, eta, batch_size: int, variant: str) -> str:
    eta_text = f"{eta.numerator}/{eta.denominator}" if isinstance(eta, Fraction) else repr(eta)
    return (f"name = blocks\nK = 1\nN = 1\np = {p}\nq = {q}\neta = {eta_text}\n"
            f"batch_size = {batch_size}\nvariant = {variant}\n")


@settings(max_examples=60, deadline=None, phases=EXAMPLE_PHASES)
@given(variant=st.sampled_from([protocol.value for protocol in Protocol]),
       p=st.integers(1, 10**8), q=st.integers(1, 10**7), eta=ETAS, batch_size=st.integers(1, 64),
       k_range=K_RANGES)
# whole N* = pq/K: 999,999,999,999 at K = 1, just below 1e12; then 1e13/K, whose
# first block reaches past 1e12 (1e12 itself at K = 10) and whose next stays below
@example(variant="sync", p=999_999, q=1_000_001, eta=0, batch_size=1, k_range="1:2100")
@example(variant="sync", p=10**7, q=10**6, eta=0, batch_size=1, k_range="1:2100")
@example(variant="nosync", p=10**8, q=10**7, eta=0, batch_size=1, k_range="1:1500")  # from 1e15 down
@example(variant="sync_batch", p=1000, q=10, eta=Fraction(1, 100), batch_size=64, k_range="1:3000")
@example(variant="sync_batch", p=999_983, q=77, eta=Fraction(1, 97), batch_size=8,
         k_range="4096,1,7,7,1000,30,2,999,65536")
def test_breakeven_blocks_write_what_the_per_point_writers_wrote(variant, p, q, eta, batch_size, k_range):
    with tempfile.TemporaryDirectory() as folder:
        scenario = Path(folder) / "blocks.txt"
        scenario.write_text(_scenario_text(p, q, eta, batch_size, variant), encoding="utf-8")
        argv = ["breakeven", "--scenario", str(scenario), "--k-range", k_range]
        protocol = cli.compared_protocol(variant)
        try:  # a geometric range may hold no K, and sync_batch may have no N* at some K
            params = ScenarioParams(1, 1, p, q, eta, batch_size=batch_size)
            curve = break_even_curve(params, cli._parse_k_range(k_range), protocol)
        except InvalidParam:
            assert _run(argv, Path(folder))[0] == 3
            return
        head = f"break-even curve: p={p} q={q} eta={_fmt(eta)} variant={protocol.label}\n"
        _assert_written_as_the_reference(curve, argv, head)


# N* columns the closed form need not yield, in any order: positive finite floats
# (from 1e-300, as the SVG's lowest grid line 10**exp must not round to 0), and
# whole values on both sides of the 1e12 and 1e15 cuts of _fmt
N_STARS = st.one_of(
    st.floats(min_value=1e-300, max_value=1.7e308, allow_nan=False, allow_infinity=False),
    st.integers(1, 10**16).map(float),
    st.integers(10**12 - 3000, 10**12 + 3000).map(float),
    st.sampled_from([999_999_999_999.0, 1e12, 1e12 + 1, 999_999_999_999.5, 1e15 - 1, 1e15, 1e15 + 2]),
)


@settings(max_examples=60, deadline=None, phases=EXAMPLE_PHASES)
@given(st.lists(N_STARS, min_size=1, max_size=40), st.integers(1, 2100), st.integers(1, 10**9), st.integers(1, 1000),
       st.integers(0, 2**32))
@example([999_999_999_999.0, 1e12, 1e15 - 1, 0.5], 2100, 1, 1, 0)  # three blocks, whole values below 1e15
@example([999_999_999_999.0, 123.0, 2.5e-7], 1025, 7, 3, 1)  # two blocks below 1e12, whole values included
@example([1e15, 3e200, 1e12 + 1, 7.25], 1500, 40, 1, 2)  # blocks past 1e15
def test_breakeven_blocks_write_any_column_as_the_per_point_writers(values, count, lo, step, seed):
    # up to 2,100 points, each N* one of the drawn values, in an order drawn from the seed
    ks, rng = range(lo, lo + count * step, step), random.Random(seed)
    curve = BreakEvenCurve(Protocol.SPLIT_SYNC, ScenarioParams(1, 1, 100, 3, 0.5), ks,
                           array("d", (rng.choice(values) for _ in ks)))
    argv = ["breakeven", "--p", "100", "--q", "3", "--eta", "0.5", "--k-range", f"{lo}:{ks[-1]}:{step}"]
    with mock.patch.object(cli, "break_even_curve", lambda *args: curve):
        _assert_written_as_the_reference(curve, argv, "break-even curve: p=100 q=3 eta=0.5 variant=SplitSync\n")
