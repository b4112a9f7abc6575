"""Byte-for-byte snapshot of the CLI's outputs.

Each case runs one ``splitfed`` command in a scratch directory and compares
its exit code and stdout, and every file it writes, with the copies under
``tests/golden/<case>/``. Refactors must leave these bytes alone. Regenerate
the snapshot only for an intended output change:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path

import pytest

from splitfed.cli import main
from splitfed.scenarios import BUILTIN_SUITES, builtin_names

GOLDEN = Path(__file__).parent / "golden"
INPUTS = GOLDEN / "inputs"
GRID = str(INPUTS / "grid.txt")
SYNC_BATCH = str(INPUTS / "tiny-dense-sync_batch.txt")


def _cases() -> dict[str, tuple[list[str], list[str]]]:
    """Case name -> (argv, files the command writes)."""
    cases = {}
    for name in builtin_names():
        if name not in BUILTIN_SUITES:
            argv = ["analyze", "--scenario", name, "--csv", "analyze.csv"]
            cases[f"analyze-{name}"] = (argv, ["analyze.csv"])
    cases["analyze-grid-lenient-labels"] = (
        ["analyze", "--scenario", GRID, "--lenient-shards", "--include-labels", "--csv", "analyze.csv"],
        ["analyze.csv"],
    )
    # A sync_batch scenario is compared as itself: its own report row, and the
    # rho and curve of its per-batch hand-offs.
    cases["analyze-tiny-dense-sync_batch"] = (
        ["analyze", "--scenario", SYNC_BATCH, "--csv", "analyze.csv"], ["analyze.csv"]
    )
    cases["breakeven-tiny-dense-sync_batch"] = (
        ["breakeven", "--scenario", SYNC_BATCH, "--k-range", "2:4096:x2",
         "--csv", "curve.csv", "--svg", "curve.svg"],
        ["curve.csv", "curve.svg"],
    )
    for suite in BUILTIN_SUITES:
        cases[f"sweep-{suite}"] = (["sweep", "--scenario", suite, "--csv", "sweep.csv"], ["sweep.csv"])
    cases["sweep-grid"] = (["sweep", "--scenario", GRID, "--csv", "sweep.csv"], ["sweep.csv"])
    cases["sweep-grid-nosync-lenient-labels"] = (
        ["sweep", "--scenario", GRID, "--variant", "nosync", "--lenient-shards", "--include-labels",
         "--csv", "sweep.csv"],
        ["sweep.csv"],
    )
    for variant in ("sync", "nosync"):
        cases[f"breakeven-tiny-dense-{variant}"] = (
            ["breakeven", "--scenario", "tiny-dense", "--variant", variant, "--k-range", "1:4096:x2",
             "--csv", "curve.csv", "--svg", "curve.svg"],
            ["curve.csv", "curve.svg"],
        )
    for variant in ("sync", "nosync"):
        cases[f"simulate-tiny-dense-{variant}"] = (
            ["simulate", "--scenario", "tiny-dense", "--variant", variant,
             "--csv", "ledger.csv", "--loss-csv", "loss.csv"],
            ["ledger.csv", "loss.csv"],
        )
    for variant in ("sync_batch", "federated"):
        cases[f"simulate-tiny-dense-{variant}"] = (
            ["simulate", "--scenario", str(INPUTS / f"tiny-dense-{variant}.txt"),
             "--csv", "ledger.csv", "--loss-csv", "loss.csv"],
            ["ledger.csv", "loss.csv"],
        )
    return cases


CASES = _cases()


def run_case(argv: list[str], outputs: list[str], workdir: Path) -> dict[str, bytes]:
    """Run one command inside ``workdir``; return its exit code and stdout plus its files."""
    stdout = io.StringIO()
    previous = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(stdout):
            code = main(argv)
    finally:
        os.chdir(previous)
    files = {"stdout.txt": f"exit {code}\n{stdout.getvalue()}".encode("utf-8")}
    for name in outputs:
        files[name] = (workdir / name).read_bytes()
    return files


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_output(case, tmp_path, monkeypatch):
    monkeypatch.delenv("SPLITFED_SEED", raising=False)
    argv, outputs = CASES[case]
    for name, data in run_case(argv, outputs, tmp_path).items():
        assert data == (GOLDEN / case / name).read_bytes(), f"{case}/{name} differs from the snapshot"


@pytest.mark.parametrize("variant", ["sync_batch", "federated"])
def test_variant_flag_matches_the_scenario_variant(variant, tmp_path, monkeypatch):
    # --variant takes every protocol: the built-in run as sync_batch or federated
    # writes the bytes of the scenario file that names that variant
    monkeypatch.delenv("SPLITFED_SEED", raising=False)
    argv = ["simulate", "--scenario", "tiny-dense", "--variant", variant,
            "--csv", "ledger.csv", "--loss-csv", "loss.csv"]
    case = f"simulate-tiny-dense-{variant}"
    for name, data in run_case(argv, ["ledger.csv", "loss.csv"], tmp_path).items():
        assert data == (GOLDEN / case / name).read_bytes(), f"{case}/{name} differs"


def test_sync_batch_without_break_even_exits_3(tmp_path, capsys):
    # one client hands off after each of its 6 records: 6*eta*N > 2N for every N
    files = run_case(["breakeven", "--scenario", SYNC_BATCH, "--k-range", "1:4:x2"], [], tmp_path)
    assert files["stdout.txt"] == b"exit 3\n"
    err = capsys.readouterr().err
    assert "K=1" in err and "Traceback" not in err


def test_sync_batch_verdict_counts_batches(tmp_path):
    # batches of 2 over shards of 3: 4 hand-offs of 15, so 36 + 60 = 96 against federated's 92
    scenario = tmp_path / "batch2.txt"
    scenario.write_text(Path(SYNC_BATCH).read_text() + "batch_size = 2\n")
    stdout = run_case(["analyze", "--scenario", str(scenario)], [], tmp_path)["stdout.txt"].decode()
    assert ["SplitSyncBatch", "48", "96"] in [line.split()[:3] for line in stdout.splitlines()]
    assert stdout.endswith("rho (SplitSyncBatch vs Federated) = 0.958333333333  winner: Federated\n")


if __name__ == "__main__":
    os.environ.pop("SPLITFED_SEED", None)
    for case, (argv, outputs) in sorted(CASES.items()):
        with tempfile.TemporaryDirectory() as tmp:
            files = run_case(argv, outputs, Path(tmp))
        (GOLDEN / case).mkdir(parents=True, exist_ok=True)
        for name, data in files.items():
            (GOLDEN / case / name).write_bytes(data)
    print(f"wrote {len(CASES)} cases under {GOLDEN}", file=sys.stderr)
