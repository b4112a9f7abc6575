"""What importing splitfed loads: the closed forms without numpy, the simulator on first use.

Each test runs in a fresh interpreter, since this one has long since loaded
every module.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
SIMULATOR_MODULES = ("numpy", "splitfed.nn_core", "splitfed.protocol_sim")

# Every name splitfed/__init__.py exports, the simulator's among them.
PACKAGE_EXPORTS = (
    "BreakEvenCurve", "CommReport", "EfficiencyReport", "MessageKind", "Protocol", "ScenarioParams",
    "SweepRow", "Winner", "break_even_curve", "comm_report", "efficiency_ratio", "shard_sizes", "sweep",
    "traffic_by_kind",
    "CutOutOfRange", "Diverged", "DivisibilityError", "InvalidParam", "LengthMismatch", "ScenarioError",
    "ShapeMismatch", "SplitFedError",
    "Activation", "ModelSpec", "cut_stats", "init_params", "param_count", "random_dataset", "splitmix64",
    "Message", "RunResult", "TrafficLedger", "VerificationReport",
    "measured_comm", "partition_dataset", "run_federated_training", "run_split_training",
    "verify_against_model",
    "Scenario", "load_scenario", "load_suite", "parse_scenario_text",
    "__version__", "cost_model", "errors", "nn_core", "protocol_sim", "scenarios",
)

CLOSED_FORMS_SCRIPT = """
import sys
from splitfed.cli import main

assert "splitfed.svg" not in sys.modules  # loaded by breakeven --svg, on first use
raw, simulator = sys.argv[1], sys.argv[2].split(",")
for scenario in (raw, "tiny-dense"):
    for command, *outputs in (["analyze", "--csv", "a.csv"], ["sweep", "--csv", "s.csv"],
                              ["breakeven", "--k-range", "1:8", "--csv", "b.csv", "--svg", "b.svg"]):
        argv = [command, "--scenario", scenario, *outputs]
        assert main(argv) == 0, argv
        loaded = [name for name in simulator if name in sys.modules]
        assert not loaded, f"{argv} loaded {loaded}"
assert main(["simulate", "--scenario", "tiny-dense"]) == 0
missing = [name for name in simulator if name not in sys.modules]
assert not missing, f"simulate did not load {missing}"
"""

EXPORTS_SCRIPT = """
import sys
import splitfed

for name in sys.argv[1].split(","):
    namespace = {}
    exec(f"from splitfed import {name}", namespace)
    assert namespace[name] is getattr(splitfed, name), name
    assert name in dir(splitfed), name
assert splitfed.random_dataset is splitfed.nn_core.random_dataset
assert splitfed.TrafficLedger is splitfed.protocol_sim.TrafficLedger
assert splitfed.ModelSpec is splitfed.nn_core.ModelSpec
"""


def _python(*args: str, cwd=None) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True, text=True, env=env,
                          timeout=120)


def test_closed_form_subcommands_never_import_numpy(tmp_path):
    raw = tmp_path / "raw.txt"
    raw.write_text("name = raw\nK = 100\nN = 1_000_000\np = 1_000_000\nq = 100\neta = 0.1\n")
    proc = _python("-c", CLOSED_FORMS_SCRIPT, str(raw), ",".join(SIMULATOR_MODULES), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert all((tmp_path / name).stat().st_size for name in ("a.csv", "s.csv", "b.csv", "b.svg"))


def test_every_package_export_resolves_and_is_listed():
    proc = _python("-c", EXPORTS_SCRIPT, ",".join(PACKAGE_EXPORTS))
    assert proc.returncode == 0, proc.stderr


def test_simulate_calls_the_simulator_names_bound_in_cli(monkeypatch, capsys):
    # a stand-in installed as cli.protocol_sim (as perfbench/tracing.py does) must see every call
    from splitfed import cli, protocol_sim

    called = []

    class Spy:
        def __getattr__(self, name):
            called.append(name)
            return getattr(protocol_sim, name)

    monkeypatch.setattr(cli, "protocol_sim", Spy())
    assert cli.main(["simulate", "--scenario", "tiny-dense"]) == 0
    assert {"GeneratedShards", "run_split_training", "measured_comm", "verify_against_model"} <= set(called)
