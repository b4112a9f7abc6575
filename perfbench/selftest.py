"""Tiny-size self-test of the benchmark harness. It asserts no timing value.

Usage (from the repository root): python3 perfbench/selftest.py

For every workload at toy size it checks that untraced and traced runs pass
their output checks and report every metric, that a second seed reaches the
same verdicts, that one seed reproduces its outputs byte for byte across
runs, and that a corrupted output counts toward fail_share.
"""

from __future__ import annotations

import os
import shutil
import sys

import run
from workloads import WORKLOADS

OUT = os.path.join(run.OUT, "selftest")
SEED = 11


def measure(workload: str, seed: int = SEED, trace: bool = False, **kwargs) -> dict:
    return run.run(workload, seed, 0, trace, toy=True, out_dir=OUT, **kwargs)


def verdicts(record: dict) -> tuple:
    return record["attempted"] > 0, record["failed"], tuple(record["failures"])


def bump_field(path: str, column: int, row_filter=lambda fields: True) -> None:
    """Add one to an integer field of the last CSV row that passes the filter."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    index = max(i for i, line in enumerate(lines[1:], 1) if row_filter(line.split(",")))
    fields = lines[index].split(",")
    fields[column] = str(int(fields[column]) + 1)
    lines[index] = ",".join(fields)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def main() -> int:
    shutil.rmtree(OUT, ignore_errors=True)
    sys.path.insert(0, run.SRC)
    problems: list[str] = []

    def expect(condition: bool, message: str) -> None:
        if not condition:
            problems.append(message)
        print(f"{'ok  ' if condition else 'FAIL'} {message}")

    for name in WORKLOADS:
        plain = measure(name)
        expect(plain["failed"] == 0, f"{name}: untraced run passes its checks {plain['failures']}")
        expect(set(plain["end_to_end"]) == set(run.END_TO_END_UNITS)
               and all(s["value"] > 0 for s in plain["end_to_end"].values()),
               f"{name}: every end-to-end metric is reported and nonzero")

        traced = measure(name, trace=True)
        expect(traced["failed"] == 0, f"{name}: traced run passes its checks {traced['failures']}")
        expect(set(traced["per_layer"]) == set(run.PER_LAYER_UNITS), f"{name}: every per-layer metric is reported")
        expect(traced["spans_file"] is not None
               and os.path.getsize(os.path.join(run.ROOT, traced["spans_file"])) > 0,
               f"{name}: the traced run writes its span file")
        expect("trace_overhead_s" in traced, f"{name}: the traced run states its overhead")

        other = measure(name, seed=SEED + 1)
        expect(verdicts(other) == verdicts(plain), f"{name}: seed {SEED + 1} reaches the verdicts of seed {SEED}")

        if "ledger_sha256" in plain["properties"]:
            again = measure(name)
            same = all(again["properties"][key] == plain["properties"][key]
                       for key in ("ledger_sha256", "loss_sha256"))
            expect(same, f"{name}: one seed gives byte-identical ledger and loss CSVs across runs")

    # Corrupted outputs: a bogus ledger message, a sweep total, and one sample's SVG.
    faulty = measure("ring-many-clients", extra_argv=["--inject-fault"])
    expect(faulty["failed"] == faulty["attempted"] > 0,
           f"ring-many-clients: --inject-fault fails every call (fail_share {faulty['fail_share']})")

    ledger = measure("wide-fedavg", corrupt=lambda d: bump_field(os.path.join(d, "ledger.csv"), 4))
    expect(ledger["fail_share"] > 0, f"wide-fedavg: an altered ledger total counts (fail_share {ledger['fail_share']})")

    seen = []

    def corrupt_second_svg(sample_dir: str) -> None:
        seen.append(sample_dir)
        if len(seen) == 2:
            with open(os.path.join(sample_dir, "curve.svg"), "a", encoding="utf-8") as fh:
                fh.write("<!-- -->\n")

    sweep = measure("closed-form-grid", corrupt=lambda d: bump_field(
        os.path.join(d, "sweep.csv"), 8, lambda fields: fields[0] != "Error"))
    svg = measure("closed-form-grid", corrupt=corrupt_second_svg)
    expect(sweep["fail_share"] > 0, f"closed-form-grid: an altered sweep total counts (fail_share {sweep['fail_share']})")
    expect(svg["failed"] == 1, f"closed-form-grid: one altered sample of {svg['attempted'] // 2} counts once")

    shutil.rmtree(OUT, ignore_errors=True)
    print(f"self-test: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
