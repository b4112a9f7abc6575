"""splitfed benchmark: drives the real CLI end to end, and layer by layer when traced.

Usage (from the repository root):

    python3 perfbench/run.py --workload ring-many-clients --seed 1 --seconds 20 --trace 0

Each sample is a fresh Python process (``child.py``) that imports
``splitfed.cli`` and runs the workload's ``cli.main(argv)`` calls; samples run
one at a time from this process until ``--seconds`` have passed, and every
output is checked. ``--trace 0`` reports the end-to-end metrics as medians
over the samples, times scaled to a reference interpreter speed (see
REFERENCE_KERNEL_S); ``--trace 1`` alternates untraced and traced samples, adds a
short tracemalloc pass, and reports the per-layer metrics, the span file and
the tracing overhead against the untraced median.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines above it print every metric with its
unit and sample count. A full record (environment, samples, input
properties) is written under ``perfbench/out/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

from workloads import WORKLOADS, ClosedFormGrid

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
CHILD = os.path.join(HERE, "child.py")

# child.speed_kernel_s() on the machine the bounds were set on: an Intel Xeon
# with 2 vCPUs, Python 3.11. setup_s and the wall times are reported at this
# speed: measured seconds times REFERENCE_KERNEL_S over the kernel's time in
# the same process just before and after the calls. On a shared machine the speed drifts by
# tens of percent over minutes; the scaling removes part of that drift and
# leaves changes in splitfed's own work.
REFERENCE_KERNEL_S = 0.025
# One BLAS thread, at or below nproc: a sample then runs on one core, like
# the single-threaded kernel its wall time is scaled by.
BLAS_THREADS = 1
CHILD_TIMEOUT_S = 60
MIN_SAMPLES = 3
MIN_TRACED_SAMPLES = 2
# Past --seconds, stop even without MIN_SAMPLES results (a broken program).
GRACE_S = 30

# BENCHMARK.json at the repository root names the reported metrics and their units.
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    _SPEC = json.load(_fh)
END_TO_END_UNITS = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}


def environment(seed: int, blas_threads) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "workload_seed": seed,
    }


def git_sha() -> str:
    """HEAD of the repository holding this file, read without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def spawn(sample_dir: str, mode: str, run_id: str, calls) -> tuple[dict | None, str]:
    """Run one child process to completion: its result, or None and why there is none."""
    os.makedirs(sample_dir, exist_ok=True)
    spec = {"src": SRC, "mode": mode, "run_id": run_id,
            "calls": [{"argv": c.argv, "stdout": c.stdout, "cli_outputs": c.cli_outputs} for c in calls]}
    spec_path = os.path.join(sample_dir, "spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env.pop("SPLITFED_SEED", None)  # the generated scenario files carry the seed
    try:
        done = subprocess.run([sys.executable, CHILD, spec_path], cwd=sample_dir, env=env, text=True,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=CHILD_TIMEOUT_S,
                              check=False)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {CHILD_TIMEOUT_S} s"
    result_path = os.path.join(sample_dir, "result.json")
    if not os.path.exists(result_path):
        lines = done.stderr.strip().splitlines()
        return None, lines[-1] if lines else f"exit code {done.returncode}"
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh), ""


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def run(workload_name: str, seed: int, seconds: float, trace: bool, toy: bool = False,
        corrupt=None, extra_argv=None, out_dir: str = OUT) -> dict:
    """Measure one workload and return its full record.

    ``corrupt(sample_dir)`` may alter a sample's outputs before they are
    checked, and ``extra_argv`` is appended to the first call; both exist so
    the self-test can show that a bad output counts as failed.
    """
    invocation = f"{workload_name}-seed{seed}-trace{int(trace)}-{os.getpid()}-{time.time_ns()}"
    work_dir = os.path.join(out_dir, "work", invocation)
    results_dir = os.path.join(out_dir, "results")
    os.makedirs(results_dir, exist_ok=True)
    workload = WORKLOADS[workload_name](seed, os.path.join(work_dir, "inputs"), toy=toy)
    if extra_argv:
        workload.calls[0].argv = workload.calls[0].argv + list(extra_argv)

    # Untimed: compile bytecode and fill the file cache, which users do not pay per run.
    spawn(os.path.join(work_dir, "warmup"), "import", f"{invocation}/warmup", [])

    samples, traced, failures = [], [], []
    attempted = failed = 0
    spans_file = None
    start = time.perf_counter()
    index = 0
    while True:
        elapsed = time.perf_counter() - start
        enough = len(samples) >= MIN_SAMPLES and (not trace or len(traced) >= MIN_TRACED_SAMPLES)
        if elapsed >= seconds and (enough or elapsed >= seconds + GRACE_S):
            break
        mode = "trace" if trace and index % 2 == 1 else "plain"
        sample_dir = os.path.join(work_dir, f"sample{index}")
        result, stderr = spawn(sample_dir, mode, f"{invocation}/{index}", workload.calls)
        attempted += len(workload.calls)
        if result is None:
            failed += len(workload.calls)
            failures.append(f"sample {index}: run process produced no result: {stderr}")
        else:
            if corrupt is not None:
                corrupt(sample_dir)
            codes = [c["code"] if c["error"] is None else "traceback" for c in result["calls"]]
            for i, problems in enumerate(workload.check(sample_dir, codes)):
                if problems:
                    failed += 1
                    failures.append(f"sample {index} call {i}: {'; '.join(problems)}")
            (traced if mode == "trace" else samples).append(result)
            if mode == "trace" and spans_file is None:
                spans_file = os.path.join(results_dir, f"{invocation}.spans.csv.gz")
                shutil.move(os.path.join(sample_dir, "spans.csv.gz"), spans_file)
        shutil.rmtree(sample_dir, ignore_errors=True)
        index += 1

    alloc = None
    if trace and workload.alloc_calls():
        alloc_dir = os.path.join(work_dir, "alloc")
        result, stderr = spawn(alloc_dir, "alloc", f"{invocation}/alloc", workload.alloc_calls())
        attempted += 1
        if result is None or result["calls"][0]["code"] != 0:
            failed += 1
            failures.append(f"tracemalloc pass failed: {stderr}")
        else:
            alloc = result

    if not samples or (trace and not traced):
        shutil.rmtree(work_dir, ignore_errors=True)
        raise RuntimeError("no sample produced a result: " + "; ".join(failures[:3]))
    record = summarize(workload, samples, traced, alloc, trace)
    record.update({
        "workload": workload_name, "seed": seed, "seconds": seconds, "trace": int(trace), "toy": toy,
        "attempted": attempted, "failed": failed, "fail_share": failed / attempted if attempted else 1.0,
        "failures": failures[:20], "properties": workload.properties,
        "environment": environment(seed, (samples + traced or [{}])[0].get("blas_threads")),
        "spans_file": spans_file and os.path.relpath(spans_file, ROOT),
    })
    shutil.rmtree(work_dir, ignore_errors=True)
    record_path = os.path.join(results_dir, f"{invocation}.json")
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    record["record_file"] = os.path.relpath(record_path, ROOT)
    return record


def _stat(values: list[float], unit: str) -> dict:
    q1, median, q3 = quartiles(values)
    return {"value": median, "unit": unit, "n": len(values), "q1": q1, "q3": q3}


def summarize(workload, samples: list[dict], traced: list[dict], alloc: dict | None, trace: bool) -> dict:
    """Medians over samples: end-to-end from untraced runs, per layer from traced ones."""
    def walls(result):
        return [c["wall_s"] for c in result["calls"]]

    def scale(result):
        return REFERENCE_KERNEL_S / result["kernel_s"]

    def scaled(result):
        return [w * scale(result) for w in walls(result)]

    values = {
        "setup_s": [r["setup_s"] * scale(r) for r in samples],
        "wall_s": [sum(scaled(r)) for r in samples],
        "work_per_s": [workload.work_items / scaled(r)[workload.work_call] for r in samples],
        "peak_rss_mb": [r["peak_rss_mb"] for r in samples],
    }
    end_to_end = {name: _stat(values[name], unit) for name, unit in END_TO_END_UNITS.items()}
    # work_per_s under the name it has on this workload, points_per_s, and the unscaled figures.
    named = {workload.work_name: end_to_end["work_per_s"]}
    if isinstance(workload, ClosedFormGrid):
        named["points_per_s"] = _stat([workload.points / scaled(r)[1] for r in samples], "1/s")
    named["unscaled_setup_s"] = _stat([r["setup_s"] for r in samples], "s")
    named["unscaled_wall_s"] = _stat([sum(walls(r)) for r in samples], "s")
    named["kernel_s"] = _stat([r["kernel_s"] for r in samples], "s")
    record = {"end_to_end": end_to_end, "end_to_end_named": named,
              "samples": [{"setup_s": r["setup_s"], "wall_s": walls(r), "kernel_s": r["kernel_s"],
                           "peak_rss_mb": r["peak_rss_mb"]} for r in samples]}
    if not trace:
        return record

    per_layer = {}
    for name, unit in PER_LAYER_UNITS.items():
        if name == "nn_core.alloc_bytes_per_step":
            values = [statistics.median(alloc["step_alloc_bytes"])] if alloc else [0]
        elif name == "protocol_sim.ledger_bytes_per_msg":
            values = [alloc["ledger_bytes_per_msg"]] if alloc else [0]
        elif name == "nn_core.flops_per_step":
            values = [workload.flops_per_step()]
        else:
            values = [r["layers"][name] for r in traced]
        per_layer[name] = _stat(values, unit)
    layers = sorted({layer for r in traced for layer in r["layer_self_s"]})
    traced_wall = statistics.median(sum(walls(r)) for r in traced)
    record.update({
        "per_layer": per_layer,
        "layer_self_s": {layer: statistics.median(r["layer_self_s"].get(layer, 0.0) for r in traced)
                         for layer in layers},
        "trace_overhead_s": traced_wall - named["unscaled_wall_s"]["value"],
        "traced_wall_s": traced_wall,
    })
    return record


def print_record(record: dict) -> None:
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"attempted {record['attempted']}  failed {record['failed']}  fail_share {record['fail_share']:.4g}")
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    print("inputs " + json.dumps(record["properties"], sort_keys=True))
    rows = dict(record["end_to_end"], **record["end_to_end_named"])
    if record["trace"]:
        print("  end to end, untraced samples:")
    for name, s in rows.items():
        print(f"  {name:<36} {s['value']:>14.6g} {s['unit']:<14} median of n={s['n']}  "
              f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}")
    if record["trace"]:
        print("  per layer, traced samples:")
    for name, s in record.get("per_layer", {}).items():
        label = " (computed from the widths)" if s["unit"] == "computed_flop" else ""
        print(f"  {name:<36} {s['value']:>14.6g} {s['unit']:<14} median of n={s['n']}  "
              f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}{label}")
    if record["trace"]:
        wall = record["end_to_end_named"]["unscaled_wall_s"]["value"]
        print(f"  unscaled wall_s median: untraced {wall:.6g} s, traced {record['traced_wall_s']:.6g} s, "
              f"tracing overhead {record['trace_overhead_s']:+.6g} s "
              f"({100 * record['trace_overhead_s'] / wall:+.1f}%)")
        print("  self time by layer (traced median, s): " + ", ".join(
            f"{layer} {seconds:.4g}" for layer, seconds in record["layer_self_s"].items()))
        print(f"  spans: {record['spans_file']}")
    for line in record["failures"]:
        print(f"  FAILED {line}")
    print(f"  record: {record['record_file']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "splitfed", "cli.py")):
        print(f"error: no splitfed sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print_record(record)
    chosen = record["per_layer"] if args.trace else record["end_to_end"]
    metrics = {name: {"value": s["value"], "unit": s["unit"]} for name, s in chosen.items()}
    print(json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
