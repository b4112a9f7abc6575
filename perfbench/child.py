"""One benchmark run process: import ``splitfed.cli`` and drive ``cli.main``.

Usage: python3 child.py SPEC.json   (run with the sample directory as cwd)

SPEC holds ``src`` (the directory that contains the ``splitfed`` package),
``mode`` (``import``, ``plain``, ``trace`` or ``alloc``), ``run_id`` and
``calls``, each an argv list plus the file its stdout goes to. The result is
written as JSON to ``result.json`` in the cwd; in trace mode the spans go to
``spans.csv.gz``. The ``alloc`` mode runs under tracemalloc and measures
per-step allocation and the ledger's bytes per message instead of time.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import json
import math
import os
import resource
import sys
import traceback
from time import perf_counter


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "lib*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def speed_kernel_s() -> float:
    """Fastest of three timings of a fixed interpreter loop that touches no splitfed code.

    Run in this process, on the core the calls run on, it tracks how fast the
    machine is right now; it allocates nothing, so peak RSS is unaffected.
    """
    best = math.inf
    for _ in range(3):
        start = perf_counter()
        total = 0
        for i in range(300_000):
            total += i * i
        best = min(best, perf_counter() - start)
    return best


def peak_rss_mb() -> float:
    """High-water resident set of this process image.

    getrusage's ru_maxrss also keeps the high-water mark of the parent image
    this process was forked from, so the kernel's per-image VmHWM is read first.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _run_call(main, call: dict) -> dict:
    out = {"code": None, "error": None}
    start = perf_counter()
    with open(call["stdout"], "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh), \
            contextlib.redirect_stderr(fh):
        try:
            out["code"] = main(call["argv"])
        except SystemExit as exc:
            out["code"] = exc.code
        except Exception:  # a traceback is a failed call, reported, not fatal to the run
            out["error"] = traceback.format_exc()
    out["wall_s"] = perf_counter() - start
    files = [call["stdout"]] + call.get("cli_outputs", [])
    out["cli_out_bytes"] = sum(os.path.getsize(f) for f in files if os.path.exists(f))
    return out


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])

    start = perf_counter()
    import splitfed.cli as cli
    setup_s = perf_counter() - start

    result = {"setup_s": setup_s, "calls": [], "blas_threads": blas_threads()}
    mode = spec["mode"]
    main_fn = cli.main
    tracer = steps = ledgers = None
    if mode == "trace":
        from tracing import Tracer

        tracer = Tracer(spec["run_id"])
        tracer.install()
        main_fn = tracer.wrap("cli.main", cli.main)
    elif mode == "alloc":
        import tracemalloc

        from tracing import install_step_alloc_probe, track_ledgers

        steps = install_step_alloc_probe()
        ledgers = track_ledgers()
        tracemalloc.start()

    kernel_before = speed_kernel_s()
    for call in spec["calls"]:
        result["calls"].append(_run_call(main_fn, call))
    result["kernel_s"] = (kernel_before + speed_kernel_s()) / 2

    result["peak_rss_mb"] = peak_rss_mb()
    if tracer is not None:
        result["layers"], result["layer_self_s"] = tracer.metrics()
        result["layers"]["cli.out_bytes"] = sum(c["cli_out_bytes"] for c in result["calls"])
        tracer.write("spans.csv.gz")
    if steps is not None:
        from tracing import ledger_bytes_per_message

        result["step_alloc_bytes"] = steps
        result["ledger_bytes_per_msg"] = ledger_bytes_per_message(ledgers)

    with open("result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
