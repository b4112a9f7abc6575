"""Spans around the calls into each splitfed layer, installed from outside ``src/``.

Wrapped boundaries:

* ``cli.main`` itself, and the names ``splitfed.cli`` imports from other
  modules (``load_scenario``, ``load_suite``, ``sweep``, ``break_even_curve``,
  ``random_dataset``, ``render_breakeven_svg``);
* the ``protocol_sim`` functions the CLI calls through the module, by handing
  ``cli`` a stand-in for its ``protocol_sim`` name;
* the ``nn_core`` functions ``protocol_sim`` looks up at call time, the same
  way, so calls inside ``nn_core`` stay unwrapped;
* ``TrafficLedger.append`` and ``TrafficLedger.to_csv``.

Spans stay in memory as ``[name, parent, start, end]`` and are written out
when the run ends. A span's self time is its duration minus its direct
children's; each run executes on one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import gc
import gzip
import tracemalloc
import types
from collections import Counter, defaultdict
from time import perf_counter

CLI_IMPORTS = ("load_scenario", "load_suite", "sweep", "break_even_curve",
               "random_dataset", "render_breakeven_svg")

# nn_core functions protocol_sim calls, by the phase of a training step they serve.
NN_PHASES = {
    "_front_trace": "forward", "_back_trace": "forward", "_forward_layers": "forward",
    "unpack_params": "forward", "_mse_and_grad": "forward",
    "_backward_layers": "backward",
    "sgd_step": "sgd",
    "average_params": "average",
}
# One loss evaluation per batch: the step counter and the tracemalloc step boundary.
STEP_MARK = "_mse_and_grad"


class ModuleProxy:
    """Stands in for a module: the given functions replace its own, the rest passes through."""

    def __init__(self, module: types.ModuleType, overrides: dict) -> None:
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


def _layer(fn) -> str:
    return fn.__module__.rpartition(".")[2]


def _own_functions(module: types.ModuleType) -> dict:
    return {name: obj for name, obj in vars(module).items()
            if isinstance(obj, types.FunctionType) and obj.__module__ == module.__name__}


class Tracer:
    """Spans and counts of one run process; ``install`` puts the wrappers in place."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack = [-1]
        self.counts: Counter = Counter()

    def wrap(self, name: str, fn, on_return=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, stack[-1], perf_counter(), 0.0]
            spans.append(record)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                record[3] = perf_counter()
            if on_return is not None:
                on_return(result)
            return result

        return traced

    def install(self) -> None:
        from splitfed import cli, nn_core, protocol_sim

        counts = self.counts

        def on_sweep(rows):
            counts["cells"] += len(rows)
            counts["error_cells"] += sum(row.error is not None for row in rows)

        hooks = {
            "sweep": on_sweep,
            "break_even_curve": lambda curve: counts.update(points=len(curve.points)),
            "render_breakeven_svg": lambda doc: counts.update(svg_bytes=len(doc.encode("utf-8"))),
            "verify_against_model": lambda report: counts.update(verify_mismatches=len(report.deltas)),
        }
        for name in CLI_IMPORTS:
            fn = getattr(cli, name)
            setattr(cli, name, self.wrap(f"{_layer(fn)}.{name}", fn, hooks.get(name)))
        cli.protocol_sim = ModuleProxy(protocol_sim, {
            name: self.wrap(f"protocol_sim.{name}", fn, hooks.get(name))
            for name, fn in _own_functions(protocol_sim).items()
        })
        protocol_sim.nn_core = ModuleProxy(nn_core, {
            name: self.wrap(f"nn_core.{name}", fn) for name, fn in _own_functions(nn_core).items()
        })

        ledger_cls = protocol_sim.TrafficLedger
        ledger_cls.append = self.wrap("protocol_sim.TrafficLedger.append", ledger_cls.append)
        ledger_cls.to_csv = self.wrap("protocol_sim.TrafficLedger.to_csv", ledger_cls.to_csv)

    def write(self, path: str) -> None:
        origin = self.spans[0][2] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8", newline="") as fh:
            fh.write("run_id,span,parent,name,start_s,end_s\n")
            for i, (name, parent, start, end) in enumerate(self.spans):
                fh.write(f"{self.run_id},{i},{parent},{name},{start - origin:.9f},{end - origin:.9f}\n")

    def metrics(self) -> tuple[dict, dict]:
        """Per-layer metrics of this run, and self time summed per layer."""
        total: defaultdict = defaultdict(float)
        own: defaultdict = defaultdict(float)
        calls: Counter = Counter()
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, parent, start, end) in enumerate(self.spans):
            total[name] += end - start
            own[name] += end - start - child[i]
            calls[name] += 1

        phases: defaultdict = defaultdict(float)
        for name, seconds in total.items():
            layer, _, fn = name.partition(".")
            if layer == "nn_core" and fn in NN_PHASES:
                phases[NN_PHASES[fn]] += seconds
        steps = calls[f"nn_core.{STEP_MARK}"]
        messages = calls["protocol_sim.TrafficLedger.append"]
        sweep_s = total["cost_model.sweep"]
        step_s = phases["forward"] + phases["backward"] + phases["sgd"]
        layer_self: defaultdict = defaultdict(float)
        for name, seconds in own.items():
            layer_self[name.partition(".")[0]] += seconds

        metrics = {
            "protocol_sim.measured_comm_s": total["protocol_sim.measured_comm"],
            "protocol_sim.append_us_per_msg": 1e6 * total["protocol_sim.TrafficLedger.append"] / messages
            if messages else 0.0,
            "protocol_sim.to_csv_s": total["protocol_sim.TrafficLedger.to_csv"],
            "protocol_sim.verify_s": total["protocol_sim.verify_against_model"],
            "protocol_sim.train_self_s": own["protocol_sim.run_split_training"]
            + own["protocol_sim.run_federated_training"],
            "protocol_sim.messages": messages,
            "protocol_sim.verify_mismatches": self.counts["verify_mismatches"],
            "nn_core.us_per_step": 1e6 * step_s / steps if steps else 0.0,
            "nn_core.forward_s": phases["forward"],
            "nn_core.backward_s": phases["backward"],
            "nn_core.sgd_s": phases["sgd"],
            "nn_core.average_s": phases["average"],
            "nn_core.steps": steps,
            "nn_core.data_init_s": total["nn_core.random_dataset"],
            "cost_model.sweep_s": sweep_s,
            "cost_model.cells_per_s": self.counts["cells"] / sweep_s if sweep_s else 0.0,
            "cost_model.cells": self.counts["cells"],
            "cost_model.error_cells": self.counts["error_cells"],
            "cost_model.breakeven_s": total["cost_model.break_even_curve"],
            "cost_model.points": self.counts["points"],
            "svg.render_s": total["svg.render_breakeven_svg"],
            "svg.bytes": self.counts["svg_bytes"],
            "cli.self_s": own["cli.main"],
            "scenarios.load_s": total["scenarios.load_scenario"] + total["scenarios.load_suite"],
        }
        return metrics, dict(layer_self)


def install_step_alloc_probe() -> list[int]:
    """Record, per training step, the peak traced bytes above the step's starting level.

    Steps are delimited at the loss evaluation, one per batch, so each
    measured interval holds one backward pass, one update and one forward
    pass. tracemalloc must be running.
    """
    from splitfed import nn_core, protocol_sim

    peaks: list[int] = []
    base = None
    loss = getattr(nn_core, STEP_MARK)

    def probed(*args, **kwargs):
        nonlocal base
        current, peak = tracemalloc.get_traced_memory()
        if base is not None:
            peaks.append(peak - base)
        tracemalloc.reset_peak()
        base = current
        return loss(*args, **kwargs)

    protocol_sim.nn_core = ModuleProxy(nn_core, {STEP_MARK: probed})
    return peaks


def track_ledgers() -> list:
    """Collect every TrafficLedger created from now on."""
    from splitfed import protocol_sim

    ledgers: list = []
    init = protocol_sim.TrafficLedger.__init__

    def registering_init(ledger, *args, **kwargs):
        init(ledger, *args, **kwargs)
        ledgers.append(ledger)

    protocol_sim.TrafficLedger.__init__ = registering_init
    return ledgers


def ledger_bytes_per_message(ledgers: list) -> float:
    """Traced bytes freed by dropping the ledgers, per message they held.

    The caller's list must hold the only references; tracemalloc must have
    been running since before the ledgers were built.
    """
    messages = sum(len(ledger) for ledger in ledgers)
    gc.collect()
    before = tracemalloc.get_traced_memory()[0]
    ledgers.clear()
    gc.collect()
    return (before - tracemalloc.get_traced_memory()[0]) / messages if messages else 0.0
