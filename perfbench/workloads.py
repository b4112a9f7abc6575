"""The benchmark's workloads: seeded inputs, the CLI calls they make, and output checks.

Each workload writes its scenario files from the workload seed, names the
``splitfed`` argv lists a run process executes (relative output paths resolve
in the sample directory), and checks what those calls wrote. The program
receives only the generated files and argv.

The first sample of a run is checked in full; later samples must reproduce
its output bytes exactly (sha256), which is itself a check: one seed gives
one set of outputs.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import math
import os
import random
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from fractions import Fraction

# Highly composite, so strict-divisibility outcomes are known by construction:
# every K on the sweep's K axis divides H, and p = H*c + r with r a prime above
# the K range is divisible only by K = 1.
_H = 2**5 * 3**3 * 5**2 * 7 * 11 * 13  # 21,621,600
_K_MAX = 10_000


@dataclass
class Call:
    argv: list[str]
    stdout: str
    # Files the CLI's own formatter writes; they count toward cli.out_bytes.
    cli_outputs: list[str] = field(default_factory=list)
    # Every file the call writes, checked for byte-identity across samples.
    outputs: list[str] = field(default_factory=list)


def param_count(widths) -> int:
    return sum(widths[i] * widths[i + 1] + widths[i + 1] for i in range(len(widths) - 1))


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


class Workload:
    """Base class: subclasses set ``calls``, ``properties`` and the check."""

    name = ""
    # work_per_s: the name it has on this workload, and the call it is timed on.
    work_name = ""
    work_call = 0

    def __init__(self, seed: int, inputs_dir: str) -> None:
        self.seed = seed
        self.inputs_dir = inputs_dir
        os.makedirs(inputs_dir, exist_ok=True)
        self.calls: list[Call] = []
        self.properties: dict = {}
        self.work_items = 0
        self.model_widths: tuple[int, ...] = ()
        self.batch_size = 0
        self.reference: dict[str, str] | None = None

    def _write(self, filename: str, text: str) -> str:
        path = os.path.join(self.inputs_dir, filename)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    def alloc_calls(self) -> list[Call]:
        """A short run of the same model for the tracemalloc pass; none by default."""
        return []

    def flops_per_step(self) -> int:
        """Computed, not measured: 6*b*sum(w_i*w_{i+1}) for forward and both
        backward products, plus 2N for the SGD update."""
        if not self.model_widths:
            return 0
        w = self.model_widths
        macs = sum(w[i] * w[i + 1] for i in range(len(w) - 1))
        return 6 * self.batch_size * macs + 2 * param_count(w)

    def check(self, sample_dir: str, codes: list) -> list[list[str]]:
        """Failure messages per call; the first sample sets the byte reference."""
        failures: list[list[str]] = [[] for _ in self.calls]
        for i, code in enumerate(codes):
            if code != 0:
                failures[i].append(f"exit code {code}")
        digests = {}
        for i, call in enumerate(self.calls):
            for rel in [call.stdout] + call.outputs:
                path = os.path.join(sample_dir, rel)
                if not os.path.exists(path):
                    failures[i].append(f"missing output {rel}")
                    continue
                digests[rel] = sha256_file(path)
        if any(failures):
            return failures
        if self.reference is None:
            try:
                self._check_outputs(sample_dir, failures)
            except (ValueError, KeyError, IndexError) as exc:  # output too damaged to read
                failures[0].append(f"outputs do not parse: {exc!r}")
            if not any(failures):
                self.reference = digests
        else:
            for i, call in enumerate(self.calls):
                for rel in [call.stdout] + call.outputs:
                    if digests[rel] != self.reference[rel]:
                        failures[i].append(f"{rel} differs from the first sample (sha256)")
        return failures

    def _check_outputs(self, sample_dir: str, failures: list[list[str]]) -> None:
        raise NotImplementedError


class SimulateWorkload(Workload):
    """One ``splitfed simulate`` call on a generated model-form scenario."""

    work_name = "records_per_s"
    variant = ""
    widths: tuple[int, ...] = ()
    toy_widths: tuple[int, ...] = ()
    clients = 0
    records_per_client = 0
    toy_clients = 0
    toy_records_per_client = 0

    def __init__(self, seed: int, inputs_dir: str, toy: bool = False) -> None:
        super().__init__(seed, inputs_dir)
        self.model_widths = self.toy_widths if toy else self.widths
        k = self.toy_clients if toy else self.clients
        per_client = self.toy_records_per_client if toy else self.records_per_client
        self.batch_size = 1
        self.scenario = self._write("scenario.txt", self._scenario_text(k, k * per_client))
        self.calls = [Call(
            argv=["simulate", "--scenario", self.scenario, "--csv", "ledger.csv", "--loss-csv", "loss.csv"],
            stdout="stdout.txt",
            cli_outputs=["loss.csv"],
            outputs=["ledger.csv", "loss.csv"],
        )]
        self.work_items = k * per_client  # one epoch
        # Same model and protocol, fewer clients and records: tracemalloc is slow.
        alloc_clients = min(k, 16)
        self._alloc_scenario = self._write("alloc.txt", self._scenario_text(alloc_clients, alloc_clients * 4))
        self.properties = {
            "protocol": self.variant, "K": k, "p": k * per_client, "records_per_client": per_client,
            "layer_widths": list(self.model_widths), "N": param_count(self.model_widths),
            "batch_size": self.batch_size, "epochs": 1, "scenario_seed": seed,
        }

    def _scenario_text(self, clients: int, records: int) -> str:
        return (
            f"name = {self.name}\n"
            f"layer_widths = {', '.join(str(w) for w in self.model_widths)}\n"
            "cut_index = 1\n"
            f"K = {clients}\n"
            f"p = {records}\n"
            "epochs = 1\n"
            f"batch_size = {self.batch_size}\n"
            f"seed = {self.seed}\n"
            f"variant = {self.variant}\n"
        )

    def alloc_calls(self) -> list[Call]:
        return [Call(argv=["simulate", "--scenario", self._alloc_scenario], stdout="stdout.txt")]

    def _check_outputs(self, sample_dir: str, failures: list[list[str]]) -> None:
        from splitfed import protocol_sim
        from splitfed.cost_model import Method
        from splitfed.scenarios import load_scenario

        fail = failures[0]
        with open(os.path.join(sample_dir, "stdout.txt"), encoding="utf-8") as fh:
            stdout = fh.read()
        if "verification: exact match" not in stdout:
            fail.append("stdout lacks 'verification: exact match'")

        sc = load_scenario(self.scenario)
        params = sc.params()
        variant = Method.FEDERATED if self.variant == "federated" else protocol_sim.SplitVariant.SYNC_EPOCH
        expected = protocol_sim.expected_kind_totals(params, variant, batch_size=sc.batch_size)
        actual = {kind.value: 0 for kind in protocol_sim.MessageKind}
        messages = 0
        with open(os.path.join(sample_dir, "ledger.csv"), newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            if next(reader, None) != ["epoch", "sender", "receiver", "kind", "scalar_count"]:
                fail.append("ledger CSV header differs")
            for row in reader:
                actual[row[3]] += int(row[4])
                messages += 1
        for kind, total in expected.items():
            if kind is protocol_sim.MessageKind.LABELS:
                continue
            if actual[kind.value] != total:
                fail.append(f"ledger {kind.value} total {actual[kind.value]} != expected {total}")

        with open(os.path.join(sample_dir, "loss.csv"), encoding="utf-8") as fh:
            loss_rows = fh.read().splitlines()
        if loss_rows[0] != "epoch,loss" or len(loss_rows) != 1 + params.epochs:
            fail.append(f"loss CSV has {len(loss_rows)} lines, expected {1 + params.epochs}")
        elif not all(math.isfinite(float(r.split(",")[1])) for r in loss_rows[1:]):
            fail.append("loss CSV holds a non-finite loss")

        self.properties["messages"] = messages
        self.properties["messages_per_record"] = messages / params.dataset_size
        self.properties["ledger_sha256"] = sha256_file(os.path.join(sample_dir, "ledger.csv"))
        self.properties["loss_sha256"] = sha256_file(os.path.join(sample_dir, "loss.csv"))


class RingManyClients(SimulateWorkload):
    """Ring-synchronised split training over many clients and a tiny model.

    The protocol layer does most of the work: ledger appends, the per-client
    ledger scan in measured_comm, verification and the ledger CSV.
    """

    name = "ring-many-clients"
    variant = "sync"
    widths = (16, 8, 4)
    toy_widths = (4, 3, 2)
    clients, records_per_client = 256, 50
    toy_clients, toy_records_per_client = 8, 4


class WideFedavg(SimulateWorkload):
    """Federated averaging of a wide model over few clients.

    The numerical core does most of the work (full-model forward, backward,
    gradient concatenation, SGD copies, averaging); the ledger holds only 2K
    messages, so this is the control for ledger changes.
    """

    name = "wide-fedavg"
    variant = "federated"
    widths = (256, 768, 256, 10)
    toy_widths = (16, 32, 8, 4)
    clients, records_per_client = 4, 160
    toy_clients, toy_records_per_client = 2, 4


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def _fmt_eta(eta) -> str:
    return f"{eta.numerator}/{eta.denominator}" if isinstance(eta, Fraction) else repr(eta)


class ClosedFormGrid(Workload):
    """``sweep`` over a seeded raw-form grid, then ``breakeven`` over a dense K range.

    The only workload that loads cost_model, svg and CLI formatting; it never
    reaches nn_core or protocol_sim. The K axis spans 1 to ~1e4 so both the
    per-cell constant cost and the K-long shard list are visible.
    """

    name = "closed-form-grid"
    work_name = "cells_per_s"
    work_call = 0

    def __init__(self, seed: int, inputs_dir: str, toy: bool = False) -> None:
        super().__init__(seed, inputs_dir)
        rng = random.Random(seed)
        k_strata, n_count, q_count = (8, 2, 2) if toy else (40, 4, 3)

        # K: one divisor of H drawn from each non-empty log10 stratum of [1, 1e4).
        divisors = [d for d in range(1, _K_MAX + 1) if _H % d == 0]
        ks = []
        for i in range(k_strata):
            lo, hi = 10 ** (4 * i / k_strata), 10 ** (4 * (i + 1) / k_strata)
            stratum = [d for d in divisors if lo <= d < hi]
            if stratum:
                ks.append(rng.choice(stratum))
        ns = sorted(int(10 ** rng.uniform(5, 9)) for _ in range(n_count))
        # Three p values every K divides, and one only K = 1 divides.
        multipliers = rng.sample(range(1, 9), 4)
        offset = rng.choice([r for r in range(_K_MAX + 1, _K_MAX + 2000) if _is_prime(r)])
        ps = [_H * c for c in multipliers[:3]] + [_H * multipliers[3] + offset]
        qs = sorted(rng.randint(1, 2048) for _ in range(q_count))
        etas = [rng.uniform(0.001, 0.999), rng.uniform(0.001, 0.999)]
        for _ in range(2):
            b = rng.randint(2, 997)
            etas.append(Fraction(rng.randint(1, b - 1), b))
        self.grid = {"K": ks, "N": ns, "p": ps, "q": qs, "eta": etas}

        sweep_file = self._write("grid.txt", (
            "name = closed-form-grid\n"
            f"K = {ks[0]}\nN = {ns[0]}\np = {ps[0]}\nq = {qs[0]}\neta = {_fmt_eta(etas[0])}\n"
            f"grid.K = {', '.join(map(str, ks))}\n"
            f"grid.N = {', '.join(map(str, ns))}\n"
            f"grid.p = {', '.join(map(str, ps))}\n"
            f"grid.q = {', '.join(map(str, qs))}\n"
            f"grid.eta = {', '.join(_fmt_eta(e) for e in etas)}\n"
        ))

        points = 200 if toy else 40_000
        k_lo = rng.randint(1, 50)
        self.breakeven = {
            "p": rng.randint(1_000, 1_000_000), "q": rng.randint(1, 1000),
            "eta": rng.uniform(0.001, 0.999), "ks": range(k_lo, k_lo + points),
        }
        be = self.breakeven
        self.calls = [
            Call(argv=["sweep", "--scenario", sweep_file, "--csv", "sweep.csv"],
                 stdout="sweep.stdout.txt", cli_outputs=["sweep.csv"], outputs=["sweep.csv"]),
            Call(argv=["breakeven", "--p", str(be["p"]), "--q", str(be["q"]), "--eta", repr(be["eta"]),
                       "--k-range", f"{k_lo}:{k_lo + points - 1}:1", "--csv", "curve.csv", "--svg", "curve.svg"],
                 stdout="breakeven.stdout.txt", cli_outputs=["curve.csv"], outputs=["curve.csv", "curve.svg"]),
        ]

        cells = math.prod(len(v) for v in self.grid.values())
        self.work_items = cells
        self.points = points
        others = cells // len(ks)
        self.error_cells = sum(p % k != 0 for k in ks for p in ps) * len(ns) * len(qs) * len(etas)
        self.properties = {
            "cells": cells, "points": points, "K_axis": len(ks),
            "share_cells_K_ge_1000": sum(k >= 1000 for k in ks) * others / cells,
            "share_error_cells": self.error_cells / cells,
            "share_rational_eta_cells": sum(isinstance(e, Fraction) for e in etas) / len(etas),
        }

    def _cell_rows(self, path: str) -> list[list[list[str]]]:
        """CSV rows grouped per cell: one Error row or three method rows."""
        cells = []
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            next(reader)
            rows = list(reader)
        i = 0
        while i < len(rows):
            width = 1 if rows[i][0] == "Error" else 3
            cells.append(rows[i : i + width])
            i += width
        return cells

    def _check_outputs(self, sample_dir: str, failures: list[list[str]]) -> None:
        self._check_sweep(os.path.join(sample_dir, "sweep.csv"), failures[0])
        self._check_breakeven(sample_dir, failures[1])

    def _check_sweep(self, path: str, fail: list[str]) -> None:
        g = self.grid
        cells = self._cell_rows(path)
        if len(cells) != self.work_items:
            fail.append(f"sweep wrote {len(cells)} cells, expected {self.work_items}")
            return
        errors = sum(rows[0][0] == "Error" for rows in cells)
        if errors != self.error_cells:
            fail.append(f"{errors} Error rows, expected {self.error_cells} divisibility failures")
        # Cell order: K, N, p, q, eta, rightmost fastest.
        combos = itertools.product(g["K"], g["N"], g["p"], g["q"], g["eta"])
        for index, (k, n, p, q, eta) in enumerate(combos):
            rows = cells[index]
            head = rows[0]
            if [int(head[1]), int(head[2]), int(head[3]), int(head[4])] != [k, n, p, q] or \
                    not math.isclose(float(head[5]), float(eta), rel_tol=1e-11):
                fail.append(f"cell {index} lists inputs {head[1:6]}, expected {[k, n, p, q, eta]}")
                continue
            if p % k:
                if head[0] != "Error":
                    fail.append(f"cell {index} (p % K != 0) is not an Error row")
                continue
            client_weights = round(Fraction(eta) * n)  # eta*N to the nearest scalar, exactly
            expected = {
                "SplitSync": 2 * p * q + client_weights * k,
                "SplitNoSync": 2 * p * q,
                "Federated": 2 * k * n,
            }
            got = {row[0]: int(row[8]) for row in rows}
            if got != expected:
                fail.append(f"cell {index} totals {got}, expected {expected}")

    def _check_breakeven(self, sample_dir: str, fail: list[str]) -> None:
        be = self.breakeven
        p, q, eta = be["p"], be["q"], Fraction(be["eta"])
        with open(os.path.join(sample_dir, "curve.csv"), newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        if [int(r[0]) for r in rows] != list(be["ks"]):
            fail.append(f"curve CSV K column differs from the requested range ({len(rows)} rows)")
        # The CSV prints N* to 12 significant digits, which moves rho by up to
        # (2 - eta)/2 times that rounding; the 1e-12 budget comes on top.
        for k_text, n_text in rows:
            k, n = int(k_text), Fraction(n_text)
            rho = 2 * k * n / (2 * p * q + eta * n * k)
            rounding = Fraction(10) ** (math.floor(math.log10(n)) - 11) / 2 / n
            if abs(rho - 1) > Fraction(1, 10**12) + (2 - eta) / 2 * rounding:
                fail.append(f"rho(N*) at K={k} deviates from 1 by {float(abs(rho - 1)):.3g}")
                break

        try:
            svg = ET.parse(os.path.join(sample_dir, "curve.svg")).getroot()
        except ET.ParseError as exc:
            fail.append(f"SVG does not parse as XML: {exc}")
            return
        lines = svg.findall("{http://www.w3.org/2000/svg}polyline")
        if len(lines) != 1:
            fail.append(f"SVG has {len(lines)} polylines, expected 1")
        elif len(lines[0].get("points", "").split()) != len(be["ks"]):
            fail.append("SVG polyline point count differs from the K count")


WORKLOADS = {cls.name: cls for cls in (RingManyClients, WideFedavg, ClosedFormGrid)}
