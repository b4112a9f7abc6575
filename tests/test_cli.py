"""Scenario files, built-in suites, and the four CLI subcommands."""

import codecs
import contextlib
import csv
import errno
import io
import math
import operator
import os
import subprocess
import sys
import tempfile
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from splitfed import Protocol, ScenarioError, Winner, efficiency_ratio
from splitfed import cli, cost_model
from splitfed.cli import main
from splitfed.scenarios import (
    Scenario,
    BUILTIN_SUITES,
    builtin_names,
    load_scenario,
    load_suite,
    parse_scenario_text,
)

RAW_TEXT = """
# raw-parameter scenario
name = demo
K = 100
N = 1_000_000
p = 1_000_000
q = 100
eta = 0.1
variant = sync
epochs = 2
"""

MODEL_TEXT = """
name = tiny
layer_widths = 4, 3, 2
cut_index = 1
K = 2
p = 6
seed = 42
"""


# --- parsing -----------------------------------------------------------------

def test_parse_raw_scenario():
    sc = parse_scenario_text(RAW_TEXT)
    assert sc.name == "demo" and sc.variant == "sync"
    params = sc.params()
    assert params.epochs == 2
    assert (params.clients, params.model_params) == (100, 1_000_000)
    assert params.client_fraction == 0.1


def test_parse_model_scenario():
    sc = parse_scenario_text(MODEL_TEXT)
    assert sc.is_model_form
    params = sc.params()
    assert params.model_params == 23
    assert params.smashed_size == 3
    assert params.client_fraction == Fraction(15, 23)


def test_parse_eta_as_exact_rational():
    sc = parse_scenario_text("K = 2\np = 6\nN = 23\nq = 3\neta = 15/23\n")
    assert sc.params().client_fraction == Fraction(15, 23)


def test_parse_rejects_mixed_forms():
    with pytest.raises(ScenarioError):
        parse_scenario_text(RAW_TEXT + "layer_widths = 4,3,2\ncut_index = 1\n")


def test_parse_rejects_incomplete_forms():
    with pytest.raises(ScenarioError):
        parse_scenario_text("K = 2\np = 6\n")  # neither form
    with pytest.raises(ScenarioError):
        parse_scenario_text("K = 2\np = 6\nN = 10\nq = 2\n")  # eta missing
    with pytest.raises(ScenarioError):
        parse_scenario_text("K = 2\np = 6\nlayer_widths = 4,3,2\n")  # cut missing


def test_parse_rejects_bad_lines():
    with pytest.raises(ScenarioError):
        parse_scenario_text("K 2\n")
    with pytest.raises(ScenarioError):
        parse_scenario_text("K = 2\nK = 3\n")
    with pytest.raises(ScenarioError):
        parse_scenario_text("flux = 9\n")
    with pytest.raises(ScenarioError):
        parse_scenario_text("K = two\n")
    with pytest.raises(ScenarioError):
        parse_scenario_text(RAW_TEXT + "variant = fancy\n")


def test_parse_grids():
    sc = parse_scenario_text(RAW_TEXT + "grid.K = 1, 10, 100\ngrid.eta = 0.1, 0.5\n")
    assert sc.grids["clients"] == [1, 10, 100]
    assert sc.grids["client_fraction"] == [0.1, 0.5]
    axes = sc.grid()
    assert axes["clients"] == [1, 10, 100]
    assert axes["model_params"] == 1_000_000


# --- built-ins ---------------------------------------------------------------

def test_builtin_names_resolve():
    for name in builtin_names():
        assert load_scenario(name).name


def test_suite_alias_points_at_first_case():
    assert load_scenario("biobank").name == "biobank-case-1"
    assert load_scenario("smartwatch").name == "smartwatch-case-1"


def test_builtin_regimes():
    expected = {
        "biobank": Winner.SPLIT,
        "smartwatch-case-1": Winner.SPLIT,
        "hospital-case-3": Winner.FEDERATED,
        "smartwatch-case-3": Winner.FEDERATED,
        # very large models: a big corpus over few clients still favors federated
        "foundation-case-1": Winner.FEDERATED,
        "foundation-case-2": Winner.SPLIT,
        "foundation-case-3": Winner.SPLIT,
    }
    for name, winner in expected.items():
        params = load_scenario(name).params()
        assert efficiency_ratio(params, Protocol.SPLIT_SYNC).winner is winner, name


def test_suites_have_three_cases():
    for suite, cases in BUILTIN_SUITES.items():
        assert len(cases) == 3
        assert len(load_suite(suite)) == 3


def test_unknown_scenario_is_config_error():
    with pytest.raises(ScenarioError):
        load_scenario("no-such-scenario")


# --- analyze -----------------------------------------------------------------

def test_analyze_builtin_stdout(capsys):
    assert main(["analyze", "--scenario", "hospital-case-3"]) == 0
    out = capsys.readouterr().out
    assert "winner: Federated" in out
    assert "SplitSync" in out and "Federated" in out


def test_analyze_csv_golden(tmp_path, capsys):
    scenario = tmp_path / "s.txt"
    scenario.write_text(MODEL_TEXT)
    csv_path = tmp_path / "out.csv"
    assert main(["analyze", "--scenario", str(scenario), "--csv", str(csv_path)]) == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0].startswith("method,K,N,p,q,eta,epochs")
    assert lines[1].startswith("SplitSync,2,23,6,3,0.652173913043,1,33,66,132,264,")
    assert lines[2].startswith("SplitNoSync,2,23,6,3,0.652173913043,1,18,36,72,144,")
    assert lines[3].startswith("Federated,2,23,6,3,0.652173913043,1,46,92,184,368,")


def test_analyze_csv_byte_stable(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["analyze", "--scenario", "smartwatch-case-2", "--csv", str(a)]) == 0
    assert main(["analyze", "--scenario", "smartwatch-case-2", "--csv", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_analyze_missing_scenario_exits_2(capsys):
    assert main(["analyze", "--scenario", "nowhere.conf"]) == 2


def test_non_utf8_scenario_file_exits_2(tmp_path, capsys):
    scenario = tmp_path / "latin1.txt"
    scenario.write_bytes("name = caf\u00e9\nK = 2\np = 4\nN = 10\nq = 1\neta = 0.5\n".encode("latin-1"))
    assert main(["analyze", "--scenario", str(scenario)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: cannot read scenario file") and "latin1.txt" in err[0]


def test_a_scenario_file_with_a_byte_order_mark_reads_as_without_one(tmp_path, capsys):
    text = RAW_TEXT.replace("# raw-parameter scenario", "").lstrip()  # the mark sits before the first key
    plain, marked, latin1 = tmp_path / "plain.txt", tmp_path / "marked.txt", tmp_path / "latin1.txt"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(codecs.BOM_UTF8)
    assert main(["analyze", "--scenario", str(plain)]) == 0
    expected = capsys.readouterr().out
    assert main(["analyze", "--scenario", str(marked)]) == 0
    assert capsys.readouterr().out == expected
    # a mark does not make a file in another encoding readable
    latin1.write_bytes(codecs.BOM_UTF8 + "name = caf\u00e9\n".encode("latin-1") + text.encode())
    assert main(["analyze", "--scenario", str(latin1)]) == 2
    assert capsys.readouterr().err.startswith("error: cannot read scenario file")


def test_analyze_total_rounds_the_exact_client_weights(tmp_path, capsys):
    # eta*N = Fraction(0.37) * 150 = 55.4999...: 55 client weights per hand-off
    scenario = tmp_path / "s.txt"
    scenario.write_text("K = 2\np = 4\nN = 150\nq = 1\neta = 0.37\n")
    csv_path = tmp_path / "out.csv"
    assert main(["analyze", "--scenario", str(scenario), "--csv", str(csv_path)]) == 0
    sync_row = csv_path.read_text().splitlines()[1].split(",")
    assert sync_row[0] == "SplitSync" and int(sync_row[8]) == 2 * 4 * 1 + 55 * 2


def test_analyze_divisibility_exits_3(tmp_path, capsys):
    scenario = tmp_path / "odd.txt"
    scenario.write_text("K = 2\np = 7\nN = 10\nq = 1\neta = 0.5\n")
    assert main(["analyze", "--scenario", str(scenario)]) == 3
    assert main(["analyze", "--scenario", str(scenario), "--lenient-shards"]) == 0


@pytest.mark.parametrize("variant", [protocol.value for protocol in Protocol])
@pytest.mark.parametrize("command", ["analyze", "breakeven", "simulate", "sweep"])
def test_every_subcommand_rejects_a_zero_batch_size(tmp_path, capsys, command, variant):
    scenario = tmp_path / "batch0.txt"
    scenario.write_text(MODEL_TEXT + f"variant = {variant}\nbatch_size = 0\n")
    extra = ["--k-range", "1:4:1"] if command == "breakeven" else []
    assert main([command, "--scenario", str(scenario), *extra]) == 3
    captured = capsys.readouterr()
    assert captured.err == "error: batch_size must be >= 1, got 0\n"
    assert captured.out == ""


def test_analyze_ignores_env_seed(monkeypatch, capsys):
    assert main(["analyze", "--scenario", "tiny-dense"]) == 0
    expected = capsys.readouterr().out
    monkeypatch.setenv("SPLITFED_SEED", "abc")
    assert main(["analyze", "--scenario", "tiny-dense"]) == 0
    assert capsys.readouterr().out == expected


def test_label_width_is_the_model_output_width(tmp_path, capsys):
    # tiny-dense outputs 2 scalars per record: per client 9 + 9 + 15 + 3 * 2 labels
    analyze_csv, sweep_csv = tmp_path / "analyze.csv", tmp_path / "sweep.csv"
    assert main(["analyze", "--scenario", "tiny-dense", "--include-labels", "--csv", str(analyze_csv)]) == 0
    assert main(["sweep", "--scenario", "tiny-dense", "--include-labels", "--csv", str(sweep_csv)]) == 0
    for path in (analyze_csv, sweep_csv):
        sync_row = path.read_text().splitlines()[1].split(",")
        assert sync_row[0] == "SplitSync" and sync_row[7:9] == ["39", "78"]
    capsys.readouterr()
    assert main(["simulate", "--scenario", "tiny-dense", "--include-labels"]) == 0
    assert "(labels included): 78 scalars, 312 bytes; per client max 39 scalars" in capsys.readouterr().out


def test_raw_label_width_counts_its_labels_only_under_include_labels(tmp_path, capsys):
    # A raw form states its task's label width; only --include-labels reads
    # it. Sync sends p = 10 records' labels, nosync the same, federated none.
    raw = "K = 2\nN = 100\np = 10\nq = 4\neta = 1/2\n"
    totals = {}
    for name, extra in (("default", ""), ("one", "label_width = 1\n"), ("three", "label_width = 3\n")):
        scenario = tmp_path / f"{name}.txt"
        scenario.write_text(raw + extra)
        for flags in ([], ["--include-labels"]):
            for command in ("analyze", "sweep"):
                out = tmp_path / f"{name}-{command}-{len(flags)}.csv"
                assert main([command, "--scenario", str(scenario), *flags, "--csv", str(out)]) == 0
                rows = list(csv.reader(out.read_text().splitlines()))
                assert rows[0] == cli.CSV_HEADER  # label_width is no column
                totals[name, command, bool(flags)] = {row[0]: int(row[8]) for row in rows[1:]}
    capsys.readouterr()
    without = {"SplitSync": 180, "SplitNoSync": 80, "Federated": 400}
    for name, width in (("default", 1), ("one", 1), ("three", 3)):
        for command in ("analyze", "sweep"):
            assert totals[name, command, False] == without
            assert totals[name, command, True] == {"SplitSync": 180 + 10 * width, "SplitNoSync": 80 + 10 * width,
                                                   "Federated": 400}


@pytest.mark.parametrize("text, code, message", [
    ("layer_widths = 4, 3, 2\ncut_index = 1\nK = 2\np = 6\nlabel_width = 2\n", 2, "label_width is a raw-form key"),
    ("K = 2\nN = 100\np = 10\nq = 4\neta = 1/2\nlabel_width = 0\n", 3, "label_width must be >= 1, got 0"),
    ("K = 2\nN = 100\np = 10\nq = 4\neta = 1/2\nlabel_width = 1.5\n", 2, "'label_width' must be an integer"),
])
def test_a_label_width_key_is_refused_where_it_cannot_hold(tmp_path, capsys, text, code, message):
    # A model form's label width is its output width, so it may not state one.
    scenario = tmp_path / "scenario.txt"
    scenario.write_text(text)
    assert main(["analyze", "--scenario", str(scenario), "--include-labels"]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and err.count("\n") == 1


# --- simulate ----------------------------------------------------------------

def test_simulate_golden_exact_match(tmp_path, capsys):
    ledger = tmp_path / "ledger.csv"
    losses = tmp_path / "loss.csv"
    code = main(["simulate", "--scenario", "tiny-dense",
                 "--csv", str(ledger), "--loss-csv", str(losses)])
    assert code == 0
    out = capsys.readouterr().out
    assert "verification: exact match" in out
    assert ledger.read_text().splitlines()[0] == "epoch,sender,receiver,kind,scalar_count"
    assert losses.read_text().splitlines()[0] == "epoch,loss"


def test_simulate_all_variants_verify(tmp_path, capsys):
    for variant in ("sync", "nosync"):
        assert main(["simulate", "--scenario", "tiny-dense", "--variant", variant]) == 0
    # sync_batch and federated ride in via the scenario file
    for extra in ("variant = sync_batch", "variant = federated"):
        scenario = tmp_path / "v.txt"
        scenario.write_text(MODEL_TEXT + extra + "\n")
        assert main(["simulate", "--scenario", str(scenario)]) == 0


def test_simulate_injected_fault_exits_4(capsys):
    assert main(["simulate", "--scenario", "tiny-dense", "--inject-fault"]) == 4
    assert "mismatch" in capsys.readouterr().out


@pytest.mark.parametrize("include_labels", [[], ["--include-labels"]])
def test_simulate_exits_4_on_a_forged_labels_message(monkeypatch, capsys, include_labels):
    # The ledger check counts Labels whether or not the reported totals do:
    # one extra 5-scalar Labels message is a mismatch.
    from splitfed import MessageKind, protocol_sim

    train = protocol_sim.run_split_training

    def forging(*args, **kwargs):
        run = train(*args, **kwargs)
        run.ledger.append(0, protocol_sim.client_id(1), protocol_sim.SERVER, MessageKind.LABELS, 5)
        return run

    monkeypatch.setattr(protocol_sim, "run_split_training", forging)
    assert main(["simulate", "--scenario", "tiny-dense", *include_labels]) == 4
    out = capsys.readouterr().out
    assert "verification: mismatch: Labels: expected 12, got 17 (+5); first differing client client1 (Labels +5)" in out


def test_simulate_guard_exits_3(tmp_path, capsys):
    big = tmp_path / "big.txt"
    big.write_text("layer_widths = 4, 3, 2\ncut_index = 1\nK = 2\np = 200_000\n")
    assert main(["simulate", "--scenario", str(big)]) == 3


@pytest.mark.parametrize("text, bound", [
    # K = p = 100,000 clients of an N = 999,001 federated model: ~800 GB of uploads
    pytest.param("layer_widths = 997, 1000, 1\ncut_index = 1\nK = 100_000\np = 100_000\nvariant = federated\n",
                 "epochs*K*N", id="federated-uploads"),
    # 2,000 clients copy and fold 2e9 scalars of the same model in one round
    pytest.param("layer_widths = 997, 1000, 1\ncut_index = 1\nK = 2_000\np = 2_000\nvariant = federated\n",
                 "epochs*K*N", id="federated-folds"),
    # K * N = 100,000 x 172 held scalars, with N and p each within its own limit
    pytest.param("layer_widths = 16, 8, 4\ncut_index = 1\nK = 100_000\np = 100_000\n", "K*N", id="held-weights"),
    # epochs * p = 11 x 100,000 records trained and ~3.3M ledger rows
    pytest.param("layer_widths = 4, 3, 2\ncut_index = 1\nK = 2\np = 100_000\nepochs = 11\n", "epochs*max(p,K)",
                 id="record-epochs"),
    # no records, yet a hand-off per epoch: epochs * K
    pytest.param("layer_widths = 4, 3, 2\ncut_index = 1\nK = 2\np = 0\nepochs = 1_000_000\n", "epochs*max(p,K)",
                 id="hand-offs-without-records"),
    # 100,000 records of 499,997 inputs: 400 GB of synthetic data, with N, p and K*N within their limits
    pytest.param("layer_widths = 499_997, 2, 1\ncut_index = 1\nK = 1\np = 100_000\n", "p*(input+output width)",
                 id="dataset"),
])
def test_simulate_guard_bounds_memory_and_work_before_allocating(tmp_path, monkeypatch, capsys, text, bound):
    def no_allocation(*args, **kwargs):
        raise AssertionError("the guard must reject the scenario before any data is generated")

    monkeypatch.setattr("splitfed.cli.random_dataset", no_allocation)
    big = tmp_path / "big.txt"
    big.write_text(text)
    assert main(["simulate", "--scenario", str(big)]) == 3
    assert f"too large to simulate ({bound}=" in capsys.readouterr().err


def test_simulate_bounds_federated_by_its_fold_work_not_k_times_n(tmp_path, capsys):
    # K * N = 20 x 999,001 is past split's held-weights limit, but a federated
    # run holds five N-vectors whatever K is, so it runs and verifies.
    scenario = tmp_path / "many-clients.txt"
    scenario.write_text("layer_widths = 997, 1000, 1\ncut_index = 1\nK = 20\np = 20\nvariant = federated\n")
    assert main(["simulate", "--scenario", str(scenario)]) == 0
    assert "verification: exact match" in capsys.readouterr().out
    assert main(["simulate", "--scenario", str(scenario), "--variant", "sync"]) == 3
    assert "too large to simulate (K*N=19980020 > 10000000)" in capsys.readouterr().err


@pytest.mark.parametrize("lr", ["nan", "inf", "-inf"])
def test_simulate_rejects_a_non_finite_learning_rate(monkeypatch, capsys, lr):
    def no_allocation(*args, **kwargs):
        raise AssertionError("a non-finite --lr must be rejected before any data is generated")

    monkeypatch.setattr("splitfed.cli.random_dataset", no_allocation)
    assert main(["simulate", "--scenario", "tiny-dense", f"--lr={lr}"]) == 3
    assert "--lr must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("lr", ["-1", "-1e-300", "-inf"])
def test_simulate_rejects_a_negative_learning_rate(monkeypatch, capsys, lr):
    # A negative rate steps up the loss gradient: the run used to exit 0 and
    # print an exact match over a meaningless loss.
    def no_allocation(*args, **kwargs):
        raise AssertionError("a negative --lr must be rejected before any data is generated")

    monkeypatch.setattr("splitfed.cli.random_dataset", no_allocation)
    assert main(["simulate", "--scenario", "tiny-dense", f"--lr={lr}"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: --lr must be finite and >= 0") and err.count("\n") == 1


def test_simulate_at_a_zero_learning_rate_moves_only_traffic(tmp_path, capsys):
    # --lr 0 stays valid: the weights never move, so every epoch reads the
    # same loss, and the ledger is the one a training run logs.
    scenario, losses, ledgers = tmp_path / "three-epochs.txt", tmp_path / "loss.csv", {}
    scenario.write_text("layer_widths = 4, 3, 2\ncut_index = 1\nK = 2\np = 6\nepochs = 3\nseed = 42\n")
    for lr in ("0", "0.01"):
        ledgers[lr] = tmp_path / f"ledger-{lr}.csv"
        argv = ["simulate", "--scenario", str(scenario), "--lr", lr, "--csv", str(ledgers[lr])]
        assert main(argv + (["--loss-csv", str(losses)] if lr == "0" else [])) == 0
        assert "verification: exact match" in capsys.readouterr().out
    assert ledgers["0"].read_bytes() == ledgers["0.01"].read_bytes()
    epochs = [row.split(",")[1] for row in losses.read_text().splitlines()[1:]]
    assert len(epochs) == 3 and len(set(epochs)) == 1


@pytest.mark.parametrize("variant, unit", [
    ("sync", "epoch"), ("sync_batch", "epoch"), ("nosync", "epoch"), ("federated", "round"),
])
def test_simulate_diverged_run_exits_3_with_one_error_line(variant, unit):
    # A huge but finite --lr overflows in the first step; the run must say so
    # on one line, with no numpy warning on stderr and no NaN loss written.
    proc = subprocess.run(
        [sys.executable, "-m", "splitfed.cli", "simulate", "--scenario", "tiny-dense",
         "--variant", variant, "--lr", "1e300"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 3
    assert proc.stderr == f"error: training diverged: {unit} 0 loss is nan (try a smaller learning rate)\n"


def test_simulate_names_the_first_diverged_epoch(tmp_path, capsys):
    scenario = tmp_path / "three-epochs.txt"
    scenario.write_text(MODEL_TEXT + "epochs = 3\n")
    losses = tmp_path / "loss.csv"
    assert main(["simulate", "--scenario", str(scenario), "--lr", "1e30", "--loss-csv", str(losses)]) == 3
    assert capsys.readouterr().err == "error: training diverged: epoch 1 loss is nan (try a smaller learning rate)\n"
    assert not losses.exists()


def test_simulate_epoch_without_records_keeps_its_nan(tmp_path, capsys):
    # nosync visits client (e mod K)+1 alone; with p = 2 over K = 4 lenient
    # shards, epochs 2 and 3 visit empty shards and report NaN, not divergence.
    scenario = tmp_path / "empty-shards.txt"
    scenario.write_text("layer_widths = 4, 3, 2\ncut_index = 1\nK = 4\np = 2\nepochs = 4\nvariant = nosync\n")
    losses = tmp_path / "loss.csv"
    assert main(["simulate", "--scenario", str(scenario), "--lenient-shards", "--loss-csv", str(losses)]) == 0
    rows = [line.split(",") for line in losses.read_text().splitlines()[1:]]
    assert [loss == "nan" for _, loss in rows] == [False, False, True, True]


@pytest.mark.parametrize("batch_size", [1, 3])
@pytest.mark.parametrize("variant", [protocol.value for protocol in Protocol])
def test_simulate_lenient_shards_verify_exactly(tmp_path, capsys, variant, batch_size):
    # p = 7 over K = 3 gives shards of 3, 2 and 2; the ledger check reads the
    # same split from shard_sizes that the data partition was cut by
    scenario = tmp_path / "lenient.txt"
    scenario.write_text(f"layer_widths = 4, 3, 2\ncut_index = 1\nK = 3\np = 7\nepochs = 3\n"
                        f"batch_size = {batch_size}\nvariant = {variant}\n")
    assert main(["simulate", "--scenario", str(scenario), "--lenient-shards"]) == 0
    assert "verification: exact match" in capsys.readouterr().out


def test_simulate_raw_scenario_exits_2(tmp_path, capsys):
    raw = tmp_path / "raw.txt"
    raw.write_text(RAW_TEXT)
    assert main(["simulate", "--scenario", str(raw)]) == 2


def test_simulate_ledger_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["simulate", "--scenario", "tiny-dense", "--csv", str(a)]) == 0
    assert main(["simulate", "--scenario", "tiny-dense", "--csv", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_env_seed_override(tmp_path, monkeypatch, capsys):
    default_loss = tmp_path / "default.csv"
    assert main(["simulate", "--scenario", "tiny-dense", "--loss-csv", str(default_loss)]) == 0
    override_loss = tmp_path / "override.csv"
    monkeypatch.setenv("SPLITFED_SEED", "7")
    assert main(["simulate", "--scenario", "tiny-dense", "--loss-csv", str(override_loss)]) == 0
    assert default_loss.read_bytes() != override_loss.read_bytes()
    monkeypatch.setenv("SPLITFED_SEED", "not-a-number")
    assert main(["simulate", "--scenario", "tiny-dense"]) == 2


# --- breakeven ---------------------------------------------------------------

def test_breakeven_csv_values(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    code = main(["breakeven", "--p", "1000", "--q", "10", "--eta", "1",
                 "--k-range", "1:100:x10", "--csv", str(out)])
    assert code == 0
    assert out.read_text() == "K,N_break_even\n1,20000\n10,2000\n100,200\n"

    nosync = tmp_path / "nosync.csv"
    assert main(["breakeven", "--p", "1000", "--q", "10", "--eta", "1",
                 "--variant", "nosync", "--k-range", "1,10,100", "--csv", str(nosync)]) == 0
    assert nosync.read_text() == "K,N_break_even\n1,10000\n10,1000\n100,100\n"


def test_breakeven_writes_a_whole_n_star_past_1e12_as_an_integer(tmp_path, capsys):
    # N* = pq/K: a block that reaches 1e12 formats each N* with _fmt, which writes
    # a whole one below 1e15 as an integer, where "%.12g" would write 1e+13
    out = tmp_path / "curve.csv"
    assert main(["breakeven", "--p", "10000000", "--q", "1000000", "--eta", "0",
                 "--k-range", "1:6", "--csv", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "  K=1          N*=10000000000000\n" in stdout
    assert "  K=3          N*=3.33333333333e+12\n" in stdout
    assert out.read_text().splitlines()[1:4] == ["1,10000000000000", "2,5000000000000", "3,3.33333333333e+12"]


def test_breakeven_linear_in_q(tmp_path, capsys):
    single = tmp_path / "q10.csv"
    double = tmp_path / "q20.csv"
    base = ["breakeven", "--p", "1000", "--eta", "0.5", "--k-range", "1:5:1"]
    assert main(base + ["--q", "10", "--csv", str(single)]) == 0
    assert main(base + ["--q", "20", "--csv", str(double)]) == 0
    ns1 = [float(line.split(",")[1]) for line in single.read_text().splitlines()[1:]]
    ns2 = [float(line.split(",")[1]) for line in double.read_text().splitlines()[1:]]
    # CSV carries 12 significant digits, so compare at that quantization
    assert ns2 == pytest.approx([2 * n for n in ns1], rel=1e-11)


def test_breakeven_scenario_source(tmp_path, capsys):
    out = tmp_path / "c.csv"
    assert main(["breakeven", "--scenario", "biobank", "--k-range", "10:1000:x10",
                 "--csv", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 4


def test_breakeven_svg(tmp_path, capsys):
    svg = tmp_path / "curve.svg"
    assert main(["breakeven", "--p", "1000", "--q", "10", "--eta", "1",
                 "--k-range", "1:10000:x10", "--svg", str(svg)]) == 0
    text = svg.read_text()
    assert text.startswith("<svg") and "<polyline" in text
    assert "split learning cheaper" in text and "federated learning cheaper" in text


def test_breakeven_csv_and_svg_hold_two_columns_not_a_string_per_point(tmp_path):
    # 200,000 points: the K column stays a range, N* an array of 8 B a point,
    # and the SVG document (12.5 B a point) is held about twice while it is
    # joined and written, 33 B a point in all; holding the points as tuples
    # and the polyline as a string per point peaked at 225 B a point
    points = 200_000
    csv_path, svg_path = tmp_path / "curve.csv", tmp_path / "curve.svg"
    argv = ["breakeven", "--p", "615613", "--q", "4", "--eta", "3/5",
            "--k-range", f"39:{38 + points}:1", "--csv", str(csv_path), "--svg", str(svg_path)]
    with open(os.devnull, "w") as null, contextlib.redirect_stdout(null):
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 50 * points
    assert csv_path.read_text(encoding="utf-8").count("\n") == 1 + points


def test_breakeven_bad_range_exits_3(capsys):
    assert main(["breakeven", "--p", "10", "--q", "1", "--eta", "0", "--k-range", "5:1:1"]) == 3
    assert main(["breakeven", "--p", "10", "--q", "1", "--eta", "0", "--k-range", "0,3"]) == 3
    assert main(["breakeven", "--p", "10", "--q", "1", "--eta", "0", "--k-range", "a:b:c"]) == 3


def test_breakeven_geometric_range_starts_at_one(capsys):
    # from K <= 0 a geometric range never passes its upper end
    for k_range in ("0:8:x2", "-1:8:x2"):
        assert main(["breakeven", "--p", "10", "--q", "1", "--eta", "0", f"--k-range={k_range}"]) == 3
        assert "A >= 1" in capsys.readouterr().err


def test_breakeven_k_range_point_limit(capsys):
    # an arithmetic range is counted before it is built: one point over the limit exits 3
    assert main(["breakeven", "--p", "10", "--q", "1", "--eta", "0", "--k-range", "1:1000001"]) == 3
    assert "1000001 points" in capsys.readouterr().err
    # more points than a len() can count
    assert main(["breakeven", "--p", "10", "--q", "1", "--eta", "0", "--k-range", f"1:{10**20}"]) == 3
    assert f"{10**20} points" in capsys.readouterr().err


@pytest.mark.parametrize("k_range", ["1,2,3,4", "1:4", "1:7:2", "1:8:x2"])
def test_k_range_point_limit_covers_every_form(monkeypatch, capsys, k_range):
    monkeypatch.setattr(cli, "K_RANGE_MAX_POINTS", 3)
    assert main(["breakeven", "--p", "10", "--q", "1", "--eta", "0", "--k-range", k_range]) == 3
    assert "has 4 points, more than 3" in capsys.readouterr().err
    assert main(["breakeven", "--p", "10", "--q", "1", "--eta", "0", "--k-range", "1:3"]) == 0


def test_k_range_list_over_the_limit_converts_no_item(monkeypatch, capsys):
    # the non-empty items are counted first: an oversized list is refused before
    # any item goes through _k_int
    calls = []
    k_int = cli._k_int
    monkeypatch.setattr(cli, "_k_int", lambda *args: calls.append(args) or k_int(*args))
    over = cli.K_RANGE_MAX_POINTS + 1
    assert main(["breakeven", "--p", "10", "--q", "1", "--eta", "0", "--k-range", ",".join(["1"] * over)]) == 3
    assert f"has {over} points" in capsys.readouterr().err
    assert calls == []
    # blank items are not points, and each point is converted once
    assert main(["breakeven", "--p", "10", "--q", "1", "--eta", "0", "--k-range", "1,, 2 ,,3,"]) == 0
    assert len(calls) == 3


@pytest.mark.parametrize("k_range, item", [
    (",".join(["1"] * 99_999 + ["x"]), "K at item 100000 is 'x'"),
    (",".join(["0"] * 100_000), "need K at item 1 >= 1, got '0'"),
    ("1:" + "9" * 100_000 + "y", "B is '99999999999999999999'..."),
])
def test_breakeven_k_range_error_names_the_first_bad_item(capsys, k_range, item):
    assert main(["breakeven", "--p", "10", "--q", "1", "--eta", "0", "--k-range", k_range]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err.encode()) < 200
    assert item in err


def test_breakeven_n_star_past_the_float_range_exits_3(tmp_path, capsys):
    csv_path, svg_path = tmp_path / "curve.csv", tmp_path / "curve.svg"
    assert main(["breakeven", "--p", "1e300", "--q", "1e10", "--eta", "0.5", "--k-range", "1:2",
                 "--csv", str(csv_path), "--svg", str(svg_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "K=1" in err
    assert not csv_path.exists() and not svg_path.exists()


def test_breakeven_uses_the_scenario_variant(tmp_path, capsys):
    scenario = tmp_path / "nosync.txt"
    scenario.write_text(RAW_TEXT.replace("variant = sync", "variant = nosync"))
    base = ["breakeven", "--scenario", str(scenario), "--k-range", "1:1000:x10", "--csv"]
    implied, nosync, sync = (tmp_path / f"{name}.csv" for name in ("implied", "nosync", "sync"))
    assert main(base + [str(implied)]) == 0
    assert main(base + [str(nosync), "--variant", "nosync"]) == 0
    assert main(base + [str(sync), "--variant", "sync"]) == 0
    assert implied.read_bytes() == nosync.read_bytes() != sync.read_bytes()


def test_breakeven_reads_numbers_as_a_scenario_file_does(tmp_path, capsys):
    # --eta a/b keeps the exact rational and --p takes scientific notation,
    # the spellings a scenario file accepts
    scenario = tmp_path / "third.txt"
    scenario.write_text(RAW_TEXT.replace("p = 1_000_000", "p = 1000").replace("eta = 0.1", "eta = 1/3"))
    from_file, from_flags, decimal = (tmp_path / f"{name}.csv" for name in ("file", "flags", "decimal"))
    k_range = ["--k-range", "1:1000:x10", "--csv"]
    assert main(["breakeven", "--scenario", str(scenario), *k_range, str(from_file)]) == 0
    assert main(["breakeven", "--p", "1e3", "--q", "100", "--eta", "1/3", *k_range, str(from_flags)]) == 0
    assert from_flags.read_bytes() == from_file.read_bytes()
    assert "p=1000 q=100 eta=0.333333333333" in capsys.readouterr().out
    # a decimal eta is read as the float it spells, as argparse's float did
    assert main(["breakeven", "--p", "1_000", "--q", "1e2", "--eta", repr(0.1), *k_range, str(decimal)]) == 0
    assert main(["breakeven", "--p", "1000", "--q", "100", "--eta", "0.1", *k_range, str(from_flags)]) == 0
    assert decimal.read_bytes() == from_flags.read_bytes()


@pytest.mark.parametrize("flag,text", [("--p", "1.5"), ("--q", "ten"), ("--eta", "1/0"), ("--eta", "a/b")])
def test_breakeven_bad_number_exits_2(capsys, flag, text):
    values = {"--p": "10", "--q": "1", "--eta": "0.5", flag: text}
    with pytest.raises(SystemExit) as exc:
        main(["breakeven", *(item for pair in values.items() for item in pair), "--k-range", "1:4"])
    assert exc.value.code == 2
    assert f"argument {flag}" in capsys.readouterr().err


def test_breakeven_missing_params_exits_2(capsys):
    assert main(["breakeven", "--k-range", "1:10:1"]) == 2


def test_breakeven_rejects_traffic_flags(capsys):
    # breakeven counts no traffic, so it has no --include-labels or --lenient-shards
    for flag in ("--lenient-shards", "--include-labels"):
        with pytest.raises(SystemExit) as exc:
            main(["breakeven", "--p", "10", "--q", "1", "--eta", "0", "--k-range", "1:4:1", flag])
        assert exc.value.code == 2


# --- sweep -------------------------------------------------------------------

def test_sweep_single_cell_matches_analyze(tmp_path, capsys):
    scenario = tmp_path / "s.txt"
    scenario.write_text(MODEL_TEXT)
    a, b = tmp_path / "analyze.csv", tmp_path / "sweep.csv"
    assert main(["analyze", "--scenario", str(scenario), "--csv", str(a)]) == 0
    assert main(["sweep", "--scenario", str(scenario), "--csv", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_grid_rows(tmp_path, capsys):
    scenario = tmp_path / "grid.txt"
    scenario.write_text(RAW_TEXT + "grid.K = 1, 10, 100\ngrid.N = 1000, 1_000_000\n")
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--scenario", str(scenario), "--csv", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 6 * 3  # 6 cells, one row per method


def test_sweep_smartwatch_suite_winner_progression(tmp_path, capsys):
    out = tmp_path / "suite.csv"
    assert main(["sweep", "--scenario", "smartwatch", "--csv", str(out)]) == 0
    lines = out.read_text().splitlines()[1:]
    assert len(lines) == 9
    winners = [line.split(",")[-1] for line in lines]
    per_cell = [winners[i] for i in range(0, 9, 3)]
    assert per_cell[0] == "Split"
    assert per_cell[1] in ("Split", "Tie")
    assert per_cell[2] == "Federated"
    # N and K shrink across the cases
    ks = [int(line.split(",")[1]) for line in lines[::3]]
    ns = [int(line.split(",")[2]) for line in lines[::3]]
    assert ks == sorted(ks, reverse=True) and ns == sorted(ns, reverse=True)


def test_sweep_error_rows_marked(tmp_path, capsys):
    scenario = tmp_path / "odd.txt"
    scenario.write_text("K = 2\nN = 10\nq = 1\neta = 0.5\np = 4\ngrid.p = 4, 7\n")
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--scenario", str(scenario), "--csv", str(out)]) == 0
    lines = out.read_text().splitlines()[1:]
    assert len(lines) == 4  # 3 method rows + 1 error row
    assert sum(1 for line in lines if line.startswith("Error,")) == 1


def test_sweep_error_messages_with_commas_stay_one_field(tmp_path, capsys):
    scenario = tmp_path / "bad.txt"
    scenario.write_text(RAW_TEXT + "grid.K = 0, 2\ngrid.eta = 0.5, 1.5\n")
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--scenario", str(scenario), "--csv", str(out)]) == 0
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == cli.CSV_HEADER and len(rows) == 1 + 3 + 3  # 3 Error cells, 1 valid cell
    assert all(len(row) == 13 for row in rows)
    assert [row[-1] for row in rows if row[0] == "Error"] == [
        "clients must be a positive integer, got 0",
        "clients must be a positive integer, got 0",
        "client_fraction must lie in [0, 1], got 1.5",
    ]
    # quoted only where needed, quotes doubled
    assert cli._csv_field("plain text") == "plain text"
    assert cli._csv_field('say "hi"\n') == '"say ""hi""\n"'


def test_sweep_ignores_env_seed(tmp_path, monkeypatch, capsys):
    plain, seeded = tmp_path / "plain.csv", tmp_path / "seeded.csv"
    assert main(["sweep", "--scenario", "tiny-dense", "--csv", str(plain)]) == 0
    monkeypatch.setenv("SPLITFED_SEED", "abc")
    assert main(["sweep", "--scenario", "tiny-dense", "--csv", str(seeded)]) == 0
    assert plain.read_bytes() == seeded.read_bytes()


def test_sweep_empty_grid_exits_2(tmp_path, capsys):
    scenario = tmp_path / "empty.txt"
    scenario.write_text(RAW_TEXT + "grid.K =\n")
    assert main(["sweep", "--scenario", str(scenario)]) == 2


def test_sweep_refuses_too_many_cells_before_expanding_them(tmp_path, monkeypatch, capsys):
    def no_expansion(*args, **kwargs):
        raise AssertionError("an oversized grid must be refused before it is swept")

    # five 100-value axes: 10**10 cells, counted without building one
    scenario = tmp_path / "huge.txt"
    axes = {"K": range(1, 101), "N": range(1000, 1100), "p": range(100, 200), "q": range(1, 101),
            "eta": (f"{i}/100" for i in range(1, 101))}
    scenario.write_text(RAW_TEXT + "".join(f"grid.{key} = {', '.join(map(str, values))}\n"
                                           for key, values in axes.items()))
    monkeypatch.setattr(cli, "sweep_cells", no_expansion)
    assert main(["sweep", "--scenario", str(scenario)]) == 3
    assert capsys.readouterr().err == f"error: sweep has {10**10} cells, more than {cli.SWEEP_MAX_CELLS}\n"
    monkeypatch.undo()

    # the count sums over a suite's scenarios: smartwatch has three one-cell cases
    monkeypatch.setattr(cli, "SWEEP_MAX_CELLS", 2)
    assert main(["sweep", "--scenario", "smartwatch"]) == 3
    assert "sweep has 3 cells, more than 2" in capsys.readouterr().err
    monkeypatch.setattr(cli, "SWEEP_MAX_CELLS", 3)
    assert main(["sweep", "--scenario", "smartwatch"]) == 0


def test_sweep_csv_holds_one_slice_of_its_grid(tmp_path, capsys):
    # 40 values of K (the outermost axis) by 500 other cells: 20,000 cells, swept
    # 500 at a time; holding every cell's SweepRow until the grid was swept
    # peaked at 824 B a cell
    axes = {"K": range(1, 41), "N": range(1000, 1025), "p": (1_000_000, 999, 720_720, 1000), "q": range(1, 6)}
    scenario = tmp_path / "grid.txt"
    scenario.write_text(RAW_TEXT + "".join(f"grid.{key} = {', '.join(map(str, values))}\n"
                                           for key, values in axes.items()))
    out = tmp_path / "sweep.csv"
    tracemalloc.start()
    try:
        assert main(["sweep", "--scenario", str(scenario), "--csv", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100 * 20_000
    assert capsys.readouterr().out.startswith("swept 20000 parameter combinations")


def test_sweep_slices_hold_at_most_their_cells_in_grid_order(tmp_path, capsys, monkeypatch):
    # 3 values of K by 2 of N by 5 of p: any slice bound gives the same bytes,
    # sweeping runs of K values, runs of N values within one K, or runs of p
    scenario = tmp_path / "grid.txt"
    scenario.write_text(RAW_TEXT + "grid.K = 1, 3, 100\ngrid.N = 1000, 1_000_000\n"
                        "grid.p = 1_000_000, 999, 720_720, 1000, 7\n")
    assert main(["sweep", "--scenario", str(scenario)]) == 0
    whole = capsys.readouterr().out
    walks = _walks(monkeypatch)
    for cells, expected in [(30, [30]), (20, [20, 10]), (10, [10] * 3), (9, [5] * 6), (4, [4, 1] * 6),
                            (1, [1] * 30)]:
        monkeypatch.setattr(cli, "SWEEP_SLICE_CELLS", cells)
        walks.clear()
        assert main(["sweep", "--scenario", str(scenario)]) == 0
        assert capsys.readouterr().out == whole
        assert [len(cells) for _, cells in walks] == expected


def reference_write_cell(write, cell):
    """The earlier per-cell row writer, verbatim but for the getter: every
    cell's six parameter columns formatted with ``_fmt``, then an Error line
    or a line per method."""
    columns = ",".join(map(cli._fmt, operator.itemgetter(*cli.REPORT_KEYS)(cell.values)))
    if cell.error is not None:
        write(f"Error,{columns},,,,,,{cli._csv_field(cell.error)}\n")
        return 1
    tail = f"{cli._fmt(cell.efficiency.rho)},{cell.efficiency.winner.value}\n"
    for method, per_client, total, per_client_bytes, total_bytes in cell.reports.values():
        write(f"{method.label},{columns},{per_client},{total},{per_client_bytes},{total_bytes},{tail}")
    return len(cell.reports)


def _grid_axis(values, most=3):
    return st.lists(values, min_size=1, max_size=most)


# N mixes 1 and 1.0, and 10**15 and 1e15, which compare and hash equal but
# format apart ("1e+15"); eta mixes Fraction(1, 2) and 0.5; each axis also
# draws values its check refuses. N = 10**400 and eta = 1/10**400 take rho
# past the float range, and eta = 10**400/3 is refused and formats past it.
_GRID_AXES = st.fixed_dictionaries({
    "clients": _grid_axis(st.integers(-1, 12)),
    "model_params": _grid_axis(st.one_of(st.sampled_from([1, 1.0, 10**15, 1e15, 10.5, 0, math.inf, math.nan,
                                                          10**400]),
                                         st.integers(1, 10**12), st.floats(1, 1e15))),
    "dataset_size": _grid_axis(st.one_of(st.integers(-1, 40), st.integers(0, 10**6))),
    "smashed_size": _grid_axis(st.integers(0, 64)),
    "client_fraction": _grid_axis(st.one_of(st.sampled_from([Fraction(1, 2), 0.5, 0, 1, 1.0, 1.5, -0.25,
                                                             Fraction(3, 2), 1e-7, Fraction(10**400, 3),
                                                             Fraction(1, 10**400)]),
                                            st.floats(0, 1),
                                            st.integers(1, 997).map(lambda b: Fraction(b // 2, b)))),
}, optional={
    "bytes_per_scalar": _grid_axis(st.integers(-1, 3), 2),
    "epochs": _grid_axis(st.integers(-1, 3), 2),
    "batch_size": _grid_axis(st.integers(-1, 3), 2),
})


_MIXED_RUNS = [({"clients": [1, 2], "model_params": [1, 1.0, 10**15, 1e15, 10.5], "dataset_size": [4, 3],
                 "smashed_size": [1], "client_fraction": [Fraction(1, 2), 0.5, 1.5], "epochs": [1, 0]},
                Protocol.SPLIT_SYNC_BATCH, 2),
               ({"clients": [3], "model_params": [1.0, 1], "dataset_size": [6], "smashed_size": [2, 0],
                 "client_fraction": [0.5, Fraction(1, 2)]}, Protocol.FEDERATED, -1)]
_PAST_FLOAT_RUNS = [({"clients": [1, 2], "model_params": [10**400, 7], "dataset_size": [0, 4], "smashed_size": [1],
                     "client_fraction": [Fraction(10**400, 3), Fraction(1, 10**400), Fraction(1, 2)]},
                    Protocol.SPLIT_SYNC, 1)]


@settings(max_examples=60, deadline=None)
@example(runs=_MIXED_RUNS, slice_cells=500, include_labels=True, strict=True)
@example(runs=_MIXED_RUNS, slice_cells=7, include_labels=False, strict=False)
@example(runs=_PAST_FLOAT_RUNS, slice_cells=7, include_labels=False, strict=True)
@given(
    runs=st.lists(st.tuples(_GRID_AXES, st.sampled_from(list(Protocol)), st.integers(-1, 3)), min_size=1, max_size=2),
    slice_cells=st.sampled_from([1, 7, 500]),
    include_labels=st.booleans(),
    strict=st.booleans(),
)
def test_sweep_csv_is_what_each_rows_cell_writer_wrote(runs, slice_cells, include_labels, strict):
    # a suite of drawn grids, each with its variant and label width, swept in
    # slices of 1, 7 or 500 cells (some cut inside an axis): the CSV is the
    # earlier per-cell writer's text for each row of the whole grid's sweep
    scenarios = [Scenario("drawn", {"clients": 1, "model_params": 10, "dataset_size": 4, "smashed_size": 1,
                                    "client_fraction": 0.5}, variant, grids=grids, raw_label_width=label_width)
                 for grids, variant, label_width in runs]
    lines = []
    for sc in scenarios:
        grid = {**sc.grid(), "label_width": sc.label_width if include_labels else 0}
        for row in cost_model.sweep(grid, cli.compared_protocol(sc.variant), strict):
            reference_write_cell(lines.append, row)
    flags = ["--include-labels"] * include_labels + ["--lenient-shards"] * (not strict)
    with tempfile.TemporaryDirectory() as folder, pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "load_suite", lambda source: scenarios)
        patch.setattr(cli, "SWEEP_SLICE_CELLS", slice_cells)
        out = os.path.join(folder, "sweep.csv")
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            assert main(["sweep", "--scenario", "drawn", "--csv", out, *flags]) == 0
        with open(out, "rb") as fh:
            written = fh.read()
    cells = sum(math.prod(map(len, grids.values())) for grids, _, _ in runs)
    assert written == (",".join(cli.CSV_HEADER) + "\n" + "".join(lines)).encode()
    assert stdout.getvalue() == f"swept {cells} parameter combinations ({len(lines)} CSV rows)\nwrote {out}\n"


def test_a_sweep_whose_eta_lies_past_the_float_range_writes_its_error_row(tmp_path, capsys):
    # eta = 10**400 is refused per cell like any eta above 1, and its column
    # reads 12 significant digits of the exact value
    scenario = tmp_path / "huge-eta.txt"
    scenario.write_text(RAW_TEXT + f"grid.eta = 1/2, {10**400}/1\n")
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--scenario", str(scenario), "--csv", str(out)]) == 0
    assert capsys.readouterr().out == f"swept 2 parameter combinations (4 CSV rows)\nwrote {out}\n"
    rows = out.read_text().splitlines()
    assert [row.split(",")[0] for row in rows[1:4]] == ["SplitSync", "SplitNoSync", "Federated"]
    assert all(row.split(",")[1:7] == ["100", "1000000", "1000000", "100", "0.5", "2"] for row in rows[1:4])
    assert rows[4] == f'Error,100,1000000,1000000,100,1e+400,2,,,,,,"client_fraction must lie in [0, 1], got {10**400}"'


@pytest.mark.parametrize("case", ["sweep-grid", "sweep-grid-nosync-lenient-labels", "sweep-grid-stdout",
                                  "sweep-hospital"])
def test_sweep_writes_its_csv_without_building_a_row_or_a_report(case, tmp_path, monkeypatch):
    # the CLI formats each cell as the walk yields it: a SweepRow, an
    # EfficiencyReport or a CommReport built anywhere on the way raises
    from test_golden import GOLDEN, _cases

    def refused(cls, *args, **kwargs):
        raise AssertionError(f"sweep built a {cls.__name__}")

    for cls in (cost_model.SweepRow, cost_model.EfficiencyReport, cost_model.CommReport):
        monkeypatch.setattr(cls, "__new__", refused)
    argv, files = _cases()[case]
    monkeypatch.chdir(tmp_path)
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        assert main(argv) == 0
    assert f"exit 0\n{stdout.getvalue()}".encode() == (GOLDEN / case / "stdout.txt").read_bytes()
    for name in files:
        assert (tmp_path / name).read_bytes() == (GOLDEN / case / name).read_bytes()
    with pytest.raises(AssertionError, match="sweep built a "):  # the patch holds for the library sweep
        cost_model.sweep({"clients": 1, "model_params": 10, "dataset_size": 4, "smashed_size": 1,
                          "client_fraction": 0.5})


def test_a_sweep_refused_after_its_cells_are_counted_leaves_the_csv_as_it_was(tmp_path, capsys):
    # eta is checked when a grid's parameters are built, before the CSV file is opened
    scenario = tmp_path / "bad-eta.txt"
    scenario.write_text(RAW_TEXT.replace("eta = 0.1", "eta = 2") + "grid.K = 1, 2\n")
    out = tmp_path / "sweep.csv"
    out.write_text("old,data\n")
    assert main(["sweep", "--scenario", str(scenario), "--csv", str(out)]) == 3
    assert out.read_text() == "old,data\n"
    assert capsys.readouterr() == ("", "error: client_fraction must lie in [0, 1], got 2.0\n")


def test_bad_grid_axes_report_the_same_error_under_every_hash_seed(tmp_path):
    # axes parse in table order, so the first bad axis named never depends on set iteration
    scenario = tmp_path / "bad-axes.txt"
    scenario.write_text(RAW_TEXT + "grid.K = 1.5\ngrid.N = 2.5\ngrid.p = 3.5\n")
    argv = [sys.executable, "-m", "splitfed.cli", "sweep", "--scenario", str(scenario)]
    runs = [subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                             env={**os.environ, "PYTHONHASHSEED": str(seed)})
            for seed in range(1, 5)]
    results = {(proc.communicate(timeout=60)[1], proc.returncode) for proc in runs}
    assert results == {("error: 'grid.K' must be an integer, got 1.5\n", 2)}


# --- console entry point -----------------------------------------------------

def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "splitfed.cli", "analyze", "--scenario", "biobank"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "winner: Split" in proc.stdout


@pytest.mark.parametrize("argv", [
    ["simulate", "--scenario", "tiny-dense", "--csv", "ledger.csv", "--loss-csv", "loss.csv"],
    ["analyze", "--scenario", "tiny-dense", "--csv", "analyze.csv"],
    ["sweep", "--scenario", "tiny-dense", "--csv", "sweep.csv"],
    ["breakeven", "--scenario", "tiny-dense", "--k-range", "1:8", "--csv", "curve.csv", "--svg", "curve.svg"],
], ids=lambda argv: argv[0])
def test_every_file_output_names_its_encoding(tmp_path, argv):
    # -X warn_default_encoding warns at each open() that falls back to the
    # locale's encoding; -W error makes that warning exit 1 with a traceback
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning", "-m", "splitfed.cli", *argv],
        cwd=tmp_path, capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert all((tmp_path / name).stat().st_size for name in argv if name.endswith((".csv", ".svg")))


@pytest.mark.parametrize("argv", [
    ["analyze", "--scenario", "tiny-dense", "--csv"],
    ["sweep", "--scenario", "tiny-dense", "--csv"],
    ["breakeven", "--scenario", "tiny-dense", "--k-range", "1:8", "--csv"],
    ["breakeven", "--scenario", "tiny-dense", "--k-range", "1:8", "--svg"],
    ["simulate", "--scenario", "tiny-dense", "--csv"],
    ["simulate", "--scenario", "tiny-dense", "--loss-csv"],
], ids=lambda argv: f"{argv[0]}{argv[-1]}")
def test_an_unwritable_output_path_exits_2_with_one_error_line(tmp_path, capsys, argv):
    path = tmp_path / "missing" / "out.txt"
    assert main([*argv, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {path}: ") and err.count("\n") == 1, err


def test_breakeven_refuses_a_bad_svg_path_before_writing_the_csv(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv = ["breakeven", "--p", "100", "--q", "3", "--eta", "0.5", "--k-range", "1:5",
            "--csv", "ok.csv", "--svg", str(tmp_path / "missing" / "x.svg")]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: cannot write {tmp_path / 'missing' / 'x.svg'}: ")
    assert not (tmp_path / "ok.csv").exists()


@pytest.mark.parametrize("flag", ["--csv", "--loss-csv"])
def test_simulate_refuses_a_bad_output_path_before_generating_data(tmp_path, monkeypatch, capsys, flag):
    def no_allocation(*args, **kwargs):
        raise AssertionError("a bad output path must be refused before any data is generated")

    monkeypatch.setattr("splitfed.cli.random_dataset", no_allocation)
    path = tmp_path / "missing" / "out.csv"
    assert main(["simulate", "--scenario", "tiny-dense", flag, str(path)]) == 2
    assert capsys.readouterr().err == f"error: cannot write {path}: No such file or directory\n"


def test_simulate_refuses_one_file_for_the_ledger_and_the_losses(tmp_path, monkeypatch, capsys):
    def no_allocation(*args, **kwargs):
        raise AssertionError("two outputs that name one file must be refused before any data is generated")

    monkeypatch.setattr("splitfed.cli.random_dataset", no_allocation)
    path = tmp_path / "same.csv"
    assert main(["simulate", "--scenario", "tiny-dense", "--csv", str(path), "--loss-csv", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: --csv and --loss-csv both name {path}\n")
    assert not path.exists()


def test_breakeven_refuses_one_file_for_the_csv_and_the_svg(tmp_path, monkeypatch, capsys):
    # two spellings of one path, relative and absolute
    monkeypatch.chdir(tmp_path)
    argv = ["breakeven", "--scenario", "tiny-dense", "--k-range", "1:8", "--csv", "x", "--svg", str(tmp_path / "x")]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: --csv and --svg both name {tmp_path / 'x'}\n")
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("name, reason", [(".", "Is a directory"), ("file.txt/out.csv", "Not a directory")])
def test_an_output_path_that_is_or_lies_under_a_non_directory_exits_2(tmp_path, monkeypatch, capsys, name, reason):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "file.txt").write_text("")
    assert main(["analyze", "--scenario", "tiny-dense", "--csv", name]) == 2
    assert capsys.readouterr() == ("", f"error: cannot write {name}: {reason}\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full, a device every write to fails")
@pytest.mark.parametrize("argv", [
    ["simulate", "--scenario", "tiny-dense", "--csv"],
    ["simulate", "--scenario", "tiny-dense", "--loss-csv"],
    ["sweep", "--scenario", "smartwatch", "--csv"],
    ["analyze", "--scenario", "biobank", "--csv"],
    ["breakeven", "--p", "1000", "--q", "10", "--eta", "1", "--k-range", "1:100:x10", "--csv"],
    ["breakeven", "--p", "1000", "--q", "10", "--eta", "1", "--k-range", "1:100:x10", "--svg"],
], ids=["simulate-csv", "simulate-loss-csv", "sweep-csv", "analyze-csv", "breakeven-csv", "breakeven-svg"])
def test_an_output_whose_write_fails_after_it_is_open_exits_2(capsys, argv):
    # /dev/full opens, then every write or close fails with ENOSPC, an OSError
    # that names no file; it used to escape as a traceback
    assert main(argv + ["/dev/full"]) == 2
    err = capsys.readouterr().err
    assert err == f"error: cannot write /dev/full: {os.strerror(errno.ENOSPC)}\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full, a device every write to fails")
@pytest.mark.parametrize("argv", [
    ["analyze", "--scenario", "biobank"],
    ["sweep", "--scenario", "smartwatch"],
    ["breakeven", "--p", "1000", "--q", "10", "--eta", "1", "--k-range", "1:100:x10"],
], ids=lambda argv: argv[0])
def test_a_stdout_whose_write_fails_exits_2_with_one_error_line(tmp_path, argv):
    # stdout on /dev/full: the failed write names <stdout>, and the flush at
    # exit finds nothing to fail on (no "Exception ignored", no exit 120)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    with open("/dev/full", "w", encoding="utf-8") as full:
        proc = subprocess.run([sys.executable, "-m", "splitfed.cli", *argv], cwd=tmp_path, stdout=full,
                              stderr=subprocess.PIPE, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stderr) == (2, f"error: cannot write <stdout>: {os.strerror(errno.ENOSPC)}\n")


# --- the names the benchmark's tracer wraps ----------------------------------

def _on_return(monkeypatch, name, hook):
    """Replace ``cli.<name>`` with a wrapper that hands each result to ``hook``,
    as the benchmark's tracer wraps the names cli imports."""
    fn = getattr(cli, name)

    def wrapped(*args, **kwargs):
        result = fn(*args, **kwargs)
        hook(result)
        return result

    monkeypatch.setattr(cli, name, wrapped)


def _walks(monkeypatch) -> list:
    """Replace ``cli.sweep_cells`` with a walk that records each call's grid and
    the cells it yields, as they are yielded, in the list returned."""
    walks, fn = [], cli.sweep_cells

    def walked(grid, *args, **kwargs):
        cells = []
        walks.append((grid, cells))
        for cell in fn(grid, *args, **kwargs):
            cells.append(cell)
            yield cell

    monkeypatch.setattr(cli, "sweep_cells", walked)
    return walks


def test_wrapped_names_return_what_the_outputs_hold(tmp_path, capsys, monkeypatch):
    # the tracer counts break-even points with len(curve.points) and SVG bytes
    # from the returned document; it counts sweep cells and Error cells from
    # the rows of cli.sweep, which the CLI no longer calls, so here they are
    # counted from the cells of the walk it calls instead
    counts, documents = Counter(), []
    walks = _walks(monkeypatch)
    _on_return(monkeypatch, "sweep", lambda rows: counts.update(sweep_calls=1))
    _on_return(monkeypatch, "break_even_curve", lambda curve: counts.update(points=len(curve.points)))
    _on_return(monkeypatch, "render_breakeven_svg", documents.append)

    scenario = tmp_path / "grid.txt"
    scenario.write_text(RAW_TEXT + "grid.K = 1, 3, 100, 7\ngrid.N = 1000, 1_000_000\ngrid.p = 1_000_000, 999\n")
    sweep_csv = tmp_path / "sweep.csv"
    monkeypatch.setattr(cli, "SWEEP_SLICE_CELLS", 8)
    assert main(["sweep", "--scenario", str(scenario), "--csv", str(sweep_csv)]) == 0
    rows = sweep_csv.read_text().splitlines()[1:]
    errors = sum(row.startswith("Error,") for row in rows)
    cells = [cell for _, walked in walks for cell in walked]
    assert len(cells) == 16 == errors + (len(rows) - errors) // 3
    assert sum(type(cell) is str for cell in cells) == errors == 8
    assert counts["sweep_calls"] == 0
    slices = [set(cost_model.sweep_axes(grid)[0]) for grid, _ in walks]
    assert capsys.readouterr().out == f"swept 16 parameter combinations ({len(rows)} CSV rows)\nwrote {sweep_csv}\n"
    assert slices == [{1, 3}, {100, 7}]  # runs of the outermost axis's values, 8 cells a sweep

    curve_csv, svg = tmp_path / "curve.csv", tmp_path / "curve.svg"
    assert main(["breakeven", "--p", "1000", "--q", "10", "--eta", "0.5", "--k-range", "2:2001:1",
                 "--csv", str(curve_csv), "--svg", str(svg)]) == 0
    assert counts["points"] == len(curve_csv.read_text().splitlines()) - 1 == 2000
    assert [document.encode("utf-8") for document in documents] == [svg.read_bytes()]


def test_main_builds_one_parser_and_calls_the_subcommand_named_at_call_time(monkeypatch, capsys):
    argv = ["breakeven", "--p", "10", "--q", "1", "--eta", "0", "--k-range", "1:2"]
    assert main(argv) == 0
    calls = []
    monkeypatch.setattr(cli, "cmd_breakeven", lambda args: calls.append(args.k_range) or 5)
    assert main(argv) == 5
    assert calls == ["1:2"]
    assert cli._build_parser() is cli._build_parser()
