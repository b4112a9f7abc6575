"""Scenario files, built-in suites, and the four CLI subcommands."""

import os
import subprocess
import sys
from fractions import Fraction

import pytest

from splitfed import Protocol, ScenarioError, Winner, efficiency_ratio
from splitfed import cli
from splitfed.cli import main
from splitfed.scenarios import (
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
    monkeypatch.setattr(cli, "sweep", no_expansion)
    assert main(["sweep", "--scenario", str(scenario)]) == 3
    assert capsys.readouterr().err == f"error: sweep has {10**10} cells, more than {cli.SWEEP_MAX_CELLS}\n"
    monkeypatch.undo()

    # the count sums over a suite's scenarios: smartwatch has three one-cell cases
    monkeypatch.setattr(cli, "SWEEP_MAX_CELLS", 2)
    assert main(["sweep", "--scenario", "smartwatch"]) == 3
    assert "sweep has 3 cells, more than 2" in capsys.readouterr().err
    monkeypatch.setattr(cli, "SWEEP_MAX_CELLS", 3)
    assert main(["sweep", "--scenario", "smartwatch"]) == 0


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
