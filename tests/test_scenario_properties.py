"""Property tests of scenario files.

Round trip: parameters written as scenario text, in any of the number spellings
the parser accepts (underscores, scientific notation, ``a/b`` for eta), parse
back to the ``ScenarioParams`` built directly from them, and ``grid()`` returns
the axes written. Fuzz: small scenario files mixing valid and bad values of
every key make each subcommand exit with a documented code (0, 2, 3 or 4) and
raise nothing. Sizes stay far below the simulate guards.
"""

import contextlib
import io
from fractions import Fraction

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from splitfed import ModelSpec, ScenarioParams
from splitfed.cli import main
from splitfed.scenarios import parse_scenario_text


def _with_underscores(draw, digits: str) -> str:
    cuts = sorted(draw(st.sets(st.integers(1, max(1, len(digits) - 1)), max_size=2)))
    parts = [digits[i:j] for i, j in zip([0, *cuts], [*cuts, len(digits)])]
    return "_".join(part for part in parts if part)


@st.composite
def int_text(draw, value: int) -> str:
    """``value`` spelled plainly, with underscores, or in scientific notation."""
    spelling = draw(st.sampled_from(["plain", "underscores", "scientific", "point"]))
    if spelling == "underscores":
        return _with_underscores(draw, str(value))
    if value < 2**53 and spelling == "point":
        return f"{value}.0"
    if 0 < value < 2**53 and spelling == "scientific":
        mantissa, exponent = value, 0
        while mantissa % 10 == 0:
            mantissa, exponent = mantissa // 10, exponent + 1
        return f"{mantissa}e{exponent}"
    return str(value)


@st.composite
def eta_values(draw):
    """(eta, its spelling): an exact a/b, a float in [0, 1], or the integer 0 or 1."""
    kind = draw(st.sampled_from(["rational", "float", "int"]))
    if kind == "rational":
        b = draw(st.integers(1, 10**6))
        a = draw(st.integers(0, b))
        return Fraction(a, b), f"{_with_underscores(draw, str(a))}/{_with_underscores(draw, str(b))}"
    if kind == "float":
        x = draw(st.floats(0, 1))
        return x, draw(st.sampled_from([repr(x), format(x, ".17e")]))
    x = draw(st.integers(0, 1))
    return x, draw(int_text(x))


GRID_AXES = {"K": "clients", "N": "model_params", "p": "dataset_size", "q": "smashed_size",
             "eta": "client_fraction"}


@st.composite
def grid_axis(draw, key: str):
    """(values, spelling) of one grid.<key> axis."""
    if key == "eta":
        pairs = draw(st.lists(eta_values(), min_size=1, max_size=3))
    else:
        ints = draw(st.lists(st.integers(0, 10**9), min_size=1, max_size=3))
        pairs = [(v, draw(int_text(v))) for v in ints]
    return [v for v, _ in pairs], ", ".join(text for _, text in pairs)


@st.composite
def scenarios(draw):
    """(scenario text, the ScenarioParams it describes, the grid axes it writes)."""
    values = {"clients": draw(st.integers(1, 10**7)), "dataset_size": draw(st.integers(0, 10**9))}
    lines = [f"K = {draw(int_text(values['clients']))}", f"p = {draw(int_text(values['dataset_size']))}"]
    for key in ("bytes_per_scalar", "epochs", "batch_size"):
        if draw(st.booleans()):
            values[key] = draw(st.integers(1, 100))
            lines.append(f"{key} = {draw(int_text(values[key]))}")
    if draw(st.booleans()):
        widths = draw(st.lists(st.integers(1, 64), min_size=3, max_size=5))
        cut = draw(st.integers(1, len(widths) - 2))
        lines += [f"layer_widths = {', '.join(map(str, widths))}", f"cut_index = {draw(int_text(cut))}"]
        expected = ScenarioParams.from_model(ModelSpec(tuple(widths)), cut, **values)
    else:
        values["model_params"] = draw(st.integers(1, 10**12))
        values["smashed_size"] = draw(st.integers(1, 10**5))
        values["client_fraction"], eta_text = draw(eta_values())
        lines += [f"N = {draw(int_text(values['model_params']))}",
                  f"q = {draw(int_text(values['smashed_size']))}", f"eta = {eta_text}"]
        expected = ScenarioParams(**values)
    axes = {}
    for key in draw(st.lists(st.sampled_from(sorted(GRID_AXES)), unique=True)):
        axis, text = draw(grid_axis(key))
        axes[GRID_AXES[key]] = axis
        lines.append(f"grid.{key} = {text}")
    return "\n".join(draw(st.permutations(lines))) + "\n", expected, axes


@settings(max_examples=60, deadline=None)
@given(case=scenarios())
def test_scenario_text_round_trips_to_params(case):
    text, expected, axes = case
    sc = parse_scenario_text(text)
    assert sc.params() == expected
    grid = sc.grid()
    for name, value in vars(expected).items():
        assert grid[name] == axes.get(name, value)


VALID = {
    "K": [str(k) for k in range(1, 9)],
    "p": ["0", "4", "6", "8", "12", "24", "32"],
    "N": ["1", "23", "150", "1_000"],
    "q": ["1", "2", "3", "8"],
    "eta": ["0", "1", "0.5", "0.37", "15/23", "1e-1"],
    "epochs": ["1", "2", "3"],
    "bytes_per_scalar": ["1", "4", "8"],
    "seed": ["0", "42", "-7"],
    "batch_size": ["1", "2", "3", "8"],
    "variant": ["sync", "nosync", "sync_batch", "federated"],
    "activation": ["identity", "relu", "sigmoid"],
    "layer_widths": ["4, 3, 2", "2, 2", "3, 8, 2, 1", "8, 1, 8", "5, 5"],
    "cut_index": ["1", "2", "3"],
    "grid.K": ["1, 2", "2, 4, 8"],
    "grid.N": ["10, 20", "100"],
    "grid.p": ["4, 8", "6, 7", "0"],
    "grid.q": ["1, 3"],
    "grid.eta": ["0.5, 1", "1/3, 0.25", "0, 1"],
}
BAD = ["0", "-1", "1.5", "abc", "1/0", "2/3", "nan", "inf", "1e400", "x/y", ",", "4,,2", "fancy"]
FORMS = [["K", "p", "N", "q", "eta"], ["K", "p", "layer_widths", "cut_index"]]
OPTIONAL = [key for key in VALID if not any(key in form for form in FORMS)]


@st.composite
def scenario_files(draw):
    """Small scenario text: one form's keys, each missing one time in ten, a rare
    key of the other form, a few optional keys, and up to two bad values."""
    own, other = draw(st.permutations(FORMS))
    keys = [key for key in own if draw(st.integers(0, 9))]
    keys += [key for key in other if key not in own and not draw(st.integers(0, 19))]
    keys += draw(st.lists(st.sampled_from(OPTIONAL), unique=True, max_size=4))
    bad = set(draw(st.permutations(keys))[:draw(st.sampled_from([0, 0, 1, 2]))])
    lines = [f"{key} = {draw(st.sampled_from(BAD if key in bad else VALID[key]))}" for key in keys]
    return "\n".join(draw(st.permutations(lines))) + "\n"


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=scenario_files())
def test_every_subcommand_exits_with_a_documented_code(text, tmp_path, monkeypatch):
    monkeypatch.delenv("SPLITFED_SEED", raising=False)
    path = tmp_path / "fuzz.txt"
    path.write_text(text)
    scenario = ["--scenario", str(path)]
    for argv in (["analyze", *scenario], ["sweep", *scenario], ["breakeven", *scenario, "--k-range", "1:8"],
                 ["simulate", *scenario]):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in (0, 2, 3, 4), (argv, text)
