"""Scenario files and built-in use-case suites.

A scenario file is flat ``key = value`` text, one pair per line, ``#`` for
comments. Parameters come in exactly one of two forms:

raw form (analytic):        K, N, p, q, eta
model form (simulatable):   layer_widths, cut_index, K, p

Shared keys: name, variant (sync | nosync | sync_batch | federated), epochs,
bytes_per_scalar, seed, batch_size, activation (identity | relu | sigmoid),
and per-parameter sweep axes ``grid.K``, ``grid.N``, ``grid.p``, ``grid.q``,
``grid.eta``. Numbers accept underscores and scientific notation; eta also
accepts an exact ``a/b`` rational. :data:`PARAM_KEYS` maps each
``ScenarioParams`` field to its key.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from fractions import Fraction

from .cost_model import Protocol, ScenarioParams
from .errors import InvalidParam, ScenarioError
from .nn_core import Activation, ModelSpec

# Scenario-file key of each ScenarioParams field, in field order: the one map
# from keys to fields. The parser, the grid.* axes and the report columns read it.
PARAM_KEYS = {
    "clients": "K",
    "model_params": "N",
    "dataset_size": "p",
    "smashed_size": "q",
    "client_fraction": "eta",
    "bytes_per_scalar": "bytes_per_scalar",
    "epochs": "epochs",
}
# A field written as the paper's symbol is also a sweep axis, grid.<symbol>.
_GRID_FIELDS = {f"grid.{key}": name for name, key in PARAM_KEYS.items() if key != name}
# The fields a model form derives from its layers and cut; only a raw form writes them.
_RAW_ONLY = {PARAM_KEYS[name] for name in ("model_params", "smashed_size", "client_fraction")}
_MODEL_KEYS = {"layer_widths", "cut_index"}
_KNOWN_KEYS = {
    *PARAM_KEYS.values(), *_GRID_FIELDS, *_MODEL_KEYS,
    "name", "variant", "seed", "batch_size", "activation",
}


@dataclass
class Scenario:
    name: str
    # ScenarioParams fields the file sets, by field name; a model form's
    # layers and cut supply the rest.
    values: dict[str, int | float | Fraction] = field(default_factory=dict)
    variant: Protocol = Protocol.SPLIT_SYNC
    seed: int = 0
    batch_size: int = 1
    model: ModelSpec | None = None
    cut_index: int | None = None
    # sweep axes by ScenarioParams field, in PARAM_KEYS order
    grids: dict[str, list] = field(default_factory=dict)

    @property
    def is_model_form(self) -> bool:
        return self.model is not None

    @property
    def label_width(self) -> int:  # label scalars per record
        return self.model.output_width if self.is_model_form else 1

    def params(self) -> ScenarioParams:
        if self.is_model_form:
            return ScenarioParams.from_model(self.model, self.cut_index, **self.values)
        return ScenarioParams(**self.values)

    def grid(self) -> dict[str, object]:
        """Sweep axes, with the scenario's own values filling non-gridded parameters."""
        return {**vars(self.params()), **self.grids}


def _parse_number(text: str, key: str):
    text = text.strip().replace("_", "")
    try:
        return int(text)
    except ValueError:
        pass
    if "/" in text:
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ScenarioError(f"bad rational for {key!r}: {text}") from exc
    try:
        value = float(text)
    except ValueError as exc:
        raise ScenarioError(f"bad number for {key!r}: {text}") from exc
    return value


def _as_int(value, key: str) -> int:
    if isinstance(value, int):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ScenarioError(f"{key!r} must be an integer, got {value}")


def _as_field(name: str, value, key: str):
    """A parsed number as ScenarioParams field ``name`` holds it: client_fraction
    a float or exact rational, every other field an integer."""
    if name != "client_fraction":
        return _as_int(value, key)
    return value if isinstance(value, (Fraction, float)) else float(value)


def parse_scenario_text(text: str, name_hint: str = "scenario") -> Scenario:
    """Parse flat key = value scenario text."""
    entries: dict[str, str] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ScenarioError(f"line {lineno}: expected 'key = value', got {raw_line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise ScenarioError(f"line {lineno}: empty key or value in {raw_line!r}")
        if key in entries:
            raise ScenarioError(f"line {lineno}: duplicate key {key!r}")
        if key not in _KNOWN_KEYS:
            raise ScenarioError(f"line {lineno}: unknown key {key!r}")
        entries[key] = value

    raw_present = {k for k in entries if k in _RAW_ONLY}
    model_present = {k for k in entries if k in _MODEL_KEYS}
    if raw_present and model_present:
        raise ScenarioError(
            f"scenario mixes raw parameters {sorted(raw_present)} with model form {sorted(model_present)}"
        )
    if not raw_present and not model_present:
        raise ScenarioError("scenario needs either raw parameters (N, q, eta) or a model form (layer_widths, cut_index)")

    sc = Scenario(name=entries.get("name", name_hint))
    if "variant" in entries:
        try:
            sc.variant = Protocol(entries["variant"])
        except ValueError:
            names = tuple(p.value for p in Protocol)
            raise ScenarioError(f"variant must be one of {names}, got {entries['variant']!r}") from None
    for key in ("seed", "batch_size"):
        if key in entries:
            setattr(sc, key, _as_int(_parse_number(entries[key], key), key))
    if sc.batch_size < 1:
        raise InvalidParam(f"batch_size must be >= 1, got {sc.batch_size}")
    for name, key in PARAM_KEYS.items():
        if key in entries:
            sc.values[name] = _as_field(name, _parse_number(entries[key], key), key)
    if "clients" not in sc.values or "dataset_size" not in sc.values:
        raise ScenarioError("scenario needs both K and p")

    if model_present:
        if model_present != _MODEL_KEYS:
            raise ScenarioError("model form needs both layer_widths and cut_index")
        try:
            widths = tuple(int(w.strip()) for w in entries["layer_widths"].split(","))
        except ValueError as exc:
            raise ScenarioError(f"bad layer_widths: {entries['layer_widths']!r}") from exc
        activation = entries.get("activation", "sigmoid").strip().lower()
        by_name = {a.value.lower(): a for a in Activation}
        if activation not in by_name:
            raise ScenarioError(f"unknown activation {activation!r}")
        sc.model = ModelSpec(layer_widths=widths, activation=by_name[activation])
        sc.cut_index = _as_int(_parse_number(entries["cut_index"], "cut_index"), "cut_index")
    elif raw_present != _RAW_ONLY:
        raise ScenarioError(f"raw form needs N, q and eta; got only {sorted(raw_present)}")

    for key, name in _GRID_FIELDS.items():
        if key in entries:
            values = [_parse_number(v, key) for v in entries[key].split(",") if v.strip()]
            if not values:
                raise ScenarioError(f"{key!r} lists no values")
            sc.grids[name] = [_as_field(name, v, key) for v in values]
    return sc


# Use-case suites. Parameter choices sit inside each setting's plausible
# ranges (fleet sizes, model sizes, records, early-layer activation widths);
# what the suites assert is the sign of rho - 1, not absolute bar heights.
_BUILTIN_TEXT = {
    # Millions of wearables, models up to a few million parameters.
    "smartwatch-case-1": """
        K = 1_000_000
        N = 6_000_000
        p = 10_000_000
        q = 100
        eta = 0.1
    """,
    "smartwatch-case-2": """
        K = 10_000
        N = 3_000_000
        p = 10_000_000
        q = 100
        eta = 0.1
    """,
    "smartwatch-case-3": """
        K = 100
        N = 1_000_000
        p = 1_000_000
        q = 100
        eta = 0.1
    """,
    # A handful of hospitals, large models; case 3 adds data and drops clients.
    "hospital-case-1": """
        K = 10
        N = 100_000_000
        p = 1_000_000
        q = 1_000
        eta = 0.01
    """,
    "hospital-case-2": """
        K = 20
        N = 100_000_000
        p = 1_000_000
        q = 1_000
        eta = 0.01
    """,
    "hospital-case-3": """
        K = 5
        N = 100_000_000
        p = 10_000_000
        q = 1_000
        eta = 0.01
    """,
    # Biobank-scale consortia: many clients, big models, big datasets.
    "biobank-case-1": """
        K = 10_000
        N = 100_000_000
        p = 1_000_000
        q = 1_000
        eta = 0.01
    """,
    "biobank-case-2": """
        K = 5_000
        N = 50_000_000
        p = 1_000_000
        q = 1_000
        eta = 0.01
    """,
    "biobank-case-3": """
        K = 1_000
        N = 10_000_000
        p = 5_000_000
        q = 1_000
        eta = 0.01
    """,
    # Very large models, 1 to 100 billion parameters: from a few data centres
    # with a big corpus (federated wins) to a thousand-member consortium.
    "foundation-case-1": """
        K = 10
        N = 1_000_000_000
        p = 100_000_000
        q = 1_000
        eta = 0.01
    """,
    "foundation-case-2": """
        K = 100
        N = 10_000_000_000
        p = 100_000_000
        q = 1_000
        eta = 0.01
    """,
    "foundation-case-3": """
        K = 1_000
        N = 100_000_000_000
        p = 1_000_000_000
        q = 1_000
        eta = 1/1000
    """,
    # Small model-form scenario that simulates in milliseconds.
    "tiny-dense": """
        layer_widths = 4, 3, 2
        cut_index = 1
        K = 2
        p = 6
        epochs = 1
        seed = 42
        variant = sync
    """,
}

BUILTIN_SUITES = {
    "smartwatch": ("smartwatch-case-1", "smartwatch-case-2", "smartwatch-case-3"),
    "hospital": ("hospital-case-1", "hospital-case-2", "hospital-case-3"),
    "biobank": ("biobank-case-1", "biobank-case-2", "biobank-case-3"),
    "foundation": ("foundation-case-1", "foundation-case-2", "foundation-case-3"),
}

# Bare suite names double as shorthand for their first case in single-scenario
# commands.
_SUITE_ALIAS = {suite: cases[0] for suite, cases in BUILTIN_SUITES.items()}


def builtin_names() -> list[str]:
    return sorted(_BUILTIN_TEXT) + sorted(_SUITE_ALIAS)


def load_scenario(source: str) -> Scenario:
    """Load a scenario from a file path or a built-in name.

    An existing file wins over a built-in of the same name.
    """
    if os.path.exists(source):
        try:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ScenarioError(f"cannot read scenario file {source!r}: {exc}") from exc
        name_hint = os.path.splitext(os.path.basename(source))[0]
        return parse_scenario_text(text, name_hint=name_hint)
    name = _SUITE_ALIAS.get(source, source)
    if name in _BUILTIN_TEXT:
        return parse_scenario_text(_BUILTIN_TEXT[name], name_hint=name)
    raise ScenarioError(
        f"{source!r} is neither a scenario file nor a built-in name "
        f"(built-ins: {', '.join(builtin_names())})"
    )


def load_suite(source: str) -> list[Scenario]:
    """Resolve a suite name to its case list; single scenarios become one-item suites."""
    if source in BUILTIN_SUITES and not os.path.exists(source):
        return [load_scenario(name) for name in BUILTIN_SUITES[source]]
    return [load_scenario(source)]
