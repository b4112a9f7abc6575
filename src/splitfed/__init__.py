"""Communication cost model and deterministic protocol simulator for
split learning versus federated averaging.

The closed forms import eagerly and need no numpy. The simulator's names
(``nn_core``, ``protocol_sim`` and what they export here) load, and bring
numpy with them, on first use.
"""

from importlib import import_module

from .cost_model import (
    Activation,
    BreakEvenCurve,
    CommReport,
    EfficiencyReport,
    MessageKind,
    ModelSpec,
    Protocol,
    ScenarioParams,
    SweepRow,
    Winner,
    break_even_curve,
    comm_report,
    cut_stats,
    efficiency_ratio,
    param_count,
    shard_sizes,
    sweep,
    traffic_by_kind,
)
from .errors import (
    CutOutOfRange,
    Diverged,
    DivisibilityError,
    InvalidParam,
    LengthMismatch,
    ScenarioError,
    ShapeMismatch,
    SplitFedError,
)
from .scenarios import Scenario, load_scenario, load_suite, parse_scenario_text

__version__ = "0.1.0"

# name -> the module that defines it, imported by __getattr__ on first use
_LAZY = {
    "nn_core": None,
    "protocol_sim": None,
    **dict.fromkeys(("init_params", "random_dataset", "splitmix64"), "nn_core"),
    **dict.fromkeys((
        "Message", "RunResult", "TrafficLedger", "VerificationReport", "measured_comm",
        "partition_dataset", "run_federated_training", "run_split_training", "verify_against_model",
    ), "protocol_sim"),
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _LAZY[name]
    if module is None:
        return import_module(f".{name}", __name__)  # the import binds it here
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})
