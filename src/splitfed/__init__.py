"""Communication cost model and deterministic protocol simulator for
split learning versus federated averaging."""

from .cost_model import (
    BreakEvenCurve,
    CommReport,
    EfficiencyReport,
    MessageKind,
    Method,
    Protocol,
    ScenarioParams,
    SweepRow,
    Winner,
    break_even_curve,
    break_even_model_size,
    comm_report,
    efficiency_ratio,
    shard_sizes,
    sweep,
    traffic_by_kind,
)
from .errors import (
    CutOutOfRange,
    Diverged,
    DivisibilityError,
    EmptyList,
    InvalidParam,
    LengthMismatch,
    ScenarioError,
    ShapeMismatch,
    SplitFedError,
)
from .nn_core import (
    Activation,
    BackwardResult,
    CutPoint,
    ForwardTrace,
    ModelSpec,
    average_params,
    backward,
    cut_stats,
    forward,
    init_params,
    param_count,
    random_dataset,
    sgd_step,
    split_params,
    splitmix64,
)
from .protocol_sim import (
    FederatedRunResult,
    Message,
    ShardedDataset,
    SplitRunResult,
    SplitVariant,
    TrafficLedger,
    VerificationReport,
    measured_comm,
    partition_dataset,
    run_federated_training,
    run_split_training,
    verify_against_model,
)
from .scenarios import Scenario, load_scenario, load_suite, parse_scenario_text

__version__ = "0.1.0"
