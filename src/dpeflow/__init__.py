"""Dynamic network flows with predictive routing.

Simulates multi-commodity flows over time under the deterministic point
queue model.  Routing follows earliest-arrival labels computed from
pluggable queue predictors; rolling the predictions forward round by round
yields approximate dynamic prediction equilibria, with instantaneous
equilibria as the constant-predictor special case.
"""

from .flow_state import FlowOverTime, SimEvent
from .network import (
    Commodity,
    Edge,
    Network,
    ParseError,
    PredictorParams,
    Scenario,
    ValidationError,
    block_inflow,
    import_edge_list,
    import_tntp,
    load_scenario,
    random_commodities,
    save_scenario,
)
from .predictors import (
    ConstantPredictor,
    LinearPredictor,
    PerfectPredictor,
    PredictorModeError,
    QueueHistory,
    RegressionModel,
    RegressionPredictor,
    RegularizedLinearPredictor,
    ThresholdPredictor,
    ZeroPredictor,
    build_predictor,
    exit_time_fn,
    train_regression,
)
from .pwl import PiecewiseLinearFn, RightConstantFn
from .routing import ConvergenceError, LabelSet, compute_labels
from .simulation import (
    CommodityMetrics,
    MetricsReport,
    RoundRecord,
    RunResult,
    StrandedFlowError,
    audit_dpe,
    audit_ide,
    compute_metrics,
    counterexample_scenario,
    run,
    run_counterexample_demo,
    run_sweep,
    sweep_variant,
)

__version__ = "0.1.0"

__all__ = [
    "Commodity",
    "CommodityMetrics",
    "ConstantPredictor",
    "ConvergenceError",
    "Edge",
    "FlowOverTime",
    "LabelSet",
    "LinearPredictor",
    "MetricsReport",
    "Network",
    "ParseError",
    "PerfectPredictor",
    "PiecewiseLinearFn",
    "PredictorModeError",
    "PredictorParams",
    "QueueHistory",
    "RegressionModel",
    "RegressionPredictor",
    "RegularizedLinearPredictor",
    "RightConstantFn",
    "RoundRecord",
    "RunResult",
    "Scenario",
    "SimEvent",
    "StrandedFlowError",
    "ThresholdPredictor",
    "ValidationError",
    "ZeroPredictor",
    "audit_dpe",
    "audit_ide",
    "block_inflow",
    "build_predictor",
    "compute_labels",
    "compute_metrics",
    "counterexample_scenario",
    "exit_time_fn",
    "import_edge_list",
    "import_tntp",
    "load_scenario",
    "random_commodities",
    "run",
    "run_counterexample_demo",
    "run_sweep",
    "save_scenario",
    "sweep_variant",
    "train_regression",
]
