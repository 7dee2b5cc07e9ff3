"""Robust online convex optimization control toolkit.

Tracks a priori unknown, time-varying optimal steady states of a constrained
LTI system under process disturbance and measurement noise, with recursive
feasibility and robust constraint satisfaction enforced by a stage-wise
constraint tightening, plus a closed-loop simulator with dynamic-regret
accounting and an autonomous-vehicle case study.
"""

from .convexsets import HPolytope, Zonotope
from .errors import (
    AssumptionViolation,
    ConfigError,
    DimensionMismatch,
    FactorizationError,
    InfeasibleError,
    InitializationError,
    OcoRobustError,
    StepError,
)
from .invariance import RpiResult, mrpi_outer, tail_set
from .oco_controller import (
    ControllerConfig,
    ControllerState,
    StepDiagnostics,
    initialize,
    max_beta,
    step,
)
from .plant import (
    ModelConfig,
    PlantModel,
    QuadraticCost,
    SteadyStateBenchmark,
    SteadyStateManifold,
    TighteningTables,
    build_model,
    build_tightening,
    build_w_bar,
    membership_zu,
    optimal_steady_state,
    steady_state_manifold,
)
from .simkit import (
    DisturbancePolicy,
    RegretLedger,
    RunRecord,
    SimulationAborted,
    TraceRecord,
    invariant_report,
    regret_scaling_experiment,
    run_closed_loop,
)
from .vehicle import VehicleParams, build_vehicle_model, run_scenario

__version__ = "0.1.0"
