"""Federated phased-elimination simulator for linear contextual bandits
whose agents observe a context distribution instead of the exact context."""

from .design import DesignAllocation, DesignProblem, solve_design
from .environment import Environment
from .harness import (
    SyntheticSpec,
    desk_spec,
    generate_synthetic,
    load_features,
    movielens_like_spec,
    run_sweep,
)
from .model import Bounds, Scenario
from .protocol import build_schedule, compute_alpha, run_protocol

__version__ = "0.1.0"

__all__ = [
    "Bounds",
    "DesignAllocation",
    "DesignProblem",
    "Environment",
    "Scenario",
    "SyntheticSpec",
    "build_schedule",
    "compute_alpha",
    "desk_spec",
    "generate_synthetic",
    "load_features",
    "movielens_like_spec",
    "run_protocol",
    "run_sweep",
    "solve_design",
]
