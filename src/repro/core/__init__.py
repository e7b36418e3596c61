"""Farron, the paper's SDC mitigation system (§7), plus the baseline."""

from .boundary import AdaptiveTemperatureBoundary, BoundaryDecision
from .backoff import BackoffController, ExponentialBackoff
from .priority import Priority, PriorityDatabase
from .scheduler import FarronScheduleConfig, FarronScheduler
from .pool import (
    DEPRECATION_CORE_THRESHOLD,
    PoolEntry,
    ProcessorStatus,
    ReliableResourcePool,
)
from .farron import Farron, FarronConfig, RoundOutcome
from .baseline import AlibabaBaseline, BaselineConfig, BaselineOutcome
from .evaluation import (
    ApplicationProfile,
    CoverageResult,
    OnlineSimulationResult,
    OverheadResult,
    coverage_experiment,
    coverage_experiment_group,
    overhead_experiment,
    simulate_online,
)
from .batch_online import simulate_online_batch

__all__ = [
    "AdaptiveTemperatureBoundary",
    "BoundaryDecision",
    "BackoffController",
    "ExponentialBackoff",
    "Priority",
    "PriorityDatabase",
    "FarronScheduleConfig",
    "FarronScheduler",
    "DEPRECATION_CORE_THRESHOLD",
    "PoolEntry",
    "ProcessorStatus",
    "ReliableResourcePool",
    "Farron",
    "FarronConfig",
    "RoundOutcome",
    "AlibabaBaseline",
    "BaselineConfig",
    "BaselineOutcome",
    "ApplicationProfile",
    "CoverageResult",
    "OnlineSimulationResult",
    "OverheadResult",
    "coverage_experiment",
    "coverage_experiment_group",
    "overhead_experiment",
    "simulate_online",
    "simulate_online_batch",
]
