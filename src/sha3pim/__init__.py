"""SHA3-256 on simulated memristive crossbars with stateful logic."""

from .crossbar import (
    AddressError,
    CapacityError,
    Crossbar,
    CrossbarConfig,
    CycleBundle,
    ExecutionStats,
    GateType,
    MicroOp,
    PartitionMap,
    SchedulingError,
    SimulationError,
    StrictInitError,
)
from .engine import active_backend
from .keccak_xbar import (
    KECCAK,
    KeccakParams,
    hash_message,
    hash_messages,
    measure_round_stats,
    pad_message,
)
from .metrics import MetricsInput, MetricsReport, compute as compute_metrics

__version__ = "0.1.0"

__all__ = [
    "AddressError", "CapacityError", "Crossbar", "CrossbarConfig",
    "CycleBundle", "ExecutionStats", "GateType", "MicroOp", "PartitionMap",
    "SchedulingError", "SimulationError", "StrictInitError",
    "active_backend", "KECCAK", "KeccakParams", "hash_message",
    "hash_messages", "measure_round_stats", "pad_message", "MetricsInput",
    "MetricsReport", "compute_metrics",
]
