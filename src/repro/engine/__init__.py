"""Cycle-level simulation engine with composable pipeline stages.

This package hosts the simulation kernel: :class:`MachineState` (the
explicit shared machine state), the five :class:`Stage` objects
(commit, writeback, issue, rename, fetch), the indexed scheduler
structures (:class:`ReadySet`, :class:`WakeupIndex`,
:class:`CompletionQueue`) and :class:`SimulationEngine`, which sweeps
the stages once per cycle.  :func:`simulate` is the one-call entry point.
"""

from repro.engine.engine import DeadlockError, SimulationEngine, simulate
from repro.engine.events import CompletionQueue, ReadySet, WakeupIndex
from repro.engine.stages import (
    CommitStage,
    FetchStage,
    IssueStage,
    RenameStage,
    Stage,
    WritebackStage,
    default_stages,
    dispatch_hazard,
    may_avoid_allocation,
)
from repro.engine.state import (
    STALL_CHECKPOINTS_FULL,
    STALL_LSQ_FULL,
    STALL_NO_FREE_FP,
    STALL_NO_FREE_INT,
    STALL_ROS_FULL,
    MachineState,
)

__all__ = [
    "CompletionQueue",
    "ReadySet",
    "WakeupIndex",
    "DeadlockError",
    "SimulationEngine",
    "simulate",
    "Stage",
    "CommitStage",
    "WritebackStage",
    "IssueStage",
    "RenameStage",
    "FetchStage",
    "default_stages",
    "dispatch_hazard",
    "may_avoid_allocation",
    "MachineState",
    "STALL_ROS_FULL",
    "STALL_LSQ_FULL",
    "STALL_CHECKPOINTS_FULL",
    "STALL_NO_FREE_INT",
    "STALL_NO_FREE_FP",
]
