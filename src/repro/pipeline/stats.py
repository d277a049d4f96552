"""Simulation statistics.

:class:`SimStats` is a plain, pickleable container (the parallel sweep
runner ships it across process boundaries) holding everything the paper's
figures need: IPC, branch behaviour, cache behaviour, dispatch stall
breakdown, per-register-file occupancy (Empty/Ready/Idle) and the release
policy's own counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.core.register_state import OccupancyAverages


@dataclass(slots=True)
class RegisterFileStats:
    """Per-register-file statistics."""

    num_physical: int = 0
    allocations: int = 0
    releases: int = 0
    early_releases: int = 0
    register_reuses: int = 0
    immediate_releases: int = 0
    scheduled_early_releases: int = 0
    conventional_releases: int = 0
    conditional_schedulings: int = 0
    occupancy: Optional[OccupancyAverages] = None

    @property
    def early_release_fraction(self) -> float:
        """Fraction of all releases performed early."""
        return 0.0 if self.releases == 0 else self.early_releases / self.releases


@dataclass(slots=True)
class SimStats:
    """Aggregate results of one simulation run."""

    benchmark: str = ""
    release_policy: str = ""
    cycles: int = 0
    committed_instructions: int = 0
    committed_by_class: Dict[str, int] = field(default_factory=dict)

    fetched_instructions: int = 0
    fetched_wrong_path: int = 0
    renamed_instructions: int = 0
    squashed_instructions: int = 0
    exceptions_taken: int = 0

    branches_resolved: int = 0
    branch_mispredictions: int = 0
    btb_hit_rate: float = 0.0

    l1i_miss_rate: float = 0.0
    l1d_miss_rate: float = 0.0
    l2_miss_rate: float = 0.0
    forwarded_loads: int = 0

    dispatch_stalls: Dict[str, int] = field(default_factory=dict)
    structural_stalls: int = 0

    int_registers: RegisterFileStats = field(default_factory=RegisterFileStats)
    fp_registers: RegisterFileStats = field(default_factory=RegisterFileStats)

    # ------------------------------------------------------------------
    @property
    def ipc(self) -> float:
        """Committed instructions per cycle (the metric of Figures 10 and 11)."""
        return 0.0 if self.cycles == 0 else self.committed_instructions / self.cycles

    @property
    def branch_misprediction_rate(self) -> float:
        """Fraction of resolved (correct-path) branches that were mispredicted."""
        if self.branches_resolved == 0:
            return 0.0
        return self.branch_mispredictions / self.branches_resolved

    @property
    def wrong_path_fraction(self) -> float:
        """Share of fetched instructions that were wrong-path injections."""
        if self.fetched_instructions == 0:
            return 0.0
        return self.fetched_wrong_path / self.fetched_instructions

    def stall_fraction(self, reason: str) -> float:
        """Dispatch stall cycles of ``reason`` per total cycle."""
        if self.cycles == 0:
            return 0.0
        return self.dispatch_stalls.get(reason, 0) / self.cycles

    def register_stats(self, focus: str) -> RegisterFileStats:
        """Per-file statistics for ``focus`` ("int" or "fp")."""
        return self.int_registers if focus == "int" else self.fp_registers

    # ------------------------------------------------------------------
    def summary_line(self) -> str:
        """One-line human-readable summary (used by examples and the CLI)."""
        return (f"{self.benchmark:<10s} {self.release_policy:<9s} "
                f"IPC={self.ipc:5.3f}  cycles={self.cycles:>8d}  "
                f"insts={self.committed_instructions:>8d}  "
                f"br-mispred={self.branch_misprediction_rate:6.2%}  "
                f"int-early={self.int_registers.early_releases:>6d}  "
                f"fp-early={self.fp_registers.early_releases:>6d}")
