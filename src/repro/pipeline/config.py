"""Processor configuration (paper Table 2 defaults).

=======================  ==========================================================
Parameter                Paper value (Table 2)
=======================  ==========================================================
Fetch width              8 instructions, up to 2 taken branches
L1 I-cache               32 KB, 2-way, 32-byte lines, 1-cycle hit
Branch prediction        18-bit gshare, speculative updates, ≤20 pending branches
ROS size                 128 entries
Functional units         8 simple int (1), 4 int mult (7), 6 simple FP (4),
                         4 FP mult (4), 4 FP div (16), 4 load/store
Load/store queue         64 entries, store-load forwarding
Issue mechanism          out-of-order; loads wait for all prior store addresses
Physical registers       40–160 int / 40–160 FP (32 int / 32 FP logical)
L1 D-cache               32 KB, 2-way, 64-byte lines, 1-cycle hit
L2 unified               1 MB, 2-way, 64-byte lines, 12-cycle hit
Main memory              unbounded, 50 cycles
Commit width             8 instructions
=======================  ==========================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.backend.functional_units import FUConfig
from repro.isa.registers import NUM_LOGICAL_FP, NUM_LOGICAL_INT
from repro.memory.hierarchy import MemoryConfig


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class ProcessorConfig:
    """Complete configuration of the simulated processor.

    The defaults correspond to the paper's aggressive 8-way configuration
    with a 96+96 physical register file; experiments override
    ``num_physical_int`` / ``num_physical_fp`` and ``release_policy``.
    """

    # -------------------------------------------------------- pipeline widths
    fetch_width: int = 8
    rename_width: int = 8
    issue_width: int = 8
    commit_width: int = 8
    max_taken_branches_per_cycle: int = 2
    #: fetch-to-rename latency in cycles (front-end pipeline depth); together
    #: with resolution-time recovery this sets the misprediction penalty.
    frontend_stages: int = 3

    # -------------------------------------------------------- window sizes
    ros_size: int = 128
    lsq_size: int = 64
    max_pending_branches: int = 20

    # -------------------------------------------------------- register files
    num_physical_int: int = 96
    num_physical_fp: int = 96
    num_logical_int: int = NUM_LOGICAL_INT
    num_logical_fp: int = NUM_LOGICAL_FP

    # -------------------------------------------------------- front end
    gshare_history_bits: int = 18
    btb_entries: int = 2048
    btb_associativity: int = 4

    # -------------------------------------------------------- policies
    #: "conv" | "basic" | "extended"
    release_policy: str = "conv"
    #: reuse the previous-version register when its last use has committed
    #: (paper Section 3, Renaming 2); disabling it is an ablation knob.
    reuse_on_committed_lu: bool = True

    # -------------------------------------------------------- behaviour knobs
    #: warm the caches, BTB and branch predictor with one pass over the trace
    #: before the measured run.  The paper simulates 47M–472M instructions,
    #: so its measurements are of steady-state behaviour; with the scaled-down
    #: traces used here, cold-start effects would otherwise dominate.
    warmup: bool = True
    #: inject synthetic wrong-path instructions after a misprediction.
    enable_wrong_path: bool = True
    #: per-committed-instruction probability of raising an exception
    #: (0 = never; used by the precise-exception tests, not by the paper's
    #: experiments).
    exception_rate: float = 0.0
    #: RNG seed for exception injection and wrong-path synthesis.
    seed: int = 0
    #: simulation engine backend: "auto" (defer to ``$REPRO_ENGINE``,
    #: which means the compiled core unless it says ``python``), "python"
    #: (the pure-Python reference stage loop) or "compiled" (C core with
    #: bit-identical statistics and automatic fallback; see
    #: :mod:`repro.engine.accel`).
    engine: str = "auto"

    # -------------------------------------------------------- substructures
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    functional_units: FUConfig = field(default_factory=FUConfig)

    # ------------------------------------------------------------------
    def __post_init__(self) -> None:
        # A trace may name any architected register, and both engines
        # index their map tables by those numbers.
        for name, minimum in (("num_logical_int", NUM_LOGICAL_INT),
                              ("num_logical_fp", NUM_LOGICAL_FP)):
            if not _is_int(getattr(self, name)) \
                    or getattr(self, name) < minimum:
                raise ValueError(f"{name} must be an integer of at least "
                                 f"{minimum} (the ISA's architected "
                                 f"registers)")
        if self.num_physical_int < self.num_logical_int:
            raise ValueError("need at least as many physical as logical int registers")
        if self.num_physical_fp < self.num_logical_fp:
            raise ValueError("need at least as many physical as logical FP registers")
        for name in ("fetch_width", "rename_width", "issue_width", "commit_width",
                     "ros_size", "lsq_size", "max_pending_branches",
                     "frontend_stages"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        # The front-end geometry is checked here, not only by the Python
        # predictor and BTB: a compiled run from reset builds neither, and
        # the C core sizes its tables from these values unchecked.
        if not _is_int(self.gshare_history_bits) \
                or not 1 <= self.gshare_history_bits <= 24:
            raise ValueError("gshare_history_bits must be an integer "
                             "between 1 and 24")
        if not (_is_int(self.btb_entries) and _is_int(self.btb_associativity)
                and self.btb_entries > 0 and self.btb_associativity > 0):
            raise ValueError("btb_entries and btb_associativity must be "
                             "positive integers")
        if self.btb_entries % self.btb_associativity != 0:
            raise ValueError("btb_entries must be a multiple of "
                             "btb_associativity")
        if not (0.0 <= self.exception_rate <= 1.0):
            raise ValueError("exception_rate must be a probability")
        if self.release_policy not in ("conv", "conventional", "basic", "extended"):
            raise ValueError(f"unknown release policy {self.release_policy!r}")
        if self.engine not in ("auto", "python", "compiled"):
            raise ValueError(f"unknown engine backend {self.engine!r}")

    # ------------------------------------------------------------------
    def with_registers(self, num_int: Optional[int] = None,
                       num_fp: Optional[int] = None) -> "ProcessorConfig":
        """Copy of the configuration with different register file sizes."""
        return replace(self,
                       num_physical_int=self.num_physical_int if num_int is None else num_int,
                       num_physical_fp=self.num_physical_fp if num_fp is None else num_fp)

    def with_policy(self, policy: str) -> "ProcessorConfig":
        """Copy of the configuration with a different release policy."""
        return replace(self, release_policy=policy)

    @property
    def is_loose_int(self) -> bool:
        """Paper Section 2: a *loose* file has P ≥ L + N (never stalls for registers)."""
        return self.num_physical_int >= self.num_logical_int + self.ros_size

    @property
    def is_loose_fp(self) -> bool:
        """Same loose/tight classification for the FP file."""
        return self.num_physical_fp >= self.num_logical_fp + self.ros_size
