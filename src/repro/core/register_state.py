"""Physical register state accounting (Figure 2 / Figure 3 of the paper).

The paper classifies an *Allocated* physical register as:

* **Empty** — from allocation (rename of the producing instruction) until
  the value is actually written (producer writeback);
* **Ready** — from the write until the commit of the instruction that uses
  the register for the last time;
* **Idle**  — from that last-use commit until the register is released
  (under conventional release: the commit of the next-version
  instruction).

The tracker below reproduces that classification *exactly but
retrospectively*: the boundary between Ready and Idle (the last-use
commit) is only known once the register's lifetime closes, so intervals
are attributed when the register is released (or when the simulation
ends), which yields the same per-cycle averages as sampling every cycle
would, at a fraction of the cost.  This follows the optimisation guidance
of the session's coding guides — the measurement was restructured, not the
simulated behaviour.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional


class RegState(enum.Enum):
    """Lifecycle states of a physical register (paper Figure 2a)."""

    FREE = "free"
    EMPTY = "empty"
    READY = "ready"
    IDLE = "idle"


@dataclass
class OccupancyTotals:
    """Aggregate register-state occupancy over a simulation.

    All values are in register-cycles except ``cycles``; divide by
    ``cycles`` to obtain the average number of registers in each state
    (the quantity plotted in Figure 3).
    """

    cycles: int = 0
    empty: float = 0.0
    ready: float = 0.0
    idle: float = 0.0

    @property
    def allocated(self) -> float:
        """Total allocated register-cycles (empty + ready + idle)."""
        return self.empty + self.ready + self.idle

    def averages(self) -> "OccupancyAverages":
        """Per-cycle averages (0 if the simulation ran for zero cycles)."""
        if self.cycles == 0:
            return OccupancyAverages(0.0, 0.0, 0.0)
        return OccupancyAverages(self.empty / self.cycles,
                                 self.ready / self.cycles,
                                 self.idle / self.cycles)


@dataclass(frozen=True, slots=True)
class OccupancyAverages:
    """Average number of registers in each allocated state (Figure 3 bars)."""

    empty: float
    ready: float
    idle: float

    @property
    def allocated(self) -> float:
        """Average number of allocated registers."""
        return self.empty + self.ready + self.idle

    @property
    def used(self) -> float:
        """Average number of *used* registers (empty + ready), paper Section 2."""
        return self.empty + self.ready

    @property
    def idle_overhead(self) -> float:
        """Idle registers as a fraction of used registers.

        The paper reports this as "the late release policy ... increases
        the number of used registers by 45.8% for integer programs, and by
        16.8% for FP programs".
        """
        return 0.0 if self.used == 0 else self.idle / self.used


class RegisterOccupancyTracker:
    """Tracks Empty/Ready/Idle intervals for one physical register file."""

    def __init__(self, num_registers: int) -> None:
        self.num_registers = num_registers
        self._alloc_cycle: List[Optional[int]] = [None] * num_registers
        self._write_cycle: List[Optional[int]] = [None] * num_registers
        self._last_use_commit: List[Optional[int]] = [None] * num_registers
        self.totals = OccupancyTotals()

    # ------------------------------------------------------------------
    # Event hooks (called by the physical register file)
    # ------------------------------------------------------------------
    def on_allocate(self, reg: int, cycle: int) -> None:
        """Register ``reg`` allocated at ``cycle`` (state becomes Empty)."""
        self._alloc_cycle[reg] = cycle
        self._write_cycle[reg] = None
        self._last_use_commit[reg] = None

    def on_write(self, reg: int, cycle: int) -> None:
        """Register ``reg`` written (producer writeback) at ``cycle``."""
        if self._write_cycle[reg] is None:
            self._write_cycle[reg] = cycle

    def on_use_commit(self, reg: int, cycle: int) -> None:
        """An instruction reading (or producing) ``reg`` committed at ``cycle``."""
        self._last_use_commit[reg] = cycle

    def on_release(self, reg: int, cycle: int) -> None:
        """Register ``reg`` released at ``cycle``; attribute its intervals."""
        self._attribute(reg, cycle)
        self._alloc_cycle[reg] = None
        self._write_cycle[reg] = None
        self._last_use_commit[reg] = None

    def state_of(self, reg: int, committed_watermark_cycle: Optional[int] = None) -> RegState:
        """Current lifecycle state of ``reg`` (used by tests and Figure 2)."""
        if self._alloc_cycle[reg] is None:
            return RegState.FREE
        if self._write_cycle[reg] is None:
            return RegState.EMPTY
        if self._last_use_commit[reg] is None:
            return RegState.READY
        return RegState.IDLE

    # ------------------------------------------------------------------
    def _attribute(self, reg: int, end_cycle: int) -> None:
        # Conditionals instead of min()/max() builtins: this runs once per
        # register release, several of them per committed instruction.
        alloc = self._alloc_cycle[reg]
        if alloc is None:
            return
        write = self._write_cycle[reg]
        totals = self.totals
        if write is None:
            # Never written (e.g. squashed producer): the whole interval is Empty.
            if end_cycle > alloc:
                totals.empty += end_cycle - alloc
            return
        if write < alloc:
            write = alloc
        if write > alloc:
            totals.empty += write - alloc
        last_use = self._last_use_commit[reg]
        if last_use is None or last_use < write:
            last_use = write
        if last_use > end_cycle:
            last_use = end_cycle
        if last_use > write:
            totals.ready += last_use - write
        if end_cycle > last_use:
            totals.idle += end_cycle - last_use

    def finalize(self, end_cycle: int, allocated_registers: List[int]) -> OccupancyTotals:
        """Attribute intervals of still-allocated registers and close the books."""
        for reg in allocated_registers:
            self._attribute(reg, end_cycle)
        self.totals.cycles = end_cycle
        return self.totals
