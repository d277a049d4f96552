"""Merged physical register file for one register class.

Combines the free list, producer tracking (which in-flight instruction
will write each register, used by the wakeup logic), and the
Empty/Ready/Idle occupancy accounting of
:class:`repro.core.register_state.RegisterOccupancyTracker`.

At reset, logical register ``i`` maps to physical register ``i`` and the
remaining ``P - L`` registers are free — the paper's "loose vs tight"
discussion is entirely about how large that remainder is relative to the
reorder-structure size.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.register_state import (
    OccupancyTotals,
    RegisterOccupancyTracker,
    RegState,
)
from repro.isa import RegClass
from repro.rename.free_list import FreeList, FreeListError


class PhysicalRegisterFile:
    """One merged (committed + speculative versions) physical register file."""

    def __init__(self, reg_class: RegClass, num_physical: int,
                 num_logical: Optional[int] = None) -> None:
        num_logical = num_logical if num_logical is not None else reg_class.num_logical
        if num_physical < num_logical:
            raise ValueError(
                f"need at least {num_logical} physical registers "
                f"(one per logical register); got {num_physical}")
        self.reg_class = reg_class
        self.num_physical = num_physical
        self.num_logical = num_logical
        self.free_list = FreeList(num_physical,
                                  initially_free=range(num_logical, num_physical))
        #: ROS sequence number of the in-flight producer of each register,
        #: or None when the value is available (or the register is free).
        self._producer: List[Optional[int]] = [None] * num_physical
        self.occupancy = RegisterOccupancyTracker(num_physical)
        # The initial architectural registers are allocated and written "at reset".
        for reg in range(num_logical):
            self.occupancy.on_allocate(reg, 0)
            self.occupancy.on_write(reg, 0)
        # statistics
        self.allocations = 0
        self.releases = 0
        self.early_releases = 0

    # ------------------------------------------------------------------
    @property
    def n_free(self) -> int:
        """Number of free physical registers."""
        return self.free_list.n_free

    @property
    def n_allocated(self) -> int:
        """Number of allocated physical registers."""
        return self.free_list.n_allocated

    def can_allocate(self) -> bool:
        """True when rename can obtain a destination register."""
        return self.free_list.can_allocate()

    def is_free(self, reg: int) -> bool:
        """True when ``reg`` is on the free list."""
        return self.free_list.is_free(reg)

    # ------------------------------------------------------------------
    def allocate(self, cycle: int, producer_seq: Optional[int]) -> int:
        """Allocate a register for the destination of ``producer_seq``."""
        reg = self.free_list.allocate()
        self._producer[reg] = producer_seq
        self.occupancy.on_allocate(reg, cycle)
        self.allocations += 1
        return reg

    def release(self, reg: int, cycle: int, early: bool = False) -> None:
        """Return ``reg`` to the free list (conventional or early release)."""
        self.free_list.release(reg)
        self._producer[reg] = None
        self.occupancy.on_release(reg, cycle)
        self.releases += 1
        if early:
            self.early_releases += 1

    def set_producer(self, reg: int, producer_seq: Optional[int]) -> None:
        """Re-arm the producer of ``reg`` (used by the register-reuse case)."""
        self._producer[reg] = producer_seq

    def producer_of(self, reg: int) -> Optional[int]:
        """In-flight producer of ``reg`` (None when the value is available)."""
        return self._producer[reg]

    def mark_written(self, reg: int, cycle: int) -> None:
        """Producer writeback: the value of ``reg`` is now available."""
        self._producer[reg] = None
        self.occupancy.on_write(reg, cycle)

    def note_use_commit(self, reg: int, cycle: int) -> None:
        """An instruction that read (or produced) ``reg`` committed at ``cycle``."""
        self.occupancy.on_use_commit(reg, cycle)

    # ------------------------------------------------------------------
    def state_of(self, reg: int) -> RegState:
        """Lifecycle state of ``reg`` (paper Figure 2a)."""
        if self.free_list.is_free(reg):
            return RegState.FREE
        return self.occupancy.state_of(reg)

    def allocated_registers(self) -> List[int]:
        """Identifiers of all currently allocated registers."""
        return [reg for reg in range(self.num_physical)
                if not self.free_list.is_free(reg)]

    def finalize_occupancy(self, end_cycle: int) -> OccupancyTotals:
        """Close the occupancy books at the end of the simulation."""
        return self.occupancy.finalize(end_cycle, self.allocated_registers())

    def check_invariants(self) -> None:
        """Raise :class:`FreeListError` if free + allocated != P."""
        if self.free_list.n_free + self.free_list.n_allocated != self.num_physical:
            raise FreeListError("free + allocated != total physical registers")
