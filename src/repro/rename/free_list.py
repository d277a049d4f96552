"""Free list of physical registers.

The free list is the structure the release policies act on: conventional
release returns the previous-version register at next-version commit,
while the paper's early-release mechanisms return it at last-use commit
(or immediately).  Because an incorrect policy implementation shows up as
a leaked or doubly-freed register, the free list is *checked*: it tracks
which identifiers are free and raises :class:`FreeListError` on any
double-release or double-allocation, and the property-based tests assert
``free + allocated == P`` at every step.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Iterable, List


class FreeListError(RuntimeError):
    """Raised on an inconsistent free-list operation (double free/allocate)."""


class FreeList:
    """FIFO free list over physical register identifiers ``0..num_registers-1``."""

    def __init__(self, num_registers: int, initially_free: Iterable[int]) -> None:
        self.num_registers = num_registers
        self._free: Deque[int] = deque()
        self._is_free: List[bool] = [False] * num_registers
        for reg in initially_free:
            if not (0 <= reg < num_registers):
                raise ValueError(f"register {reg} out of range")
            if self._is_free[reg]:
                raise FreeListError(f"register {reg} listed as free twice")
            self._free.append(reg)
            self._is_free[reg] = True

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._free)

    @property
    def n_free(self) -> int:
        """Number of free registers."""
        return len(self._free)

    @property
    def n_allocated(self) -> int:
        """Number of allocated registers."""
        return self.num_registers - len(self._free)

    def is_free(self, reg: int) -> bool:
        """True when ``reg`` is currently on the free list."""
        return self._is_free[reg]

    def can_allocate(self) -> bool:
        """True when at least one register is available."""
        return bool(self._free)

    # ------------------------------------------------------------------
    def allocate(self) -> int:
        """Pop a free register; raises :class:`FreeListError` when empty.

        Callers (the rename stage) must check :meth:`can_allocate` first
        and stall instead of catching the exception: running out of
        registers is an expected stall condition, not an error.
        """
        if not self._free:
            raise FreeListError("allocate() on an empty free list")
        reg = self._free.popleft()
        self._is_free[reg] = False
        return reg

    def release(self, reg: int) -> None:
        """Return ``reg`` to the free list; raises on double release."""
        if not (0 <= reg < self.num_registers):
            raise FreeListError(f"release of out-of-range register {reg}")
        if self._is_free[reg]:
            raise FreeListError(f"double release of register {reg}")
        self._free.append(reg)
        self._is_free[reg] = True

    def snapshot_free_set(self) -> frozenset:
        """Immutable view of the currently free identifiers (for invariant checks)."""
        return frozenset(self._free)
