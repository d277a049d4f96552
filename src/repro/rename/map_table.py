"""Speculative Map Table (logical → physical mapping at rename)."""

from __future__ import annotations

from typing import List, Sequence, Tuple


class MapTable:
    """Logical-to-physical register mapping for one register class.

    The Map Table is read at rename to obtain source mappings and the
    previous-version identifier (``old_pd``) of the destination, then
    updated with the newly allocated physical register.  A snapshot of the
    table is taken at every predicted branch (the classic checkpoint-repair
    scheme of Hwu & Patt the paper assumes) and restored on misprediction.

    A mapping can additionally be marked *stale*.  This happens only when
    an exception flush rebuilds the table from the in-order map table while
    the architectural version of a logical register had already been
    released early (the situation Section 4.3 of the paper argues is safe):
    the restored mapping then names a physical register that is no longer
    allocated to this logical register.  The release policies consult the
    flag so the next redefinition neither releases nor reuses that
    register; writing a new mapping clears it.
    """

    def __init__(self, num_logical: int, initial_mapping: Sequence[int]) -> None:
        if len(initial_mapping) != num_logical:
            raise ValueError("initial mapping must cover every logical register")
        self.num_logical = num_logical
        self._map: List[int] = list(initial_mapping)
        self._stale: List[bool] = [False] * num_logical

    # ------------------------------------------------------------------
    def lookup(self, logical: int) -> int:
        """Physical register currently mapped to ``logical``."""
        return self._map[logical]

    def set_mapping(self, logical: int, physical: int) -> None:
        """Map ``logical`` to ``physical`` (rename of a destination)."""
        self._map[logical] = physical
        self._stale[logical] = False

    def is_stale(self, logical: int) -> bool:
        """True when the current mapping names an already-released register."""
        return self._stale[logical]

    def mark_stale(self, logical: int) -> None:
        """Flag the current mapping of ``logical`` as already released."""
        self._stale[logical] = True

    def snapshot(self) -> Tuple[Tuple[int, ...], Tuple[bool, ...]]:
        """Immutable copy of the whole table (branch checkpoint)."""
        return tuple(self._map), tuple(self._stale)

    def restore(self, snapshot: Tuple[Tuple[int, ...], Tuple[bool, ...]]) -> None:
        """Restore the table from a branch checkpoint (in place)."""
        mappings, stale = snapshot
        if len(mappings) != self.num_logical or len(stale) != self.num_logical:
            raise ValueError("snapshot size mismatch")
        self._map[:] = mappings
        self._stale[:] = stale

    def restore_architectural(self, mappings: Sequence[int]) -> None:
        """Rebuild the table from the in-order map table (exception recovery).

        All stale flags are cleared; the caller re-marks the logical
        registers whose architectural version had been released early.
        """
        if len(mappings) != self.num_logical:
            raise ValueError("snapshot size mismatch")
        self._map[:] = mappings
        self._stale[:] = [False] * self.num_logical

    def mapped_registers(self) -> Tuple[int, ...]:
        """The set of physical registers currently referenced by the table."""
        return tuple(self._map)

    def __len__(self) -> int:
        return self.num_logical
