"""Functional unit pools (Table 2 of the paper).

Eight simple integer units (1 cycle), four integer multipliers (7 cycles),
six simple FP units (4 cycles), four FP multipliers (4 cycles), four FP
dividers (16 cycles, not pipelined) and four load/store units.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping

from repro.isa import FUKind, FU_KIND, DEFAULT_LATENCY, OpClass


@dataclass(frozen=True)
class FUConfig:
    """Number of units, result latency and pipelining of each pool."""

    counts: Mapping[FUKind, int] = field(default_factory=lambda: {
        FUKind.SIMPLE_INT: 8,
        FUKind.INT_MULT: 4,
        FUKind.SIMPLE_FP: 6,
        FUKind.FP_MULT: 4,
        FUKind.FP_DIV: 4,
        FUKind.LOAD_STORE: 4,
    })
    latencies: Mapping[OpClass, int] = field(default_factory=lambda: dict(DEFAULT_LATENCY))
    #: pools whose units are busy for the full latency of each operation.
    unpipelined: frozenset = frozenset({FUKind.FP_DIV})


class FunctionalUnitPool:
    """Tracks per-cycle availability of every functional unit pool.

    Pipelined pools (unit busy for one cycle) are represented in O(1) as
    ``[cycle_of_last_issue, issues_that_cycle]``: a unit is free unless
    all ``count`` units issued in the current cycle, which is exactly the
    per-unit ``free_at`` bookkeeping collapsed (every busy unit's
    ``free_at`` equals ``cycle + 1``).  Unpipelined pools (the FP
    dividers, busy for the full latency) keep the per-unit list.
    """

    def __init__(self, config: FUConfig | None = None) -> None:
        self.config = config or FUConfig()
        unpipelined = self.config.unpipelined
        #: unpipelined pools: the cycle at which each unit frees up.
        self._free_at: Dict[FUKind, List[int]] = {
            kind: [0] * count for kind, count in self.config.counts.items()
            if kind in unpipelined
        }
        #: pipelined pools: [cycle of last issue, issues in that cycle].
        self._pipelined: Dict[FUKind, List[int]] = {
            kind: [-1, 0] for kind in self.config.counts
            if kind not in unpipelined
        }
        self._counts: Dict[FUKind, int] = dict(self.config.counts)
        self._latencies = self.config.latencies
        self.issues: Dict[FUKind, int] = {kind: 0 for kind in self.config.counts}
        self.structural_stalls = 0

    # ------------------------------------------------------------------
    def latency_of(self, op: OpClass) -> int:
        """Execution latency of ``op`` (excluding cache access time)."""
        return self.config.latencies[op]

    def kind_of(self, op: OpClass) -> FUKind:
        """Functional unit pool that executes ``op``."""
        return FU_KIND[op]

    def can_issue(self, op: OpClass, cycle: int) -> bool:
        """True when a unit of the right kind is available at ``cycle``."""
        kind = FU_KIND[op]
        state = self._pipelined.get(kind)
        if state is not None:
            return state[0] != cycle or state[1] < self._counts[kind]
        return any(free <= cycle for free in self._free_at[kind])

    def try_issue(self, op: OpClass, cycle: int) -> int | None:
        """Reserve a unit for ``op`` at ``cycle`` if one is available.

        Returns the result latency, or None when the pool is fully busy
        (the caller books a structural stall).  Fused
        :meth:`can_issue`/:meth:`issue` for the issue stage's hot loop —
        one pool lookup instead of two.
        """
        kind = FU_KIND[op]
        state = self._pipelined.get(kind)
        if state is not None:
            if state[0] != cycle:
                state[0] = cycle
                state[1] = 1
            elif state[1] < self._counts[kind]:
                state[1] += 1
            else:
                return None
            self.issues[kind] += 1
            return self._latencies[op]
        units = self._free_at[kind]
        for index, free in enumerate(units):
            if free <= cycle:
                latency = self._latencies[op]
                units[index] = cycle + latency
                self.issues[kind] += 1
                return latency
        return None

    def issue(self, op: OpClass, cycle: int) -> int:
        """Reserve a unit for ``op`` at ``cycle``; returns the result latency.

        Raises :class:`RuntimeError` when no unit is available (callers use
        :meth:`can_issue` and count a structural stall instead).  Thin
        wrapper over :meth:`try_issue` — the reservation logic lives in
        one place.
        """
        latency = self.try_issue(op, cycle)
        if latency is None:
            raise RuntimeError(
                f"no {FU_KIND[op].name} unit available at cycle {cycle}")
        return latency

    def note_structural_stall(self) -> None:
        """Record that a ready instruction could not issue for lack of a unit."""
        self.structural_stalls += 1
