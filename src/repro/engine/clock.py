"""The engine's clock: one stage sweep per cycle, no fast-forward.

:meth:`SimulationEngine.run <repro.engine.engine.SimulationEngine.run>`
advances :attr:`MachineState.cycle` by exactly one per sweep and never
calls :meth:`CycleClock.advance`.  The class and the ``EventClock``
alias stay only because the traced benchmark (``perfbench/layers.py``)
wraps ``EventClock.advance`` and ``CycleClock.advance`` and reads
``SimulationEngine.clock.cycles_skipped``; both read as no-ops here.
"""

from __future__ import annotations

from typing import Optional

from repro.engine.state import MachineState


class CycleClock:
    """Per-cycle stepping: no cycle is ever skipped."""

    cycles_skipped = 0

    def advance(self, state: MachineState,
                max_cycles: Optional[int] = None) -> None:
        """No-op: the engine's ``cycle += 1`` is the whole clock."""


#: Alias kept for ``perfbench/layers.py`` (see the module docstring).
EventClock = CycleClock
