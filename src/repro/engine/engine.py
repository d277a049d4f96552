"""The simulation engine: the five stages swept over one shared state.

:class:`SimulationEngine` sweeps the five stages over one
:class:`~repro.engine.state.MachineState` once per cycle (commit →
writeback → issue → rename → fetch, reverse pipeline order).
:func:`simulate` is the one-call entry point.

The machine is built lazily, on first use of :attr:`SimulationEngine.state`.
A whole run from reset on the compiled backend never builds one: it hands
the core a cold start (the trace and the config), so a compiled point
pays for no Python register files, predictor table or warm-up pass.  If
that run falls back, the Python engine builds a fresh machine.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.engine.clock import CycleClock
from repro.engine.stages import default_stages
from repro.engine.state import MachineState
from repro.pipeline.config import ProcessorConfig
from repro.pipeline.stats import SimStats
from repro.trace.records import Trace


class DeadlockError(RuntimeError):
    """Raised when the pipeline makes no forward progress for many cycles."""


class SimulationEngine:
    """Drives one machine to completion, one cycle per stage sweep."""

    def __init__(self, trace: Trace, config: Optional[ProcessorConfig] = None,
                 probe: Optional[Callable[[MachineState], None]] = None) -> None:
        self.trace = trace
        self.config = config or ProcessorConfig()
        self._state: Optional[MachineState] = None
        self.stages = default_stages()
        #: bound tick methods, hoisted out of the per-cycle sweep.
        self._ticks = [stage.tick for stage in self.stages]
        #: no-op clock kept for the traced benchmark (see :mod:`.clock`).
        self.clock = CycleClock()
        #: introspection hook: called with the :class:`MachineState` after
        #: every cycle (the differential fuzzer's invariant probes attach
        #: here).  A probe observes Python-engine state, so setting one
        #: pins the run to the Python engine — the compiled core has no
        #: per-cycle state to expose.
        self.probe = probe
        #: backend that produced the last :meth:`run` result ("python"
        #: until a run completes on the compiled core).
        self.backend_used = "python"
        #: whether the last compiled run committed the whole trace.
        self._compiled_finished = False

    # ------------------------------------------------------------------
    @property
    def state(self) -> MachineState:
        """The Python machine, built (and warmed) on first use."""
        if self._state is None:
            self._state = MachineState(self.trace, self.config)
        return self._state

    @property
    def finished(self) -> bool:
        """True when every fetched instruction has drained from the pipeline.

        After a compiled run: True when that run committed the whole
        trace (no machine is built to tell).
        """
        if self.backend_used == "compiled":
            return self._compiled_finished
        return self.state.finished

    # ------------------------------------------------------------------
    def step(self) -> None:
        """Simulate exactly one cycle (commit → writeback → issue → rename → fetch)."""
        self.backend_used = "python"    # `finished` follows the stepped machine
        state = self.state
        for tick in self._ticks:
            tick(state)
        state.cycle += 1
        if self.probe is not None:
            self.probe(state)

    def run(self, max_instructions: Optional[int] = None,
            max_cycles: Optional[int] = None,
            deadlock_threshold: int = 50_000) -> SimStats:
        """Run the simulation until the trace drains (or a limit is hit)."""
        # Backend dispatch happens only for whole runs from reset (a
        # partially stepped machine cannot be exported) and only when no
        # probe is attached (probes observe Python-engine state the
        # compiled core does not materialise).
        state = self._state
        at_reset = state is None or (state.cycle == 0 and state.seq == 0)
        if self.probe is None and at_reset:
            from repro.engine import accel

            if accel.resolve_engine_backend(self.config) == "compiled":
                from repro.engine.accel.compiled import ColdStart

                start = (ColdStart(self.trace, self.config)
                         if state is None else state)
                result = accel.run_compiled(
                    start, max_instructions=max_instructions,
                    max_cycles=max_cycles,
                    deadlock_threshold=deadlock_threshold)
                if result is not None:
                    self.backend_used = "compiled"
                    self._compiled_finished = (
                        result.stats.committed_instructions >= len(self.trace))
                    return result.stats
        self.backend_used = "python"
        state = self.state
        ticks = self._ticks
        probe = self.probe
        stats = state.stats
        fetch_unit = state.fetch_unit
        decode_queue = state.decode_queue
        ros = state.ros
        limit = max_instructions if max_instructions is not None else len(state.trace)
        while max_cycles is None or state.cycle < max_cycles:
            if state.cycle - state.last_commit_cycle > deadlock_threshold:
                raise DeadlockError(
                    f"no instruction committed for {deadlock_threshold} cycles "
                    f"(cycle={state.cycle}, ROS={len(state.ros)}, "
                    f"head={state.ros.head()!r})")
            for tick in ticks:          # one cycle: commit → … → fetch
                tick(state)
            state.cycle += 1
            if probe is not None:
                probe(state)
            if stats.committed_instructions >= limit:
                break
            # state.finished, with the property chain flattened.
            if not ros.entries and not decode_queue and fetch_unit.trace_exhausted:
                break
        return state.collect_stats()


def simulate(trace: Trace, config: Optional[ProcessorConfig] = None,
             max_instructions: Optional[int] = None,
             max_cycles: Optional[int] = None) -> SimStats:
    """Build a :class:`SimulationEngine` for ``trace`` and run it to completion.

    This is the main public entry point: every experiment and example uses
    it.  ``max_instructions`` limits the number of *committed* instructions
    (defaults to the trace length); ``max_cycles`` is a safety bound.
    """
    return SimulationEngine(trace, config).run(
        max_instructions=max_instructions, max_cycles=max_cycles)
