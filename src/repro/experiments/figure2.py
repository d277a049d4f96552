"""Figure 2 — lifecycle of a physical register (FREE → EMPTY → READY → IDLE → FREE).

The paper's example: instruction ``i`` writes ``r1`` (renamed to physical
register ``p7``); a later instruction ``LU`` reads ``r1`` for the last
time; a later instruction ``NV`` redefines ``r1``.  Under conventional
release ``p7`` stays allocated — and *Idle* — from the commit of ``LU``
until the commit of ``NV``; the early-release mechanisms release it at the
commit of ``LU``.

This experiment rebuilds that exact three-instruction example as a trace,
runs it cycle by cycle under a chosen release policy and records the state
of the tracked physical register every cycle, so the produced timeline is
the simulated counterpart of Figure 2(b).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.register_state import RegState
from repro.engine import SimulationEngine
from repro.isa import InstructionBuilder, RegClass
from repro.pipeline.config import ProcessorConfig
from repro.trace.records import Trace


def example_trace(padding: int = 32) -> Trace:
    """Build the paper's ``i`` / ``LU`` / ``NV`` example (Figure 2b / Figure 4a).

    ``padding`` unrelated instructions separate the three so the different
    lifecycle states last long enough to be visible in the timeline.
    """
    builder = InstructionBuilder(pc=0x1000)
    builder.alu(dest=1, srcs=(2, 3))          # i : r1 = r2 op r3
    for index in range(padding):
        builder.alu(dest=10 + index % 4, srcs=(11,))
    builder.alu(dest=3, srcs=(2, 1))          # LU: r3 = r2 + r1  (last use of r1)
    for index in range(padding):
        builder.alu(dest=14 + index % 4, srcs=(15,))
    builder.alu(dest=1, srcs=(5,))            # NV: r1 = ...      (next version)
    for index in range(padding):
        builder.alu(dest=18 + index % 4, srcs=(19,))
    return Trace(name="figure2-example", focus_class=RegClass.INT,
                 instructions=builder.trace())


@dataclass
class Figure2Result:
    """Cycle-by-cycle state timeline of the tracked physical register."""

    policy: str
    tracked_register: int
    timeline: List[Tuple[int, RegState]] = field(default_factory=list)

    def states_observed(self) -> List[RegState]:
        """Distinct states in order of first appearance."""
        seen: List[RegState] = []
        for _cycle, state in self.timeline:
            if state not in seen:
                seen.append(state)
        return seen

    def state_durations(self) -> Dict[RegState, int]:
        """Number of cycles spent in each state."""
        durations: Dict[RegState, int] = {}
        for _cycle, state in self.timeline:
            durations[state] = durations.get(state, 0) + 1
        return durations

    def format(self) -> str:
        """Render the timeline as text."""
        lines = [f"Figure 2: lifecycle of physical register p{self.tracked_register} "
                 f"under '{self.policy}' release", ""]
        current: Optional[RegState] = None
        start = 0
        sentinel_cycle = (self.timeline[-1][0] + 1) if self.timeline else 0
        for cycle, state in self.timeline + [(sentinel_cycle, None)]:
            if state != current:
                if current is not None:
                    lines.append(f"  cycles {start:>3d}-{cycle - 1:>3d}: "
                                 f"{current.value.upper()}")
                current = state
                start = cycle
        durations = self.state_durations()
        lines.append("")
        lines.append("  " + ", ".join(f"{state.value}: {count} cycles"
                                      for state, count in durations.items()))
        return "\n".join(lines)


def run(policy: str = "conv", padding: int = 32, max_cycles: int = 800) -> Figure2Result:
    """Run the Figure 2 example under ``policy`` and record p-register states.

    The tracked register is the one allocated to the destination of the
    first instruction (the paper's ``p7``).  The state boundaries follow
    the paper's definitions exactly: Empty from allocation to the write,
    Ready from the write to the commit of the last-use instruction, Idle
    from that commit to the release.
    """
    trace = example_trace(padding=padding)
    # Warm-up (on the example trace itself — it is not a registry workload)
    # keeps instruction-cache misses from spreading the three instructions of
    # interest tens of cycles apart.
    config = ProcessorConfig(release_policy=policy, warmup=True,
                             enable_wrong_path=False)
    engine = SimulationEngine(trace, config)
    machine = engine.state
    register_file = machine.register_files[RegClass.INT]

    # Positions (= ROS sequence numbers, since nothing is squashed) of the
    # three instructions of interest in the constructed trace.
    producer_seq = 0
    lu_seq = 1 + padding

    tracked: Optional[int] = None
    alloc_cycle: Optional[int] = None
    write_cycle: Optional[int] = None
    lu_commit_cycle: Optional[int] = None
    release_cycle: Optional[int] = None

    while not engine.finished and machine.cycle < max_cycles:
        engine.step()
        cycle = machine.cycle
        if tracked is None:
            producer_entry = machine.ros_entry(producer_seq)
            if producer_entry is not None and producer_entry.pd is not None:
                tracked = producer_entry.pd
                alloc_cycle = cycle
        if tracked is None:
            continue
        if write_cycle is None:
            producer_entry = machine.ros_entry(producer_seq)
            if producer_entry is not None and producer_entry.completed:
                write_cycle = cycle
            elif producer_entry is None:
                write_cycle = write_cycle or cycle
        if lu_commit_cycle is None and machine.is_committed(lu_seq):
            lu_commit_cycle = cycle
        if release_cycle is None and register_file.is_free(tracked):
            release_cycle = cycle
    end_cycle = machine.cycle

    result = Figure2Result(policy=policy,
                           tracked_register=tracked if tracked is not None else -1)
    if tracked is None or alloc_cycle is None:
        return result
    write_cycle = write_cycle if write_cycle is not None else alloc_cycle
    lu_commit_cycle = lu_commit_cycle if lu_commit_cycle is not None else write_cycle
    release_cycle = release_cycle if release_cycle is not None else end_cycle
    for cycle in range(alloc_cycle, release_cycle + 1):
        if cycle < write_cycle:
            state = RegState.EMPTY
        elif cycle < lu_commit_cycle:
            state = RegState.READY
        elif cycle < release_cycle:
            state = RegState.IDLE
        else:
            state = RegState.FREE
        result.timeline.append((cycle, state))
    return result
