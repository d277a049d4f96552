"""Unit tests of the engine's per-cycle clock and stepping.

The engine sweeps its stages once per cycle and never skips one.  Hand-
built traces make the expected cycles predictable: a dependent load
chain leaves the machine idle for the full memory latency, a tiny
register file stalls rename on the free list, and a single unpipelined
divider blocks ready divides.  The pinned ``(cycles, digest)`` pairs are
the statistics the engine's former event-driven fast-forward clock
produced on the same traces, so stepping those idle and stall-only
windows one cycle at a time must reproduce them exactly.
"""

import dataclasses
import hashlib

from repro.backend.functional_units import FUConfig
from repro.engine import MachineState, SimulationEngine, clock, default_stages
from repro.isa import FUKind, InstructionBuilder, OpClass, RegClass
from repro.memory.hierarchy import MemoryConfig
from repro.pipeline.config import ProcessorConfig
from repro.trace.records import Trace

FAST = dict(warmup=False, enable_wrong_path=False)


def make_trace(name, builder):
    return Trace(name=name, focus_class=RegClass.INT, instructions=builder.trace())


def digest(stats):
    """Short fingerprint of every :class:`SimStats` field."""
    return hashlib.sha256(repr(dataclasses.asdict(stats)).encode()).hexdigest()[:16]


def load_chain_trace(n=6):
    """Dependent loads: each must wait the full memory latency of the last."""
    builder = InstructionBuilder(pc=0x1000)
    addr = 0x800000
    for i in range(n):
        # Pointer-chase pattern with widely spread addresses: every load
        # misses, and the next load's address depends on the loaded value.
        builder.load(dest=1, addr_reg=1, mem_addr=addr + i * 0x40_000)
        builder.alu(dest=2, srcs=(1,))
    return make_trace("chain", builder)


class TestFastForward:
    def test_load_chain_skips_memory_latency(self):
        # The idle memory-latency windows are stepped, not skipped, and
        # the result is the one the fast-forwarding clock recorded.
        stats = SimulationEngine(load_chain_trace(), ProcessorConfig(**FAST)).run()
        assert (stats.cycles, digest(stats)) == (454, "941d33c59a35584a")
        assert stats.committed_instructions == 12
        # Every load misses to main memory: the run is latency-bound.
        assert stats.cycles > 6 * MemoryConfig().main_memory_latency

    def test_jump_aware_dispatch_stall_accounting(self):
        # A tiny register file with long-lived values forces rename to
        # stall on the free list across memory-latency gaps: every
        # stalled cycle books its dispatch stall.
        builder = InstructionBuilder(pc=0x1000)
        for i in range(120):
            builder.load(dest=i % 28, addr_reg=30,
                         mem_addr=0x800000 + i * 0x40_000)
        trace = make_trace("pressure", builder)
        config = ProcessorConfig(num_physical_int=40, num_physical_fp=40, **FAST)
        stats = SimulationEngine(trace, config).run()
        assert stats.dispatch_stalls["no_free_int_register"] > 0
        assert stats.committed_instructions == 120
        assert (stats.cycles, digest(stats)) == (1058, "17762549e5bff9dd")

    def test_structural_stall_window_is_fast_forwarded(self):
        # Six independent FP divides on a single unpipelined divider:
        # after each issue the remaining ready divides are structurally
        # blocked for the full 16-cycle occupancy, and each blocked ready
        # entry books one structural stall per cycle.
        builder = InstructionBuilder(pc=0x1000)
        for i in range(6):
            builder.alu(dest=10 + i, srcs=(1, 2), fp=True, op=OpClass.FP_DIV)
        trace = make_trace("divs", builder)
        starved = FUConfig(counts={
            FUKind.SIMPLE_INT: 8, FUKind.INT_MULT: 4, FUKind.SIMPLE_FP: 6,
            FUKind.FP_MULT: 4, FUKind.FP_DIV: 1, FUKind.LOAD_STORE: 4,
        })
        config = ProcessorConfig(functional_units=starved, **FAST)
        stats = SimulationEngine(trace, config).run()
        assert stats.structural_stalls > 0
        assert stats.cycles > 5 * 16  # ~5 serialized 16-cycle divides
        assert (stats.cycles, digest(stats)) == (165, "82f0f19d9fafe913")

    def test_parked_load_issues_with_unblocking_store(self):
        # seq 2 is a store whose address register is fed by a missing
        # load; seq 3 is a younger, register-independent load.  The load
        # parks on the store's LSQ wait list and must issue in the very
        # cycle the store's address becomes known (intra-sweep wakeup).
        builder = InstructionBuilder(pc=0x1000)
        builder.load(dest=1, addr_reg=30, mem_addr=0x800000)      # misses
        builder.alu(dest=2, srcs=(1,))                            # address
        builder.store(value_reg=3, addr_reg=2, mem_addr=0x1000)
        builder.load(dest=4, addr_reg=30, mem_addr=0x2000)        # parks
        trace = make_trace("park", builder)
        config = ProcessorConfig(**FAST)
        engine = SimulationEngine(trace, config)
        issue_cycles = {}
        while not engine.finished and engine.state.cycle < 500:
            engine.step()
            for entry in engine.state.ros:
                if entry.issued and entry.seq not in issue_cycles:
                    issue_cycles[entry.seq] = entry.issue_cycle
        assert issue_cycles[3] == issue_cycles[2]
        assert issue_cycles[2] > issue_cycles[0]  # store waited for the miss
        stats = SimulationEngine(trace, config).run()
        assert (stats.cycles, digest(stats)) == (198, "41bb685e74cb555f")

    def test_cycle_clock_never_jumps(self):
        engine = SimulationEngine(load_chain_trace(), ProcessorConfig(**FAST))
        assert isinstance(engine.clock, clock.CycleClock)
        sweeps = 0
        while not engine.finished:
            engine.step()
            sweeps += 1
        assert engine.clock.cycles_skipped == 0
        assert engine.state.cycle == sweeps

    def test_step_is_always_single_cycle(self):
        # Single-stepping (debuggers, the figure2 experiment) observes
        # every cycle.
        engine = SimulationEngine(load_chain_trace(), ProcessorConfig(**FAST))
        for expected_cycle in range(1, 40):
            engine.step()
            assert engine.state.cycle == expected_cycle
        assert engine.clock.cycles_skipped == 0


class TestQuiescenceProbe:
    def test_busy_machine_is_not_quiescent(self):
        builder = InstructionBuilder(pc=0x1000)
        for i in range(32):
            builder.alu(dest=1 + i % 8, srcs=(10,))
        engine = SimulationEngine(make_trace("busy", builder),
                                  ProcessorConfig(**FAST))
        # The clock's advance hook never moves the cycle; only a stage
        # sweep does, by exactly one.
        engine.clock.advance(engine.state)
        assert engine.state.cycle == 0
        engine.step()
        assert engine.state.cycle == 1

    def test_drained_machine_is_not_fast_forwarded_forever(self):
        trace = load_chain_trace(2)
        engine = SimulationEngine(trace, ProcessorConfig(**FAST))
        stats = engine.run()
        assert engine.finished
        assert stats.committed_instructions == 4

    def test_engine_uses_event_clock_by_default(self):
        # The traced benchmark wraps the ``advance`` of both clock names
        # and reads ``engine.clock.cycles_skipped``: the default clock must
        # be the one class both names alias, and it never skips.
        engine = SimulationEngine(load_chain_trace(), ProcessorConfig(**FAST))
        assert clock.EventClock is clock.CycleClock
        assert isinstance(engine.clock, clock.EventClock)
        engine.run()
        assert engine.clock.cycles_skipped == 0

    def test_stage_wiring(self):
        names = [stage.name for stage in default_stages()]
        assert names == ["commit", "writeback", "issue", "rename", "fetch"]

    def test_machine_state_implements_pipeline_view(self):
        from repro.core.release_policy import PipelineView

        state = MachineState(load_chain_trace(), ProcessorConfig(**FAST))
        assert isinstance(state, PipelineView)
        assert state.current_cycle() == 0
        assert not state.is_committed(0)
