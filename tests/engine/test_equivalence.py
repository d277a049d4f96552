"""Cycle-accuracy pins of both engines.

The engine once ran under an event-driven clock that fast-forwarded
across idle and stall-only cycles; the per-cycle loop that replaced it
must produce *bit-identical* :class:`SimStats` — cycles, IPC, stall
counts, occupancy averages, everything.  Each point below pins the
``(cycles, digest)`` pair of its statistics, where ``digest`` hashes
every field of the stats, so any drift in the loop shows up here.  A
deliberate change to the statistics re-pins the table by printing
``(stats.cycles, digest(stats))`` for each point.  The compiled core
must reproduce every pin too (skipped without a C toolchain).

The points also drive the Python engine's indexed scheduler (ready set
+ wakeup index + completion queue) through squashes, exceptions and
every hazard class, so the suite cross-checks the incremental index
maintenance too.
"""

import dataclasses
import hashlib

import pytest

from repro.backend.functional_units import FUConfig
from repro.engine import SimulationEngine
from repro.engine import accel
from repro.isa import FUKind
from repro.pipeline.config import ProcessorConfig
from repro.trace.workloads import get_workload

POLICIES = ("conv", "basic", "extended")

#: One integer (branch-dense, mispredictions, wrong-path fetch) and one FP
#: (memory-latency-bound, register-pressure-heavy) workload.
WORKLOADS = ("gcc", "swim")

TRACE_LENGTH = 2_500

#: ``(cycles, digest)`` of every pinned point.
PINNED = {
    "gcc-conv": (7378, "4144f2a9c2946a7d"),
    "gcc-basic": (7242, "23feda239c49024e"),
    "gcc-extended": (7147, "1131d932d3cf88bb"),
    "swim-conv": (1744, "dac9e747dca0a8b0"),
    "swim-basic": (1618, "9b0aefdf81a80964"),
    "swim-extended": (1502, "32efc0b97d1160f7"),
    "ros_full": (7539, "1ec7294fb1f9deef"),
    "lsq_full": (7402, "7e9c7681a87f7979"),
    "checkpoints_full": (7187, "1a558877aa860593"),
    "starved_divider": (1744, "dac9e747dca0a8b0"),
    "parked_loads": (10256, "bbd659b34e7268d1"),
    "max_cycles_50": (50, "660c30c20889909e"),
    "max_cycles_137": (137, "49bae3d368ec35ba"),
    "max_cycles_400": (400, "8341abee923caf5f"),
    "max_instructions": (3296, "50918cda339d95db"),
    "exceptions": (5904, "2cace426458a307c"),
}

#: ``(cycles, committed, structural stalls, non-zero dispatch stalls)``
#: of the swim points, per policy.
SWIM_KEY_METRICS = {
    "conv": (1744, 2515, 11, {"no_free_fp_register": 1402}),
    "basic": (1618, 2515, 91, {"no_free_fp_register": 1124,
                               "no_free_int_register": 44}),
    "extended": (1502, 2515, 79, {"no_free_int_register": 1088}),
}


#: A single unpipelined FP divider: divide runs leave ready
#: instructions that cannot issue.
STARVED_DIVIDER = FUConfig(counts={
    FUKind.SIMPLE_INT: 8, FUKind.INT_MULT: 4, FUKind.SIMPLE_FP: 6,
    FUKind.FP_MULT: 4, FUKind.FP_DIV: 1, FUKind.LOAD_STORE: 4,
})

#: How each pinned point runs: ``(workload, trace length, ProcessorConfig
#: overrides, run() limits)``.  ``num_registers`` sets both files (48
#: unless given; ``None`` keeps the configuration's default).
POINTS = {
    **{f"{workload}-{policy}": (workload, TRACE_LENGTH,
                                {"release_policy": policy}, {})
       for workload in WORKLOADS for policy in POLICIES},
    "ros_full": ("gcc", TRACE_LENGTH, {"release_policy": "conv",
                                       "num_registers": 96,
                                       "ros_size": 8}, {}),
    "lsq_full": ("gcc", TRACE_LENGTH, {"release_policy": "conv",
                                       "num_registers": 96,
                                       "lsq_size": 4}, {}),
    "checkpoints_full": ("gcc", TRACE_LENGTH, {"release_policy": "conv",
                                               "num_registers": 96,
                                               "max_pending_branches": 2}, {}),
    "starved_divider": ("swim", TRACE_LENGTH, {
        "release_policy": "conv", "functional_units": STARVED_DIVIDER}, {}),
    "parked_loads": ("compress", TRACE_LENGTH, {"release_policy": "basic",
                                                "lsq_size": 12}, {}),
    **{f"max_cycles_{limit}": ("swim", 1_500, {"release_policy": "conv"},
                               {"max_cycles": limit})
       for limit in (50, 137, 400)},
    "max_instructions": ("gcc", 1_500, {"release_policy": "extended",
                                        "num_registers": None},
                         {"max_instructions": 600}),
    "exceptions": ("gcc", 1_500, {"release_policy": "extended",
                                  "num_registers": None,
                                  "exception_rate": 0.002}, {}),
}


def digest(stats):
    """Short fingerprint of every :class:`SimStats` field."""
    return hashlib.sha256(repr(dataclasses.asdict(stats)).encode()).hexdigest()[:16]


def run_pinned(name: str, engine: str = "python", probe=None):
    """Run pinned point ``name`` on ``engine``; return its stats and
    engine."""
    workload, trace_length, overrides, limits = POINTS[name]
    overrides = dict(overrides)
    num_registers = overrides.pop("num_registers", 48)
    if num_registers is not None:
        overrides.update(num_physical_int=num_registers,
                         num_physical_fp=num_registers)
    config = ProcessorConfig(warmup=False, engine=engine, **overrides)
    trace = get_workload(workload, trace_length, seed=0)
    sim = SimulationEngine(trace, config, probe=probe)
    return sim.run(**limits), sim


def assert_pinned(name, stats):
    assert (stats.cycles, digest(stats)) == PINNED[name]


class ReadyPeak:
    """Engine probe: the largest ready set seen at the end of a cycle."""

    def __init__(self) -> None:
        self.peak = 0

    def __call__(self, state) -> None:
        self.peak = max(self.peak, len(state.ready))


class TestBitIdenticalStats:
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_event_clock_matches_per_cycle_loop(self, workload, policy):
        name = f"{workload}-{policy}"
        stats, _engine = run_pinned(name)
        assert_pinned(name, stats)

    @pytest.mark.parametrize("stall",
                             ["ros_full", "lsq_full", "checkpoints_full"])
    def test_structural_hazard_stall_booking(self, stall):
        # The default matrix only produces register-shortage stalls; tiny
        # back-end structures force the other dispatch hazards, so the
        # booking of every stall reason stays pinned.
        stats, _ = run_pinned(stall)
        assert stats.dispatch_stalls[stall] > 0
        assert_pinned(stall, stats)

    def test_structural_stall_window_booking(self):
        # A single unpipelined FP divider turns divide runs into windows
        # where ready instructions exist but nothing can issue; each
        # blocked ready entry books one structural stall per cycle.
        stats, _ = run_pinned("starved_divider")
        assert stats.structural_stalls > 0
        assert_pinned("starved_divider", stats)

    def test_parked_load_wait_lists(self):
        # A tiny LSQ plus a store-heavy integer workload exercises the
        # per-LSQ wait lists: loads blocked on older unknown store
        # addresses must re-enter the ready set exactly when the blocking
        # store issues, including intra-cycle (same issue sweep) wakeups.
        ready = ReadyPeak()
        stats, _ = run_pinned("parked_loads", probe=ready)
        assert_pinned("parked_loads", stats)
        # The run must actually have drained through the scheduler.
        assert ready.peak > 0

    def test_scheduler_indexes_drain_clean(self):
        # After a completed run nothing may linger: a leaked ready entry
        # or waiter would mean the incremental maintenance lost an event.
        for policy in POLICIES:
            ready = ReadyPeak()
            _, engine = run_pinned(f"gcc-{policy}", probe=ready)
            state = engine.state
            assert engine.finished
            assert ready.peak > 0
            assert len(state.ready) == 0
            assert len(state.consumers) == 0

    @pytest.mark.parametrize("policy", POLICIES)
    def test_key_metrics_spot_check(self, policy):
        # Redundant with the digest, but pins the fields the paper's
        # figures are built from with readable failures.
        stats, _ = run_pinned(f"swim-{policy}")
        cycles, committed, structural, stalls = SWIM_KEY_METRICS[policy]
        assert stats.cycles == cycles
        assert stats.committed_instructions == committed
        assert stats.ipc == committed / cycles
        assert stats.structural_stalls == structural
        assert {reason: count for reason, count in stats.dispatch_stalls.items()
                if count} == stalls
        assert stats.int_registers.occupancy is not None
        assert stats.fp_registers.occupancy is not None


class TestLimitEquivalence:
    def test_max_cycles_cap_lands_on_same_cycle(self):
        # The max_cycles check stops the loop on the exact cycle.
        for max_cycles in (50, 137, 400):
            name = f"max_cycles_{max_cycles}"
            stats, _ = run_pinned(name)
            assert stats.cycles == max_cycles
            assert_pinned(name, stats)

    def test_max_instructions_equivalence(self):
        stats, _ = run_pinned("max_instructions")
        assert stats.committed_instructions >= 600
        assert_pinned("max_instructions", stats)

    def test_exception_recovery_equivalence(self):
        # Precise-exception flushes rebuild the map table mid-run; the
        # per-cycle run must recover to the pinned statistics.
        stats, _ = run_pinned("exceptions")
        assert stats.exceptions_taken > 0
        assert_pinned("exceptions", stats)


@pytest.mark.skipif(
    accel.resolve_engine_backend(ProcessorConfig(engine="compiled"))
    != "compiled", reason="no C toolchain for the compiled engine backend")
@pytest.mark.parametrize("name", sorted(POINTS))
def test_compiled_core_reproduces_pin(name):
    stats, engine = run_pinned(name, engine="compiled")
    assert engine.backend_used == "compiled"
    assert_pinned(name, stats)
