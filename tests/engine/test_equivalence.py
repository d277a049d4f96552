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
from repro.memory.cache import CacheConfig
from repro.memory.hierarchy import MemoryConfig
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
    "odd_ros_lsq-conv": (7110, "4e96f919785b16f5"),
    "odd_ros_lsq-basic": (7110, "b357fe9a0c51ac5f"),
    "odd_ros_lsq-extended": (7110, "243ca06f4061b8d5"),
    "fetch3-conv": (7052, "671d0263685d2d01"),
    "fetch3-basic": (7283, "cdc2fb53dcf16665"),
    "fetch3-extended": (7197, "37c6496e38d2b269"),
    "btb_3sets-conv": (9514, "8881b611b9daa736"),
    "btb_3sets-basic": (9313, "5abf9f8fdfc5acbd"),
    "btb_3sets-extended": (9460, "36464cad4ed1b0bd"),
    "l1d_48sets-conv": (7750, "e231a9dff363e044"),
    "l1d_48sets-basic": (7643, "de523861367c8992"),
    "l1d_48sets-extended": (7519, "ef59f50f0dc0c071"),
    "rq_rwc_paths": (7166, "45a54dbb0ddab986"),
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

#: An L1D of 48 sets (6 KB, 2-way, 64-byte lines): set indices wrap by
#: modulo, not by mask, and the small capacity keeps it missing.
L1D_48_SETS = MemoryConfig(l1d=CacheConfig(
    "L1D", size_bytes=6 * 1024, associativity=2, line_bytes=64,
    hit_latency=1))

#: Capacities that are not powers of two, so every ring and set index
#: wraps by its own arithmetic: a 37-row ROS with a 13-entry LSQ (96
#: registers, so the ROS fills); 3-wide
#: fetch and rename (an 18-entry decode ring); a 12-entry 4-way BTB
#: (3 sets); the 48-set L1D.
ODD_GEOMETRIES = {
    "odd_ros_lsq": {"ros_size": 37, "lsq_size": 13, "num_registers": 96},
    "fetch3": {"fetch_width": 3, "rename_width": 3},
    "btb_3sets": {"btb_entries": 12, "btb_associativity": 4},
    "l1d_48sets": {"memory": L1D_48_SETS},
}

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
    **{f"{geometry}-{policy}": ("gcc", TRACE_LENGTH,
                                {"release_policy": policy, **overrides}, {})
       for geometry, overrides in ODD_GEOMETRIES.items()
       for policy in POLICIES},
    # 40 registers keep the Release Queue busy: in-flight RwC entries
    # are merged into older levels, cleared with their level by
    # mispredictions and exception flushes, and resolved when their last
    # use commits.
    "rq_rwc_paths": ("gcc", TRACE_LENGTH, {"release_policy": "extended",
                                           "num_registers": 40,
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


class TestOddGeometries:
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("geometry", sorted(ODD_GEOMETRIES))
    def test_non_power_of_two_capacities(self, geometry, policy):
        name = f"{geometry}-{policy}"
        stats, _ = run_pinned(name)
        assert_pinned(name, stats)

    def test_odd_ros_fills(self):
        stats, _ = run_pinned("odd_ros_lsq-conv")
        assert stats.dispatch_stalls["ros_full"] > 0

    def test_release_queue_rwc_paths(self):
        stats, _ = run_pinned("rq_rwc_paths")
        assert stats.exceptions_taken > 0
        assert_pinned("rq_rwc_paths", stats)


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
