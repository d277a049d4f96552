"""Cycle-accuracy pins of the per-cycle (Python) engine.

The engine once ran under an event-driven clock that fast-forwarded
across idle and stall-only cycles; the per-cycle loop that replaced it
must produce *bit-identical* :class:`SimStats` — cycles, IPC, stall
counts, occupancy averages, everything.  Each point below pins the
``(cycles, digest)`` pair that clock recorded, where ``digest`` hashes
every field of the stats, so any drift in the loop shows up here.  A
deliberate change to the statistics re-pins the table by printing
``(stats.cycles, digest(stats))`` for each point.

The points also drive the indexed scheduler (ready set + wakeup index +
completion queue) through squashes, exceptions and every hazard class,
so the suite cross-checks the incremental index maintenance too.
Every point pins ``engine="python"``: the digests and the scheduler
state are the Python engine's (the compiled core's ``SimStats`` compare
equal, but its ``committed_by_class`` lists classes in a different
order, which the digest's ``repr`` sees).
"""

import dataclasses
import hashlib

import pytest

from repro.backend.functional_units import FUConfig
from repro.engine import SimulationEngine
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
    "gcc-conv": (7378, "dea16c2ae03fffa1"),
    "gcc-basic": (7242, "66e851279c9d6a0b"),
    "gcc-extended": (7147, "d4ded249951be5c5"),
    "swim-conv": (1744, "1e3b8e6abddd3b0c"),
    "swim-basic": (1618, "7141ae560933042e"),
    "swim-extended": (1502, "4b683a0515bd0c08"),
    "ros_full": (7539, "37ca627c321a2bca"),
    "lsq_full": (7402, "123db0fc2ae01bb1"),
    "checkpoints_full": (7187, "d9c314a1cf4c103b"),
    "starved_divider": (1744, "1e3b8e6abddd3b0c"),
    "parked_loads": (10256, "18688970db80a4f6"),
    "max_cycles_50": (50, "660c30c20889909e"),
    "max_cycles_137": (137, "a0754e318a191777"),
    "max_cycles_400": (400, "875bf778f0c2c982"),
    "max_instructions": (3296, "8a8d1bd3b278ce05"),
    "exceptions": (5904, "4e033e5918bcf718"),
}

#: ``(cycles, committed, structural stalls, non-zero dispatch stalls)``
#: of the swim points, per policy.
SWIM_KEY_METRICS = {
    "conv": (1744, 2515, 11, {"no_free_fp_register": 1402}),
    "basic": (1618, 2515, 91, {"no_free_fp_register": 1124,
                               "no_free_int_register": 44}),
    "extended": (1502, 2515, 79, {"no_free_int_register": 1088}),
}


def digest(stats):
    """Short fingerprint of every :class:`SimStats` field."""
    return hashlib.sha256(repr(dataclasses.asdict(stats)).encode()).hexdigest()[:16]


def assert_pinned(name, stats):
    assert (stats.cycles, digest(stats)) == PINNED[name]


def run_point(workload: str, policy: str, *, num_registers: int = 48,
              **config_kwargs):
    """Run one (workload, policy) point on the Python engine; return its
    stats and engine."""
    config = ProcessorConfig(release_policy=policy,
                             num_physical_int=num_registers,
                             num_physical_fp=num_registers,
                             warmup=False, engine="python", **config_kwargs)
    trace = get_workload(workload, TRACE_LENGTH, seed=0)
    engine = SimulationEngine(trace, config)
    return engine.run(), engine


class TestBitIdenticalStats:
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_event_clock_matches_per_cycle_loop(self, workload, policy):
        stats, _engine = run_point(workload, policy)
        assert_pinned(f"{workload}-{policy}", stats)

    @pytest.mark.parametrize("tight_kwargs", [
        {"ros_size": 8},                      # ros_full dispatch stalls
        {"lsq_size": 4},                      # lsq_full dispatch stalls
        {"max_pending_branches": 2},          # checkpoints_full dispatch stalls
    ], ids=["ros_full", "lsq_full", "checkpoints_full"])
    def test_structural_hazard_stall_booking(self, tight_kwargs):
        # The default matrix only produces register-shortage stalls; tiny
        # back-end structures force the other dispatch hazards, so the
        # booking of every stall reason stays pinned.
        stall_key = {"ros_size": "ros_full", "lsq_size": "lsq_full",
                     "max_pending_branches": "checkpoints_full"}
        stats, _ = run_point("gcc", "conv", num_registers=96, **tight_kwargs)
        (knob, _), = tight_kwargs.items()
        assert stats.dispatch_stalls[stall_key[knob]] > 0
        assert_pinned(stall_key[knob], stats)

    def test_structural_stall_window_booking(self):
        # A single unpipelined FP divider turns divide runs into windows
        # where ready instructions exist but nothing can issue; each
        # blocked ready entry books one structural stall per cycle.
        starved = FUConfig(counts={
            FUKind.SIMPLE_INT: 8, FUKind.INT_MULT: 4, FUKind.SIMPLE_FP: 6,
            FUKind.FP_MULT: 4, FUKind.FP_DIV: 1, FUKind.LOAD_STORE: 4,
        })
        stats, _ = run_point("swim", "conv", functional_units=starved)
        assert stats.structural_stalls > 0
        assert_pinned("starved_divider", stats)

    def test_parked_load_wait_lists(self):
        # A tiny LSQ plus a store-heavy integer workload exercises the
        # per-LSQ wait lists: loads blocked on older unknown store
        # addresses must re-enter the ready set exactly when the blocking
        # store issues, including intra-cycle (same issue sweep) wakeups.
        stats, engine = run_point("compress", "basic", lsq_size=12)
        assert_pinned("parked_loads", stats)
        # The run must actually have drained through the scheduler.
        assert engine.state.ready.peak_size > 0

    def test_scheduler_indexes_drain_clean(self):
        # After a completed run nothing may linger: a leaked ready entry
        # or waiter would mean the incremental maintenance lost an event.
        for policy in POLICIES:
            _, engine = run_point("gcc", policy)
            state = engine.state
            assert engine.finished
            assert state.ready.peak_size > 0
            assert len(state.ready) == 0
            assert len(state.consumers) == 0

    @pytest.mark.parametrize("policy", POLICIES)
    def test_key_metrics_spot_check(self, policy):
        # Redundant with the digest, but pins the fields the paper's
        # figures are built from with readable failures.
        stats, _ = run_point("swim", policy)
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
            config = ProcessorConfig(release_policy="conv", warmup=False,
                                     num_physical_int=48, num_physical_fp=48,
                                     engine="python")
            trace = get_workload("swim", 1_500, seed=0)
            stats = SimulationEngine(trace, config).run(max_cycles=max_cycles)
            assert stats.cycles == max_cycles
            assert_pinned(f"max_cycles_{max_cycles}", stats)

    def test_max_instructions_equivalence(self):
        config = ProcessorConfig(release_policy="extended", warmup=False,
                                 engine="python")
        trace = get_workload("gcc", 1_500, seed=0)
        stats = SimulationEngine(trace, config).run(max_instructions=600)
        assert stats.committed_instructions >= 600
        assert_pinned("max_instructions", stats)

    def test_exception_recovery_equivalence(self):
        # Precise-exception flushes rebuild the map table mid-run; the
        # per-cycle run must recover to the pinned statistics.
        config = ProcessorConfig(release_policy="extended", warmup=False,
                                 exception_rate=0.002, engine="python")
        trace = get_workload("gcc", 1_500, seed=0)
        stats = SimulationEngine(trace, config).run()
        assert stats.exceptions_taken > 0
        assert_pinned("exceptions", stats)
