"""The engine probe hook and the conservation invariant checks."""

import dataclasses

import pytest

from repro.engine.engine import SimulationEngine
from repro.fuzz.invariants import (DEEP_CHECK_INTERVAL, InvariantProbe,
                                   InvariantViolation)
from repro.pipeline.config import ProcessorConfig
from repro.trace.workloads import get_workload


@pytest.fixture(scope="module")
def small_trace():
    return get_workload("compress", 600, seed=0)


def small_config(**overrides):
    overrides.setdefault("engine", "python")
    return ProcessorConfig(warmup=False, **overrides)


class TestProbeHook:
    def test_probe_sees_every_cycle_under_cycleclock(self, small_trace):
        probe = InvariantProbe()
        engine = SimulationEngine(small_trace, small_config(), probe=probe)
        stats = engine.run()
        assert probe.cycles_probed == stats.cycles
        assert probe.deep_checks == stats.cycles // DEEP_CHECK_INTERVAL

    def test_probe_pins_the_python_engine(self, small_trace):
        # With a probe attached the compiled core must not be dispatched:
        # the probe reads per-cycle Python state the C core never builds.
        probe = InvariantProbe()
        engine = SimulationEngine(small_trace,
                                  small_config(engine="compiled"),
                                  probe=probe)
        engine.run()
        assert engine.backend_used == "python"
        assert probe.cycles_probed > 0

    def test_step_calls_probe(self, small_trace):
        calls = []
        engine = SimulationEngine(small_trace, small_config(),
                                  probe=lambda state: calls.append(
                                      state.cycle))
        engine.step()
        engine.step()
        assert calls == [1, 2]

    def test_no_probe_no_overhead_path(self, small_trace):
        # Without a probe the run still completes identically (guard for
        # the hoisted `probe is None` fast path).
        base = SimulationEngine(small_trace, small_config()).run()
        probed_engine = SimulationEngine(small_trace, small_config(),
                                         probe=InvariantProbe())
        probed = probed_engine.run()
        assert dataclasses.asdict(base) == dataclasses.asdict(probed)


class TestInvariantChecks:
    def run_probed(self, trace, config):
        probe = InvariantProbe()
        engine = SimulationEngine(trace, config, probe=probe)
        stats = engine.run()
        return probe, engine, stats

    def test_clean_run_passes_final_check(self, small_trace):
        probe, engine, stats = self.run_probed(small_trace, small_config())
        probe.final_check(engine.state, stats)   # must not raise

    @pytest.mark.parametrize("policy", ["conv", "basic", "extended"])
    def test_all_policies_pass(self, small_trace, policy):
        probe, engine, stats = self.run_probed(
            small_trace, small_config(release_policy=policy,
                                      num_physical_int=40,
                                      num_physical_fp=40))
        probe.final_check(engine.state, stats)

    def test_final_check_catches_stat_identity_violation(self, small_trace):
        probe, engine, stats = self.run_probed(small_trace, small_config())
        skewed = dataclasses.replace(
            stats, fetched_instructions=stats.committed_instructions - 1)
        with pytest.raises(InvariantViolation, match="fetched"):
            probe.final_check(engine.state, skewed)

    def test_final_check_catches_commit_shortfall(self, small_trace):
        probe, engine, stats = self.run_probed(small_trace, small_config())
        skewed = dataclasses.replace(
            stats, committed_instructions=stats.committed_instructions - 1)
        with pytest.raises(InvariantViolation, match="committed"):
            probe.final_check(engine.state, skewed)

    def test_deep_check_catches_freelist_disagreement(self, small_trace):
        from repro.isa import RegClass
        probe, engine, stats = self.run_probed(small_trace, small_config())
        free_list = engine.state.register_files[RegClass.INT].free_list
        # Corrupt the bookkeeping: flag a free register as allocated
        # without touching the deque.
        victim = free_list._free[0]
        free_list._is_free[victim] = False
        try:
            with pytest.raises(InvariantViolation, match="disagrees"):
                probe.deep_check(engine.state)
        finally:
            free_list._is_free[victim] = True

    def test_release_queue_liveness_catches_scheduled_free_register(
            self, small_trace):
        from repro.isa import RegClass
        config = small_config(release_policy="extended",
                              num_physical_int=40, num_physical_fp=40)
        probe = InvariantProbe()
        engine = SimulationEngine(small_trace, config, probe=probe)
        engine.run()
        state = engine.state
        policy = state.policies[RegClass.INT]
        free_list = state.register_files[RegClass.INT].free_list
        free_physical = free_list._free[0]
        # Plant an RwNS scheduling for a register that is already free —
        # the double-release-in-flight shape the deep check exists for.
        policy.release_queue.push_level(10**9)
        policy.release_queue.schedule_committed_lu(free_physical, 1, 10**9)
        with pytest.raises(InvariantViolation, match="already.*free|free"):
            probe.deep_check(state)
