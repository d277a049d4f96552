"""End-to-end comparisons of the three release policies on real workloads.

These are the integration-level statements of the paper's thesis:

* early release never *loses* performance;
* it frees registers earlier (more early releases, smaller Idle occupancy);
* the benefit appears when the register file is tight and vanishes when it
  is loose;
* all of this holds while the register-conservation invariants stay intact.
"""

import pytest

from repro.engine import SimulationEngine, simulate
from repro.isa import RegClass
from repro.pipeline.config import ProcessorConfig
from repro.trace.workloads import get_workload

TRACE_LENGTH = 2_500


def run(benchmark, policy, registers, **kwargs):
    trace = get_workload(benchmark, TRACE_LENGTH)
    config = ProcessorConfig(release_policy=policy, num_physical_int=registers,
                             num_physical_fp=registers, **kwargs)
    return simulate(trace, config)


@pytest.fixture(scope="module")
def swim_results():
    return {(policy, registers): run("swim", policy, registers)
            for policy in ("conv", "basic", "extended")
            for registers in (48, 160)}


class TestPerformanceOrdering:
    def test_early_release_helps_tight_fp_file(self, swim_results):
        conv = swim_results[("conv", 48)].ipc
        basic = swim_results[("basic", 48)].ipc
        extended = swim_results[("extended", 48)].ipc
        assert basic >= conv * 0.99
        assert extended >= conv * 1.02        # a clear win on a tight file
        assert extended >= basic * 0.98

    def test_policies_converge_on_loose_file(self, swim_results):
        conv = swim_results[("conv", 160)].ipc
        extended = swim_results[("extended", 160)].ipc
        assert extended == pytest.approx(conv, rel=0.05)

    def test_gain_shrinks_with_file_size(self, swim_results):
        gain_tight = (swim_results[("extended", 48)].ipc
                      / swim_results[("conv", 48)].ipc)
        gain_loose = (swim_results[("extended", 160)].ipc
                      / swim_results[("conv", 160)].ipc)
        assert gain_tight > gain_loose

    def test_integer_benchmark_less_sensitive(self):
        conv = run("gcc", "conv", 48)
        extended = run("gcc", "extended", 48)
        fp_conv = run("swim", "conv", 48)
        fp_extended = run("swim", "extended", 48)
        int_gain = extended.ipc / conv.ipc
        fp_gain = fp_extended.ipc / fp_conv.ipc
        assert fp_gain > int_gain - 0.02


class TestReleaseBehaviour:
    def test_early_releases_only_under_early_policies(self, swim_results):
        assert swim_results[("conv", 48)].fp_registers.early_releases == 0
        assert swim_results[("basic", 48)].fp_registers.early_releases > 0
        assert swim_results[("extended", 48)].fp_registers.early_releases > 0

    def test_extended_schedules_conditional_releases(self, swim_results):
        assert swim_results[("extended", 48)].fp_registers.conditional_schedulings \
            >= 0
        assert swim_results[("basic", 48)].fp_registers.conditional_schedulings == 0

    def test_idle_occupancy_shrinks_with_early_release(self, swim_results):
        conv_idle = swim_results[("conv", 160)].fp_registers.occupancy.idle
        extended_idle = swim_results[("extended", 160)].fp_registers.occupancy.idle
        assert extended_idle < conv_idle

    def test_fewer_register_stalls_with_early_release(self, swim_results):
        conv_stalls = swim_results[("conv", 48)].dispatch_stalls[
            "no_free_fp_register"]
        extended_stalls = swim_results[("extended", 48)].dispatch_stalls[
            "no_free_fp_register"]
        assert extended_stalls <= conv_stalls

    def test_same_instruction_stream_committed(self, swim_results):
        counts = {key: stats.committed_instructions
                  for key, stats in swim_results.items()}
        assert len(set(counts.values())) == 1


class TestInvariants:
    @pytest.mark.parametrize("benchmark_name", ["swim", "gcc", "li"])
    @pytest.mark.parametrize("policy", ["conv", "basic", "extended"])
    def test_register_conservation_after_full_run(self, benchmark_name, policy):
        trace = get_workload(benchmark_name, 1500)
        config = ProcessorConfig(release_policy=policy, num_physical_int=48,
                                 num_physical_fp=48, warmup=False)
        engine = SimulationEngine(trace, config)
        engine.run()
        for register_file in engine.state.register_files.values():
            register_file.check_invariants()
            assert register_file.n_allocated == 32

    @pytest.mark.parametrize("policy", ["basic", "extended"])
    def test_exceptions_do_not_break_invariants(self, policy):
        trace = get_workload("tomcatv", 1500)
        config = ProcessorConfig(release_policy=policy, num_physical_int=48,
                                 num_physical_fp=48, warmup=False,
                                 exception_rate=0.02, seed=11)
        engine = SimulationEngine(trace, config)
        stats = engine.run()
        assert stats.exceptions_taken > 0
        for register_file in engine.state.register_files.values():
            register_file.check_invariants()

    def test_disabling_wrong_path_still_consistent(self):
        trace = get_workload("go", 1500)
        config = ProcessorConfig(release_policy="extended", num_physical_int=44,
                                 num_physical_fp=44, warmup=False,
                                 enable_wrong_path=False)
        engine = SimulationEngine(trace, config)
        engine.run()
        assert engine.state.register_files[RegClass.INT].n_allocated == 32
