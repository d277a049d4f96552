"""Tests for the workload scenario library (`repro.trace.workloads.SCENARIOS`)."""

import pytest

from repro.isa import OpClass
from repro.trace.workloads import (SCENARIOS, generate_scenario_trace,
                                   get_scenario, get_workload, has_workload,
                                   scenario_workloads)


def summary_of(name, n=8_000, seed=0):
    return generate_scenario_trace(SCENARIOS[name], n, seed=seed).summary()


class TestRegistry:
    def test_scenarios_resolve_through_get_workload(self):
        trace = get_workload("pointer_hop", 2_000)
        assert trace.name == "pointer_hop"
        assert len(trace) >= 2_000

    def test_has_workload_covers_both_registries(self):
        assert has_workload("swim")
        assert has_workload("store_wave")
        assert not has_workload("no_such_thing")

    def test_get_scenario_unknown_name(self):
        with pytest.raises(KeyError, match="known scenarios"):
            get_scenario("nope")

    def test_scenario_names_unique_from_benchmarks(self):
        from repro.trace.workloads import WORKLOADS
        assert not set(SCENARIOS) & set(WORKLOADS)

    def test_deterministic(self):
        a = generate_scenario_trace(SCENARIOS["phased"], 3_000, seed=5)
        b = generate_scenario_trace(SCENARIOS["phased"], 3_000, seed=5)
        assert a.instructions == b.instructions


class TestFamilies:
    def test_pointer_hop_is_load_dominated(self):
        summary = summary_of("pointer_hop")
        assert summary.load_fraction > 0.35
        assert summary.avg_def_use_distance < 5.0

    def test_branch_storm_is_branch_dense(self):
        summary = summary_of("branch_storm")
        assert summary.branch_fraction > 0.15

    def test_store_wave_is_store_heavy(self):
        summary = summary_of("store_wave")
        assert summary.store_fraction > 0.25
        # Far beyond any SPEC-like profile of the suite.
        assert summary.store_fraction > 2 * summary_of("pointer_hop").store_fraction

    def test_phased_mixes_integer_and_fp_phases(self):
        trace = generate_scenario_trace(SCENARIOS["phased"], 8_000, seed=0)
        profile = SCENARIOS["phased"]
        first = trace.instructions[:profile.phase_length]
        ops_first = {inst.op for inst in first}
        ops_all = {inst.op for inst in trace.instructions}
        # Phase one is the integer compute kernel; FP streaming appears
        # only after the first phase switch.
        assert OpClass.LOAD in ops_first
        assert OpClass.FP_LOAD not in ops_first
        assert OpClass.FP_LOAD in ops_all and OpClass.FP_STORE in ops_all

    def test_regpressure_ramp_widens_the_fp_working_set(self):
        profile = SCENARIOS["regpressure_ramp"]
        trace = generate_scenario_trace(profile, 11_000, seed=0)
        phase = profile.phase_length

        def fp_regs(segment):
            return len({inst.dest[1] for inst in segment
                        if inst.dest is not None and inst.dest[0].name == "FP"})

        narrow = fp_regs(trace.instructions[:phase])
        wide = fp_regs(trace.instructions[3 * phase:4 * phase])
        assert wide > narrow

    def test_phases_resume_rather_than_restart(self):
        """A phase's streams continue where they left off: the second
        compute segment of ``phased`` must not repeat the first one."""
        profile = SCENARIOS["phased"]
        trace = generate_scenario_trace(profile, 12_000, seed=0)
        phase = profile.phase_length
        first_compute = [inst for inst in trace.instructions[:phase]
                         if inst.op is OpClass.LOAD][:20]
        third_segment = trace.instructions[2 * phase:3 * phase]
        second_compute = [inst for inst in third_segment
                          if inst.op is OpClass.LOAD][:20]
        assert second_compute  # the compute phase did come around again
        assert ([inst.mem_addr for inst in first_compute]
                != [inst.mem_addr for inst in second_compute])


class TestScenarioExperiment:
    def test_scenario_grid_runs_and_formats(self):
        from repro.experiments import scenarios as scenarios_experiment

        result = scenarios_experiment.run(trace_length=1_500,
                                          sizes=(64,), cache=None,
                                          scenarios=["store_wave",
                                                     "branch_storm"])
        text = result.format()
        assert "store_wave" in text and "branch_storm" in text
        assert result.ipc("store_wave", "conv", 64) > 0
        assert 0.0 <= result.early_release_fraction("store_wave", "extended",
                                                    64) <= 1.0

    def test_unknown_scenario_names_raise(self):
        """A typo in the scenario filter must fail loudly, not produce a
        sweep quietly missing points (pre-PR-5 behaviour)."""
        from repro.experiments import scenarios as scenarios_experiment

        with pytest.raises(ValueError, match="unknown scenarios: branch_strom"):
            scenarios_experiment.run(trace_length=1_000,
                                     scenarios=["branch_storm",
                                                "branch_strom"])
        with pytest.raises(ValueError, match="known scenarios"):
            scenarios_experiment.resolve_scenario_names(["nope"])
        # An effectively empty selection ("--scenarios ," on the CLI)
        # must not silently produce an empty grid either.
        with pytest.raises(ValueError, match="empty scenario selection"):
            scenarios_experiment.resolve_scenario_names([])

    def test_grid_reports_user_registered_scenario(self):
        """early_release_fraction resolves through the registry (and the
        suites captured on the result), so registered scenarios work —
        the pre-PR-5 code indexed the hard-coded SCENARIOS dict and
        KeyErrored."""
        from repro.experiments import scenarios as scenarios_experiment
        from repro.trace.workloads import (KernelParams, ScenarioPhase,
                                           ScenarioProfile, register_scenario,
                                           unregister_scenario)

        profile = ScenarioProfile(
            name="grid_user_scn", suite="int", phase_length=500,
            phases=(ScenarioPhase("int_compute",
                                  KernelParams(pc_base=0x310000,
                                               data_base=0x31_00000,
                                               chain_len=2, trip_count=32)),))
        register_scenario(profile)
        try:
            result = scenarios_experiment.run(trace_length=1_200,
                                              sizes=(64,),
                                              cache=None,
                                              scenarios=["grid_user_scn"])
            fraction = result.early_release_fraction("grid_user_scn",
                                                     "extended", 64)
            assert 0.0 <= fraction <= 1.0
            assert result.suites["grid_user_scn"] == "int"
            assert "grid_user_scn" in result.format()
        finally:
            unregister_scenario("grid_user_scn")
        # The captured suite keeps reporting working even after the
        # scenario is gone from the registry.
        assert 0.0 <= result.early_release_fraction("grid_user_scn",
                                                    "extended", 64) <= 1.0

    def test_runner_exposes_scenarios(self):
        from repro.experiments.runner import EXPERIMENTS, _SIMULATION_EXPERIMENTS
        assert "scenarios" in EXPERIMENTS
        assert "scenarios" in _SIMULATION_EXPERIMENTS
        assert "scenario_occupancy" in EXPERIMENTS
        assert "scenario_occupancy" in _SIMULATION_EXPERIMENTS

    def test_scenario_order_is_stable(self):
        assert scenario_workloads() == list(SCENARIOS)


class TestScenarioOccupancy:
    def test_per_phase_rows_and_figure(self):
        from repro.experiments import scenario_occupancy

        result = scenario_occupancy.run(trace_length=1_500,
                                        num_registers=96, cache=None,
                                        scenarios=["phased", "store_wave"])
        # One row per phase: phased has two phases, store_wave one.
        assert [row.benchmark for row in result.phase_rows("phased")] == \
            ["phase 0 (int_compute)", "phase 1 (streaming)"]
        assert len(result.phase_rows("store_wave")) == 1
        for scenario in ("phased", "store_wave"):
            for row in result.phase_rows(scenario):
                assert 0 < row.allocated <= 96
            assert result.idle_overhead(scenario) > 0
        text = result.format()
        assert "Scenario occupancy: phased" in text
        assert "phase 1 (streaming)" in text and "idle/used" in text

    def test_unknown_scenario_raises(self):
        from repro.experiments import scenario_occupancy

        with pytest.raises(ValueError, match="unknown scenarios"):
            scenario_occupancy.run(trace_length=1_000,
                                   scenarios=["not_a_scenario"])

    def test_derived_phase_profiles_stay_out_of_registry(self):
        from repro.experiments import scenario_occupancy

        scenario_occupancy.run(trace_length=1_000,
                               cache=None, scenarios=["phased"])
        assert all("@phase" not in name for name in scenario_workloads())
