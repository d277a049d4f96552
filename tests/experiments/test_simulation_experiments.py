"""Tests for the simulation-backed experiments, run at reduced scale.

These use short traces and a subset of benchmarks/sizes so the whole module
stays in the tens of seconds, while still checking the structure of each
regenerated artefact and the headline orderings the paper reports.
"""

import pytest

from repro import ProcessorConfig, simulate
from repro.experiments import figure3, figure10, figure11, section33, table4
from repro.trace.workloads import get_workload

TRACE_LENGTH = 2_500
SUBSET = ["compress", "gcc", "swim", "tomcatv"]


@pytest.fixture(scope="module")
def figure3_result():
    return figure3.run(trace_length=TRACE_LENGTH)


@pytest.fixture(scope="module")
def figure10_result():
    return figure10.run(trace_length=TRACE_LENGTH)


@pytest.fixture(scope="module")
def figure11_result():
    return figure11.run(trace_length=TRACE_LENGTH, sizes=(40, 64, 96, 160),
                        benchmarks=SUBSET)


class TestFigure3:
    def test_all_benchmarks_present(self, figure3_result):
        assert len(figure3_result.rows["int"]) == 5
        assert len(figure3_result.rows["fp"]) == 5

    def test_occupancy_bounded_by_register_file(self, figure3_result):
        for suite in ("int", "fp"):
            for row in figure3_result.rows[suite]:
                assert 0 < row.allocated <= figure3_result.num_registers

    def test_at_least_architectural_registers_allocated(self, figure3_result):
        # The 32 architectural versions are always allocated.
        for suite in ("int", "fp"):
            assert figure3_result.suite_mean(suite).allocated >= 30

    def test_idle_overhead_positive_and_int_higher(self, figure3_result):
        # The paper's qualitative point: conventional release wastes
        # proportionally more registers on the integer codes (45.8% vs 16.8%).
        int_overhead = figure3_result.idle_overhead("int")
        fp_overhead = figure3_result.idle_overhead("fp")
        assert int_overhead > 0 and fp_overhead > 0
        assert int_overhead > fp_overhead

    def test_format(self, figure3_result):
        text = figure3_result.format()
        assert "Figure 3" in text and "idle overhead" in text


class TestFigure10:
    def test_all_policies_and_benchmarks(self, figure10_result):
        for benchmark in figure10_result.int_benchmarks + figure10_result.fp_benchmarks:
            for policy in ("conv", "basic", "extended"):
                assert figure10_result.ipc(benchmark, policy) > 0

    def test_fp_suite_gains_from_early_release(self, figure10_result):
        # With a very tight 48+48 file the FP codes must benefit (paper: +6/+8%).
        assert figure10_result.suite_speedup_percent("fp", "basic") > 0
        assert figure10_result.suite_speedup_percent("fp", "extended") > 0

    def test_fp_gains_exceed_int_gains(self, figure10_result):
        assert (figure10_result.suite_speedup_percent("fp", "extended")
                > figure10_result.suite_speedup_percent("int", "extended"))

    def test_extended_at_least_basic_on_fp(self, figure10_result):
        assert (figure10_result.suite_speedup_percent("fp", "extended")
                >= figure10_result.suite_speedup_percent("fp", "basic") - 1.0)

    def test_format(self, figure10_result):
        text = figure10_result.format()
        assert "Figure 10" in text and "Hm" in text and "paper" in text


class TestFigure11:
    def test_curves_cover_requested_sizes(self, figure11_result):
        for suite in ("int", "fp"):
            for policy in ("conv", "basic", "extended"):
                curve = figure11_result.curve(suite, policy)
                assert [size for size, _ in curve] == [40, 64, 96, 160]

    def test_ipc_grows_with_register_file(self, figure11_result):
        for policy in ("conv", "extended"):
            curve = dict(figure11_result.curve("fp", policy))
            assert curve[160] >= curve[40]

    def test_fp_speedup_shrinks_with_size(self, figure11_result):
        speedups = dict(figure11_result.speedup_curve("fp", "extended"))
        assert speedups[40] > speedups[160] - 1.0
        assert speedups[40] > 0

    def test_policies_converge_at_loose_sizes(self, figure11_result):
        # With P = 160 ≥ L + N the file is loose: early release cannot help.
        assert abs(figure11_result.speedup_percent("fp", "extended", 160)) < 5.0

    def test_format(self, figure11_result):
        text = figure11_result.format()
        assert "Figure 11" in text and "speedup over conventional" in text


class TestTable4:
    def test_derived_from_existing_sweep(self, figure11_result):
        result = table4.derive(figure11_result,
                               conv_reference_sizes={"fp": (64, 96), "int": (96,)})
        assert len(result.rows) == 3
        for row in result.rows:
            assert row.target_ipc > 0
        # On the FP suite (where register pressure dominates even at this
        # reduced scale) extended release never needs *more* registers than
        # conventional release for the same IPC.
        for row in result.rows_for("fp"):
            if row.extended_size is not None:
                assert row.extended_size <= row.conv_size + 4
                assert row.saved_percent >= -7.0

    def test_fp_savings_positive(self, figure11_result):
        result = table4.derive(figure11_result,
                               conv_reference_sizes={"fp": (64, 96)})
        savings = [row.saved_percent for row in result.rows_for("fp")
                   if row.saved_percent is not None]
        assert savings and max(savings) > 0

    def test_format(self, figure11_result):
        result = table4.derive(figure11_result)
        text = result.format()
        assert "Table 4" in text and "paper" in text


class TestSection33:
    def test_reduced_run(self):
        result = section33.run(trace_length=TRACE_LENGTH, sizes=(48,),
                               benchmarks=SUBSET)
        assert result.speedup_percent("fp", 48) > -2.0
        text = result.format()
        assert "Section 3.3" in text and "48int+48FP" in text

    def test_fp_gain_grows_as_the_file_tightens(self):
        # Paper: the basic mechanism gains 3 % → 9 % on FP from 64 to 40
        # registers.
        result = section33.run(trace_length=TRACE_LENGTH, sizes=(64, 40),
                               benchmarks=SUBSET, cache=None)
        assert result.speedup_percent("fp", 40) > 0
        assert (result.speedup_percent("fp", 40)
                >= result.speedup_percent("fp", 64) - 1.0)


def ablation_point(workload, policy, **overrides):
    """One point at the tight 48+48 file with design choices overridden."""
    config = ProcessorConfig(release_policy=policy, num_physical_int=48,
                             num_physical_fp=48, **overrides)
    return simulate(get_workload(workload, TRACE_LENGTH), config)


class TestAblations:
    @pytest.mark.parametrize("wrong_path", [True, False])
    def test_wrong_path_injection(self, wrong_path):
        # Integer workloads: the FP kernels are predicted so well that
        # they fetch (almost) nothing down the wrong path.
        for workload in ("gcc", "li"):
            for policy in ("conv", "extended"):
                stats = ablation_point(workload, policy,
                                       enable_wrong_path=wrong_path)
                assert stats.ipc > 0
                assert (stats.fetched_wrong_path > 0) == wrong_path

    def test_register_reuse(self):
        # Paper Section 3, Renaming 2: without the reuse shortcut the
        # basic mechanism releases the register immediately instead.
        with_reuse = ablation_point("swim", "basic",
                                    reuse_on_committed_lu=True)
        without_reuse = ablation_point("swim", "basic",
                                       reuse_on_committed_lu=False)
        assert with_reuse.fp_registers.register_reuses > 0
        assert without_reuse.fp_registers.register_reuses == 0
        assert without_reuse.fp_registers.immediate_releases > 0

    @pytest.mark.parametrize("max_pending", [4, 20])
    def test_release_queue_depth(self, max_pending):
        stats = ablation_point("gcc", "extended",
                               max_pending_branches=max_pending)
        assert stats.ipc > 0
