"""Ablation benchmarks for the design choices called out in DESIGN.md.

* wrong-path injection on/off — how much of the early-release benefit and
  of the register pressure comes from wrong-path instructions;
* register reuse on a committed last use on/off (paper Section 3,
  Renaming 2);
* Release Queue depth (maximum pending branches) sensitivity.
"""

import pytest

from repro.analysis.metrics import percentage_speedup
from repro.engine import simulate
from repro.pipeline.config import ProcessorConfig
from repro.trace.workloads import get_workload

from benchmarks.conftest import BENCH_TRACE_LENGTH, run_once

TIGHT = 48


def run_point(benchmark_name, policy, **kwargs):
    trace = get_workload(benchmark_name, BENCH_TRACE_LENGTH)
    config = ProcessorConfig(release_policy=policy, num_physical_int=TIGHT,
                             num_physical_fp=TIGHT, **kwargs)
    return simulate(trace, config)


def test_bench_ablation_wrong_path(benchmark):
    """Early-release speedup with and without wrong-path injection.

    Run on integer workloads: the FP kernels are predicted so well that
    they fetch (almost) nothing down the wrong path, so the ablation
    would report the same speedup both ways.
    """

    def run_ablation():
        return {(workload, wrong_path): tuple(
                    run_point(workload, policy, enable_wrong_path=wrong_path)
                    for policy in ("conv", "extended"))
                for workload in ("gcc", "li") for wrong_path in (True, False)}

    results = run_once(benchmark, run_ablation)
    for (workload, wrong_path), (conv, extended) in results.items():
        for stats in (conv, extended):
            assert stats.ipc > 0
            assert (stats.fetched_wrong_path > 0) == wrong_path
        label = "with" if wrong_path else "without"
        benchmark.extra_info[
            f"{workload}_extended_speedup_{label}_wrong_path_pct"] = round(
                percentage_speedup(extended.ipc, conv.ipc), 1)


def test_bench_ablation_register_reuse(benchmark):
    """The register-reuse shortcut of the basic mechanism (C=1 case)."""

    def run_ablation():
        with_reuse = run_point("swim", "basic", reuse_on_committed_lu=True)
        without_reuse = run_point("swim", "basic", reuse_on_committed_lu=False)
        return with_reuse, without_reuse

    with_reuse, without_reuse = run_once(benchmark, run_ablation)
    # Both variants must be functional wins over nothing; reuse additionally
    # avoids allocations.
    assert with_reuse.fp_registers.register_reuses > 0
    assert without_reuse.fp_registers.register_reuses == 0
    assert without_reuse.fp_registers.immediate_releases > 0
    benchmark.extra_info["ipc_with_reuse"] = round(with_reuse.ipc, 3)
    benchmark.extra_info["ipc_without_reuse"] = round(without_reuse.ipc, 3)
    benchmark.extra_info["allocations_with_reuse"] = with_reuse.fp_registers.allocations
    benchmark.extra_info["allocations_without_reuse"] = \
        without_reuse.fp_registers.allocations


@pytest.mark.parametrize("max_pending", [4, 20])
def test_bench_ablation_release_queue_depth(benchmark, max_pending):
    """Sensitivity of the extended mechanism to the pending-branch limit."""
    result = run_once(benchmark, run_point, "gcc", "extended",
                      max_pending_branches=max_pending)
    assert result.ipc > 0
    benchmark.extra_info["max_pending_branches"] = max_pending
    benchmark.extra_info["ipc"] = round(result.ipc, 3)
    benchmark.extra_info["checkpoint_stalls"] = \
        result.dispatch_stalls.get("checkpoints_full", 0)


def test_bench_simulator_throughput(benchmark):
    """Raw simulator speed (simulated instructions per host second)."""
    trace = get_workload("swim", BENCH_TRACE_LENGTH)
    config = ProcessorConfig(release_policy="extended", num_physical_int=96,
                             num_physical_fp=96)

    stats = run_once(benchmark, simulate, trace, config)
    seconds = benchmark.stats.stats.mean
    benchmark.extra_info["simulated_instructions"] = stats.committed_instructions
    benchmark.extra_info["instructions_per_second"] = int(
        stats.committed_instructions / seconds) if seconds else 0
