"""Tests for the multiprocessing sweep runner."""

import pytest

from repro.analysis.parallel import ParallelSweepRunner, available_workers
from repro.analysis.sweep import (SweepConfig, SweepResult, merge_backends,
                                  run_sweep)
from repro.pipeline.config import ProcessorConfig

FAST = ProcessorConfig(warmup=False, enable_wrong_path=False)


class TestAvailableWorkers:
    def test_default_leaves_one_core(self):
        import os
        assert available_workers() <= max(1, (os.cpu_count() or 1))

    def test_explicit_bound(self):
        assert available_workers(2) <= 2
        assert available_workers(10_000) >= 1

    def test_at_least_one(self):
        assert available_workers(0) == 1


class TestParallelRunner:
    def test_empty_points(self):
        runner = ParallelSweepRunner(max_workers=2)
        assert runner.run(SweepConfig(benchmarks=("swim",)), []) == {}

    def test_runs_all_points(self):
        config = SweepConfig(benchmarks=("swim", "gcc"), policies=("conv",),
                             register_sizes=(48,), trace_length=500,
                             base_config=FAST)
        runner = ParallelSweepRunner(max_workers=2)
        results = runner.run(config, config.points())
        assert len(results) == 2
        for point, stats in results.items():
            assert stats.benchmark == point.benchmark
            assert stats.ipc > 0

    def test_parallel_and_serial_agree(self):
        # The simulations are deterministic, so both execution modes must
        # produce identical IPC values.
        config = SweepConfig(benchmarks=("swim",), policies=("conv", "extended"),
                             register_sizes=(48,), trace_length=600,
                             base_config=FAST)
        serial = run_sweep(config, parallel=False)
        parallel = run_sweep(config, parallel=True, max_workers=2)
        for point in config.points():
            assert serial.ipc(point.benchmark, point.policy, point.num_registers) \
                == pytest.approx(parallel.ipc(point.benchmark, point.policy,
                                              point.num_registers))


class TestSweepTelemetry:
    """Export-cache counters and the deduplicated fallback summary."""

    def test_sweep_result_carries_export_cache_counters(self):
        # Pinned to the Python engine, which cannot fall back.
        import dataclasses

        config = SweepConfig(benchmarks=("swim",), policies=("conv", "basic"),
                             register_sizes=(40, 48), trace_length=400,
                             base_config=dataclasses.replace(FAST, engine="python"))
        result = run_sweep(config, parallel=False, cache=False)
        assert result.export_cache_hits >= 0
        assert result.export_cache_misses >= 0
        assert result.compiled_fallback_reason is None  # nothing fell back

    def test_runner_telemetry_resets_per_run(self):
        config = SweepConfig(benchmarks=("swim",), policies=("conv",),
                             register_sizes=(48,), trace_length=400,
                             base_config=FAST)
        runner = ParallelSweepRunner(max_workers=1)
        runner.telemetry["export_cache_hits"] = 99_999
        runner.run(config, config.points())
        assert runner.telemetry["export_cache_hits"] < 99_999
        assert set(runner.telemetry) == {"export_cache_hits",
                                         "export_cache_misses",
                                         "fallback_chunks", "fallback_reason",
                                         "backend"}

    def test_merge_sums_telemetry(self):
        config = SweepConfig(benchmarks=("swim",), policies=("conv",),
                             register_sizes=(48,), trace_length=400,
                             base_config=FAST)
        result = run_sweep(config, parallel=False, cache=False)
        a = type(result)(config, {}, export_cache_hits=3, export_cache_misses=1)
        b = type(result)(config, {}, export_cache_hits=2, export_cache_misses=4,
                         compiled_fallback_reason="toolchain broken")
        merged = a.merge(b)
        assert merged.export_cache_hits == 5
        assert merged.export_cache_misses == 5
        assert merged.compiled_fallback_reason == "toolchain broken"

    def test_fallback_warning_emitted_once_per_sweep(self, monkeypatch, caplog):
        # Six points on a broken toolchain: without deduplication every
        # simulation (or every pool worker) would log the same warning;
        # the sweep must surface exactly one summary and still finish on
        # the Python engine.
        import dataclasses
        import logging

        from repro.engine import accel

        monkeypatch.setenv("REPRO_ACCEL_CC", "/nonexistent/compiler-xyz")
        accel.reset_backend_cache()
        try:
            config = SweepConfig(
                benchmarks=("swim",), policies=("conv", "basic", "extended"),
                register_sizes=(40, 48), trace_length=400,
                base_config=dataclasses.replace(FAST, engine="compiled"))
            with caplog.at_level(logging.WARNING, logger="repro.engine.accel"):
                result = run_sweep(config, parallel=False, cache=False)
            warnings = [r for r in caplog.records
                        if "using the Python engine" in r.message]
            assert len(warnings) == 1
            assert result.compiled_fallback_reason is not None
            assert "unavailable" in result.compiled_fallback_reason
            assert len(result) == 6
            assert result.backend == "python"
        finally:
            accel.reset_backend_cache()

    def test_python_request_reports_no_fallback(self, monkeypatch):
        # The process fell back earlier, but this sweep asked for the
        # Python engine: nothing fell back for it.
        import dataclasses

        from repro.engine import accel

        monkeypatch.setenv("REPRO_ACCEL_CC", "/nonexistent/compiler-xyz")
        accel.reset_backend_cache()
        try:
            assert accel.resolve_engine_backend(ProcessorConfig()) == "python"
            config = SweepConfig(
                benchmarks=("swim",), policies=("conv", "basic"),
                register_sizes=(48,), trace_length=400,
                base_config=dataclasses.replace(FAST, engine="python"))
            for parallel in (False, True):
                result = run_sweep(config, parallel=parallel, cache=False)
                assert result.compiled_fallback_reason is None
        finally:
            accel.reset_backend_cache()


class TestBackendProvenance:
    """``SweepResult.backend``: the engine that actually ran the points."""

    def test_merge_backends(self):
        assert merge_backends() is None
        assert merge_backends(None, None) is None
        assert merge_backends("compiled", None, "compiled") == "compiled"
        assert merge_backends("python") == "python"
        assert merge_backends("compiled", "python") == "mixed"
        assert merge_backends("mixed", "compiled") == "mixed"

    def test_serial_sweep_records_backend_then_none_when_cached(self, tmp_path):
        from repro.engine import accel

        config = SweepConfig(benchmarks=("swim",), policies=("conv", "basic"),
                             register_sizes=(48,), trace_length=400,
                             base_config=FAST)
        first = run_sweep(config, parallel=False, cache=tmp_path)
        assert first.backend == accel.resolve_engine_backend(FAST)
        again = run_sweep(config, parallel=False, cache=tmp_path)
        assert again.cached == len(again) and again.backend is None

    def test_python_request_records_python(self):
        import dataclasses

        config = SweepConfig(benchmarks=("swim",), policies=("conv",),
                             register_sizes=(48,), trace_length=400,
                             base_config=dataclasses.replace(FAST, engine="python"))
        assert run_sweep(config, parallel=False, cache=False).backend == "python"

    def test_runner_telemetry_records_backend(self):
        from repro.engine import accel

        config = SweepConfig(benchmarks=("swim",), policies=("conv", "basic"),
                             register_sizes=(48,), trace_length=400,
                             base_config=FAST)
        runner = ParallelSweepRunner(max_workers=1)
        runner.run(config, config.points())
        assert runner.telemetry["backend"] == accel.resolve_engine_backend(FAST)

    def test_out_of_envelope_points_make_a_mixed_sweep(self):
        # The extended policy deeper than the compiled Release-Queue
        # ceiling runs on the Python engine; conventional points at the
        # same depth run on the compiled core.
        import dataclasses

        from repro.engine import accel
        from repro.engine.accel.loader import RQ_LEVELS_MAX

        if accel.resolve_engine_backend(FAST) != "compiled":
            pytest.skip("no C toolchain for the compiled engine backend")
        base = dataclasses.replace(FAST, max_pending_branches=RQ_LEVELS_MAX + 1)
        config = SweepConfig(benchmarks=("swim",),
                             policies=("conv", "extended"),
                             register_sizes=(48,), trace_length=400,
                             base_config=base)
        assert run_sweep(config, parallel=False, cache=False).backend == "mixed"

    def test_merge_folds_backends(self):
        config = SweepConfig(benchmarks=("swim",))
        compiled = SweepResult(config, {}, backend="compiled")
        cached = SweepResult(config, {})
        python = SweepResult(config, {}, backend="python")
        assert compiled.merge(cached).backend == "compiled"
        assert cached.merge(cached).backend is None
        assert compiled.merge(python).backend == "mixed"
