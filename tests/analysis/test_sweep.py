"""Tests for the sweep driver."""

import pytest

from repro.analysis.sweep import (SweepConfig, SweepPoint, SweepResult,
                                  merge_backends, run_simulation_point,
                                  run_sweep)
from repro.pipeline.config import ProcessorConfig

FAST = ProcessorConfig(warmup=False, enable_wrong_path=False)


@pytest.fixture(scope="module")
def tiny_sweep():
    config = SweepConfig(benchmarks=("swim", "gcc"), policies=("conv", "extended"),
                         register_sizes=(48, 96), trace_length=800,
                         base_config=FAST)
    return config, run_sweep(config)


class TestSweepConfig:
    def test_points_enumeration(self):
        config = SweepConfig(benchmarks=("a", "b"), policies=("conv",),
                             register_sizes=(40, 48))
        points = config.points()
        assert len(points) == 4
        assert SweepPoint("a", "conv", 40) in points

    def test_repeated_entries_yield_each_point_once_in_order(self):
        config = SweepConfig(benchmarks=("b", "a", "b"), policies=("conv",),
                             register_sizes=(48, 40, 48))
        assert config.points() == [SweepPoint("b", "conv", 48),
                                   SweepPoint("b", "conv", 40),
                                   SweepPoint("a", "conv", 48),
                                   SweepPoint("a", "conv", 40)]

    def test_config_for_point(self):
        config = SweepConfig(benchmarks=("swim",), base_config=FAST)
        point = SweepPoint("swim", "extended", 56)
        processor_config = config.config_for(point)
        assert processor_config.release_policy == "extended"
        assert processor_config.num_physical_int == 56
        assert processor_config.num_physical_fp == 56
        assert processor_config.warmup is False       # base config preserved


class TestRunSweep:
    def test_all_points_present(self, tiny_sweep):
        config, result = tiny_sweep
        assert len(result) == len(config.points())
        for point in config.points():
            assert result.ipc(point.benchmark, point.policy, point.num_registers) > 0

    def test_stats_identify_their_point(self, tiny_sweep):
        _config, result = tiny_sweep
        stats = result.stats("gcc", "extended", 48)
        assert stats.benchmark == "gcc"
        assert stats.release_policy == "extended"

    def test_harmonic_mean_between_min_and_max(self, tiny_sweep):
        _config, result = tiny_sweep
        ipcs = [result.ipc(name, "conv", 96) for name in ("swim", "gcc")]
        hm = result.harmonic_mean_ipc(["swim", "gcc"], "conv", 96)
        assert min(ipcs) <= hm <= max(ipcs)

    def test_ipc_curve_shape(self, tiny_sweep):
        _config, result = tiny_sweep
        curve = result.ipc_curve(["swim"], "conv")
        assert [size for size, _ in curve] == [48, 96]

    def test_iso_ipc_size(self, tiny_sweep):
        _config, result = tiny_sweep
        target = result.harmonic_mean_ipc(["swim"], "conv", 48)
        needed = result.iso_ipc_size(["swim"], "extended", target)
        assert needed is not None
        assert needed <= 96

    def test_missing_point_raises_helpful_error(self, tiny_sweep):
        _config, result = tiny_sweep
        with pytest.raises(KeyError) as excinfo:
            result.stats("swim", "conv", 12345)
        message = str(excinfo.value)
        assert "swim/conv/P12345" in message
        assert "conv" in message and "extended" in message
        assert "48" in message and "96" in message

    def test_contains_probe(self, tiny_sweep):
        _config, result = tiny_sweep
        assert SweepPoint("swim", "conv", 48) in result
        assert ("swim", "conv", 48) in result
        assert ("swim", "conv", 12345) not in result
        assert ("swim", "nope", 48) not in result
        assert "not-a-point" not in result

    def test_repeated_point_is_simulated_once(self, tmp_path):
        config = SweepConfig(benchmarks=("swim", "swim"), policies=("conv",),
                             register_sizes=(48, 48), trace_length=400,
                             base_config=FAST)
        first = run_sweep(config, cache=tmp_path)
        again = run_sweep(config, cache=tmp_path)
        for result in (first, again):
            assert len(result) == 1
            assert result.simulated + result.cached == len(result)
            assert [size for size, _ in result.ipc_curve(["swim"], "conv")] \
                == [48]
        assert (first.simulated, again.cached) == (1, 1)

    def test_run_simulation_point_standalone(self):
        config = SweepConfig(benchmarks=("swim",), trace_length=500,
                             base_config=FAST)
        stats = run_simulation_point(config, SweepPoint("swim", "basic", 64))
        assert stats.committed_instructions >= 500

    def test_merge_disjoint(self, tiny_sweep):
        config, result = tiny_sweep
        other_config = SweepConfig(benchmarks=("swim",), policies=("basic",),
                                   register_sizes=(48,), trace_length=800,
                                   base_config=FAST)
        other = run_sweep(other_config)
        merged = result.merge(other)
        assert len(merged) == len(result) + len(other)
        assert merged.ipc("swim", "basic", 48) > 0
        assert merged.ipc("gcc", "extended", 96) > 0
        assert "basic" in merged.config.policies
        assert merged.config.benchmarks == ("swim", "gcc")
        # every original point survives untouched
        for point in config.points():
            assert merged.ipc(point.benchmark, point.policy,
                              point.num_registers) == \
                result.ipc(point.benchmark, point.policy, point.num_registers)

    def test_merge_overlapping_prefers_other(self, tiny_sweep):
        config, result = tiny_sweep
        # Same grid re-run with a longer trace: every point overlaps, and
        # the merged result must carry the other sweep's statistics.
        longer_config = SweepConfig(benchmarks=config.benchmarks,
                                    policies=config.policies,
                                    register_sizes=config.register_sizes,
                                    trace_length=1_000, base_config=FAST)
        longer = run_sweep(longer_config)
        merged = result.merge(longer)
        assert len(merged) == len(result)
        assert merged.points() and set(merged.points()) == set(result.points())
        for point in config.points():
            assert merged.stats(point.benchmark, point.policy,
                                point.num_registers) is \
                longer.stats(point.benchmark, point.policy, point.num_registers)

    def test_merge_keeps_size_and_policy_union_sorted(self, tiny_sweep):
        _config, result = tiny_sweep
        other_config = SweepConfig(benchmarks=("li",), policies=("basic",),
                                   register_sizes=(64,), trace_length=800,
                                   base_config=FAST)
        other = run_sweep(other_config)
        merged = result.merge(other)
        assert merged.config.register_sizes == (48, 64, 96)
        assert set(merged.config.policies) == {"conv", "extended", "basic"}


class TestSweepTelemetry:
    """Export-cache counters and the one fallback warning per process."""

    def test_sweep_result_carries_export_cache_counters(self):
        # Pinned to the Python engine, which cannot fall back.
        import dataclasses

        config = SweepConfig(benchmarks=("swim",), policies=("conv", "basic"),
                             register_sizes=(40, 48), trace_length=400,
                             base_config=dataclasses.replace(FAST, engine="python"))
        result = run_sweep(config, cache=False)
        assert result.export_cache_hits >= 0
        assert result.export_cache_misses >= 0
        assert result.compiled_fallback_reason is None  # nothing fell back

    def test_merge_sums_telemetry(self):
        config = SweepConfig(benchmarks=("swim",), policies=("conv",),
                             register_sizes=(48,), trace_length=400,
                             base_config=FAST)
        result = run_sweep(config, cache=False)
        a = type(result)(config, {}, export_cache_hits=3, export_cache_misses=1)
        b = type(result)(config, {}, export_cache_hits=2, export_cache_misses=4,
                         compiled_fallback_reason="toolchain broken")
        merged = a.merge(b)
        assert merged.export_cache_hits == 5
        assert merged.export_cache_misses == 5
        assert merged.compiled_fallback_reason == "toolchain broken"

    def test_concurrent_threads_count_their_own_exports(self, monkeypatch):
        # Two threads run points at once, in lockstep: a barrier after
        # every point keeps both sweeps in flight until both are done.
        # One exports a measured and a warm-up trace per point, the other
        # only the measured trace; process-wide deltas would mix them.
        import dataclasses
        import threading

        from repro.analysis import sweep as sweep_mod
        from repro.engine import accel

        base = dataclasses.replace(FAST, engine="compiled")
        if accel.resolve_engine_backend(base) != "compiled":
            pytest.skip("no C toolchain for the compiled engine backend")
        barrier = threading.Barrier(2, timeout=60)
        real_point = sweep_mod.run_simulation_point

        def point_then_wait(sweep_config, point):
            stats = real_point(sweep_config, point)
            barrier.wait()
            return stats
        monkeypatch.setattr(sweep_mod, "run_simulation_point",
                            point_then_wait)

        configs = {
            "warm": SweepConfig(benchmarks=("swim",), policies=("conv", "basic"),
                                register_sizes=(48,), trace_length=400,
                                base_config=dataclasses.replace(base,
                                                                warmup=True)),
            "cold": SweepConfig(benchmarks=("gcc",), policies=("conv", "basic"),
                                register_sizes=(48,), trace_length=400,
                                base_config=base),
        }
        telemetry = {}

        def sweep(name):
            config = configs[name]
            telemetry[name] = sweep_mod.run_points(
                config, config.points(), lambda point, stats: None)
        threads = [threading.Thread(target=sweep, args=(name,))
                   for name in configs]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert telemetry["warm"]["export_cache_hits"] == 4
        assert telemetry["cold"]["export_cache_hits"] == 2
        for name in configs:
            assert telemetry[name]["export_cache_misses"] == 0
            assert telemetry[name]["backend"] == "compiled"

    def test_fallback_warning_emitted_once_per_sweep(self, monkeypatch, caplog):
        # Six points on a broken toolchain: without deduplication every
        # simulation would log the same warning; the sweep must surface
        # exactly one and still finish on the Python engine.
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
                result = run_sweep(config, cache=False)
            warnings = [r for r in caplog.records
                        if "using the Python engine" in r.message]
            assert len(warnings) == 1
            assert result.compiled_fallback_reason is not None
            assert "unavailable" in result.compiled_fallback_reason
            assert len(result) == 6
            assert result.backend == "python"
        finally:
            accel.reset_backend_cache()

    def test_fallen_back_process_warns_once_across_sweeps(self, monkeypatch,
                                                          caplog):
        # The probe logs the fallback once per process; a second sweep in
        # the same process logs nothing more, yet both results record why
        # they ran on the Python engine.
        import dataclasses
        import logging

        from repro.engine import accel

        monkeypatch.setenv("REPRO_ACCEL_CC", "/nonexistent/compiler-xyz")
        accel.reset_backend_cache()
        try:
            base = dataclasses.replace(FAST, engine="compiled")
            configs = [SweepConfig(benchmarks=(benchmark,), policies=("conv",),
                                   register_sizes=(48,), trace_length=400,
                                   base_config=base)
                       for benchmark in ("swim", "gcc")]
            with caplog.at_level(logging.WARNING, logger="repro.engine.accel"):
                results = [run_sweep(config, cache=False) for config in configs]
            warnings = [r for r in caplog.records
                        if "using the Python engine" in r.message]
            assert len(warnings) == 1
            for result in results:
                assert "unavailable" in result.compiled_fallback_reason
                assert result.backend == "python"
        finally:
            accel.reset_backend_cache()

    def test_fully_cached_sweep_reports_no_fallback(self, monkeypatch,
                                                    tmp_path):
        # The process fell back, but a re-run served wholly from the store
        # simulated nothing, so nothing fell back for it.
        import dataclasses

        from repro.engine import accel

        monkeypatch.setenv("REPRO_ACCEL_CC", "/nonexistent/compiler-xyz")
        accel.reset_backend_cache()
        try:
            config = SweepConfig(
                benchmarks=("swim",), policies=("conv",),
                register_sizes=(48,), trace_length=400,
                base_config=dataclasses.replace(FAST, engine="compiled"))
            first = run_sweep(config, cache=tmp_path)
            again = run_sweep(config, cache=tmp_path)
            assert first.compiled_fallback_reason is not None
            assert again.cached == 1
            assert again.compiled_fallback_reason is None
            assert again.backend is None
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
            result = run_sweep(config, cache=False)
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
        first = run_sweep(config, cache=tmp_path)
        assert first.backend == accel.resolve_engine_backend(FAST)
        again = run_sweep(config, cache=tmp_path)
        assert again.cached == len(again) and again.backend is None

    def test_python_request_records_python(self):
        import dataclasses

        config = SweepConfig(benchmarks=("swim",), policies=("conv",),
                             register_sizes=(48,), trace_length=400,
                             base_config=dataclasses.replace(FAST, engine="python"))
        assert run_sweep(config, cache=False).backend == "python"

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
        assert run_sweep(config, cache=False).backend == "mixed"

    def test_merge_folds_backends(self):
        config = SweepConfig(benchmarks=("swim",))
        compiled = SweepResult(config, {}, backend="compiled")
        cached = SweepResult(config, {})
        python = SweepResult(config, {}, backend="python")
        assert compiled.merge(cached).backend == "compiled"
        assert cached.merge(cached).backend is None
        assert compiled.merge(python).backend == "mixed"
