"""Tests for the persistent sweep result cache."""

import dataclasses
import pickle

import pytest

from repro.analysis.cache import (CACHE_SCHEMA_VERSION, SweepCache,
                                  config_digest, point_key, resolve_cache)
from repro.analysis.sweep import SweepConfig, SweepPoint, run_sweep
from repro.pipeline.config import ProcessorConfig

FAST = ProcessorConfig(warmup=False, enable_wrong_path=False)


def tiny_config(**kwargs):
    defaults = dict(benchmarks=("swim",), policies=("conv",),
                    register_sizes=(48,), trace_length=400, base_config=FAST)
    defaults.update(kwargs)
    return SweepConfig(**defaults)


class TestKeys:
    def test_config_digest_is_stable(self):
        assert config_digest(FAST) == config_digest(
            ProcessorConfig(warmup=False, enable_wrong_path=False))

    def test_config_digest_sees_every_knob(self):
        base = config_digest(FAST)
        assert config_digest(dataclasses.replace(FAST, ros_size=64)) != base
        assert config_digest(dataclasses.replace(FAST, release_policy="basic")) != base
        assert config_digest(dataclasses.replace(FAST, seed=7)) != base

    def test_point_key_includes_simulator_code_digest(self, monkeypatch):
        # A simulator source change must invalidate every cached point,
        # even when SimStats keeps its shape (no schema bump).
        import repro.analysis.cache as cache_module

        config = tiny_config()
        point = SweepPoint("swim", "conv", 48)
        before = point_key(config, point)
        monkeypatch.setattr(cache_module, "code_digest",
                            lambda: "different-code-version")
        assert point_key(config, point) != before

    def test_code_digest_is_cached_and_stable(self):
        from repro.analysis.cache import code_digest

        assert code_digest() == code_digest()
        assert len(code_digest()) == 64

    def test_point_key_depends_on_all_inputs(self):
        config = tiny_config()
        point = SweepPoint("swim", "conv", 48)
        base = point_key(config, point)
        assert point_key(config, SweepPoint("gcc", "conv", 48)) != base
        assert point_key(config, SweepPoint("swim", "basic", 48)) != base
        assert point_key(config, SweepPoint("swim", "conv", 96)) != base
        assert point_key(tiny_config(trace_length=800), point) != base
        assert point_key(tiny_config(seed=3), point) != base


class TestSweepCacheStore:
    def test_roundtrip(self, tmp_path):
        cache = SweepCache(tmp_path)
        config = tiny_config()
        point = SweepPoint("swim", "conv", 48)
        assert cache.get(config, point) is None
        from repro.analysis.sweep import run_simulation_point
        stats = run_simulation_point(config, point)
        cache.put(config, point, stats)
        assert (config, point) in cache
        loaded = cache.get(config, point)
        assert dataclasses.asdict(loaded) == dataclasses.asdict(stats)
        assert cache.hits == 1 and cache.misses == 1 and cache.stores == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = SweepCache(tmp_path)
        config = tiny_config()
        point = SweepPoint("swim", "conv", 48)
        path = cache.path_for(config, point)
        path.parent.mkdir(parents=True)
        path.write_bytes(b"not a pickle")
        assert cache.get(config, point) is None

    def test_foreign_pickle_is_a_miss(self, tmp_path):
        # An entry that unpickles to something other than our payload dict
        # (legacy format, another tool) must be a miss, not a crash.
        cache = SweepCache(tmp_path)
        config = tiny_config()
        point = SweepPoint("swim", "conv", 48)
        path = cache.path_for(config, point)
        path.parent.mkdir(parents=True)
        path.write_bytes(pickle.dumps([1, 2, 3]))
        assert cache.get(config, point) is None

    def test_schema_mismatch_is_a_miss(self, tmp_path):
        cache = SweepCache(tmp_path)
        config = tiny_config()
        point = SweepPoint("swim", "conv", 48)
        path = cache.path_for(config, point)
        path.parent.mkdir(parents=True)
        path.write_bytes(pickle.dumps({"schema": CACHE_SCHEMA_VERSION + 1,
                                       "stats": None}))
        assert cache.get(config, point) is None

    def test_unwritable_cache_degrades_instead_of_crashing(self, tmp_path):
        # An unwritable cache location must not discard completed
        # simulation work.  (A regular file as cache root fails mkdir even
        # for root, unlike permission bits.)
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("occupied")
        cache = SweepCache(blocker)
        config = tiny_config()
        result = run_sweep(config, cache=cache)
        assert result.simulated == 1
        assert cache.store_errors == 1 and cache.stores == 0

    def test_clear(self, tmp_path):
        cache = SweepCache(tmp_path)
        config = tiny_config()
        point = SweepPoint("swim", "conv", 48)
        from repro.analysis.sweep import run_simulation_point
        cache.put(config, point, run_simulation_point(config, point))
        assert cache.clear() == 1
        assert cache.get(config, point) is None

    def test_resolve_cache_forms(self, tmp_path):
        assert resolve_cache(None) is None
        assert resolve_cache(False) is None
        as_path = resolve_cache(tmp_path)
        assert isinstance(as_path, SweepCache)
        assert as_path.cache_dir == tmp_path
        instance = SweepCache(tmp_path)
        assert resolve_cache(instance) is instance


class TestCachedRunSweep:
    def test_second_run_performs_zero_simulations(self, tmp_path):
        config = tiny_config(benchmarks=("swim", "gcc"),
                             policies=("conv", "extended"),
                             register_sizes=(48, 96))
        first = run_sweep(config, cache=tmp_path)
        assert first.simulated == len(config.points())
        assert first.cached == 0
        second = run_sweep(config, cache=tmp_path)
        assert second.simulated == 0
        assert second.cached == len(config.points())
        for point in config.points():
            assert second.ipc(point.benchmark, point.policy,
                              point.num_registers) == \
                first.ipc(point.benchmark, point.policy, point.num_registers)

    def test_partial_sweep_only_simulates_missing_points(self, tmp_path):
        small = tiny_config(register_sizes=(48,))
        run_sweep(small, cache=tmp_path)
        larger = tiny_config(register_sizes=(48, 64, 96))
        result = run_sweep(larger, cache=tmp_path)
        assert result.cached == 1
        assert result.simulated == 2

    def test_cache_shared_by_parallel_path(self, tmp_path):
        config = tiny_config(benchmarks=("swim", "gcc"),
                             register_sizes=(48, 96))
        warm = run_sweep(config, cache=tmp_path)
        assert warm.simulated == 4
        again = run_sweep(config, cache=tmp_path)
        assert again.simulated == 0

    def test_interrupted_sweep_keeps_completed_points(self, tmp_path,
                                                      monkeypatch):
        # A crash mid-sweep must not discard points already simulated: the
        # re-run should only simulate what is genuinely missing.
        import repro.analysis.sweep as sweep_module

        config = tiny_config(register_sizes=(48, 64, 96))
        real = sweep_module.run_simulation_point
        calls = []

        def dies_on_third(sweep_config, point):
            calls.append(point)
            if len(calls) == 3:
                raise RuntimeError("simulated crash")
            return real(sweep_config, point)

        monkeypatch.setattr(sweep_module, "run_simulation_point", dies_on_third)
        with pytest.raises(RuntimeError, match="simulated crash"):
            run_sweep(config, cache=tmp_path)
        monkeypatch.setattr(sweep_module, "run_simulation_point", real)
        resumed = run_sweep(config, cache=tmp_path)
        assert resumed.cached == 2
        assert resumed.simulated == 1

    def test_uncached_run_is_unaffected(self):
        config = tiny_config()
        result = run_sweep(config, cache=None)
        assert result.simulated == 1
        assert result.cached == 0
