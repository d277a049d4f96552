"""Tests for the persistent sweep result cache."""

import dataclasses
import hashlib
import pickle
import shutil
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.cache import (CACHE_SCHEMA_VERSION, SweepCache,
                                  config_digest, point_key, resolve_cache)
from repro.analysis.sweep import (SweepConfig, SweepPoint,
                                  run_simulation_point, run_sweep)
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
        assert cache.get(config, SweepPoint("swim", "conv", 48)) is None

    def test_layout_fans_out_on_the_key_prefix(self, tmp_path):
        cache = SweepCache(tmp_path)
        config = tiny_config()
        point = SweepPoint("swim", "conv", 48)
        run_sweep(config, cache=cache)
        key = point_key(config, point)
        assert cache.path_for(config, point) == \
            tmp_path / key[:2] / f"{key}.pkl"
        assert [path.relative_to(tmp_path).as_posix()
                for path in tmp_path.rglob("*") if path.is_file()] == \
            [f"{key[:2]}/{key}.pkl"]

    def test_concurrent_identical_puts_leave_one_intact_entry(self, tmp_path):
        # Racing writers of one entry (two sweeps finishing the same point)
        # all succeed and leave a readable payload: no torn bytes and no
        # temp files left behind.
        from repro.analysis.sweep import run_simulation_point

        cache = SweepCache(tmp_path)
        config = tiny_config()
        point = SweepPoint("swim", "conv", 48)
        stats = run_simulation_point(config, point)
        threads = [threading.Thread(target=cache.put,
                                    args=(config, point, stats))
                   for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert cache.stores == 8 and cache.store_errors == 0
        assert cache.get(config, point) == stats
        assert [path.suffix for path in tmp_path.rglob("*")
                if path.is_file()] == [".pkl"]

    def test_entry_under_another_points_key_is_a_miss(self, tmp_path):
        # The payload records its own key: a file copied under another
        # point's path (a misfiled store copy) never serves that point.
        cache = SweepCache(tmp_path)
        config = tiny_config(register_sizes=(48, 96))
        run_sweep(tiny_config(), cache=cache)
        stored = SweepPoint("swim", "conv", 48)
        other = SweepPoint("swim", "conv", 96)
        target = cache.path_for(config, other)
        target.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(cache.path_for(config, stored), target)
        assert cache.get(config, stored) is not None
        assert cache.get(config, other) is None

    def test_clear(self, tmp_path):
        cache = SweepCache(tmp_path)
        config = tiny_config()
        point = SweepPoint("swim", "conv", 48)
        from repro.analysis.sweep import run_simulation_point
        cache.put(config, point, run_simulation_point(config, point))
        assert cache.clear() == 1
        assert cache.get(config, point) is None

    def test_resolve_cache_forms(self, tmp_path, monkeypatch):
        assert resolve_cache(None) is None
        assert resolve_cache(False) is None
        as_path = resolve_cache(tmp_path)
        assert isinstance(as_path, SweepCache)
        assert as_path.cache_dir == tmp_path
        instance = SweepCache(tmp_path)
        assert resolve_cache(instance) is instance
        # A retired backend spec fails loudly instead of rooting a store
        # in a directory called "local" or "http:".
        monkeypatch.chdir(tmp_path)
        for spec in ("local", "http://127.0.0.1:8713",
                     "https://cache.example:8713",
                     "remote:http://127.0.0.1:8713"):
            with pytest.raises(ValueError, match="removed"):
                resolve_cache(spec)
            with pytest.raises(ValueError, match="removed"):
                run_sweep(tiny_config(), cache=spec)
        assert list(tmp_path.iterdir()) == []


POINT = SweepPoint("swim", "conv", 48)


@pytest.fixture(scope="module")
def stored(tmp_path_factory):
    """One real entry: the tiny sweep's config, stats and stored bytes."""
    cache = SweepCache(tmp_path_factory.mktemp("stored"))
    config = tiny_config()
    stats = run_simulation_point(config, POINT)
    cache.put(config, POINT, stats)
    return config, stats, cache.path_for(config, POINT).read_bytes()


def _payload(config, stored_stats, **fields):
    stats_blob = pickle.dumps(stored_stats)
    payload = {"schema": CACHE_SCHEMA_VERSION, "key": point_key(config, POINT),
               "point": (POINT.benchmark, POINT.policy, POINT.num_registers),
               "trace_length": config.trace_length, "seed": config.seed,
               "code": "", "created": 0.0, "stats": stats_blob,
               "stats_sha256": hashlib.sha256(stats_blob).digest()}
    payload.update(fields)
    return pickle.dumps(payload)


def _damaged_key(config, stats, blob):
    # One byte of the recorded key string no longer decodes as UTF-8, as
    # after a bit flip on disk or in a copy.
    key = point_key(config, POINT).encode()
    return blob.replace(key, b"\xff" + key[1:])


#: Entry bytes that the store cannot serve and that maintenance counts
#: as unreadable: ``form -> builder(config, stats, real entry bytes)``.
UNREADABLE_FORMS = {
    "empty": lambda config, stats, blob: b"",
    "not-a-pickle": lambda config, stats, blob: b"not a pickle",
    "truncated-half": lambda config, stats, blob: blob[:len(blob) // 2],
    "truncated-last-byte": lambda config, stats, blob: blob[:-1],
    "foreign-list": lambda config, stats, blob: pickle.dumps([1, 2, 3]),
    "foreign-int": lambda config, stats, blob: pickle.dumps(7),
    "no-schema": lambda config, stats, blob: pickle.dumps({"stats": stats}),
    "older-schema": lambda config, stats, blob: _payload(
        config, stats, schema=CACHE_SCHEMA_VERSION - 1),
    "newer-schema": lambda config, stats, blob: _payload(
        config, stats, schema=CACHE_SCHEMA_VERSION + 1),
    "damaged-key-string": _damaged_key,
    "bad-int-literal": lambda config, stats, blob: b"Iabc\n.",
    "oversized-bytes": lambda config, stats, blob:
        b"\x80\x04\x8e" + (2**63 - 1).to_bytes(8, "little") + b".",
    "oversized-bytearray": lambda config, stats, blob:
        b"\x80\x05\x96" + (2**62).to_bytes(8, "little"),
    "missing-module": lambda config, stats, blob:
        b"\x80\x04\x8c\x14repro_no_such_module\x94\x8c\x01X\x94\x93\x94.",
    "renamed-class": lambda config, stats, blob:
        b"\x80\x04\x8c\x14repro.pipeline.stats\x94"
        b"\x8c\x0bNoSuchStats\x94\x93\x94.",
}

#: Current-schema payloads the store still must not serve for POINT.
UNSERVABLE_FORMS = dict(
    UNREADABLE_FORMS,
    **{"no-stats": lambda config, stats, blob: pickle.dumps(
        {"schema": CACHE_SCHEMA_VERSION, "key": point_key(config, POINT)}),
       "other-points-key": lambda config, stats, blob: _payload(
           config, stats, key="0" * 64),
       # The stats bytes changed after their digest was recorded.
       "stats-not-matching-digest": lambda config, stats, blob: _payload(
           config, stats, stats=pickle.dumps(
               dataclasses.replace(stats, cycles=stats.cycles + 1))),
       "no-stats-digest": lambda config, stats, blob: _payload(
           config, stats, stats_sha256=None),
       # The schema-6 form: the stats object itself, no digest.
       "unpickled-stats": lambda config, stats, blob: _payload(
           config, stats, stats=stats, stats_sha256=b"")})


def _plant(cache, config, blob):
    path = cache.path_for(config, POINT)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(blob)
    return path


class TestUnservableEntries:
    """Whatever bytes sit at an entry's path, reading it never raises:
    the point is a miss, a sweep simulates it again and its put restores
    a servable entry, and ``stats``/``prune`` count unreadable files as
    dead weight."""

    @pytest.mark.parametrize("form", sorted(UNSERVABLE_FORMS))
    def test_is_a_miss(self, tmp_path, stored, form):
        config, stats, blob = stored
        cache = SweepCache(tmp_path)
        _plant(cache, config, UNSERVABLE_FORMS[form](config, stats, blob))
        assert cache.get(config, POINT) is None
        assert (cache.hits, cache.misses) == (0, 1)

    def test_directory_in_place_of_the_entry_is_a_miss(self, tmp_path,
                                                       stored):
        config, _stats, _blob = stored
        cache = SweepCache(tmp_path)
        cache.path_for(config, POINT).mkdir(parents=True)
        assert cache.get(config, POINT) is None
        assert cache.misses == 1

    @pytest.mark.parametrize("form", sorted(UNSERVABLE_FORMS))
    def test_sweep_replaces_it(self, tmp_path, stored, form):
        config, stats, blob = stored
        _plant(SweepCache(tmp_path), config,
               UNSERVABLE_FORMS[form](config, stats, blob))
        result = run_sweep(config, cache=tmp_path)
        assert (result.simulated, result.cached) == (1, 0)
        assert SweepCache(tmp_path).get(config, POINT) == stats

    @pytest.mark.parametrize("form", sorted(UNREADABLE_FORMS))
    def test_maintenance_counts_and_prunes_it(self, tmp_path, stored, form):
        config, stats, blob = stored
        cache = SweepCache(tmp_path)
        path = _plant(cache, config, UNREADABLE_FORMS[form](config, stats,
                                                            blob))
        report = cache.stats()
        assert report.total_entries == report.unreadable_entries == 1
        assert report.unreadable_bytes == path.stat().st_size
        assert report.workloads == {}
        assert cache.prune(stale_code=True) == 1
        assert not path.exists()

    @settings(max_examples=200, deadline=None)
    @given(data=st.binary(max_size=64))
    def test_arbitrary_bytes_never_raise(self, tmp_path_factory, stored,
                                         data):
        config, _stats, _blob = stored
        cache = SweepCache(tmp_path_factory.mktemp("arbitrary"))
        _plant(cache, config, data)
        assert cache.get(config, POINT) is None

    @settings(max_examples=300, deadline=None)
    @given(index=st.integers(min_value=0), mask=st.integers(1, 255))
    def test_single_byte_flip_never_raises(self, tmp_path_factory, stored,
                                           index, mask):
        # ... and is never served: a flipped entry reads as a miss or, when
        # the flip leaves its meaning intact, as the stored stats.
        config, stats, blob = stored
        damaged = bytearray(blob)
        damaged[index % len(damaged)] ^= mask
        cache = SweepCache(tmp_path_factory.mktemp("flipped"))
        _plant(cache, config, bytes(damaged))
        served = cache.get(config, POINT)
        list(cache.iter_entries())
        assert cache.hits + cache.misses == 1
        assert served is None or served == stats

    def test_no_single_bit_flip_is_served(self, tmp_path, stored):
        # Every low-bit flip of a real entry, exhaustively.
        config, stats, blob = stored
        cache = SweepCache(tmp_path)
        for index in range(len(blob)):
            damaged = bytearray(blob)
            damaged[index] ^= 0x01
            _plant(cache, config, bytes(damaged))
            served = cache.get(config, POINT)
            assert served is None or served == stats, index
        assert cache.hits + cache.misses == len(blob)


class TestStoreContract:
    def test_points_are_independent(self, tmp_path):
        cache = SweepCache(tmp_path)
        config = tiny_config(register_sizes=(48, 96))
        small, large = config.points()
        small_stats = run_simulation_point(config, small)
        large_stats = run_simulation_point(config, large)
        cache.put(config, small, small_stats)
        assert cache.get(config, large) is None
        cache.put(config, large, large_stats)
        assert cache.get(config, small) == small_stats
        assert cache.get(config, large) == large_stats
        assert small_stats != large_stats

    def test_overwrite_is_last_writer_wins(self, tmp_path, stored):
        config, stats, _blob = stored
        cache = SweepCache(tmp_path)
        other = run_simulation_point(config, SweepPoint("swim", "conv", 96))
        cache.put(config, POINT, other)
        cache.put(config, POINT, stats)
        assert cache.get(config, POINT) == stats
        assert cache.stores == 2

    def test_entry_records_its_point_and_inputs(self, stored):
        config, stats, blob = stored
        payload = pickle.loads(blob)
        assert payload["schema"] == CACHE_SCHEMA_VERSION
        assert payload["key"] == point_key(config, POINT)
        assert payload["point"] == ("swim", "conv", 48)
        assert (payload["trace_length"], payload["seed"]) == \
            (config.trace_length, config.seed)
        assert payload["stats_sha256"] == \
            hashlib.sha256(payload["stats"]).digest()
        assert pickle.loads(payload["stats"]) == stats


class TestResolveCacheSpecs:
    @pytest.mark.parametrize("spec", [
        "local", "http://127.0.0.1:8713", "https://cache.example:8713",
        "remote:http://127.0.0.1:8713"])
    def test_retired_backend_spec_is_rejected(self, tmp_path, monkeypatch,
                                              spec):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(ValueError, match="removed"):
            resolve_cache(spec)
        with pytest.raises(ValueError, match="removed"):
            run_sweep(tiny_config(), cache=spec)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("spec", [
        "./local", "local-cache", "remote", "http"])
    def test_directory_spec_roots_a_store(self, tmp_path, monkeypatch, spec):
        # Only the exact retired spellings are rejected: a directory that
        # merely looks like one still roots a store.
        monkeypatch.chdir(tmp_path)
        cache = resolve_cache(spec)
        assert cache.cache_dir == Path(spec)
        run_sweep(tiny_config(), cache=cache)
        assert cache.stores == 1
        assert list((tmp_path / spec).rglob("*.pkl"))

    def test_path_named_local_roots_a_store(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert resolve_cache(Path("local")).cache_dir == Path("local")

    def test_true_uses_the_default_directory(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_CACHE", str(tmp_path / "default"))
        assert resolve_cache(True).cache_dir == tmp_path / "default"

    def test_retired_backend_variable_is_ignored(self, tmp_path,
                                                 monkeypatch):
        # A leftover remote-store variable neither redirects nor breaks a
        # sweep: results land in the local directory.
        monkeypatch.setenv("REPRO_CACHE_BACKEND", "http://127.0.0.1:9")
        result = run_sweep(tiny_config(), cache=tmp_path)
        assert result.simulated == 1
        assert SweepCache(tmp_path).get(tiny_config(), POINT) is not None


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

    def test_copied_store_shares_results(self, tmp_path):
        # Keys are content-addressed, so a copied store directory (cp -r,
        # rsync) serves every point on the second machine.
        config = tiny_config(benchmarks=("swim", "gcc"),
                             register_sizes=(48, 96))
        first = run_sweep(config, cache=tmp_path / "a")
        shutil.copytree(tmp_path / "a", tmp_path / "b")
        second = run_sweep(config, cache=tmp_path / "b")
        assert second.simulated == 0
        assert second.cached == len(config.points())
        for point in config.points():
            coordinates = (point.benchmark, point.policy, point.num_registers)
            assert second.stats(*coordinates) == first.stats(*coordinates)

    def test_uncached_run_is_unaffected(self):
        config = tiny_config()
        result = run_sweep(config, cache=None)
        assert result.simulated == 1
        assert result.cached == 0


def test_sweep_import_leaves_the_http_stack_unloaded():
    # urllib.request pulls in ssl, http.client and email (~2 MB of RSS in
    # every sweep process); a sweep never needs it.
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    probe = ("import sys, repro.analysis.sweep; "
             "print(sorted({'urllib.request', 'ssl'} & set(sys.modules)))")
    env = dict(os.environ,
               PYTHONPATH=str(Path(repro.__file__).resolve().parent.parent))
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"
