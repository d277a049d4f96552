"""Tests of the cache maintenance layer: stats, pruning and the
``repro-experiments cache`` subcommand."""

import pickle
import time

import pytest

from repro.analysis.cache import SweepCache
from repro.analysis.sweep import SweepConfig, SweepPoint, run_sweep
from repro.experiments import runner
from repro.pipeline.config import ProcessorConfig

FAST = ProcessorConfig(warmup=False, enable_wrong_path=False)


def tiny_config(**kwargs):
    defaults = dict(benchmarks=("swim",), policies=("conv",),
                    register_sizes=(48,), trace_length=400, base_config=FAST)
    defaults.update(kwargs)
    return SweepConfig(**defaults)


def populated_cache(tmp_path, benchmarks=("swim", "gcc")):
    cache = SweepCache(tmp_path / "cache")
    run_sweep(tiny_config(benchmarks=tuple(benchmarks)),
              cache=cache)
    return cache


class TestCacheStats:
    def test_per_workload_counts_and_sizes(self, tmp_path):
        cache = populated_cache(tmp_path)
        stats = cache.stats()
        assert stats.total_entries == 2
        assert set(stats.workloads) == {"swim", "gcc"}
        for count, nbytes in stats.workloads.values():
            assert count == 1 and nbytes > 0
        assert stats.total_bytes == sum(b for _, b in stats.workloads.values())
        assert stats.stale_code_entries == 0
        assert stats.oldest is not None
        report = stats.format()
        assert "swim" in report and "entries: 2" in report

    def test_unreadable_entries_are_counted(self, tmp_path):
        cache = populated_cache(tmp_path, benchmarks=("swim",))
        bad = cache.cache_dir / "zz" / ("0" * 64 + ".pkl")
        bad.parent.mkdir(parents=True)
        bad.write_bytes(b"not a pickle")
        stats = cache.stats()
        assert stats.total_entries == 2
        assert stats.unreadable_entries == 1

    def test_unreadable_bucket_accounts_bytes(self, tmp_path):
        """Corrupt/foreign entries get a distinct bucket with their own
        byte count — dead weight is visible, never blended into a
        workload's live totals."""
        cache = populated_cache(tmp_path, benchmarks=("swim",))
        garbage = b"x" * 2048
        bad = cache.cache_dir / "zz" / ("0" * 64 + ".pkl")
        bad.parent.mkdir(parents=True)
        bad.write_bytes(garbage)
        stats = cache.stats()
        assert stats.unreadable_entries == 1
        assert stats.unreadable_bytes == len(garbage)
        # total includes the dead weight; the workload map never does
        assert stats.total_bytes == \
            stats.unreadable_bytes + sum(b for _, b in
                                         stats.workloads.values())
        assert set(stats.workloads) == {"swim"}

    def test_unreadable_bucket_in_format(self, tmp_path):
        cache = populated_cache(tmp_path, benchmarks=("swim",))
        bad = cache.cache_dir / "zz" / ("0" * 64 + ".pkl")
        bad.parent.mkdir(parents=True)
        bad.write_bytes(b"x" * 2048)
        report = cache.stats().format()
        assert "unreadable (corrupt/foreign/outdated schema)" in report
        assert "2.0 KiB" in report
        assert "dead weight" in report

    def test_outdated_schema_entry_lands_in_unreadable_bucket(self,
                                                              tmp_path):
        """A structurally valid pickle from an older schema version can
        never be served again: it is dead weight, same as corruption."""
        cache = populated_cache(tmp_path, benchmarks=("swim",))
        stale = cache.cache_dir / "ff" / ("f" * 64 + ".pkl")
        stale.parent.mkdir(parents=True)
        stale.write_bytes(pickle.dumps({"schema": 1, "stats": None,
                                        "point": ("swim", "conv", 48)}))
        stats = cache.stats()
        assert stats.unreadable_entries == 1
        assert stats.unreadable_bytes == stale.stat().st_size

    def test_clean_cache_format_has_no_unreadable_line(self, tmp_path):
        cache = populated_cache(tmp_path, benchmarks=("swim",))
        assert "unreadable" not in cache.stats().format()

    def test_empty_cache(self, tmp_path):
        stats = SweepCache(tmp_path / "missing").stats()
        assert stats.total_entries == 0
        assert "entries: 0" in stats.format()


class TestPrune:
    def test_prune_requires_a_criterion(self, tmp_path):
        with pytest.raises(ValueError):
            SweepCache(tmp_path).prune()

    def test_prune_by_age(self, tmp_path):
        cache = populated_cache(tmp_path, benchmarks=("swim",))
        assert cache.prune(max_age_days=1) == 0
        future = time.time() + 7 * 86400
        assert cache.prune(max_age_days=1, now=future) == 1
        assert cache.stats().total_entries == 0

    def test_prune_by_stale_code(self, tmp_path, monkeypatch):
        import repro.analysis.cache as cache_module

        cache = populated_cache(tmp_path, benchmarks=("swim",))
        assert cache.prune(stale_code=True) == 0
        # Pretend the simulator source changed since the entry was written.
        monkeypatch.setattr(cache_module, "code_digest",
                            lambda: "new-code-version")
        assert cache.stats().stale_code_entries == 1
        assert cache.prune(stale_code=True) == 1

    def test_prune_drops_unreadable_and_old_schema_entries(self, tmp_path):
        cache = populated_cache(tmp_path, benchmarks=("swim",))
        point = SweepPoint("swim", "conv", 48)
        path = cache.path_for(tiny_config(), point)
        with open(path, "rb") as handle:
            payload = pickle.load(handle)
        payload["schema"] = 1                     # previous schema version
        with open(path, "wb") as handle:
            pickle.dump(payload, handle)
        assert cache.prune(stale_code=True) == 1
        assert cache.stats().total_entries == 0


class TestPruneToSize:
    def _set_created(self, cache, config, point, created):
        path = cache.path_for(config, point)
        with open(path, "rb") as handle:
            payload = pickle.load(handle)
        payload["created"] = created
        with open(path, "wb") as handle:
            pickle.dump(payload, handle)

    def test_no_eviction_when_under_cap(self, tmp_path):
        cache = populated_cache(tmp_path)
        report = cache.prune_to_size(1024)
        assert report.removed == 0
        assert report.per_workload == {}
        assert cache.stats().total_entries == 2

    def test_evicts_oldest_first_until_under_cap(self, tmp_path):
        cache = populated_cache(tmp_path, benchmarks=("swim", "gcc", "li"))
        config = tiny_config(benchmarks=("swim", "gcc", "li"))
        now = time.time()
        # li oldest, gcc next, swim newest.
        self._set_created(cache, config, SweepPoint("li", "conv", 48), now - 300)
        self._set_created(cache, config, SweepPoint("gcc", "conv", 48), now - 200)
        self._set_created(cache, config, SweepPoint("swim", "conv", 48), now - 100)
        total = cache.stats().total_bytes
        one_entry = total / 3
        # Cap that fits roughly one entry: the two oldest must go.
        report = cache.prune_to_size(one_entry * 1.5 / (1024 * 1024))
        assert report.removed == 2
        assert set(report.per_workload) == {"li", "gcc"}
        assert report.bytes_freed > 0
        remaining = cache.stats()
        assert set(remaining.workloads) == {"swim"}
        assert report.bytes_remaining == remaining.total_bytes

    def test_zero_cap_empties_the_cache_with_summary(self, tmp_path):
        cache = populated_cache(tmp_path)
        report = cache.prune_to_size(0)
        assert report.removed == 2
        assert sum(report.per_workload.values()) == 2
        assert report.bytes_remaining == 0
        assert "evicted 2 entries" in report.format()

    def test_unreadable_entries_are_evicted_first(self, tmp_path):
        cache = populated_cache(tmp_path, benchmarks=("swim",))
        bad = cache.cache_dir / "zz" / ("0" * 64 + ".pkl")
        bad.parent.mkdir(parents=True)
        bad.write_bytes(b"junk" * 10)
        total = cache.stats().total_bytes
        report = cache.prune_to_size((total - 1) / (1024 * 1024))
        assert report.per_workload.get("<unreadable>") == 1
        assert cache.stats().workloads.get("swim") is not None

    def test_rejects_negative_cap(self, tmp_path):
        with pytest.raises(ValueError):
            SweepCache(tmp_path).prune_to_size(-1)


class TestCacheSubcommand:
    def test_stats_output(self, tmp_path, capsys, monkeypatch):
        cache = populated_cache(tmp_path)
        assert runner.main(["cache", "--cache-dir",
                            str(cache.cache_dir)]) == 0
        out = capsys.readouterr().out
        assert "entries: 2" in out and "swim" in out

    def test_prune_flow(self, tmp_path, capsys):
        cache = populated_cache(tmp_path, benchmarks=("swim",))
        assert runner.main(["cache", "--cache-dir", str(cache.cache_dir),
                            "--prune", "--stale-code"]) == 0
        assert "pruned 0 entries" in capsys.readouterr().out

    def test_prune_without_criterion_errors(self, tmp_path):
        with pytest.raises(SystemExit):
            runner.main(["cache", "--cache-dir", str(tmp_path), "--prune"])

    def test_prune_size_cap_flow(self, tmp_path, capsys):
        cache = populated_cache(tmp_path)
        assert runner.main(["cache", "--cache-dir", str(cache.cache_dir),
                            "--prune", "--max-size-mb", "0"]) == 0
        out = capsys.readouterr().out
        assert "size cap 0 MB" in out and "evicted 2 entries" in out
        assert cache.stats().total_entries == 0

    def test_size_cap_without_prune_errors(self, tmp_path):
        with pytest.raises(SystemExit):
            runner.main(["cache", "--cache-dir", str(tmp_path),
                         "--max-size-mb", "5"])

    def test_criteria_without_prune_error(self, tmp_path):
        with pytest.raises(SystemExit):
            runner.main(["cache", "--cache-dir", str(tmp_path),
                         "--stale-code"])

    def test_env_default_directory(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_CACHE", str(tmp_path / "envcache"))
        assert runner.main(["cache"]) == 0
        assert "envcache" in capsys.readouterr().out
