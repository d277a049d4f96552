"""The export-artefact cache: identity, invalidation, no-aliasing.

The compiled backend builds immutable trace columns (the ``_export_trace``
inputs) once per trace and shares them read-only across every
configuration of a sweep (:mod:`repro.engine.accel.artefacts`).  These
tests pin the cache's three contracts:

* **identity** — the key is (workload profile digest, trace length, seed);
  changing any component is a miss, and a trace the registry cannot
  digest bypasses the cache entirely;
* **safety** — cached arrays are frozen; a hand-built trace that merely
  *names* a registry workload is spot-checked, not trusted;
* **no aliasing** — configs sharing cached columns keep private mutable
  state, so a run cannot contaminate a later run's results.

Everything except the hot-vs-cold simulation test runs without a C
toolchain (the cache itself is pure Python + numpy).
"""

import dataclasses

import pytest

from repro.engine import SimulationEngine
from repro.engine import accel
from repro.engine.accel.artefacts import (EXPORT_CACHE, ExportArtefactCache,
                                          TRACE_COLUMN_NAMES, _trace_key)
from repro.pipeline.config import ProcessorConfig
from repro.trace.records import Trace
from repro.trace.workloads import get_workload


def _compiled_available() -> bool:
    return accel.resolve_engine_backend(
        ProcessorConfig(engine="compiled")) == "compiled"


needs_compiled = pytest.mark.skipif(
    not _compiled_available(),
    reason="no C toolchain for the compiled engine backend")


@pytest.fixture
def cache():
    """A private cache instance (the module singleton stays untouched)."""
    return ExportArtefactCache()


class TestIdentityKey:
    def test_key_components(self):
        trace = get_workload("swim", 600, seed=3)
        key = _trace_key(trace)
        assert key is not None
        digest, length, seed = key
        # The generator overshoots the requested length; the key holds the
        # trace's *actual* length (what the export sees), plus its seed.
        assert (length, seed) == (len(trace.instructions), 3)
        assert key == _trace_key(get_workload("swim", 600, seed=3))

    def test_unregistered_trace_has_no_key(self):
        base = get_workload("swim", 50, seed=0)
        loose = Trace(name="hand-rolled", focus_class=base.focus_class,
                      instructions=list(base.instructions), seed=0)
        assert _trace_key(loose) is None

    def test_hit_on_same_trace_miss_on_any_key_change(self, cache):
        trace = get_workload("swim", 400, seed=0)
        variants = [get_workload("swim", 900, seed=0),   # length
                    get_workload("swim", 400, seed=1),   # seed
                    get_workload("gcc", 400, seed=0)]    # profile
        assert len({_trace_key(t) for t in (trace, *variants)}) == 4
        first = cache.trace_columns(trace)
        again = cache.trace_columns(get_workload("swim", 400, seed=0))
        assert again is first                      # same (digest, len, seed)
        for variant in variants:
            cache.trace_columns(variant)
        assert cache.counters() == (1, 4)

    def test_unregistered_trace_always_misses(self, cache):
        base = get_workload("swim", 60, seed=0)
        loose = Trace(name="hand-rolled", focus_class=base.focus_class,
                      instructions=list(base.instructions), seed=0)
        cache.trace_columns(loose)
        cache.trace_columns(loose)
        assert cache.counters() == (0, 2)


class TestSafety:
    def test_cached_columns_are_frozen(self, cache):
        columns = cache.trace_columns(get_workload("swim", 200, seed=0))
        for name in TRACE_COLUMN_NAMES:
            with pytest.raises(ValueError):
                columns[name][0] = 123456

    def test_impostor_trace_is_not_served_stale_columns(self, cache):
        # A hand-built trace with a registry workload's name, length and
        # seed — but different instructions — must not be handed the real
        # workload's cached columns: the spot-check catches the mismatch
        # and rebuilds from the impostor's own instructions.
        real = get_workload("swim", 300, seed=0)
        cached = cache.trace_columns(real)
        impostor = Trace(name="swim", focus_class=real.focus_class,
                         instructions=list(reversed(real.instructions)),
                         seed=0)
        rebuilt = cache.trace_columns(impostor)
        assert rebuilt is not cached
        assert rebuilt["pc"][0] == impostor.instructions[0].pc

    def test_warm_columns_cached_separately(self, cache):
        trace = get_workload("swim", 200, seed=0)
        full = cache.trace_columns(trace)
        warm = cache.warmup_columns(trace)
        assert set(warm) == {"op", "pc", "addr", "taken", "target"}
        assert warm is not full
        assert cache.warmup_columns(trace) is warm

    def test_lru_eviction_bounds_the_cache(self, cache):
        # One slot per column set: a new trace replaces the last one.
        first = get_workload("swim", 50, seed=0)
        cache.trace_columns(first)
        cache.trace_columns(first)
        assert cache.counters() == (1, 1)
        cache.trace_columns(get_workload("swim", 50, seed=1))
        cache.trace_columns(first)
        assert cache.counters() == (1, 3)


@needs_compiled
class TestSharedColumnsCannotAlias:
    def test_hot_cache_is_bit_identical_to_cold(self):
        # Same point twice: the first run builds the columns (cold), the
        # second is served from the cache (hot).  Identical SimStats —
        # field for field — proves the cache changes cost, not results.
        trace = get_workload("gcc", 1_200, seed=0)
        config = ProcessorConfig(release_policy="extended", warmup=True,
                                 exception_rate=0.002, engine="compiled")
        hits0, _ = EXPORT_CACHE.counters()
        cold = SimulationEngine(trace, config).run()
        hot_engine = SimulationEngine(trace, config)
        hot = hot_engine.run()
        hits1, _ = EXPORT_CACHE.counters()
        assert hot_engine.backend_used == "compiled"
        assert hits1 > hits0
        assert dataclasses.asdict(hot) == dataclasses.asdict(cold)

    def test_interleaved_configs_keep_private_state(self):
        # Two configs share one trace's cached columns.  Run A, then B,
        # then A again: if B's run could reach A's mutable state (RQ
        # arrays, predictor tables) through the shared columns, the second
        # A run would diverge from the first.
        trace = get_workload("swim", 1_000, seed=0)
        config_a = ProcessorConfig(release_policy="extended", warmup=True,
                                   num_physical_int=40, num_physical_fp=40,
                                   engine="compiled")
        config_b = ProcessorConfig(release_policy="conv", warmup=True,
                                   num_physical_int=96, num_physical_fp=96,
                                   engine="compiled")
        first_a = SimulationEngine(trace, config_a).run()
        stats_b = SimulationEngine(trace, config_b).run()
        second_a = SimulationEngine(trace, config_a).run()
        assert dataclasses.asdict(first_a) != dataclasses.asdict(stats_b)
        assert dataclasses.asdict(second_a) == dataclasses.asdict(first_a)
