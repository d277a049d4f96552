"""The sweep-point key derivation: the memoised config digest and the
per-type canonical form behind it.

``_canonical`` sorts each dataclass type's field names once; its output
must equal the generic walk it replaced on every shape a configuration
can take, or every cache key would change.  The config digest is
memoised per ``SweepConfig`` instance, while every other key ingredient
is still read per call.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.analysis import cache as cache_mod
from repro.analysis.cache import _canonical, config_digest, point_key
from repro.analysis.sweep import SweepConfig, SweepPoint
from repro.backend.functional_units import FUConfig, FUKind
from repro.isa.opcodes import OpClass
from repro.memory.hierarchy import MemoryConfig
from repro.pipeline.config import ProcessorConfig


def _generic_canonical(value) -> object:
    """The canonical form as derived before the per-type memo."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return ("dataclass", type(value).__name__,
                tuple((f.name, _generic_canonical(getattr(value, f.name)))
                      for f in sorted(dataclasses.fields(value),
                                      key=lambda f: f.name)))
    if isinstance(value, dict):
        return ("dict", tuple(sorted(((str(k), _generic_canonical(v))
                                      for k, v in value.items()))))
    if hasattr(value, "items"):
        return ("map", tuple(sorted(((str(k), _generic_canonical(v))
                                     for k, v in value.items()))))
    if isinstance(value, (frozenset, set)):
        return ("set", tuple(sorted(str(_generic_canonical(v))
                                    for v in value)))
    if isinstance(value, (list, tuple)):
        return ("seq", tuple(_generic_canonical(v) for v in value))
    if hasattr(value, "name") and hasattr(value, "value"):
        return ("enum", type(value).__name__, value.name)
    return value


@dataclasses.dataclass(frozen=True)
class _Empty:
    pass


@dataclasses.dataclass
class _Nested:
    inner: ProcessorConfig
    empty: _Empty
    kinds: frozenset
    pairs: tuple
    label: str = "x"


CONFIGS = [
    ProcessorConfig(),
    ProcessorConfig(release_policy="extended", num_physical_int=40,
                    num_physical_fp=64, exception_rate=0.01, seed=7,
                    engine="python", warmup=False),
    ProcessorConfig(functional_units=FUConfig(
        counts={FUKind.SIMPLE_INT: 2, FUKind.LOAD_STORE: 1},
        latencies={OpClass.INT_ALU: 3, OpClass.FP_DIV: 20},
        unpipelined=frozenset({FUKind.FP_DIV, FUKind.INT_MULT}))),
    ProcessorConfig(memory=dataclasses.replace(MemoryConfig(),
                                               main_memory_latency=80)),
]


class TestCanonical:
    @pytest.mark.parametrize("config", CONFIGS)
    def test_matches_the_generic_walk(self, config):
        assert _canonical(config) == _generic_canonical(config)
        assert repr(_canonical(config)) == repr(_generic_canonical(config))

    def test_nested_dataclasses_enum_sets_and_scalars(self):
        value = _Nested(inner=CONFIGS[2], empty=_Empty(),
                        kinds=frozenset({FUKind.FP_MULT, FUKind.FP_DIV}),
                        pairs=(1, 2.5, None, True, [OpClass.LOAD]))
        assert repr(_canonical(value)) == repr(_generic_canonical(value))
        # A dataclass *class* is a value, not a record.
        assert _canonical(_Empty) == _generic_canonical(_Empty)


class TestConfigDigestMemo:
    @staticmethod
    def _count_digests(monkeypatch):
        calls = []
        real = cache_mod.config_digest

        def counting(config):
            calls.append(config)
            return real(config)

        monkeypatch.setattr(cache_mod, "config_digest", counting)
        return calls

    def test_digested_once_per_instance_and_point(self, monkeypatch):
        calls = self._count_digests(monkeypatch)
        sweep = SweepConfig(benchmarks=("gcc",), trace_length=300)
        point = SweepPoint("gcc", "basic", 48)
        keys = {point_key(sweep, point) for _ in range(3)}
        assert len(keys) == 1 and len(calls) == 1
        point_key(sweep, SweepPoint("gcc", "basic", 64))
        assert len(calls) == 2
        # A fresh instance (a new request) derives its own digest, and
        # the memo never changes the key.
        fresh = SweepConfig(benchmarks=("gcc",), trace_length=300)
        assert point_key(fresh, point) in keys
        assert len(calls) == 3

    def test_get_then_put_derives_the_config_once(self, monkeypatch,
                                                  tmp_path):
        # A miss is a get, a simulation and a put of one point: the
        # put's key must come from the memo, not a second config_for
        # (a dataclasses.replace plus ProcessorConfig validation).
        from repro.analysis.cache import SweepCache
        from repro.pipeline.stats import SimStats

        calls = []
        real = SweepConfig.config_for

        def counting(self, point):
            calls.append(point)
            return real(self, point)

        monkeypatch.setattr(SweepConfig, "config_for", counting)
        cache = SweepCache(tmp_path)
        sweep = SweepConfig(benchmarks=("gcc",), trace_length=300)
        point = SweepPoint("gcc", "basic", 48)
        assert cache.get(sweep, point) is None
        cache.put(sweep, point, SimStats(benchmark="gcc",
                                         release_policy="basic"))
        assert calls == [point]
        assert cache.get(sweep, point) is not None
        assert calls == [point]

    def test_memoised_key_equals_the_unmemoised_derivation(self):
        sweep = SweepConfig(benchmarks=("gcc",), trace_length=300,
                            base_config=CONFIGS[2])
        point = SweepPoint("gcc", "extended", 40)
        first = point_key(sweep, point)
        assert vars(sweep)["_config_digests"][point] \
            == config_digest(sweep.config_for(point))
        assert point_key(sweep, point) == first

    def test_engine_request_is_still_read_per_call(self, monkeypatch):
        sweep = SweepConfig(benchmarks=("gcc",), trace_length=300)
        point = SweepPoint("gcc", "conv", 48)
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        compiled = point_key(sweep, point)
        monkeypatch.setenv("REPRO_ENGINE", "python")
        assert point_key(sweep, point) != compiled

    def test_memo_does_not_affect_equality_or_repr(self):
        sweep = SweepConfig(benchmarks=("gcc",), trace_length=300)
        other = SweepConfig(benchmarks=("gcc",), trace_length=300)
        point_key(sweep, SweepPoint("gcc", "conv", 48))
        assert sweep == other
        assert "_config_digests" not in repr(sweep)
