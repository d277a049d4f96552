"""Columnar traces through the compiled export.

A trace's storage is the columns the compiled core reads (row table, row
ids, addresses; :class:`repro.trace.records.TraceColumns`), so the export
is a gather from them, counted by
:data:`repro.engine.accel.artefacts.EXPORT_CACHE`.  These tests pin:

* **no materialisation** — a compiled sweep point builds no
  ``Instruction`` object for its measured or warm-up trace, and
  ``len(trace.instructions)`` reads the columns;
* **round trips** — hand-built, truncated and concatenated traces give
  the same columns, instructions and ``SimStats`` as their source, on
  both engines;
* **safety** — columns are read-only, nothing is keyed by a trace's name,
  and configs sharing one trace's columns keep private mutable state.

Everything except the simulation tests runs without a C toolchain.
"""

import dataclasses

import pytest

from repro.analysis.sweep import (POINT_BACKENDS, SweepConfig,
                                  run_simulation_point)
from repro.engine import SimulationEngine
from repro.engine import accel
from repro.engine.accel.artefacts import EXPORT_CACHE
from repro.isa import Instruction
from repro.pipeline.config import ProcessorConfig
from repro.trace.records import TRACE_COLUMN_NAMES, Trace, TraceColumns
from repro.trace.workloads import get_workload


def _compiled_available() -> bool:
    return accel.resolve_engine_backend(
        ProcessorConfig(engine="compiled")) == "compiled"


needs_compiled = pytest.mark.skipif(
    not _compiled_available(),
    reason="no C toolchain for the compiled engine backend")


def hand_built(trace: Trace, name=None) -> Trace:
    """A copy of ``trace`` built from its instruction list."""
    return Trace(name=name or trace.name, focus_class=trace.focus_class,
                 instructions=list(trace.instructions), seed=trace.seed)


def stats_on(trace: Trace, engine: str, **overrides) -> dict:
    config = ProcessorConfig(release_policy="extended", engine=engine,
                             num_physical_int=48, num_physical_fp=48,
                             exception_rate=0.002, **overrides)
    sim = SimulationEngine(trace, config)
    stats = dataclasses.asdict(sim.run())
    assert sim.backend_used == engine
    return stats


def assert_same_columns(left: TraceColumns, right: TraceColumns) -> None:
    assert len(left) == len(right)
    for name in TRACE_COLUMN_NAMES:
        assert (left.gather(name) == right.gather(name)).all(), name


@pytest.fixture
def count_instructions(monkeypatch):
    """Record every ``Instruction`` constructed while the fixture is live."""
    built = []
    original = Instruction.__post_init__

    def counting(self):
        built.append(self)
        original(self)
    monkeypatch.setattr(Instruction, "__post_init__", counting)
    return built


class TestNoMaterialisation:
    def test_len_reads_the_columns(self):
        trace = get_workload("swim", 1_313, seed=4)
        assert len(trace.instructions) == len(trace) > 0
        assert not trace.materialised

    def test_wrong_path_mix_counts_rows(self):
        from repro.trace.wrongpath import WrongPathMix

        trace = get_workload("perl", 1_317, seed=4)
        mix = WrongPathMix.from_trace(trace)
        assert not trace.materialised
        assert mix == WrongPathMix.from_trace(hand_built(trace))

    @needs_compiled
    def test_compiled_sweep_point_builds_no_instruction(
            self, count_instructions):
        sweep = SweepConfig(benchmarks=("gcc",), policies=("extended",),
                            register_sizes=(48,), trace_length=1_321, seed=5,
                            base_config=ProcessorConfig(engine="compiled",
                                                        exception_rate=0.002))
        trace = get_workload("gcc", 1_321, seed=5)
        warm = get_workload("gcc", len(trace), seed=5 + 7919)
        # The availability probe's self-check runs the Python engine, and
        # generation's scalar tails build instructions: both happen first.
        assert _compiled_available()
        count_instructions.clear()
        compiled_before = POINT_BACKENDS.counts["compiled"]
        hits_before, misses_before = EXPORT_CACHE.counters()

        run_simulation_point(sweep, sweep.points()[0])

        assert POINT_BACKENDS.counts["compiled"] == compiled_before + 1
        assert count_instructions == []
        assert not trace.materialised and not warm.materialised
        hits, misses = EXPORT_CACHE.counters()
        assert (hits - hits_before, misses - misses_before) == (2, 0)


class TestRoundTrips:
    def test_hand_built_columns_match_generated(self):
        trace = get_workload("li", 900, seed=2)
        copy = hand_built(trace)
        assert not copy.has_columns
        assert_same_columns(copy.columns, trace.columns)
        assert copy.columns.instructions() == list(trace.instructions)

    def test_truncated_shares_the_row_table(self):
        trace = get_workload("applu", 900, seed=2)
        short = trace.truncated(500)
        assert len(short) == 500 and not short.materialised
        assert short.columns.table is trace.columns.table
        assert list(short.instructions) == list(trace.instructions)[:500]

    def test_concatenate_derives_columns_once(self):
        a = get_workload("go", 400, seed=1)
        b = get_workload("swim", 400, seed=1)
        joined = Trace.concatenate("joined", a.focus_class,
                                   [a.instructions, b.instructions])
        hits, misses = EXPORT_CACHE.counters()
        assert EXPORT_CACHE.trace_columns(joined) is joined.columns
        assert EXPORT_CACHE.trace_columns(joined) is joined.columns
        assert EXPORT_CACHE.counters() == (hits + 1, misses + 1)
        for name in TRACE_COLUMN_NAMES:
            width = 3 if name.startswith("src_") else 1
            column = joined.columns.gather(name)
            assert (column[:width * len(a)] == a.columns.gather(name)).all()
            assert (column[width * len(a):] == b.columns.gather(name)).all()

    @needs_compiled
    @pytest.mark.parametrize("engine", ["python", "compiled"])
    def test_hand_built_and_truncated_simulate_identically(self, engine):
        trace = get_workload("compress", 1_200, seed=3)
        reference = stats_on(trace, engine)
        # Same name and seed: the warm-up resolves the same registry trace.
        assert stats_on(hand_built(trace), engine) == reference
        short = trace.truncated(700)
        assert (stats_on(short, engine)
                == stats_on(hand_built(short), engine))

    @needs_compiled
    def test_concatenated_trace_matches_across_engines(self):
        a = get_workload("gcc", 500, seed=1)
        b = get_workload("li", 500, seed=1)
        joined = Trace.concatenate("joined", a.focus_class,
                                   [a.instructions, b.instructions])
        assert (stats_on(joined, "compiled", warmup=False)
                == stats_on(joined, "python", warmup=False))


class TestSafety:
    def test_cached_columns_are_frozen(self):
        columns = get_workload("swim", 200, seed=0).columns
        for array in (*columns.table.values(), columns.rows, columns.addr):
            with pytest.raises(ValueError):
                array[0] = 123456

    def test_impostor_trace_is_not_served_stale_columns(self):
        # A hand-built trace with a registry workload's name, length and
        # seed — but different instructions — exports its own columns:
        # nothing is keyed by name.
        real = get_workload("swim", 300, seed=0)
        impostor = Trace(name="swim", focus_class=real.focus_class,
                         instructions=list(reversed(real.instructions)),
                         seed=0)
        rebuilt = EXPORT_CACHE.trace_columns(impostor)
        assert rebuilt is not real.columns
        assert rebuilt.gather("pc")[0] == impostor.instructions[0].pc


@needs_compiled
class TestSharedColumnsCannotAlias:
    def test_hot_cache_is_bit_identical_to_cold(self):
        # Same point twice from the same trace columns: identical
        # SimStats — field for field — proves the export changes cost,
        # not results.
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
        # Two configs share one trace's columns.  Run A, then B, then A
        # again: if B's run could reach A's mutable state (RQ arrays,
        # predictor tables) through the shared columns, the second A run
        # would diverge from the first.
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
