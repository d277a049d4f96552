"""Bit-identical equivalence and fallback contract of the compiled engine.

The compiled C core (:mod:`repro.engine.accel`) re-implements the whole
per-cycle pipeline; its one correctness contract is that a run produces
the *same* :class:`~repro.pipeline.stats.SimStats`, field for field, as
the Python engine — and that requesting it can never fail a run: a
missing toolchain or an unsupported configuration silently degrades to
the Python engine (with a logged warning for the toolchain case).

The equivalence tests self-skip when no C toolchain is available, so the
suite passes on toolchain-less machines; the fallback tests run
everywhere (they simulate the broken toolchain themselves).
"""

import dataclasses
import logging

import numpy as np
import pytest

from repro.engine import SimulationEngine
from repro.engine import accel
from repro.pipeline.config import ProcessorConfig
from repro.trace.workloads import get_workload

POLICIES = ("conv", "basic", "extended")
WORKLOADS = ("gcc", "swim")
TRACE_LENGTH = 2_000


def _compiled_available() -> bool:
    return accel.resolve_engine_backend(
        ProcessorConfig(engine="compiled")) == "compiled"


needs_compiled = pytest.mark.skipif(
    not _compiled_available(),
    reason="no C toolchain for the compiled engine backend")


def run_both(workload: str, policy: str, *, num_registers: int = 48,
             trace_length: int = TRACE_LENGTH, warmup: bool = False,
             run_kwargs=None, prepare=None, **config_kwargs):
    """One point on the Python engine and on the compiled core.

    ``prepare(engine)``, if given, runs on each engine before its run.
    """
    run_kwargs = run_kwargs or {}
    stats = {}
    engines = {}
    for backend in ("python", "compiled"):
        config = ProcessorConfig(release_policy=policy,
                                 num_physical_int=num_registers,
                                 num_physical_fp=num_registers,
                                 warmup=warmup, engine=backend,
                                 **config_kwargs)
        trace = get_workload(workload, trace_length, seed=0)
        engine = SimulationEngine(trace, config)
        if prepare is not None:
            prepare(engine)
        stats[backend] = engine.run(**run_kwargs)
        engines[backend] = engine
    # The compiled run must actually have run compiled — a silent
    # fallback would make every equivalence assertion vacuous.
    assert engines["compiled"].backend_used == "compiled"
    assert engines["python"].backend_used == "python"
    return stats["python"], stats["compiled"], engines["compiled"]


@needs_compiled
class TestBitIdenticalStats:
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_compiled_matches_python(self, workload, policy):
        reference, compiled, _ = run_both(workload, policy)
        assert dataclasses.asdict(compiled) == dataclasses.asdict(reference)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_warmup_pass_equivalence(self, policy):
        # Warm-up pre-populates the caches, BTB and predictor before the
        # measured run; the export of those warm structures must be exact.
        reference, compiled, _ = run_both("gcc", policy, warmup=True)
        assert dataclasses.asdict(compiled) == dataclasses.asdict(reference)

    def test_exception_recovery_equivalence(self):
        # Exception injection consumes the state's RNG stream; the C core
        # draws the same stream itself and must take the same exceptions
        # on the same commits.
        reference, compiled, _ = run_both("gcc", "extended",
                                          exception_rate=0.002)
        assert reference.exceptions_taken > 0
        assert dataclasses.asdict(compiled) == dataclasses.asdict(reference)

    @pytest.mark.parametrize("tight_kwargs", [
        {"ros_size": 8},
        {"lsq_size": 4},
        {"max_pending_branches": 2},
    ], ids=["ros_full", "lsq_full", "checkpoints_full"])
    def test_structural_hazard_equivalence(self, tight_kwargs):
        stall_key = {"ros_size": "ros_full", "lsq_size": "lsq_full",
                     "max_pending_branches": "checkpoints_full"}
        reference, compiled, _ = run_both("gcc", "conv", num_registers=96,
                                          **tight_kwargs)
        (knob, _), = tight_kwargs.items()
        assert reference.dispatch_stalls[stall_key[knob]] > 0
        assert dataclasses.asdict(compiled) == dataclasses.asdict(reference)

    def test_max_cycles_cap_equivalence(self):
        for max_cycles in (50, 137, 400):
            reference, compiled, _ = run_both(
                "swim", "conv", trace_length=1_500,
                run_kwargs={"max_cycles": max_cycles})
            assert dataclasses.asdict(compiled) == dataclasses.asdict(reference)
            assert compiled.cycles <= max_cycles

    def test_max_instructions_equivalence(self):
        reference, compiled, _ = run_both(
            "gcc", "extended", trace_length=1_500,
            run_kwargs={"max_instructions": 600})
        assert dataclasses.asdict(compiled) == dataclasses.asdict(reference)

    def test_wrong_path_disabled_equivalence(self):
        reference, compiled, _ = run_both("gcc", "basic",
                                          enable_wrong_path=False)
        assert dataclasses.asdict(compiled) == dataclasses.asdict(reference)

    @pytest.mark.parametrize("depth", [4, 64])
    def test_config_derived_rq_depth_equivalence(self, depth):
        # The compiled Release Queue is sized from ``max_pending_branches``
        # at export time (not a hardwired 20): both a shallower and a
        # much deeper queue must stay bit-identical to the Python engine.
        reference, compiled, _ = run_both("gcc", "extended",
                                          max_pending_branches=depth)
        assert dataclasses.asdict(compiled) == dataclasses.asdict(reference)

    @pytest.mark.parametrize("warm_length", [0, 5, None],
                             ids=["empty", "shorter_than_trace", "full"])
    def test_warmup_length_edge_cases(self, warm_length, monkeypatch):
        # The in-C warm-up pass replays whatever _build_warmup_trace
        # returns; pin the edge lengths: an empty warm trace (warm_len=0
        # exports no columns), a warm trace much shorter than the measured
        # trace, and the default full-length segment (warm len == trace
        # len for traces under the 20k warm-up cap).
        from repro.engine import state as state_mod
        from repro.trace.records import Trace

        if warm_length is not None:
            original = state_mod.build_warmup_trace

            def truncated(trace):
                base = original(trace)
                return Trace(name=base.name, focus_class=base.focus_class,
                             instructions=list(base.instructions[:warm_length]),
                             seed=base.seed)

            monkeypatch.setattr(state_mod, "build_warmup_trace", truncated)
        reference, compiled, engine = run_both("gcc", "extended", warmup=True,
                                               trace_length=1_000)
        if warm_length is None:
            assert len(state_mod.build_warmup_trace(engine.trace)) >= 1_000
        assert dataclasses.asdict(compiled) == dataclasses.asdict(reference)

    def test_warmup_of_unregistered_trace_replays_itself(self):
        # A hand-built trace is not in the workload registry, so its
        # warm-up trace is the trace itself — on both backends.
        from repro.trace.records import Trace

        base = get_workload("gcc", 700, seed=0)
        loose = Trace(name="hand-rolled", focus_class=base.focus_class,
                      instructions=list(base.instructions), seed=0)
        stats = {}
        for backend in ("python", "compiled"):
            config = ProcessorConfig(release_policy="basic", warmup=True,
                                     num_physical_int=48, num_physical_fp=48,
                                     engine=backend)
            engine = SimulationEngine(loose, config)
            stats[backend] = engine.run()
            assert engine.backend_used == backend
        assert dataclasses.asdict(stats["compiled"]) == \
            dataclasses.asdict(stats["python"])


@needs_compiled
class TestWrongPathCascade:
    """The C core draws wrong-path instructions from raw PCG64 words.

    Every test asserts wrong-path fetches, so none passes vacuously.
    """

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("workload, trace_length", [
        ("go", TRACE_LENGTH), ("gcc", TRACE_LENGTH),
        ("branch_storm", TRACE_LENGTH),
        # The only FP workloads that fetch down the wrong path at all.
        ("applu", 20_000), ("hydro2d", 20_000),
    ])
    def test_cascade_matches_python(self, workload, trace_length, policy):
        reference, compiled, _ = run_both(workload, policy,
                                          trace_length=trace_length)
        assert reference.fetched_wrong_path > 0
        assert dataclasses.asdict(compiled) == dataclasses.asdict(reference)

    def test_buffered_half_at_entry(self):
        # One bounded draw leaves the high half of a word pending; the
        # core must start from it rather than from a fresh word.
        def advance(engine):
            draws = engine.state.fetch_unit.wrongpath.draws
            draws.next_bounded(2)
            assert draws.pending is not None

        reference, compiled, _ = run_both("gcc", "extended", prepare=advance)
        assert reference.fetched_wrong_path > 0
        assert dataclasses.asdict(compiled) == dataclasses.asdict(reference)

    def test_lemire_rejection(self):
        # A pending half of 0 is below 2**32 % 248, so the first branch
        # delta rejects it and draws again; a wrong path made only of
        # branches takes that path at the first wrong-path fetch.
        from repro.trace.wrongpath import WrongPathMix

        def zero_half_branches_only(engine):
            generator = engine.state.fetch_unit.wrongpath
            generator.mix = WrongPathMix(branch=1.0)
            generator.draws.pending = 0

        reference, compiled, _ = run_both("gcc", "basic",
                                          prepare=zero_half_branches_only)
        assert reference.fetched_wrong_path > 0
        assert dataclasses.asdict(compiled) == dataclasses.asdict(reference)

    def test_warmed_state_continues_advanced_streams(self):
        # A warmed MachineState whose wrong-path generator has already
        # drawn (cursors advanced, a half pending) and whose lottery is
        # mid-stream: the core continues both streams where they stand,
        # and leaves the machine's own generators as they were.
        def streams(state):
            generator = state.fetch_unit.wrongpath
            return (generator.draws.bit_generator.state,
                    generator.draws.pending, generator._int_cursor,
                    generator._fp_cursor,
                    state.exception_rng.bit_generator.state)

        before = {}

        def advance(engine):
            state = engine.state
            generator = state.fetch_unit.wrongpath
            generator.next_instructions(0x400000, 17)
            while generator.draws.pending is None:
                generator.draws.next_bounded(2)
            state.exception_rng.random(5)
            assert generator._int_cursor > 0
            before[engine.config.engine] = streams(state)

        reference, compiled, engine = run_both(
            "gcc", "extended", warmup=True, exception_rate=0.002,
            prepare=advance)
        assert reference.fetched_wrong_path > 0
        assert reference.exceptions_taken > 0
        assert dataclasses.asdict(compiled) == dataclasses.asdict(reference)
        assert streams(engine.state) == before["compiled"]

    @staticmethod
    def _fallback_both(prepare, reason: str):
        """Both requests run on Python, with identical stats."""
        from repro.engine.accel.compiled import _wrongpath_reason

        stats = {}
        for backend in ("python", "compiled"):
            config = ProcessorConfig(release_policy="extended",
                                     num_physical_int=48,
                                     num_physical_fp=48, engine=backend)
            engine = SimulationEngine(get_workload("gcc", TRACE_LENGTH,
                                                   seed=0), config)
            wrongpath = engine.state.fetch_unit.wrongpath
            prepare(wrongpath)
            assert reason in _wrongpath_reason(wrongpath)
            stats[backend] = engine.run()
            assert engine.backend_used == "python"
        assert stats["python"].fetched_wrong_path > 0
        assert dataclasses.asdict(stats["compiled"]) == \
            dataclasses.asdict(stats["python"])

    def test_non_contiguous_window_falls_back(self):
        def gappy(generator):
            generator._int_regs = [1, 3, 5]

        self._fallback_both(gappy, "contiguous")


def _bare_machine(wrongpath=None):
    """``(lib, machine)``: a cold machine of the default config, whose
    cascade starts where ``wrongpath`` stands (its stream unseeded)."""
    from repro.engine.accel import compiled as compiled_mod
    from repro.engine.accel.loader import NCFG, NF, load_core

    ffi, lib = load_core()
    columns = get_workload("gcc", 100, seed=0).columns
    vec = compiled_mod._config_vector(ProcessorConfig(), columns, None)
    rates = np.zeros(NF)
    if wrongpath is not None:
        compiled_mod._wrongpath_config(vec, rates, wrongpath)
    mach = lib.sim_new(ffi.cast("long long *", ffi.from_buffer(vec)), NCFG,
                       ffi.cast("double *", ffi.from_buffer(rates)), NF)
    assert mach != ffi.NULL
    return lib, ffi.gc(mach, lib.sim_free)


@needs_compiled
class TestStreamPins:
    """The core's PCG64 draws the words numpy's does, word for word."""

    SEEDS = (0, 1, 7, 12345, 2**63 + 11)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("drawn", [0, 17, 1000])
    def test_raw_words_continue_the_python_stream(self, seed, drawn):
        from repro.engine.accel import compiled as compiled_mod
        from repro.engine.accel.loader import RNG_WRONGPATH

        bit_generator = np.random.PCG64(seed)
        bit_generator.random_raw(drawn)
        state = bit_generator.state
        lib, mach = _bare_machine()
        compiled_mod._seed(lib, mach, RNG_WRONGPATH, bit_generator)
        assert bit_generator.state == state    # reading it draws nothing
        words = [lib.sim_draw(mach, RNG_WRONGPATH, 0) for _ in range(1000)]
        assert words == bit_generator.random_raw(1000).tolist()

    @pytest.mark.parametrize("seed", (1, 2, 99))
    def test_exception_lottery_is_generator_random(self, seed):
        from repro.engine import state as machine_state
        from repro.engine.accel import compiled as compiled_mod
        from repro.engine.accel.loader import RNG_EXC

        config = ProcessorConfig(seed=seed, exception_rate=0.01)
        rng = machine_state.exception_rng(config)
        lib, mach = _bare_machine()
        compiled_mod._seed(lib, mach, RNG_EXC, rng.bit_generator)
        doubles = [(lib.sim_draw(mach, RNG_EXC, 0) >> 11) * 2.0 ** -53
                   for _ in range(500)]
        assert doubles == np.random.default_rng(seed + 0xE).random(
            500).tolist()

    @pytest.mark.parametrize("seed", (3, 4, 5))
    def test_bounded_draws_start_from_the_pending_half(self, seed):
        # A generator mid-stream with a half pending (forced to 0 once,
        # which 248 rejects): raw words, Lemire draws of three spans and
        # the pending half interleave exactly as RawDraws draws them.
        from repro.engine.accel import compiled as compiled_mod
        from repro.engine.accel.loader import RNG_WRONGPATH
        from repro.trace.draws import bounded_threshold
        from repro.trace.wrongpath import WrongPathGenerator, WrongPathMix

        generator = WrongPathGenerator(WrongPathMix(), seed=seed)
        draws = generator.draws
        generator.next_instructions(0x400000, 9)
        for pending in (None, 0):
            if pending is not None:
                draws.pending = pending
            while draws.pending is None:
                draws.next_bounded(2)
            lib, mach = _bare_machine(generator)
            compiled_mod._seed(lib, mach, RNG_WRONGPATH,
                               draws.bit_generator)
            schedule = [248, 0, 2048, 2048, 248, 2, 0, 248] * 40
            core = [lib.sim_draw(mach, RNG_WRONGPATH, span)
                    for span in schedule]
            python = [draws.raw() if span == 0 else
                      draws.next_bounded(span, bounded_threshold(span))
                      for span in schedule]
            assert core == python

    def test_cold_starts_leave_the_shared_generators_pristine(self):
        # A cold start reads the shared, per-seed generators' states and
        # draws from copies: after runs that drew both streams, the
        # shared ones still stand where a fresh seeding puts them.
        from repro.engine import state as machine_state

        trace = get_workload("gcc", TRACE_LENGTH, seed=0)
        config = ProcessorConfig(release_policy="extended", seed=3,
                                 exception_rate=0.002, engine="compiled")
        for _ in range(2):
            engine = SimulationEngine(trace, config)
            stats = engine.run()
            assert engine.backend_used == "compiled"
            assert stats.fetched_wrong_path > 0
            assert stats.exceptions_taken > 0
        shared = machine_state.wrongpath_generator(trace, config, shared=True)
        assert shared.draws.bit_generator.state == \
            np.random.PCG64(config.seed).state
        assert shared.draws.pending is None
        assert (shared._int_cursor, shared._fp_cursor) == (0, 0)
        assert machine_state.exception_rng(
            config, shared=True).bit_generator.state == \
            np.random.default_rng(config.seed + 0xE).bit_generator.state


@needs_compiled
def test_stat_fingerprint_grid():
    """Figure 11-shaped grid: ~90 points, full-stats compiled-vs-Python.

    Three workloads x three policies x five register-file sizes x both
    warm-up modes — the configurations every paper figure is swept over.
    Short traces keep the grid fast; full ``asdict`` equality keeps it
    exhaustive (one diverging counter anywhere fails the point).
    """
    from repro.rename.free_list import FreeListError

    mismatches = []
    points = 0
    for workload in ("gcc", "swim", "compress"):
        for policy in POLICIES:
            for registers in (40, 48, 64, 96, 160):
                for warmup in (False, True):
                    trace = get_workload(workload, 800, seed=0)
                    stats = {}
                    for backend in ("python", "compiled"):
                        config = ProcessorConfig(
                            release_policy=policy,
                            num_physical_int=registers,
                            num_physical_fp=registers,
                            warmup=warmup, engine=backend)
                        try:
                            stats[backend] = dataclasses.asdict(
                                SimulationEngine(trace, config).run())
                        except FreeListError:
                            stats[backend] = "FreeListError"
                    points += 1
                    if stats["python"] != stats["compiled"]:
                        mismatches.append(
                            (workload, policy, registers, warmup))
    assert points >= 90
    assert mismatches == []


class TestFallbackContract:
    def test_broken_toolchain_degrades_with_warning(self, monkeypatch, caplog):
        # A compiler that does not exist: the run must still succeed, on
        # the Python engine, with exactly the same statistics, and the
        # degradation must be visible on the accel logger.
        monkeypatch.setenv("REPRO_ACCEL_CC", "/nonexistent/compiler-xyz")
        accel.reset_backend_cache()
        try:
            trace = get_workload("swim", 800, seed=0)
            config = ProcessorConfig(release_policy="basic", warmup=False,
                                     num_physical_int=48, num_physical_fp=48,
                                     engine="compiled")
            with caplog.at_level(logging.WARNING, logger="repro.engine.accel"):
                engine = SimulationEngine(trace, config)
                stats = engine.run()
            assert engine.backend_used == "python"
            assert any("using the Python engine" in record.message
                       for record in caplog.records)
            reference = SimulationEngine(
                trace, dataclasses.replace(config, engine="python")).run()
            assert dataclasses.asdict(stats) == dataclasses.asdict(reference)
        finally:
            accel.reset_backend_cache()   # monkeypatch restores the env

    def test_probe_warns_once_per_process(self, monkeypatch, caplog):
        monkeypatch.setenv("REPRO_ACCEL_CC", "/nonexistent/compiler-xyz")
        accel.reset_backend_cache()
        try:
            with caplog.at_level(logging.WARNING, logger="repro.engine.accel"):
                for _ in range(3):
                    assert accel.resolve_engine_backend(
                        ProcessorConfig(engine="compiled")) == "python"
            warnings = [record for record in caplog.records
                        if "using the Python engine" in record.message]
            assert len(warnings) == 1
        finally:
            accel.reset_backend_cache()

    @needs_compiled
    def test_toolchain_error_under_auto_falls_back_once(self, monkeypatch,
                                                        caplog):
        # The default request on a machine whose core cannot be loaded:
        # every run resolves to the Python engine (on a machine that
        # warmed itself up), the process logs one warning in all, and the
        # statistics equal the compiled run's.
        from repro.engine.accel import loader

        monkeypatch.delenv(accel.ENGINE_ENV, raising=False)
        trace = get_workload("gcc", 800, seed=0)
        config = ProcessorConfig(release_policy="extended", warmup=True)
        engine = SimulationEngine(trace, config)
        compiled = engine.run()
        assert engine.backend_used == "compiled"

        def missing_toolchain():
            raise accel.ToolchainError("no C compiler on this machine")

        monkeypatch.setattr(loader, "load_core", missing_toolchain)
        accel.reset_backend_cache()
        try:
            with caplog.at_level(logging.WARNING, logger="repro.engine.accel"):
                engines = [SimulationEngine(trace, config) for _ in range(2)]
                runs = [engine.run() for engine in engines]
            assert [engine.backend_used for engine in engines] == \
                ["python", "python"]
            warnings = [record for record in caplog.records
                        if record.name == "repro.engine.accel"
                        and record.levelno >= logging.WARNING]
            assert len(warnings) == 1
            assert "no C compiler on this machine" in warnings[0].getMessage()
            for stats in runs:
                assert dataclasses.asdict(stats) == dataclasses.asdict(compiled)
        finally:
            accel.reset_backend_cache()

    def test_unsupported_config_falls_back_per_run(self):
        # The Release Queue depth is config-derived (sized from
        # ``max_pending_branches`` at export time), bounded only by the
        # compiled core's ``RQ_LEVELS_MAX`` ceiling.  A config beyond the
        # ceiling is outside the envelope — named clearly — and must run
        # on the Python engine, whose Release Queue is also config-sized.
        from repro.engine.accel.compiled import unsupported_reason
        from repro.engine.accel.loader import RQ_LEVELS_MAX

        trace = get_workload("gcc", 800, seed=0)
        inside = ProcessorConfig(release_policy="extended", warmup=False,
                                 max_pending_branches=64, engine="compiled")
        assert unsupported_reason(inside) is None
        config = ProcessorConfig(release_policy="extended", warmup=False,
                                 max_pending_branches=RQ_LEVELS_MAX + 44,
                                 engine="compiled")
        reason = unsupported_reason(config)
        assert reason is not None and str(RQ_LEVELS_MAX) in reason
        engine = SimulationEngine(trace, config)
        stats = engine.run()
        assert engine.backend_used == "python"
        reference = SimulationEngine(
            trace, dataclasses.replace(config, engine="python")).run()
        assert dataclasses.asdict(stats) == dataclasses.asdict(reference)

    def test_partially_stepped_machine_stays_python(self):
        # Backend dispatch only covers whole runs from reset: a machine
        # that has already been single-stepped cannot be exported, so
        # run() must continue it on the Python engine — identically to a
        # machine never offered to the compiled backend.
        trace = get_workload("swim", 800, seed=0)
        stats = {}
        for backend in ("python", "compiled"):
            config = ProcessorConfig(release_policy="conv", warmup=False,
                                     num_physical_int=48, num_physical_fp=48,
                                     engine=backend)
            engine = SimulationEngine(trace, config)
            engine.step()
            stats[backend] = engine.run()
            assert engine.backend_used == "python"
        assert dataclasses.asdict(stats["compiled"]) == \
            dataclasses.asdict(stats["python"])


class TestWarmupDeferral:
    """A compiled run from reset starts cold in C and warms up there; a
    Python machine warms itself at construction.  Config-driven, so the
    tests without a compiled run need no toolchain."""

    @staticmethod
    def _count(monkeypatch, owner, name):
        calls = []
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
        return calls

    @needs_compiled
    def test_compiled_request_defers_warmup(self, monkeypatch):
        # The warm-up pass runs in the core: no Python warm pass at all.
        from repro.engine.state import MachineState

        warm_passes = self._count(monkeypatch, MachineState, "_warm_state")
        engine = SimulationEngine(get_workload("swim", 500, seed=0),
                                  ProcessorConfig(engine="compiled",
                                                  warmup=True))
        engine.run()
        assert engine.backend_used == "compiled"
        assert warm_passes == []

    @needs_compiled
    def test_compiled_run_builds_no_machine(self, monkeypatch):
        from repro.engine.state import MachineState

        machines = self._count(monkeypatch, MachineState, "__init__")
        engine = SimulationEngine(get_workload("gcc", 800, seed=0),
                                  ProcessorConfig(engine="compiled",
                                                  warmup=True,
                                                  exception_rate=0.01))
        stats = engine.run()
        assert engine.backend_used == "compiled"
        assert stats.committed_instructions == len(engine.trace)
        assert engine.finished
        assert machines == []

    @needs_compiled
    def test_stepping_after_a_compiled_run_reports_the_stepped_machine(self):
        # After a compiled run, `finished` describes that run; once the
        # caller steps a machine, it describes the machine being stepped.
        engine = SimulationEngine(get_workload("gcc", 400, seed=0),
                                  ProcessorConfig(engine="compiled"))
        engine.run()
        assert engine.backend_used == "compiled" and engine.finished
        engine.step()
        assert engine.backend_used == "python"
        assert engine.state.cycle == 1
        assert not engine.finished

    def test_python_engine_warms_at_construction(self):
        trace = get_workload("swim", 500, seed=0)
        state = SimulationEngine(trace, ProcessorConfig(
            engine="python", warmup=True)).state
        assert state.predictor.predictions == 0     # stats reset after warm
        assert len(set(state.predictor.table)) > 1  # but the tables learned

    def test_out_of_envelope_config_does_not_defer(self):
        # A config the compiled core cannot run gets a warm Python
        # machine, exactly as an explicit Python request does.
        from repro.engine.accel.loader import RQ_LEVELS_MAX

        trace = get_workload("swim", 500, seed=0)
        config = ProcessorConfig(engine="compiled", warmup=True,
                                 release_policy="extended",
                                 max_pending_branches=RQ_LEVELS_MAX + 1)
        engine = SimulationEngine(trace, config)
        stats = engine.run(max_cycles=200)
        assert engine.backend_used == "python"
        assert len(set(engine.state.predictor.table)) > 1
        reference = SimulationEngine(
            trace, dataclasses.replace(config, engine="python")).run(
                max_cycles=200)
        assert dataclasses.asdict(stats) == dataclasses.asdict(reference)

    def test_machine_warms_once(self, monkeypatch):
        from repro.engine.state import MachineState

        warm_passes = self._count(monkeypatch, MachineState, "_warm_state")
        engine = SimulationEngine(get_workload("swim", 500, seed=0),
                                  ProcessorConfig(engine="compiled",
                                                  warmup=True))
        assert len(set(engine.state.predictor.table)) > 1
        engine.step()
        engine.step()
        assert warm_passes == [1]

    def test_broken_toolchain_still_warms_up(self, monkeypatch):
        # A compiled request whose core turns out to be missing runs on
        # a warm Python machine: stats equal the python-engine
        # warmup=True reference.
        monkeypatch.setenv("REPRO_ACCEL_CC", "/nonexistent/compiler-xyz")
        accel.reset_backend_cache()
        try:
            trace = get_workload("gcc", 800, seed=0)
            config = ProcessorConfig(release_policy="extended", warmup=True,
                                     engine="compiled")
            engine = SimulationEngine(trace, config)
            stats = engine.run()
            assert engine.backend_used == "python"
            reference = SimulationEngine(
                trace, dataclasses.replace(config, engine="python")).run()
            assert dataclasses.asdict(stats) == dataclasses.asdict(reference)
        finally:
            accel.reset_backend_cache()

    def test_single_stepping_warms_first(self):
        # step() never reaches the compiled backend: the machine it
        # builds has already run the warm-up pass.
        trace = get_workload("swim", 500, seed=0)
        engine = SimulationEngine(trace, ProcessorConfig(
            engine="compiled", warmup=True))
        engine.step()
        assert engine.state.cycle == 1
        assert len(set(engine.state.predictor.table)) > 1


def _set_row_id(index, past_table=False, value=None):
    """Corrupt row id ``index``: past the row table, or to ``value``."""
    def corrupt(columns, table, rows):
        rows[index] = len(columns.records) if past_table else value
    return corrupt


def _set_first_row(column, value):
    """Corrupt ``column`` of the first row that names a register there."""
    def corrupt(columns, table, rows):
        has_reg = (table["dc"] >= 0 if column in ("dc", "dest")
                   else table["nsrc"] > 0)
        row = int(np.flatnonzero(has_reg)[0])
        table[column].reshape(len(table[column]), -1)[row, 0] = value
    return corrupt


def _corrupted_copy(columns, corrupt):
    """A copy of ``columns`` whose arrays ``corrupt`` has written to."""
    from repro.trace.records import TraceColumns

    table = {name: array.copy() for name, array in columns.table.items()}
    rows = columns.rows.copy()
    corrupt(columns, table, rows)
    return TraceColumns(columns.records, rows, columns.addr, table)


@needs_compiled
class TestTraceInput:
    """The core reads the trace's row table by row id, and vets it first."""

    @staticmethod
    def _watch_runs(monkeypatch):
        """Record ``(status, cycle, fetched)`` after every ``sim_run``.

        The backend verdict is already settled (``tests/conftest.py``
        restores it after every test), so no self-check runs through a
        test's corrupted export.
        """
        from repro.engine.accel import compiled as compiled_mod
        from repro.engine.accel import loader
        from repro.engine.accel.loader import SC, ST

        load_core = loader.load_core
        runs = []

        class Watching:
            def __init__(self, lib):
                self._lib = lib

            def sim_run(self, mach):
                status = self._lib.sim_run(mach)
                stats = self._lib.sim_i64(mach, loader.A.STATS)
                runs.append((status, self._lib.sim_get(mach, SC.CYCLE),
                             stats[ST.FETCHED]))
                return status

            def __getattr__(self, name):
                return getattr(self._lib, name)

        def watching_core():
            ffi, lib = load_core()
            return ffi, Watching(lib)

        monkeypatch.setattr(compiled_mod.loader, "load_core", watching_core)
        return runs

    @staticmethod
    def _escapes_before_the_first_cycle(runs):
        """One compiled attempt that escaped before its first cycle, and
        a Python rerun equal to the Python engine's."""
        from repro.engine.accel.loader import RUN_INTERNAL

        trace = get_workload("gcc", 800, seed=0)
        config = ProcessorConfig(release_policy="extended", warmup=True,
                                 engine="compiled")
        engine = SimulationEngine(trace, config)
        stats = engine.run()
        assert runs == [(RUN_INTERNAL, 0, 0)]
        assert engine.backend_used == "python"
        reference = SimulationEngine(
            trace, dataclasses.replace(config, engine="python")).run()
        assert dataclasses.asdict(stats) == dataclasses.asdict(reference)

    @pytest.mark.parametrize("exporter, corrupt", [
        ("_export_trace", _set_row_id(-1, past_table=True)),
        ("_export_trace", _set_row_id(0, value=-1)),
        ("_export_warmup", _set_row_id(0, past_table=True)),
        ("_export_trace", _set_first_row("dest", 32)),
        ("_export_trace", _set_first_row("dc", 2)),
        ("_export_trace", _set_first_row("src_log", 32)),
        ("_export_trace", _set_first_row("src_class", -1)),
    ], ids=["row-id-past-table", "negative-row-id", "warm-row-id-past-table",
            "dest-at-nlog", "dest-class", "source-at-nlog", "source-class"])
    def test_bad_input_escapes_before_the_first_cycle(self, exporter, corrupt,
                                                      monkeypatch):
        # The trace's own arrays are read-only: bind a corrupted copy.
        from repro.engine.accel import compiled as compiled_mod

        export = getattr(compiled_mod, exporter)
        runs = self._watch_runs(monkeypatch)

        def corrupting(ffi, lib, mach, columns):
            return export(ffi, lib, mach, _corrupted_copy(columns, corrupt))

        monkeypatch.setattr(compiled_mod, exporter, corrupting)
        self._escapes_before_the_first_cycle(runs)

    @pytest.mark.parametrize("exporter", ["_export_trace", "_export_warmup"])
    def test_unbound_trace_escapes_before_the_first_cycle(self, exporter,
                                                          monkeypatch):
        from repro.engine.accel import compiled as compiled_mod

        runs = self._watch_runs(monkeypatch)
        monkeypatch.setattr(compiled_mod, exporter, lambda *args: [])
        self._escapes_before_the_first_cycle(runs)

    def test_register_past_the_logical_file_raises_the_python_error(
            self, monkeypatch):
        # A hand-built trace naming integer register 40: the core must
        # refuse it up front (not index its 32-entry map out of bounds),
        # so the Python engine's own IndexError is what the caller sees.
        from repro.engine.accel.loader import RUN_INTERNAL
        from repro.isa import Instruction, RegClass
        from repro.trace.records import Trace

        base = get_workload("gcc", 300, seed=0)
        instructions = list(base.instructions)
        at = next(i for i, inst in enumerate(instructions)
                  if inst.dest is not None and inst.dest[0] == RegClass.INT)
        inst = instructions[at]
        instructions[at] = Instruction(
            pc=inst.pc, op=inst.op, dest=(RegClass.INT, 40), srcs=inst.srcs,
            taken=inst.taken, target=inst.target, mem_addr=inst.mem_addr)
        runs = self._watch_runs(monkeypatch)
        engine = SimulationEngine(
            Trace(name="hand-rolled", focus_class=base.focus_class,
                  instructions=instructions),
            ProcessorConfig(engine="compiled"))
        with pytest.raises(IndexError):
            engine.run()
        assert runs == [(RUN_INTERNAL, 0, 0)]

    def test_wrongpath_window_past_the_logical_file_escapes(self,
                                                            monkeypatch):
        # A warmed machine can carry a hand-made wrong-path generator; a
        # window reaching register 40 must be refused before the first
        # cycle, like a trace row naming it.
        from repro.engine.accel.loader import RUN_INTERNAL
        from repro.trace.wrongpath import WrongPathGenerator

        engine = SimulationEngine(get_workload("gcc", 800, seed=0),
                                  ProcessorConfig(engine="compiled"))
        fetch_unit = engine.state.fetch_unit
        fetch_unit.wrongpath = WrongPathGenerator(fetch_unit.wrongpath.mix,
                                                  seed=0, int_window=40)
        runs = self._watch_runs(monkeypatch)
        with pytest.raises(IndexError):
            engine.run()
        assert runs == [(RUN_INTERNAL, 0, 0)]
        assert engine.backend_used == "python"

    @staticmethod
    def _reshaped(trace, order, per_instruction=False):
        """``trace`` with its row table reordered by ``order(n)`` (after
        expanding it to one row per instruction, if asked); the row ids
        follow, so the instructions are unchanged."""
        from repro.trace.records import Trace, TraceColumns

        columns = trace.columns
        if per_instruction:
            records = [columns.records[row] for row in columns.rows.tolist()]
            rows = np.arange(len(records))
        else:
            records, rows = list(columns.records), columns.rows
        picks = order(len(records))
        position = np.empty(len(picks), dtype=np.int32)
        position[picks] = np.arange(len(picks), dtype=np.int32)
        return Trace(name=trace.name, focus_class=trace.focus_class,
                     seed=trace.seed,
                     columns=TraceColumns([records[pick] for pick in picks],
                                          position[rows], columns.addr.copy()))

    def test_row_per_instruction_and_a_different_warm_table(self,
                                                            monkeypatch):
        # The measured trace gets one (reversed) row per instruction; the
        # warm-up trace keeps its own interned table, in a shuffled order.
        # Reading either through the other's table would diverge.
        from repro.engine import state as state_mod

        trace = self._reshaped(get_workload("go", 1_200, seed=0),
                               lambda n: np.arange(n)[::-1],
                               per_instruction=True)
        assert len(trace.columns.records) == len(trace)
        warm_of = state_mod.build_warmup_trace
        shuffle = np.random.default_rng(5).permutation
        warm_tables = []

        def shuffled_warmup(measured):
            warm = self._reshaped(warm_of(measured), shuffle)
            warm_tables.append(len(warm.columns.records))
            return warm

        assert _compiled_available()        # self-check before the patch
        monkeypatch.setattr(state_mod, "build_warmup_trace", shuffled_warmup)
        stats = {}
        for backend in ("python", "compiled"):
            config = ProcessorConfig(release_policy="extended", warmup=True,
                                     exception_rate=0.01, engine=backend)
            engine = SimulationEngine(trace, config)
            stats[backend] = dataclasses.asdict(engine.run())
            assert engine.backend_used == backend
        assert 0 < warm_tables[0] < len(trace)
        assert stats["compiled"] == stats["python"]

    def test_compiled_run_never_expands_columns(self, monkeypatch):
        from repro.trace.records import TraceColumns

        assert _compiled_available()        # self-check before the count
        gathers = TestWarmupDeferral._count(monkeypatch, TraceColumns,
                                            "gather")
        engine = SimulationEngine(get_workload("swim", 1_000, seed=0),
                                  ProcessorConfig(engine="compiled",
                                                  warmup=True))
        engine.run()
        assert engine.backend_used == "compiled"
        assert gathers == []


@needs_compiled
class TestColdStart:
    """The per-point glue a cold start removes, and its fallback."""

    def test_sweep_derives_the_wrongpath_mix_once(self, monkeypatch):
        from repro.analysis.sweep import SweepConfig, run_sweep
        from repro.trace.wrongpath import WrongPathMix

        derivations = TestWarmupDeferral._count(monkeypatch, WrongPathMix,
                                                "from_trace")
        # A seed no other test uses: the sweep's trace is generated
        # here, with no memoised mix yet.
        sweep = SweepConfig(benchmarks=("gcc",), policies=POLICIES,
                            register_sizes=(48, 64), trace_length=600,
                            seed=20_211,
                            base_config=ProcessorConfig(engine="compiled"))
        result = run_sweep(sweep, cache=None)
        assert result.backend == "compiled"
        assert result.simulated == 6
        assert derivations == [1]

    def test_refused_run_matches_python(self, monkeypatch):
        # The core runs the whole point, drawing from both streams, then
        # reports an internal escape: the engine must redo the point on
        # a fresh Python machine whose streams the attempt never touched.
        from repro.engine.accel import compiled as compiled_mod
        from repro.engine.accel import loader
        from repro.engine.accel.loader import RUN_FINISHED, RUN_INTERNAL

        load_core = loader.load_core
        refusals = []

        class Refusing:
            def __init__(self, lib):
                self._lib = lib

            def sim_run(self, mach):
                status = self._lib.sim_run(mach)
                if status == RUN_FINISHED:
                    refusals.append(1)
                    return RUN_INTERNAL
                return status

            def __getattr__(self, name):
                return getattr(self._lib, name)

        def refusing_core():
            ffi, lib = load_core()
            return ffi, Refusing(lib)

        trace = get_workload("go", 1_500, seed=0)
        config = ProcessorConfig(release_policy="extended", warmup=True,
                                 exception_rate=0.01, engine="compiled")
        reference = SimulationEngine(
            trace, dataclasses.replace(config, engine="python")).run()
        assert reference.fetched_wrong_path > 0
        assert reference.exceptions_taken > 0
        monkeypatch.setattr(compiled_mod.loader, "load_core", refusing_core)
        engine = SimulationEngine(trace, config)
        stats = engine.run()
        assert refusals == [1]
        assert engine.backend_used == "python"
        assert dataclasses.asdict(stats) == dataclasses.asdict(reference)

    def test_core_deadlock_raises_the_python_error(self):
        from repro.engine import DeadlockError

        engine = SimulationEngine(get_workload("swim", 800, seed=0),
                                  ProcessorConfig(engine="compiled"))
        with pytest.raises(DeadlockError):
            engine.run(deadlock_threshold=1)
        assert engine.backend_used == "python"


def _compiled_point(trace, config, **run_kwargs):
    """``(backend_used, stats as a dict)`` of one run of ``config``."""
    engine = SimulationEngine(trace, config)
    stats = engine.run(**run_kwargs)
    return engine.backend_used, dataclasses.asdict(stats)


@needs_compiled
class TestArenaReuse:
    """Machines built one after another in a thread reuse one block of
    memory: every point must still start from its own cold machine."""

    #: ``(workload, policy, registers, config overrides)``: the block
    #: grows, shrinks and grows again along this list.
    GEOMETRIES = (
        ("swim", "extended", 104, {}),
        ("gcc", "conv", 40, {}),
        ("gcc", "basic", 48, {"exception_rate": 0.002}),
        ("go", "extended", 48, {"ros_size": 37, "gshare_history_bits": 12}),
    )

    def test_geometry_sequence_in_one_thread(self, monkeypatch):
        from repro.engine import DeadlockError
        from repro.engine.accel import compiled as compiled_mod

        for workload, policy, registers, overrides in self.GEOMETRIES:
            reference, compiled, _ = run_both(
                workload, policy, num_registers=registers,
                trace_length=1_500, **overrides)
            if "exception_rate" in overrides:
                assert reference.exceptions_taken > 0
            assert dataclasses.asdict(compiled) == \
                dataclasses.asdict(reference)

        # A point bound to bad input escapes with RUN_INTERNAL and is
        # redone on Python; the machine it leaves behind is reused next.
        export = compiled_mod._export_trace
        corrupt = _set_row_id(-1, past_table=True)

        def corrupting(ffi, lib, mach, columns):
            return export(ffi, lib, mach, _corrupted_copy(columns, corrupt))

        trace = get_workload("gcc", 800, seed=0)
        config = ProcessorConfig(release_policy="extended", warmup=True,
                                 engine="compiled")
        with monkeypatch.context() as patch:
            patch.setattr(compiled_mod, "_export_trace", corrupting)
            escaped = _compiled_point(trace, config)
        assert escaped == ("python", dataclasses.asdict(SimulationEngine(
            trace, dataclasses.replace(config, engine="python")).run()))

        # A deadlock defers to the Python engine's own error.
        engine = SimulationEngine(get_workload("swim", 800, seed=0),
                                  ProcessorConfig(engine="compiled"))
        with pytest.raises(DeadlockError):
            engine.run(deadlock_threshold=1)
        assert engine.backend_used == "python"

        reference, compiled, _ = run_both("li", "conv", num_registers=96,
                                          warmup=True)
        assert dataclasses.asdict(compiled) == dataclasses.asdict(reference)

    def test_two_threads_match_the_serial_results(self):
        from concurrent.futures import ThreadPoolExecutor
        import threading

        points = [(get_workload(workload, 1_500, seed=0), ProcessorConfig(
            release_policy=policy, num_physical_int=registers,
            num_physical_fp=registers, engine="compiled", **overrides))
            for workload, policy, registers, overrides in self.GEOMETRIES]
        serial = [_compiled_point(trace, config) for trace, config in points]
        assert all(backend == "compiled" for backend, _ in serial)

        orders = (list(range(len(points))) * 3,
                  list(reversed(range(len(points)))) * 3)
        start = threading.Barrier(len(orders))

        def run_in_order(order):
            start.wait()
            return [_compiled_point(*points[i]) for i in order]

        with ThreadPoolExecutor(max_workers=len(orders)) as pool:
            results = list(pool.map(run_in_order, orders))
        for order, got in zip(orders, results):
            assert got == [serial[i] for i in order]


@needs_compiled
class TestSelfCheck:
    """The per-process gate runs every release policy on both backends."""

    @staticmethod
    def _patch_run_compiled(monkeypatch, after):
        from repro.engine.accel import compiled

        real = compiled.run_compiled

        def patched(state, **kwargs):
            result = real(state, **kwargs)
            after(state, result)
            return result

        monkeypatch.setattr(compiled, "run_compiled", patched)

    def test_covers_every_policy_eager_and_deferred(self, monkeypatch):
        # Each policy runs from a cold start and from a Python-warmed
        # machine exported as it stands.
        from repro.engine.accel.compiled import ColdStart
        from repro.engine.state import MachineState

        seen = []
        self._patch_run_compiled(monkeypatch, lambda start, _: seen.append(
            (start.config.release_policy, type(start))))
        assert accel._self_check()
        assert sorted(seen, key=repr) == sorted(
            ((policy, kind) for policy in POLICIES
             for kind in (ColdStart, MachineState)), key=repr)

    def test_point_exercises_each_release_path(self, monkeypatch):
        # basic and extended must each free registers early inside the C
        # core, or the gate would pass without comparing their own
        # release paths.
        stats = {}
        self._patch_run_compiled(monkeypatch, lambda state, result: stats.update(
            {state.config.release_policy: result.stats}))
        assert accel._self_check()
        for policy in POLICIES:
            assert stats[policy].exceptions_taken > 0
            assert stats[policy].fetched_wrong_path > 0
        assert stats["conv"].int_registers.early_releases == 0
        assert stats["basic"].int_registers.early_releases > 0
        assert stats["extended"].int_registers.early_releases > 0

    @pytest.mark.parametrize("policy", POLICIES)
    def test_divergence_in_one_policy_pins_python(self, policy, monkeypatch):
        def diverge(state, result):
            if state.config.release_policy == policy:
                result.stats.cycles += 1

        self._patch_run_compiled(monkeypatch, diverge)
        monkeypatch.delenv(accel.ENGINE_ENV, raising=False)
        accel.reset_backend_cache()
        try:
            assert accel.resolve_engine_backend(ProcessorConfig()) == "python"
            assert "self-check" in accel.backend_fallback_reason()
        finally:
            accel.reset_backend_cache()


@needs_compiled
class TestSelfCheckMemo:
    """The Python reference of the self-check is memoised on disk; the
    compiled runs and the coverage predicates run in every process."""

    @pytest.fixture
    def memo(self, tmp_path, monkeypatch):
        path = tmp_path / "self_check.json"
        monkeypatch.setattr(accel, "_reference_memo_path", lambda: path)
        return path

    @staticmethod
    def _count_python_runs(monkeypatch):
        runs = []
        real = SimulationEngine.run

        def counted(self, *args, **kwargs):
            runs.append(self.state.config.release_policy)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(SimulationEngine, "run", counted)
        return runs

    def test_warm_memo_skips_the_python_runs_only(self, memo, monkeypatch):
        runs = self._count_python_runs(monkeypatch)
        assert accel._self_check()
        assert sorted(runs) == sorted(POLICIES) and memo.exists()

        def no_python_run(self, *args, **kwargs):
            raise AssertionError("reference re-simulated despite the memo")

        monkeypatch.setattr(SimulationEngine, "run", no_python_run)
        compiled_runs = []
        TestSelfCheck._patch_run_compiled(
            monkeypatch, lambda start, _: compiled_runs.append(
                (start.config.release_policy, type(start).__name__)))
        assert accel._self_check()
        assert sorted(compiled_runs) == sorted(
            (policy, kind) for policy in POLICIES
            for kind in ("ColdStart", "MachineState"))

    def test_memo_name_follows_the_source_tree(self, monkeypatch):
        from repro.analysis import cache as cache_mod

        first = accel._reference_memo_path()
        monkeypatch.setattr(cache_mod, "code_digest", lambda: "0" * 64)
        assert accel._reference_memo_path() != first
        assert accel._reference_memo_path().parent == first.parent

    def test_tampered_memo_pins_python(self, memo, monkeypatch):
        import json

        assert accel._self_check()
        references = json.loads(memo.read_text())
        references["basic"]["cycles"] += 1
        memo.write_text(json.dumps(references))
        monkeypatch.delenv(accel.ENGINE_ENV, raising=False)
        accel.reset_backend_cache()
        try:
            assert accel.resolve_engine_backend(ProcessorConfig()) == "python"
            assert "self-check" in accel.backend_fallback_reason()
        finally:
            accel.reset_backend_cache()

    @pytest.mark.parametrize("content", ["not json{", "[]", '{"conv": {}}'])
    def test_corrupt_memo_runs_the_full_check(self, memo, monkeypatch,
                                              content):
        memo.write_text(content)
        runs = self._count_python_runs(monkeypatch)
        assert accel._self_check()
        assert sorted(runs) == sorted(POLICIES)
        runs.clear()
        assert accel._self_check()          # rewritten, now warm
        assert runs == []

    def test_unwritable_memo_runs_the_full_check(self, tmp_path,
                                                 monkeypatch):
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("")
        monkeypatch.setattr(accel, "_reference_memo_path",
                            lambda: blocker / "self_check.json")
        runs = self._count_python_runs(monkeypatch)
        for _ in range(2):
            runs.clear()
            assert accel._self_check()
            assert sorted(runs) == sorted(POLICIES)


class TestBackendSelection:
    def test_probe_is_lazy(self, monkeypatch):
        # Building a default config and engine never probes the
        # toolchain: the build and self-check wait for the first run.
        def probe():
            raise AssertionError("backend probed before any run")

        monkeypatch.delenv(accel.ENGINE_ENV, raising=False)
        monkeypatch.setattr(accel, "_probe_backend", probe)
        accel.reset_backend_cache()
        try:
            engine = SimulationEngine(get_workload("swim", 300, seed=0),
                                      ProcessorConfig(warmup=True))
            assert len(set(engine.state.predictor.table)) > 1
            assert accel.probe_verdict() is None
        finally:
            accel.reset_backend_cache()

    def test_config_field_beats_environment(self, monkeypatch):
        monkeypatch.setenv(accel.ENGINE_ENV, "compiled")
        assert accel.requested_backend(
            ProcessorConfig(engine="python")) == "python"

    def test_environment_drives_auto(self, monkeypatch):
        # auto means the compiled core unless $REPRO_ENGINE says python.
        monkeypatch.delenv(accel.ENGINE_ENV, raising=False)
        assert accel.requested_backend(ProcessorConfig()) == "compiled"
        assert accel.requested_backend(None) == "compiled"
        for value in ("compiled", "auto", ""):
            monkeypatch.setenv(accel.ENGINE_ENV, value)
            assert accel.requested_backend(ProcessorConfig()) == "compiled"
        monkeypatch.setenv(accel.ENGINE_ENV, "python")
        assert accel.requested_backend(ProcessorConfig()) == "python"
        assert accel.requested_backend(None) == "python"
        assert accel.requested_backend(
            ProcessorConfig(engine="compiled")) == "compiled"

    def test_config_rejects_unknown_engine(self):
        with pytest.raises(ValueError, match="unknown engine"):
            ProcessorConfig(engine="fortran")

    def test_requested_backend_feeds_cache_keys(self, monkeypatch):
        # The sweep cache folds the *requested* backend into point keys:
        # flipping the request must move every key (separate validation
        # of each backend's results), without building any toolchain.
        # The default (auto) request keys exactly as an explicit
        # compiled one.
        from repro.analysis.cache import point_key
        from repro.analysis.sweep import SweepConfig, SweepPoint

        sweep = SweepConfig(benchmarks=("swim",), trace_length=500)
        point = SweepPoint(benchmark="swim", policy="conv", num_registers=48)
        monkeypatch.delenv(accel.ENGINE_ENV, raising=False)
        default_key = point_key(sweep, point)
        monkeypatch.setenv(accel.ENGINE_ENV, "compiled")
        compiled_key = point_key(sweep, point)
        monkeypatch.setenv(accel.ENGINE_ENV, "python")
        python_key = point_key(sweep, point)
        assert default_key == compiled_key
        assert python_key != compiled_key
