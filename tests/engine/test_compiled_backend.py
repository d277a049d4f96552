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
        # draws from a refillable buffer of the same stream and must take
        # the same exceptions on the same commits.
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
        from repro.engine.state import MachineState
        from repro.trace.records import Trace

        if warm_length is not None:
            original = MachineState._build_warmup_trace

            def truncated(self):
                base = original(self)
                return Trace(name=base.name, focus_class=base.focus_class,
                             instructions=list(base.instructions[:warm_length]),
                             seed=base.seed)

            monkeypatch.setattr(MachineState, "_build_warmup_trace", truncated)
        reference, compiled, engine = run_both("gcc", "extended", warmup=True,
                                               trace_length=1_000)
        if warm_length is None:
            assert len(engine.state._build_warmup_trace().instructions) >= 1_000
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

    def test_ready_peak_reported(self):
        # The compiled core reports the scheduler's ready-set peak through
        # the engine (the bench probe records it); it must match Python's.
        _, _, engine = run_both("compress", "basic", lsq_size=12)
        config = ProcessorConfig(release_policy="basic", warmup=False,
                                 num_physical_int=48, num_physical_fp=48,
                                 lsq_size=12, engine="python")
        trace = get_workload("compress", TRACE_LENGTH, seed=0)
        python_engine = SimulationEngine(trace, config)
        python_engine.run()
        assert engine.compiled_ready_peak == python_engine.state.ready.peak_size


def _bit_generator_state(engine) -> dict:
    return engine.state.fetch_unit.wrongpath._rng.bit_generator.state


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
        # One bounded draw leaves the high half of a word buffered; the
        # core must start from it rather than from a fresh word.
        def advance(engine):
            engine.state.fetch_unit.wrongpath._rng.integers(0, 2)
            assert _bit_generator_state(engine)["has_uint32"] == 1

        reference, compiled, _ = run_both("gcc", "extended", prepare=advance)
        assert reference.fetched_wrong_path > 0
        assert dataclasses.asdict(compiled) == dataclasses.asdict(reference)

    def test_lemire_rejection(self):
        # A buffered half of 0 is below 2**32 % 248, so the first branch
        # delta rejects it and draws again; a wrong path made only of
        # branches takes that path at the first wrong-path fetch.
        from repro.trace.wrongpath import WrongPathMix

        def zero_half_branches_only(engine):
            generator = engine.state.fetch_unit.wrongpath
            generator.mix = WrongPathMix(branch=1.0)
            state = generator._rng.bit_generator.state
            state["has_uint32"], state["uinteger"] = 1, 0
            generator._rng.bit_generator.state = state

        reference, compiled, _ = run_both("gcc", "basic",
                                          prepare=zero_half_branches_only)
        assert reference.fetched_wrong_path > 0
        assert dataclasses.asdict(compiled) == dataclasses.asdict(reference)

    def test_tiny_raw_buffer_escapes_mid_episode(self, monkeypatch):
        # The smallest legal buffer (three words per fetch slot) makes the
        # core escape for words inside nearly every wrong-path episode.
        from repro.engine.accel import compiled as compiled_mod

        refills = []
        refill = compiled_mod._refill_wrongpath

        def counting_refill(*args):
            refills.append(1)
            return refill(*args)

        monkeypatch.setattr(compiled_mod, "WP_RAW_BUFFER",
                            3 * ProcessorConfig().fetch_width)
        monkeypatch.setattr(compiled_mod, "_refill_wrongpath",
                            counting_refill)
        reference, compiled, _ = run_both("gcc", "extended")
        assert reference.fetched_wrong_path > 0
        assert len(refills) > reference.fetched_wrong_path // 8
        assert dataclasses.asdict(compiled) == dataclasses.asdict(reference)

    @staticmethod
    def _fallback_both(prepare, reason: str):
        """Both requests run on Python, with identical stats."""
        from repro.engine.accel.compiled import unsupported_reason

        stats = {}
        for backend in ("python", "compiled"):
            config = ProcessorConfig(release_policy="extended",
                                     num_physical_int=48,
                                     num_physical_fp=48, engine=backend)
            engine = SimulationEngine(get_workload("gcc", TRACE_LENGTH,
                                                   seed=0), config)
            prepare(engine.state.fetch_unit.wrongpath)
            assert reason in unsupported_reason(engine.state)
            stats[backend] = engine.run()
            assert engine.backend_used == "python"
        assert stats["python"].fetched_wrong_path > 0
        assert dataclasses.asdict(stats["compiled"]) == \
            dataclasses.asdict(stats["python"])

    def test_pending_payloads_fall_back(self):
        # Payloads the generator already pre-drew are not in the raw
        # stream any more: such a machine must run on the Python engine.
        def predraw(generator):
            assert generator._refill() and generator._pending

        self._fallback_both(predraw, "pre-drawn")

    def test_non_contiguous_window_falls_back(self):
        def gappy(generator):
            generator._int_regs = [1, 3, 5]

        self._fallback_both(gappy, "contiguous")


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

    def test_warning_suppression_is_per_thread(self, caplog):
        # A sweep on another thread withholding its warnings must not
        # silence this thread, nor leave the suppression behind.
        import threading

        inside, release = threading.Event(), threading.Event()

        def sweep():
            with accel.suppressed_backend_warnings():
                inside.set()
                release.wait(timeout=60)
        thread = threading.Thread(target=sweep)
        thread.start()
        try:
            assert inside.wait(timeout=60)
            with caplog.at_level(logging.WARNING, logger="repro.engine.accel"):
                accel._warn_fallback("probe failed on this thread")
        finally:
            release.set()
            thread.join()
            accel.reset_backend_cache()
        assert [record.getMessage() for record in caplog.records] == \
            ["probe failed on this thread"]

    @needs_compiled
    def test_toolchain_error_under_auto_falls_back_once(self, monkeypatch,
                                                        caplog):
        # The default request on a machine whose core cannot be loaded:
        # every run resolves to the Python engine (which then owes the
        # deferred warm-up), the process logs one warning in all, and the
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
    """Warm-up is deferred into the compiled core — and still owed on
    fallback.  Config-driven, so these run without a toolchain."""

    def test_compiled_request_defers_warmup(self):
        trace = get_workload("swim", 500, seed=0)
        state = SimulationEngine(trace, ProcessorConfig(
            engine="compiled", warmup=True)).state
        assert state.warmup_pending
        # Deferred means genuinely cold: the predictor has trained on
        # nothing yet (the C core, or ensure_warm(), will do the pass).
        assert len(set(state.predictor.table)) == 1

    def test_python_engine_warms_at_construction(self):
        trace = get_workload("swim", 500, seed=0)
        state = SimulationEngine(trace, ProcessorConfig(
            engine="python", warmup=True)).state
        assert not state.warmup_pending
        assert state.predictor.predictions == 0     # stats reset after warm
        assert len(set(state.predictor.table)) > 1  # but the tables learned

    def test_out_of_envelope_config_does_not_defer(self):
        # A config the compiled core cannot run must warm up eagerly —
        # deferring would hand the Python engine a cold machine.
        from repro.engine.accel.loader import RQ_LEVELS_MAX

        trace = get_workload("swim", 500, seed=0)
        state = SimulationEngine(trace, ProcessorConfig(
            engine="compiled", warmup=True, release_policy="extended",
            max_pending_branches=RQ_LEVELS_MAX + 1)).state
        assert not state.warmup_pending

    def test_ensure_warm_runs_once(self):
        trace = get_workload("swim", 500, seed=0)
        state = SimulationEngine(trace, ProcessorConfig(
            engine="compiled", warmup=True)).state
        state.ensure_warm()
        assert not state.warmup_pending
        assert len(set(state.predictor.table)) > 1
        snapshot = list(state.predictor.table)
        state.ensure_warm()                         # idempotent
        assert list(state.predictor.table) == snapshot

    def test_broken_toolchain_still_warms_up(self, monkeypatch):
        # Warm-up deferred to a compiled backend that turns out to be
        # missing must still happen (ensure_warm before the Python
        # stepping loop): stats equal the python-engine warmup=True reference.
        monkeypatch.setenv("REPRO_ACCEL_CC", "/nonexistent/compiler-xyz")
        accel.reset_backend_cache()
        try:
            trace = get_workload("gcc", 800, seed=0)
            config = ProcessorConfig(release_policy="extended", warmup=True,
                                     engine="compiled")
            engine = SimulationEngine(trace, config)
            assert engine.state.warmup_pending
            stats = engine.run()
            assert engine.backend_used == "python"
            reference = SimulationEngine(
                trace, dataclasses.replace(config, engine="python")).run()
            assert dataclasses.asdict(stats) == dataclasses.asdict(reference)
        finally:
            accel.reset_backend_cache()

    def test_single_stepping_warms_first(self):
        # step() never reaches the compiled backend, so the deferred pass
        # must run before the first stepped cycle.
        trace = get_workload("swim", 500, seed=0)
        engine = SimulationEngine(trace, ProcessorConfig(
            engine="compiled", warmup=True))
        assert engine.state.warmup_pending
        engine.step()
        assert not engine.state.warmup_pending


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
        seen = []
        self._patch_run_compiled(monkeypatch, lambda state, _: seen.append(
            (state.config.release_policy, state.warmup_pending)))
        assert accel._self_check()
        assert sorted(seen) == sorted((policy, deferred) for policy in POLICIES
                                      for deferred in (False, True))

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
            assert engine.state.warmup_pending
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
