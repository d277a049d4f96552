"""Oracle outcomes: pass paths, and every skip path recorded — never a
silent pass."""

import dataclasses

import pytest

import repro.engine.accel as accel
import repro.fuzz.oracles as oracles_mod
import repro.trace.workloads as workloads_mod
from repro.fuzz.oracles import (DEFAULT_ORACLES, ORACLES, SampleContext,
                                ephemeral_scenario, resolve_oracle_names,
                                run_oracle)
from repro.fuzz.runner import run_fuzz
from repro.fuzz.sampling import sample
from repro.pipeline.config import ProcessorConfig
from repro.trace.workloads import has_workload


@pytest.fixture(scope="module")
def good_sample():
    """One sampled point known to pass every oracle (seeded)."""
    return sample(20260808, 0)


class TestPassPaths:
    def test_all_oracles_pass_on_good_sample(self, good_sample):
        ctx = SampleContext(good_sample)
        for name in DEFAULT_ORACLES:
            outcome = run_oracle(name, good_sample, ctx)
            assert outcome.status in ("pass", "skip"), \
                f"{name}: {outcome.detail}"
            # Only the backend oracle may legitimately skip here (no C
            # toolchain on the host); the other two must pass.
            if name != "backend":
                assert outcome.status == "pass", f"{name}: {outcome.detail}"

    def test_context_shares_python_run(self, good_sample):
        ctx = SampleContext(good_sample)
        stats_first = ctx.python_stats()
        run_oracle("conservation", good_sample, ctx)
        assert ctx.python_stats() is stats_first


class TestGenerationFailures:
    """The generation oracle compares one iteration per chunk with the
    default chunking; a chunking-dependent emitter must fail it."""

    def test_extra_draw_in_big_chunks_is_a_state_failure(self, good_sample,
                                                         monkeypatch):
        real_emit_until = workloads_mod._emit_until

        def emit_until(kernel, rng, sink, target, chunk_iterations=None):
            real_emit_until(kernel, rng, sink, target, chunk_iterations)
            if chunk_iterations is None and target == good_sample.trace_length:
                rng.bit_generator.random_raw()     # after the last segment

        monkeypatch.setattr(workloads_mod, "_emit_until", emit_until)
        outcome = run_oracle("generation", good_sample)
        assert outcome.status == "fail"
        assert "bit-generator state diverges" in outcome.detail

    def test_column_divergence_names_the_column(self, good_sample,
                                                monkeypatch):
        real_emit_until = workloads_mod._emit_until

        def emit_until(kernel, rng, sink, target, chunk_iterations=None):
            real_emit_until(kernel, rng, sink, target, chunk_iterations)
            if chunk_iterations is None and sink.addrs:
                sink.addrs[-1] += 8

        monkeypatch.setattr(workloads_mod, "_emit_until", emit_until)
        outcome = run_oracle("generation", good_sample)
        assert outcome.status == "fail"
        assert "column 'addr' diverges" in outcome.detail


class TestBackendSkips:
    def test_unsupported_config_skips_with_reason(self, good_sample):
        config = dataclasses.replace(good_sample.config,
                                     release_policy="extended",
                                     max_pending_branches=300)
        unsupported = dataclasses.replace(good_sample, config=config)
        outcome = run_oracle("backend", unsupported)
        assert outcome.status == "skip"
        assert "max_pending_branches" in outcome.detail

    def test_toolchain_fallback_skips_with_reason(self, good_sample,
                                                  monkeypatch):
        monkeypatch.setattr(accel, "resolve_engine_backend",
                            lambda config=None: "python")
        monkeypatch.setattr(accel, "backend_fallback_reason",
                            lambda: "no C compiler found")
        outcome = run_oracle("backend", good_sample)
        assert outcome.status == "skip"
        assert "no C compiler found" in outcome.detail


class TestFailurePaths:
    def test_engine_exception_is_conservation_failure(self, good_sample,
                                                      monkeypatch):
        def explode(self):
            raise RuntimeError("injected engine fault")

        monkeypatch.setattr(oracles_mod.SimulationEngine, "run", explode)
        outcome = run_oracle("conservation", good_sample)
        assert outcome.status == "fail"
        assert "injected engine fault" in outcome.detail

    @pytest.mark.skipif(
        accel.resolve_engine_backend(ProcessorConfig(engine="compiled"))
        != "compiled",
        reason="no C toolchain for the compiled engine backend")
    def test_stats_divergence_reported_by_field(self, good_sample,
                                                monkeypatch):
        real_run = oracles_mod.SimulationEngine.run

        def skewed_run(self):
            stats = real_run(self)
            if self.backend_used == "python":
                return dataclasses.replace(stats, cycles=stats.cycles + 1)
            return stats

        monkeypatch.setattr(oracles_mod.SimulationEngine, "run", skewed_run)
        outcome = run_oracle("backend", good_sample)
        assert outcome.status == "fail"
        assert "cycles" in outcome.detail


class TestSkipsAreCounted:
    """Satellite: skipped oracles must appear as counts in the report."""

    def test_report_counts_backend_fallback_skips(self, monkeypatch):
        monkeypatch.setattr(accel, "resolve_engine_backend",
                            lambda config=None: "python")
        monkeypatch.setattr(accel, "backend_fallback_reason",
                            lambda: "probe compile failed")
        report = run_fuzz(5, samples=2, oracles=("backend",))
        assert report.outcomes["backend"]["skip"] == 2
        reasons = report.skip_reasons["backend"]
        assert any("probe compile failed" in reason for reason in reasons)

    def test_summary_mentions_top_skip_reason(self, monkeypatch):
        monkeypatch.setattr(accel, "resolve_engine_backend",
                            lambda config=None: "python")
        monkeypatch.setattr(accel, "backend_fallback_reason",
                            lambda: "probe compile failed")
        report = run_fuzz(5, samples=2, oracles=("backend",))
        assert "probe compile failed" in report.summary()


class TestOracleSelection:
    def test_default_selection(self):
        assert resolve_oracle_names(None) == DEFAULT_ORACLES
        assert set(DEFAULT_ORACLES) == set(ORACLES)

    def test_unknown_oracle_lists_known_sorted(self):
        with pytest.raises(ValueError) as err:
            resolve_oracle_names(("nope",))
        assert ", ".join(sorted(ORACLES)) in str(err.value)

    def test_empty_selection_rejected(self):
        with pytest.raises(ValueError, match="empty oracle selection"):
            resolve_oracle_names(())


class TestEphemeralScenario:
    def test_profile_resolvable_only_inside_block(self, good_sample):
        name = good_sample.scenario.name
        assert not has_workload(name)
        with ephemeral_scenario(good_sample.scenario):
            assert has_workload(name)
        assert not has_workload(name)

    def test_cleanup_survives_exceptions(self, good_sample):
        name = good_sample.scenario.name
        with pytest.raises(RuntimeError):
            with ephemeral_scenario(good_sample.scenario):
                raise RuntimeError("boom")
        assert not has_workload(name)
