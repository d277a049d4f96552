"""Tests for the repro-experiments command-line runner."""

import pytest

from repro.experiments.runner import EXPERIMENTS, main, run_experiment


class TestRegistry:
    def test_every_paper_artifact_registered(self):
        expected = {"table1", "figure2", "figure3", "figure9", "figure10",
                    "figure11", "table4", "section33", "section44",
                    "scenarios", "scenario_occupancy"}
        assert set(EXPERIMENTS) == expected

    def test_run_experiment_unknown_name(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            run_experiment("figure99")

    def test_run_analytical_experiment(self):
        result = run_experiment("table1")
        assert "MIPS R10K" in result.format()

    def test_run_simulation_experiment_quick(self):
        result = run_experiment("figure10", trace_length=1200)
        assert result.ipc("swim", "conv") > 0


class TestCLI:
    def test_analytical_experiments_via_cli(self, capsys):
        assert main(["table1", "figure9", "section44"]) == 0
        output = capsys.readouterr().out
        assert "Table 1" in output and "Figure 9a" in output

    def test_unknown_experiment_exits_with_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["not-an-experiment"])

    def test_simulation_experiment_via_cli(self, capsys):
        assert main(["figure10", "--trace-length", "1200", "--no-cache"]) == 0
        output = capsys.readouterr().out
        assert "Figure 10" in output

    def test_cached_rerun_matches_and_reuses_results(self, capsys, tmp_path):
        args = ["figure10", "--trace-length", "1200",
                "--cache-dir", str(tmp_path)]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert any(tmp_path.rglob("*.pkl"))       # results were persisted
        assert main(args) == 0
        second = capsys.readouterr().out
        # identical artefact from the cache (timing line differs)
        strip = lambda out: [line for line in out.splitlines()
                             if not line.startswith("figure10")]
        assert strip(first) == strip(second)

    def test_header_names_backend_and_point_counts(self, capsys, tmp_path):
        from repro.engine import accel
        from repro.pipeline.config import ProcessorConfig

        args = ["figure3", "--trace-length", "600",
                "--cache-dir", str(tmp_path)]

        def header():
            return [line for line in capsys.readouterr().out.splitlines()
                    if line.startswith("figure3 ")][0]
        assert main(args) == 0
        backend = accel.resolve_engine_backend(ProcessorConfig())
        # Figure 3: ten benchmarks under conv at one size.
        assert header().endswith(f"[{backend}: 10 simulated, 0 cached]")
        # Re-run: every point comes from the result cache.
        assert main(args) == 0
        assert header().endswith("[cached: 0 simulated, 10 cached]")

    def test_table4_provenance_comes_from_its_figure11_sweep(self):
        from types import SimpleNamespace

        from repro.analysis.sweep import SweepConfig, SweepResult
        from repro.experiments.runner import provenance

        sweep = SweepResult(SweepConfig(benchmarks=("swim",)), {},
                            simulated=3, cached=5, backend="mixed")
        table4 = SimpleNamespace(figure11=SimpleNamespace(sweep=sweep))
        assert provenance(table4) == "[mixed: 3 simulated, 5 cached]"

    def test_analytical_header_has_no_provenance(self, capsys):
        assert main(["table1"]) == 0
        header = [line for line in capsys.readouterr().out.splitlines()
                  if line.startswith("table1 ")][0]
        assert "[" not in header

    def test_all_expands(self, capsys):
        # Only check argument handling (run with an unknown flag combination
        # would be slow); 'all' with a tiny trace length is exercised by the
        # benchmark suite instead.
        with pytest.raises(SystemExit):
            main([])


class TestScenarioCLI:
    CONFIG = """{
      "scenarios": [{
        "name": "cli_user_scn",
        "suite": "int",
        "phase_length": 600,
        "phases": [{"kernel": "int_compute",
                    "params": {"pc_base": 3276800, "data_base": 52428800,
                               "chain_len": 2, "trip_count": 32}}]
      }]
    }"""

    @pytest.fixture
    def config_path(self, tmp_path):
        path = tmp_path / "user_scenarios.json"
        path.write_text(self.CONFIG)
        return path

    @pytest.fixture(autouse=True)
    def _clean_registry(self):
        yield
        from repro.trace.workloads import SCENARIOS, unregister_scenario
        if "cli_user_scn" in SCENARIOS:
            unregister_scenario("cli_user_scn")

    def test_scenario_file_flows_into_grid_and_occupancy(self, capsys,
                                                         config_path):
        # The quick-PR CI job runs this same pipeline end to end.
        assert main(["scenarios", "scenario_occupancy",
                     "--scenario-file", str(config_path),
                     "--scenarios", "cli_user_scn",
                     "--trace-length", "1200", "--no-cache"]) == 0
        output = capsys.readouterr().out
        assert "registered scenarios from" in output
        assert "cli_user_scn" in output
        assert "Scenario occupancy: cli_user_scn" in output

    def test_unknown_scenario_filter_raises(self, config_path):
        with pytest.raises(ValueError, match="unknown scenarios"):
            main(["scenarios", "--scenarios", "cli_user_scm",
                  "--scenario-file", str(config_path),
                  "--trace-length", "1000", "--no-cache"])

    def test_broken_scenario_file_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"scenarios": [{"name": "x"}]}')
        with pytest.raises(SystemExit):
            main(["scenarios", "--scenario-file", str(path)])
        assert "--scenario-file" in capsys.readouterr().err
