"""Tests for the same-host A/B summary and gate (`scripts/ab.py`), on
synthetic samples: no benchmark runs."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


def load_ab_module():
    spec = importlib.util.spec_from_file_location(
        "ab_script", REPO_ROOT / "scripts" / "ab.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("ab_script", module)
    spec.loader.exec_module(module)
    return module


ab = load_ab_module()

WALL = {"name": "wall_ref_s", "better": "lower", "bound": 0.2}
END_TO_END = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())["end_to_end"]
RATE = {"name": "req_per_ref_s", "better": "higher", "bound": 0.2}


def runs(name, values):
    return [{name: value} for value in values]


def test_quartiles():
    assert ab.quartiles([5.0]) == (5.0, 5.0, 5.0)
    assert ab.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)


def test_lower_is_better_gain():
    base = runs("wall_ref_s", [3.2, 3.3, 3.1, 3.25, 3.2])
    head = runs("wall_ref_s", [2.4, 2.3, 3.4, 2.35, 2.4])
    (row,) = ab.summarize(base, head, [WALL])
    assert row["base"][1] == 3.2 and row["head"][1] == 2.4
    assert row["ratio"] == pytest.approx(0.75)
    assert (row["wins"], row["pairs"]) == (4, 5)    # pair 3 lost
    assert row["bound_ok"] and row["beyond_iqr"]


def test_higher_is_better_regression_beyond_bound():
    base = runs("req_per_ref_s", [100.0, 101.0, 99.0])
    head = runs("req_per_ref_s", [70.0, 75.0, 72.0])
    (row,) = ab.summarize(base, head, [RATE])
    assert row["wins"] == 0
    assert not row["bound_ok"]                      # 28 % worse > 20 %


def test_change_within_the_base_spread_is_not_beyond_iqr():
    base = runs("wall_ref_s", [3.0, 3.4, 3.2, 2.8, 3.6])
    head = runs("wall_ref_s", [3.1, 3.3, 3.15, 2.9, 3.5])
    (row,) = ab.summarize(base, head, [WALL])
    assert row["bound_ok"] and not row["beyond_iqr"]


def test_zero_base_median():
    gap = {"name": "paper_gap_pp", "better": "lower", "bound": 0.1}
    (same,) = ab.summarize(runs("paper_gap_pp", [0.0, 0.0]),
                           runs("paper_gap_pp", [0.0, 0.0]), [gap])
    assert same["ratio"] == 1.0 and same["bound_ok"]
    (worse,) = ab.summarize(runs("paper_gap_pp", [0.0, 0.0]),
                            runs("paper_gap_pp", [1.0, 1.0]), [gap])
    assert not worse["bound_ok"]


def test_failed_runs_counts_crashes_and_failed_operations():
    assert ab.failed_runs([{"failed": 0}, {"failed": 2}, None]) == 2


def test_format_lists_every_metric():
    rows = ab.summarize(runs("wall_ref_s", [3.0, 3.1]),
                        runs("wall_ref_s", [2.0, 2.1]), [WALL])
    text = ab.format_rows(rows)
    assert "wall_ref_s" in text and "2/2" in text and "ok" in text


class FakeRuns:
    """Stands in for ``run_once``: serves each side's ``wall_ref_s``
    samples in order (every other end-to-end metric reads 1.0), and
    ``None`` for a sample that is ``None`` (a crashed run)."""

    def __init__(self, base, head, failed=0):
        self.samples = {"base": list(base), "head": list(head)}
        self.failed = failed

    def __call__(self, tree, command, workload, seed, seconds):
        if seconds == ab.WARMUP_SECONDS:
            return None
        side = "head" if tree == ab.REPO_ROOT else "base"
        wall = self.samples[side].pop(0)
        if wall is None:
            return None
        metrics = {metric["name"]: {"value": 1.0} for metric in END_TO_END}
        metrics["wall_ref_s"] = {"value": wall}
        return {"failed": self.failed if side == "head" else 0,
                "metrics": metrics}


def run_gate(monkeypatch, tmp_path, fake, byte_compile=lambda tree: None):
    monkeypatch.setattr(ab, "extract", lambda rev, into: None)
    monkeypatch.setattr(ab, "byte_compile", byte_compile)
    monkeypatch.setattr(ab, "run_once", fake)
    return ab.main(["HEAD", "--pairs", "5", "--workload", "paper-artefacts",
                    "--json", str(tmp_path / "ab.json")])


def test_main_passes_an_unchanged_tree(monkeypatch, tmp_path, capsys):
    samples = [1.0, 1.01, 0.99, 1.0, 1.02]
    assert run_gate(monkeypatch, tmp_path, FakeRuns(samples, samples)) == 0
    assert "WORSE" not in capsys.readouterr().out
    report = json.loads((tmp_path / "ab.json").read_text())
    (summary,) = report["workloads"].values()
    assert {row["verdict"] for row in summary["summary"]} == {"ok"}


def test_main_fails_beyond_the_bound_and_the_iqr(monkeypatch, tmp_path,
                                                 capsys):
    fake = FakeRuns([1.0, 1.01, 0.99, 1.0, 1.02], [1.5] * 5)
    assert run_gate(monkeypatch, tmp_path, fake) == 1
    captured = capsys.readouterr()
    assert "WORSE" in captured.out
    assert "paper-artefacts: wall_ref_s" in captured.err


def test_main_reports_unresolved_within_the_iqr(monkeypatch, tmp_path,
                                                capsys):
    fake = FakeRuns([0.6, 1.4, 1.0, 0.7, 1.3], [1.25] * 5)
    assert run_gate(monkeypatch, tmp_path, fake) == 0
    assert "unresolved" in capsys.readouterr().out


@pytest.mark.parametrize("head, failed", [
    ([1.0, None, 1.0, 1.0, 1.0], 0),      # a crashed run
    ([1.0] * 5, 1),                       # a run with failed operations
], ids=["crash", "failed-operations"])
def test_main_fails_on_a_failed_run(monkeypatch, tmp_path, head, failed):
    fake = FakeRuns([1.0] * 5, head, failed=failed)
    assert run_gate(monkeypatch, tmp_path, fake) == 1


def test_main_byte_compiles_both_trees_before_any_run(monkeypatch, tmp_path):
    events = []
    fake = FakeRuns([1.0] * 5, [1.0] * 5)

    def recording_run(tree, *args):
        events.append(("run", tree))
        return fake(tree, *args)

    assert run_gate(monkeypatch, tmp_path, recording_run,
                    lambda tree: events.append(("compile", tree))) == 0
    compiled = [tree for kind, tree in events[:2] if kind == "compile"]
    assert len(compiled) == 2 and ab.REPO_ROOT in compiled
    assert all(kind == "run" for kind, _ in events[2:])


def test_byte_compile_writes_bytecode_for_src_and_perfbench(tmp_path):
    for package in ("src", "perfbench"):
        (tmp_path / package).mkdir()
        (tmp_path / package / "module.py").write_text("VALUE = 1\n")
    ab.byte_compile(tmp_path)
    for package in ("src", "perfbench"):
        assert list((tmp_path / package / "__pycache__").glob("module.*.pyc"))
