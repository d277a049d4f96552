"""Smoke test: every script under ``examples/`` runs to completion.

Each script runs in-process through ``runpy`` with a patched ``sys.argv``
on short traces, with the sweep result cache rooted in a temporary
directory.
"""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"

#: Script -> command-line arguments (short traces keep each run quick).
ARGUMENTS = {
    "quickstart.py": ["swim", "48", "600"],
    "processor_survey.py": [],
    "register_pressure_study.py": ["tomcatv", "600"],
    "design_space_exploration.py": ["fp", "80", "600"],
}


def test_every_example_is_listed():
    assert sorted(path.name for path in EXAMPLES.glob("*.py")) == \
        sorted(ARGUMENTS)


@pytest.mark.parametrize("script", sorted(ARGUMENTS))
def test_example_runs(script, monkeypatch, tmp_path, capsys):
    path = EXAMPLES / script
    monkeypatch.setenv("REPRO_SWEEP_CACHE", str(tmp_path / "sweeps"))
    monkeypatch.setattr(sys, "argv", [str(path), *ARGUMENTS[script]])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(path), run_name="__main__")
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.strip()
