"""The except-swallow rule: broad handlers must handle what they catch."""

from __future__ import annotations

from repro.checks.base import run_checks

from lint_helpers import make_project


def _findings(tmp_path, text):
    project = make_project(tmp_path, {"src/repro/serve/fixture.py": text})
    return run_checks(project, rules=["except-swallow"]).findings


def test_silent_pass_flagged(tmp_path):
    found = _findings(tmp_path,
                      "try:\n"
                      "    risky()\n"
                      "except Exception:\n"
                      "    pass\n")
    assert len(found) == 1
    assert "swallows" in found[0].message


def test_bare_except_and_base_exception_flagged(tmp_path):
    found = _findings(tmp_path,
                      "def a():\n"
                      "    try:\n"
                      "        risky()\n"
                      "    except:\n"
                      "        return None\n"
                      "def b():\n"
                      "    try:\n"
                      "        risky()\n"
                      "    except BaseException:\n"
                      "        return None\n")
    assert len(found) == 2


def test_broad_type_inside_tuple_flagged(tmp_path):
    found = _findings(tmp_path,
                      "try:\n"
                      "    risky()\n"
                      "except (ValueError, Exception):\n"
                      "    pass\n")
    assert len(found) == 1


def test_reraise_is_clean(tmp_path):
    assert _findings(tmp_path,
                     "try:\n"
                     "    risky()\n"
                     "except Exception as exc:\n"
                     "    raise RuntimeError('wrapped') from exc\n") == []


def test_logging_is_clean(tmp_path):
    assert _findings(tmp_path,
                     "import logging\n"
                     "log = logging.getLogger(__name__)\n"
                     "try:\n"
                     "    risky()\n"
                     "except Exception:\n"
                     "    log.warning('probe failed, falling back')\n") == []


def test_structured_context_reference_is_clean(tmp_path):
    """Attaching the exception to a structured response counts as
    handling it — the serve/ handlers' pattern."""
    assert _findings(tmp_path,
                     "def handler():\n"
                     "    try:\n"
                     "        return work()\n"
                     "    except Exception as exc:\n"
                     "        return {'error': type(exc).__name__, "
                     "'detail': str(exc)}\n") == []


def test_specific_exception_types_out_of_scope(tmp_path):
    assert _findings(tmp_path,
                     "try:\n"
                     "    risky()\n"
                     "except (KeyError, ValueError):\n"
                     "    pass\n") == []


def test_live_tree_has_no_swallowed_exceptions():
    """No broad swallow in the tree, suppressed or not: a new one must
    come with a reason and an update here."""
    from repro.checks.base import Project, find_project_root

    result = run_checks(Project(find_project_root()),
                        rules=["except-swallow"])
    assert result.findings == []
    assert result.suppressed == []
