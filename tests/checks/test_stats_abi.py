"""The stats-abi rule: mutation tests against copies of the real files.

Each test copies the genuine five-file ABI surface into a scratch
project, deletes or perturbs exactly one element, and asserts the
checker reports it — proving the cross-check actually covers the drift
class it claims to (not just that the live tree happens to be clean).
"""

from __future__ import annotations

import pytest

from repro.checks.base import Project, find_project_root, run_checks
from repro.checks.stats_abi import parse_c_defines, parse_c_enums

from lint_helpers import mutate

STATS = "src/repro/pipeline/stats.py"
CORE_C = "src/repro/engine/accel/core.c"
LOADER = "src/repro/engine/accel/loader.py"
COMPILED = "src/repro/engine/accel/compiled.py"
ACCEL_INIT = "src/repro/engine/accel/__init__.py"


def _run(root):
    return run_checks(Project(root), rules=["stats-abi"]).findings


def test_live_tree_abi_is_consistent(real_tree_copy):
    assert _run(real_tree_copy) == []


def test_deleting_a_simstats_field_is_reported(real_tree_copy):
    mutate(real_tree_copy, STATS,
           "    squashed_instructions: int = 0\n", "")
    found = _run(real_tree_copy)
    assert any("'squashed_instructions'" in f.message
               and "not a SimStats field" in f.message for f in found)


def test_dropping_an_assembly_assignment_is_reported(real_tree_copy):
    mutate(real_tree_copy, COMPILED,
           "    stats.squashed_instructions = int(st[ST.SQUASHED])\n", "")
    found = _run(real_tree_copy)
    assert any("'squashed_instructions'" in f.message
               and "never assigned" in f.message for f in found)


def test_renaming_a_simstats_field_reports_both_directions(real_tree_copy):
    mutate(real_tree_copy, STATS,
           "    squashed_instructions: int = 0\n",
           "    squashed_uops: int = 0\n")
    messages = [f.message for f in _run(real_tree_copy)]
    assert any("'squashed_uops'" in m and "never assigned" in m
               for m in messages)
    assert any("'squashed_instructions'" in m and "not a SimStats field" in m
               for m in messages)


def test_c_enum_value_drift_is_reported(real_tree_copy):
    mutate(real_tree_copy, CORE_C,
           "ST_RF_INT = 34", "ST_RF_INT = 35")
    found = _run(real_tree_copy)
    assert any("slot value drift" in f.message and "RF_INT" in f.message
               for f in found)


def test_loader_missing_mirror_is_reported(real_tree_copy):
    mutate(real_tree_copy, LOADER, "SQUASHED=15, ", "")
    found = _run(real_tree_copy)
    assert any("ST_SQUASHED" in f.message and "mirror" in f.message
               for f in found)


def test_st_n_drift_is_reported(real_tree_copy):
    mutate(real_tree_copy, LOADER, "ST_N = 56", "ST_N = 57")
    found = _run(real_tree_copy)
    assert any("ST_N" in f.message for f in found)


@pytest.mark.parametrize("rel, old, new, expected", [
    # one drift per mirrored id enum, in either file
    (CORE_C, "CFG_TRACE_ROWS = 60, CFG_WARM_ROWS = 61,",
     "CFG_TRACE_ROWS = 61, CFG_WARM_ROWS = 62,", "CFG_TRACE_ROWS"),
    (LOADER, "GS_HISTORY=10, ", "GS_HISTORY=11, ", "SC_GS_HISTORY"),
    (CORE_C, "F_EXC_RATE = 0, F_WP_BRANCH,", "F_EXC_RATE = 0, F_WP_BRNCH,",
     "F_WP_BRANCH"),
    (LOADER, "T_ROWS=9, T_ADDR=10,", "T_ADDR=10,", "A_T_ROWS"),
])
def test_id_enum_drift_is_reported(real_tree_copy, rel, old, new, expected):
    mutate(real_tree_copy, rel, old, new)
    found = _run(real_tree_copy)
    assert any(expected in f.message for f in found)


@pytest.mark.parametrize("rel, old, new, expected", [
    (LOADER, "NCFG = 62", "NCFG = 60", "NCFG"),
    (CORE_C, "#define ABI_MAGIC 0x52503803LL", "#define ABI_MAGIC 0x52503804LL",
     "ABI_MAGIC"),
    (LOADER, "RUN_INTERNAL = 4", "RUN_INTERNAL = 5", "RUN_INTERNAL"),
    (CORE_C, "#define RQ_LEVELS_MAX 256", "#define RQ_LEVELS_MAX 128",
     "RQ_LEVELS_MAX"),
])
def test_constant_drift_is_reported(real_tree_copy, rel, old, new, expected):
    mutate(real_tree_copy, rel, old, new)
    found = _run(real_tree_copy)
    assert any("constant drift" in f.message and expected in f.message
               for f in found)


def test_rf_constructor_keyword_drop_is_reported(real_tree_copy):
    mutate(real_tree_copy, COMPILED,
           "        early_releases=int(rf[RF.EARLY]),\n", "")
    found = _run(real_tree_copy)
    assert any("'early_releases'" in f.message and "never passed" in f.message
               for f in found)


def test_gutted_self_check_is_reported(real_tree_copy):
    path = real_tree_copy / ACCEL_INIT
    text = path.read_text(encoding="utf-8")
    assert "asdict" in text
    path.write_text(text.replace("asdict", "as_dict_gone"), encoding="utf-8")
    found = _run(real_tree_copy)
    assert any("_self_check" in f.message for f in found)


def test_self_check_without_compiled_runs_is_reported(real_tree_copy):
    # A memoised verdict must never stand in for the compiled runs.
    mutate(real_tree_copy, ACCEL_INIT,
           "compiled = run_compiled(start)",
           "compiled = memoised_verdict(start)")
    found = _run(real_tree_copy)
    assert any("_self_check" in f.message and "run_compiled" in f.message
               for f in found)


def test_c_enum_parser_semantics():
    source = """
    enum { A = 3, B, C };
    enum { /* comment, with = and } text */ D, E = 0x10, F };
    """
    assert parse_c_enums(source) == {
        "A": 3, "B": 4, "C": 5, "D": 0, "E": 16, "F": 17}


def test_c_define_parser_reads_integer_literals_only():
    source = """
    #define MAGIC 0x5250LL   /* with a suffix and a comment */
    #define DEPTH (256)
    #define IS_LOAD(op) ((op) == 5)
    #define MASK FOO | BAR
    """
    assert parse_c_defines(source) == {"MAGIC": 0x5250, "DEPTH": 256}


def test_real_core_enum_matches_known_anchors():
    core = (find_project_root() / CORE_C).read_text(encoding="utf-8")
    enums = parse_c_enums(core)
    assert enums["ST_COMMITTED"] == 0
    assert enums["ST_RF_INT"] == 34
    assert enums["ST_RF_FP"] == 45
    assert enums["ST_N"] == 56
