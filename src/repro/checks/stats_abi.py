"""Rule ``stats-abi``: the SimStats contract must agree across all four
of its definitions, and the loader must mirror the whole C ABI.

The statistics of one simulation exist in four places that have to stay
field-for-field identical — the drift class the gshare ``pred_raw``
incident came from:

1. the :class:`SimStats` / :class:`RegisterFileStats` dataclasses in
   ``src/repro/pipeline/stats.py`` (the Python ABI);
2. the ``ST_*`` / ``RF_*`` STATS-slot enums in
   ``src/repro/engine/accel/core.c`` (the C ABI);
3. the mirrored ``ST`` / ``RF`` namespaces in
   ``src/repro/engine/accel/loader.py`` (the bridge the exporter uses);
4. the stats assembly in ``src/repro/engine/accel/compiled.py``
   (``_assemble_stats`` / ``_register_file_stats``), which must populate
   *every* dataclass field from the C slots.

This checker parses all four (C with a small enum parser, Python with
``ast``) and fails on any field present in one but not the others:

* a C enum name/value that the loader namespace does not mirror exactly
  (and vice versa) — for every id enum of the ABI: the config vector
  (``CFG_*``), scalars (``SC_*``), rates (``F_*``), arrays (``A_*``)
  and the STATS slots (``ST_*`` / ``RF_*``);
* a loader constant that disagrees with its C counterpart: the sizes
  ``NCFG``, ``NF`` and ``ST_N``, the ``RNG_*`` streams, the ``RUN_*``
  statuses, ``RQ_LEVELS_MAX`` and ``ABI_MAGIC`` (the runtime magic check
  only notices the last one when the core is loaded, and then silently
  falls back);
* a SimStats field that ``_assemble_stats`` never assigns — a compiled
  run would silently return the dataclass default for it;
* an ``_assemble_stats`` assignment to a name that is no longer a
  SimStats field — dead weight that hides a rename;
* the same two directions for RegisterFileStats vs
  ``_register_file_stats``;
* a per-process self-check (``accel/__init__._self_check``) that no
  longer compares the *full* ``dataclasses.asdict`` of both runs, or no
  longer calls ``run_compiled`` (its Python reference may be memoised,
  the compiled runs never).
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.checks.base import Checker, Finding, Project, register

STATS_PY = Path("src/repro/pipeline/stats.py")
CORE_C = Path("src/repro/engine/accel/core.c")
LOADER_PY = Path("src/repro/engine/accel/loader.py")
COMPILED_PY = Path("src/repro/engine/accel/compiled.py")
ACCEL_INIT_PY = Path("src/repro/engine/accel/__init__.py")


# ----------------------------------------------------------------------
# C side
# ----------------------------------------------------------------------
_C_COMMENT_RE = re.compile(r"/\*.*?\*/", re.DOTALL)
_C_ENUM_RE = re.compile(r"enum\s*\{([^}]*)\}", re.DOTALL)
_C_DEFINE_RE = re.compile(
    r"^[ \t]*#define[ \t]+([A-Za-z_][A-Za-z0-9_]*)[ \t]+"
    r"\(?(0[xX][0-9A-Fa-f]+|\d+)[uUlL]*\)?[ \t]*$", re.MULTILINE)

#: The loader namespaces that mirror core.c's id enums, with the C prefix.
MIRRORED_ENUMS = (("CFG", "CFG_"), ("SC", "SC_"), ("F", "F_"), ("A", "A_"),
                  ("ST", "ST_"), ("RF", "RF_"))

#: Loader module constants that mirror one C enum entry or ``#define``
#: each (same name on both sides).
MIRRORED_CONSTANTS = ("NCFG", "NF", "ST_N", "RQ_LEVELS_MAX", "ABI_MAGIC",
                      "RNG_WRONGPATH", "RNG_EXC", "RUN_FINISHED",
                      "RUN_DEADLOCK", "RUN_INTERNAL")


def parse_c_enums(source: str) -> Dict[str, int]:
    """All ``NAME`` / ``NAME = <int>`` entries of every plain enum block,
    with C's implicit-increment semantics applied."""
    values: Dict[str, int] = {}
    stripped = _C_COMMENT_RE.sub("", source)
    for block in _C_ENUM_RE.findall(stripped):
        counter = 0
        for entry in block.split(","):
            entry = entry.strip()
            if not entry:
                continue
            name, _, raw_value = (part.strip() for part in entry.partition("="))
            if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name):
                continue
            if raw_value:
                try:
                    counter = int(raw_value, 0)
                except ValueError:
                    # Expression entries (e.g. derived sizes) end the
                    # reliable numbering of this block.
                    break
            values[name] = counter
            counter += 1
    return values


def parse_c_defines(source: str) -> Dict[str, int]:
    """Every object-like ``#define NAME <integer literal>``."""
    stripped = _C_COMMENT_RE.sub("", source)
    return {name: int(value, 0)
            for name, value in _C_DEFINE_RE.findall(stripped)}


# ----------------------------------------------------------------------
# Python side
# ----------------------------------------------------------------------
def dataclass_fields(tree: ast.AST, class_name: str) -> Optional[Set[str]]:
    """Names of the annotated fields of one dataclass, or None if the
    class is missing."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == class_name:
            return {stmt.target.id for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)}
    return None


def _function(tree: ast.AST, name: str) -> Optional[ast.FunctionDef]:
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return node
    return None


def _namespace_values(tree: ast.AST, name: str) -> Optional[Dict[str, int]]:
    """Keyword arguments of ``NAME = _Namespace(...)`` as a dict."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 and \
                isinstance(node.targets[0], ast.Name) and \
                node.targets[0].id == name and isinstance(node.value, ast.Call):
            out = {}
            for keyword in node.value.keywords:
                if keyword.arg and isinstance(keyword.value, ast.Constant) \
                        and isinstance(keyword.value.value, int):
                    out[keyword.arg] = keyword.value.value
            return out
    return None


def _module_int(tree: ast.AST, name: str) -> Optional[int]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 and \
                isinstance(node.targets[0], ast.Name) and \
                node.targets[0].id == name and \
                isinstance(node.value, ast.Constant) and \
                isinstance(node.value.value, int):
            return node.value.value
    return None


def assembled_stats_fields(fn: ast.FunctionDef,
                           ) -> Tuple[Set[str], Dict[str, int]]:
    """Fields populated by ``_assemble_stats``: constructor keywords of
    ``SimStats(...)`` plus every ``stats.<field> = ...`` target.

    Returns ``(names, line_of_name)`` so findings can point somewhere.
    """
    names: Set[str] = set()
    lines: Dict[str, int] = {}
    for node in ast.walk(fn):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "SimStats":
            for keyword in node.keywords:
                if keyword.arg:
                    names.add(keyword.arg)
                    lines[keyword.arg] = node.lineno
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Attribute) and \
                        isinstance(target.value, ast.Name) and \
                        target.value.id == "stats":
                    names.add(target.attr)
                    lines[target.attr] = target.lineno
    return names, lines


def constructor_keywords(fn: ast.FunctionDef, class_name: str) -> Set[str]:
    out: Set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == class_name:
            out.update(k.arg for k in node.keywords if k.arg)
    return out


# ----------------------------------------------------------------------
@register
class StatsABIChecker(Checker):
    rule = "stats-abi"
    description = ("C ABI drift between core.c and the loader mirror, and "
                   "SimStats drift between the Python dataclass, the C "
                   "STATS enum and the compiled-stats assembly")

    def run(self, project: Project) -> Iterable[Finding]:
        findings: List[Finding] = []
        inputs = {}
        for label, rel in (("stats", STATS_PY), ("loader", LOADER_PY),
                           ("compiled", COMPILED_PY),
                           ("accel_init", ACCEL_INIT_PY)):
            tree, error = project.ast_for(project.root / rel)
            if tree is None:
                findings.append(Finding(self.rule, rel.as_posix(), 0,
                                        f"cannot analyse file: {error}"))
                return findings
            inputs[label] = tree
        core_source = project.read_text(project.root / CORE_C)
        if core_source is None:
            findings.append(Finding(self.rule, CORE_C.as_posix(), 0,
                                    "cannot read the C core source"))
            return findings

        findings.extend(self._check_c_vs_loader(core_source, inputs["loader"]))
        findings.extend(self._check_python_assembly(
            inputs["stats"], inputs["compiled"]))
        findings.extend(self._check_self_check(inputs["accel_init"]))
        return findings

    # ------------------------------------------------------------------
    def _check_c_vs_loader(self, core_source: str,
                           loader_tree: ast.AST) -> List[Finding]:
        findings: List[Finding] = []
        c_enums = parse_c_enums(core_source)
        for namespace, prefix in MIRRORED_ENUMS:
            loader_values = _namespace_values(loader_tree, namespace)
            if loader_values is None:
                findings.append(Finding(
                    self.rule, LOADER_PY.as_posix(), 0,
                    f"loader.py no longer defines the {namespace} "
                    f"namespace mirroring core.c's {prefix}* enum"))
                continue
            c_values = {name[len(prefix):]: value
                        for name, value in c_enums.items()
                        if name.startswith(prefix)
                        and name not in MIRRORED_CONSTANTS}
            for name in sorted(set(c_values) | set(loader_values)):
                c_val = c_values.get(name)
                py_val = loader_values.get(name)
                if c_val is None:
                    findings.append(Finding(
                        self.rule, CORE_C.as_posix(), 0,
                        f"loader.py {namespace}.{name}={py_val} has no "
                        f"{prefix}{name} entry in core.c's {prefix}* enum"))
                elif py_val is None:
                    findings.append(Finding(
                        self.rule, LOADER_PY.as_posix(), 0,
                        f"core.c defines {prefix}{name}={c_val} but "
                        f"loader.py's {namespace} namespace does not "
                        f"mirror it"))
                elif c_val != py_val:
                    findings.append(Finding(
                        self.rule, LOADER_PY.as_posix(), 0,
                        f"slot value drift: core.c {prefix}{name}={c_val} "
                        f"vs loader.py {namespace}.{name}={py_val}"))
        c_constants = {**c_enums, **parse_c_defines(core_source)}
        for name in MIRRORED_CONSTANTS:
            c_val = c_constants.get(name)
            py_val = _module_int(loader_tree, name)
            if c_val != py_val:
                findings.append(Finding(
                    self.rule, LOADER_PY.as_posix(), 0,
                    f"constant drift: core.c {name}={c_val} vs "
                    f"loader.py {name}={py_val}"))
        return findings

    # ------------------------------------------------------------------
    def _check_python_assembly(self, stats_tree: ast.AST,
                               compiled_tree: ast.AST) -> List[Finding]:
        findings: List[Finding] = []
        sim_fields = dataclass_fields(stats_tree, "SimStats")
        rf_fields = dataclass_fields(stats_tree, "RegisterFileStats")
        if sim_fields is None or rf_fields is None:
            findings.append(Finding(
                self.rule, STATS_PY.as_posix(), 0,
                "stats.py no longer defines SimStats/RegisterFileStats"))
            return findings

        assemble = _function(compiled_tree, "_assemble_stats")
        if assemble is None:
            findings.append(Finding(
                self.rule, COMPILED_PY.as_posix(), 0,
                "compiled.py no longer defines _assemble_stats"))
        else:
            assembled, lines = assembled_stats_fields(assemble)
            for name in sorted(sim_fields - assembled):
                findings.append(Finding(
                    self.rule, COMPILED_PY.as_posix(), assemble.lineno,
                    f"SimStats field {name!r} is never assigned by "
                    f"_assemble_stats — compiled runs would silently "
                    f"report its dataclass default"))
            for name in sorted(assembled - sim_fields):
                findings.append(Finding(
                    self.rule, COMPILED_PY.as_posix(),
                    lines.get(name, assemble.lineno),
                    f"_assemble_stats populates {name!r}, which is not a "
                    f"SimStats field — stale assembly after a rename or "
                    f"removal"))

        rf_fn = _function(compiled_tree, "_register_file_stats")
        if rf_fn is None:
            findings.append(Finding(
                self.rule, COMPILED_PY.as_posix(), 0,
                "compiled.py no longer defines _register_file_stats"))
        else:
            kwargs = constructor_keywords(rf_fn, "RegisterFileStats")
            for name in sorted(rf_fields - kwargs):
                findings.append(Finding(
                    self.rule, COMPILED_PY.as_posix(), rf_fn.lineno,
                    f"RegisterFileStats field {name!r} is never passed by "
                    f"_register_file_stats — compiled runs would silently "
                    f"report its dataclass default"))
            for name in sorted(kwargs - rf_fields):
                findings.append(Finding(
                    self.rule, COMPILED_PY.as_posix(), rf_fn.lineno,
                    f"_register_file_stats passes {name!r}, which is not "
                    f"a RegisterFileStats field"))
        return findings

    # ------------------------------------------------------------------
    def _check_self_check(self, accel_tree: ast.AST) -> List[Finding]:
        """The per-process divergence gate must run the compiled core and
        compare full asdict()s."""
        fn = _function(accel_tree, "_self_check")
        if fn is None:
            return [Finding(
                self.rule, ACCEL_INIT_PY.as_posix(), 0,
                "accel/__init__.py no longer defines _self_check — the "
                "per-process compiled-vs-Python divergence gate is gone")]
        nodes = list(ast.walk(fn))
        names = {getattr(node, "attr", getattr(node, "id", None))
                 for node in nodes}
        calls = {getattr(node.func, "attr", getattr(node.func, "id", None))
                 for node in nodes if isinstance(node, ast.Call)}
        findings = []
        if "asdict" not in names:
            findings.append(Finding(
                self.rule, ACCEL_INIT_PY.as_posix(), fn.lineno,
                "_self_check no longer compares dataclasses.asdict() of "
                "both runs — a partial comparison list can hide stats "
                "drift"))
        if "run_compiled" not in calls:
            findings.append(Finding(
                self.rule, ACCEL_INIT_PY.as_posix(), fn.lineno,
                "_self_check no longer calls run_compiled — without a "
                "compiled run in every process, a memoised verdict could "
                "stand in for the divergence gate"))
        return findings
