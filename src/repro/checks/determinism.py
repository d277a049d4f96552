"""Rule ``determinism``: no unseeded randomness, clocks or set iteration
inside the deterministic simulation subtree.

Every simulation result in this repository is a pure function of
``(workload, config, trace length, seed)`` — the sweep cache, the
compiled-backend self-check and the differential fuzzer all assume it.
This checker walks the subtree that must uphold that contract
(:data:`DETERMINISTIC_DIRS`) and flags the three classic ways the
contract breaks:

* draws from a process-global RNG (``random.random()``,
  ``np.random.rand()``, an argument-less ``np.random.default_rng()``)
  instead of an explicitly seeded ``np.random.Generator``;
* wall-clock reads (``time.time()``, ``datetime.now()``,
  ``time.perf_counter()`` and friends) — timing belongs in the bench
  harness, never in simulation code;
* iteration over unordered sets (``for x in {…}``, ``list(set(…))``),
  whose order varies with ``PYTHONHASHSEED`` — iterate a ``sorted(…)``
  view instead.

Only syntactically certain cases are flagged (a ``for`` loop directly
over a set expression, a call chain that resolves to the global RNG
through this file's imports); the checker never guesses at types, so a
clean run stays meaningful.
"""

from __future__ import annotations

import ast
from typing import Iterable, List

from repro.checks.base import (Checker, Finding, Project, import_aliases,
                               qualified_name, register)

#: Subdirectories of ``src/repro`` bound by the determinism contract.
DETERMINISTIC_DIRS = ("core", "engine", "trace", "backend", "rename",
                      "pipeline", "frontend", "isa", "memory")

#: numpy.random attributes that *construct seeded generators* and are
#: therefore fine; everything else on ``numpy.random`` is the global RNG.
_NUMPY_SEEDED_OK = frozenset({
    "Generator", "PCG64", "PCG64DXSM", "MT19937", "Philox", "SFC64",
    "SeedSequence", "BitGenerator", "RandomState", "default_rng",
})

#: Wall-clock reads (dotted names after import resolution).
_CLOCK_READS = frozenset({
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.clock_gettime",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})


def _is_set_expression(node: ast.AST) -> bool:
    """True for expressions that are unambiguously an unordered set."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and \
            node.func.id in ("set", "frozenset"):
        return True
    return False


@register
class DeterminismChecker(Checker):
    rule = "determinism"
    description = ("unseeded RNG draws, wall-clock reads and unordered set "
                   "iteration in the deterministic simulation subtree")

    def run(self, project: Project) -> Iterable[Finding]:
        findings: List[Finding] = []
        for path in project.python_files(*DETERMINISTIC_DIRS):
            tree, error = project.ast_for(path)
            if tree is None:
                findings.append(self.finding(
                    project, path, 0, f"cannot analyse file: {error}"))
                continue
            findings.extend(self._check_file(project, path, tree))
        return findings

    # ------------------------------------------------------------------
    def _check_file(self, project: Project, path, tree) -> List[Finding]:
        aliases = import_aliases(tree)
        findings: List[Finding] = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                findings.extend(self._check_call(project, path, node, aliases))
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                if _is_set_expression(node.iter):
                    findings.append(self.finding(
                        project, path, node.lineno,
                        "iteration over an unordered set; iterate "
                        "sorted(...) for a reproducible order"))
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp,
                                   ast.DictComp, ast.SetComp)):
                for gen in node.generators:
                    if _is_set_expression(gen.iter):
                        findings.append(self.finding(
                            project, path, node.lineno,
                            "comprehension over an unordered set; iterate "
                            "sorted(...) for a reproducible order"))
        return findings

    def _check_call(self, project: Project, path, node: ast.Call,
                    aliases) -> List[Finding]:
        findings: List[Finding] = []
        name = qualified_name(node.func, aliases)
        if name is None:
            return findings
        # list(set(...)) / tuple(set(...)) / enumerate(set(...)) collapse
        # an unordered set into an ordered container nondeterministically.
        if name in ("list", "tuple", "enumerate") and node.args and \
                _is_set_expression(node.args[0]):
            findings.append(self.finding(
                project, path, node.lineno,
                f"{name}() over an unordered set; wrap the set in "
                f"sorted(...) for a reproducible order"))

        if name in _CLOCK_READS:
            findings.append(self.finding(
                project, path, node.lineno,
                f"wall-clock read {name}() in the deterministic subtree; "
                f"timing belongs in perfbench/, simulation state must "
                f"derive from the seed"))
            return findings

        parts = name.split(".")
        if parts[0] == "random" and len(parts) > 1:
            # The stdlib global-RNG module.  Seeded instances
            # (random.Random(seed)) are fine; everything module-level is
            # the shared process RNG.
            if parts[1] == "Random" and node.args:
                return findings
            findings.append(self.finding(
                project, path, node.lineno,
                f"{name}() draws from the process-global stdlib RNG; use "
                f"an explicitly seeded np.random.Generator instead"))
        elif len(parts) >= 3 and parts[0] == "numpy" and parts[1] == "random":
            attr = parts[2]
            if attr == "default_rng" and not node.args:
                findings.append(self.finding(
                    project, path, node.lineno,
                    "np.random.default_rng() without a seed produces a "
                    "fresh OS-entropy stream; pass an explicit seed"))
            elif attr not in _NUMPY_SEEDED_OK:
                findings.append(self.finding(
                    project, path, node.lineno,
                    f"{name}() uses numpy's process-global RNG; construct "
                    f"a seeded np.random.Generator instead"))
        return findings
