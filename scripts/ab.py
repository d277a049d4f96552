#!/usr/bin/env python
"""Same-host A/B of the benchmark: a base revision against this tree.

Usage::

    python scripts/ab.py REV [--pairs 10] [--seed 7]
                             [--workload serve-zipf ...] [--json OUT]

Extracts ``REV`` (``git archive``) into a temporary directory,
byte-compiles ``src`` and ``perfbench`` in both trees (so neither
side's set-up pays for compiling modules the other reads from
``__pycache__``, even under ``PYTHONDONTWRITEBYTECODE``), gives each
tree one untimed warm-up run (so each builds its compiled core),
then runs the ``BENCHMARK.json`` command with ``--trace 0`` and the
benchmark's run length on both trees for ``--pairs`` interleaved
pairs, alternating which side runs first.  For every end-to-end metric
it prints each side's median and quartiles, the median ratio (this tree
/ base), the pairs this tree won (the direction comes from
``BENCHMARK.json``), a verdict and whether the medians differ by more
than the base's interquartile range.

The verdict is ``ok`` when this tree's median is no worse than the
base's by more than the metric's ``BENCHMARK.json`` bound.  A median
worse than that is ``WORSE`` when it also differs from the base's by
more than the base's interquartile range, and ``unresolved`` when the
base's own spread covers it.  Exits non-zero if any run failed
(``failed > 0`` or a crash) or any metric on any workload is ``WORSE``.
The temporary tree is removed on exit.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Dict, List, Sequence

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Length of each tree's untimed warm-up run, which builds its core.
WARMUP_SECONDS = 1.0


def quartiles(samples: Sequence[float]) -> tuple:
    """``(q1, median, q3)`` of ``samples`` (inclusive method)."""
    if len(samples) == 1:
        return (samples[0],) * 3
    return tuple(statistics.quantiles(samples, n=4, method="inclusive"))


def summarize(base: List[Dict[str, float]], head: List[Dict[str, float]],
              metrics: Sequence[dict]) -> List[dict]:
    """One row per declared metric over paired runs (``base[i]`` and
    ``head[i]`` are pair ``i``)."""
    rows = []
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        base_values = [run[name] for run in base]
        head_values = [run[name] for run in head]
        base_q, head_q = quartiles(base_values), quartiles(head_values)
        if base_q[1]:
            ratio = head_q[1] / base_q[1]
            worse_by = ratio - 1.0 if lower else 1.0 - ratio
        else:
            ratio = 1.0 if head_q[1] == base_q[1] else float("inf")
            worse_by = 0.0 if (head_q[1] <= 0 if lower else head_q[1] >= 0) \
                else float("inf")
        wins = sum(1 for b, h in zip(base_values, head_values)
                   if (h < b if lower else h > b))
        bound_ok = worse_by <= metric["bound"]
        beyond_iqr = abs(head_q[1] - base_q[1]) > base_q[2] - base_q[0]
        rows.append({
            "metric": name, "better": metric["better"],
            "base": base_q, "head": head_q, "ratio": ratio,
            "wins": wins, "pairs": len(base_values),
            "bound": metric["bound"], "bound_ok": bound_ok,
            "beyond_iqr": beyond_iqr,
            "verdict": ("ok" if bound_ok
                        else "WORSE" if beyond_iqr else "unresolved"),
        })
    return rows


def _cell(q: tuple) -> str:
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"


def format_rows(rows: List[dict]) -> str:
    """The summary as a fixed-width table."""
    lines = [f"{'metric':<16}{'base median [q1, q3]':>28}"
             f"{'this tree median [q1, q3]':>30}{'ratio':>8}{'wins':>7}"
             f"{'verdict':>12}{'>IQR':>6}"]
    for row in rows:
        lines.append(
            f"{row['metric']:<16}{_cell(row['base']):>28}"
            f"{_cell(row['head']):>30}{row['ratio']:>8.3f}"
            f"{row['wins']:>4}/{row['pairs']:<2}"
            f"{row['verdict']:>12}"
            f"{'yes' if row['beyond_iqr'] else 'no':>6}")
    return "\n".join(lines)


def failed_runs(runs: List[dict]) -> int:
    """Runs that crashed (None) or reported failed operations."""
    return sum(1 for run in runs if run is None or run["failed"] > 0)


def metric_values(run: dict) -> Dict[str, float]:
    """Metric name -> value of one run's result JSON."""
    return {name: entry["value"] for name, entry in run["metrics"].items()}


def extract(rev: str, into: Path) -> None:
    """Write the tree of ``rev`` into ``into``."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev],
                             cwd=REPO_ROOT, capture_output=True, check=True)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(into, filter="data")
        else:
            tar.extractall(into)


def byte_compile(tree: Path) -> None:
    """Write the bytecode of ``tree``'s ``src`` and ``perfbench``."""
    subprocess.run([sys.executable, "-m", "compileall", "-q",
                    "src", "perfbench"], cwd=tree, check=True)


def run_once(tree: Path, command: List[str], workload: str, seed: int,
             seconds: float):
    """One ``--trace 0`` run in ``tree``: its result JSON, or None."""
    argv = [sys.executable, *command[1:], "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"run failed in {tree}:\n{proc.stderr[-2000:]}",
              file=sys.stderr)
        return None
    return json.loads(lines[-1])


def main(argv=None) -> int:
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="base revision (any git rev)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]],
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--json", type=Path, default=None,
                        help="also write every run and the summary here")
    args = parser.parse_args(argv)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]

    base_tree = Path(tempfile.mkdtemp(prefix="repro-ab-"))
    report = {"rev": args.rev, "seed": args.seed, "workloads": {}}
    failures = 0
    regressions = []
    try:
        extract(args.rev, base_tree)
        trees = {"base": base_tree, "head": REPO_ROOT}
        for tree in trees.values():
            byte_compile(tree)
        for workload in workloads:
            for tree in trees.values():
                run_once(tree, spec["command"], workload, args.seed,
                         WARMUP_SECONDS)
            runs = {"base": [], "head": []}
            for pair in range(args.pairs):
                order = ("base", "head") if pair % 2 == 0 else ("head", "base")
                for side in order:
                    runs[side].append(run_once(
                        trees[side], spec["command"], workload, args.seed,
                        spec["run_seconds"]))
                print(f"{workload}: pair {pair + 1}/{args.pairs} done",
                      file=sys.stderr)
            failures += failed_runs(runs["base"]) + failed_runs(runs["head"])
            complete = [(b, h) for b, h in zip(runs["base"], runs["head"])
                        if b is not None and h is not None]
            rows = summarize([metric_values(b) for b, _ in complete],
                             [metric_values(h) for _, h in complete],
                             spec["end_to_end"]) if complete else []
            print(f"\n{workload} ({len(complete)} pairs, seed {args.seed}, "
                  f"base {args.rev})")
            print(format_rows(rows))
            report["workloads"][workload] = {"runs": runs, "summary": rows}
            regressions += [f"{workload}: {row['metric']}" for row in rows
                            if row["verdict"] == "WORSE"]
    finally:
        shutil.rmtree(base_tree, ignore_errors=True)
        if args.json is not None:
            args.json.write_text(json.dumps(report, indent=1))
    if failures:
        print(f"\n{failures} run(s) failed", file=sys.stderr)
    if regressions:
        print("\nworse than the bound and the base's IQR: "
              + ", ".join(regressions), file=sys.stderr)
    return 1 if failures or regressions else 0


if __name__ == "__main__":
    sys.exit(main())
