"""The ``repro-experiments fuzz`` subcommand.

Random mode (the default) samples fresh scenario/config points::

    repro-experiments fuzz --seed 20260808 --samples 80
    repro-experiments fuzz --budget-seconds 60 --report fuzz-report.json

Directed mode fuzzes registered scenarios (built-in names through
``--scenarios``, user-defined ones through ``--scenario-file``) with
sampled machine configs::

    repro-experiments fuzz --samples 40 --scenarios br_entropy,ptr_chase
    repro-experiments fuzz --samples 40 --scenario-file mine.toml

Replay mode re-runs committed corpus entries (a file or a directory of
``*.json`` entries) through their pinned oracles::

    repro-experiments fuzz --replay tests/fuzz/corpus
    repro-experiments fuzz --replay entry.json --oracles conservation

On failure the exit status is 1 and every failure is written — as a
ready-to-commit corpus entry plus the exact repro command — to
``--failure-dir`` (default ``fuzz-failures/``).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.fuzz.corpus import load_corpus
from repro.fuzz.oracles import DEFAULT_ORACLES, ORACLES, resolve_oracle_names
from repro.fuzz.runner import FuzzReport, replay_corpus, run_fuzz
from repro.fuzz.shrink import DEFAULT_BUDGET


def _parse_oracles(value: Optional[str], parser: argparse.ArgumentParser):
    if value is None:
        return None
    names = tuple(name.strip() for name in value.split(",") if name.strip())
    try:
        return resolve_oracle_names(names)
    except ValueError as exc:
        parser.error(str(exc))
        return None  # pragma: no cover - parser.error raises SystemExit


def _write_failures(report: FuzzReport, failure_dir: Path) -> List[Path]:
    """Write one corpus-entry JSON per failure; return the paths."""
    failure_dir.mkdir(parents=True, exist_ok=True)
    paths: List[Path] = []
    for failure in report.failures:
        path = (failure_dir /
                f"seed{report.master_seed}-s{failure.index:05d}-"
                f"{failure.oracle}.json")
        with path.open("w", encoding="utf-8") as handle:
            json.dump(failure.corpus_entry(), handle, indent=2,
                      sort_keys=True)
            handle.write("\n")
        paths.append(path)
    return paths


def _replay_main(args, parser: argparse.ArgumentParser,
                 oracles) -> int:
    entries = []
    for target in args.replay:
        try:
            entries.extend(load_corpus(target))
        except (OSError, ValueError) as exc:
            parser.error(f"--replay {target}: {exc}")
    if oracles is not None:
        import dataclasses
        entries = [dataclasses.replace(entry, oracles=oracles)
                   for entry in entries]
    results = replay_corpus(entries)
    failed = 0
    for result in results:
        print(result.describe())
        for oracle, status in result.statuses.items():
            if status == "fail":
                failed += 1
                print(f"  FAIL [{oracle}]: {result.details[oracle]}")
            elif status == "skip":
                print(f"  skip [{oracle}]: {result.details[oracle]}")
    print(f"replayed {len(results)} corpus entries: "
          f"{failed} oracle failures")
    return 1 if failed else 0


def fuzz_main(argv: List[str]) -> int:
    """Entry point for ``repro-experiments fuzz`` (see module docstring)."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments fuzz",
        description="Differential scenario fuzzer: random workloads and "
                    "tight machine configs cross-checked between engine "
                    "backends and trace-generation paths, plus "
                    "engine-internal conservation invariants.")
    parser.add_argument("--seed", type=int, default=0,
                        help="master seed; sample i depends only on "
                             "(seed, i), so runs are reproducible (default "
                             "0)")
    parser.add_argument("--samples", type=int, default=None, metavar="N",
                        help="stop after N samples")
    parser.add_argument("--budget-seconds", type=float, default=None,
                        metavar="S",
                        help="stop when S seconds have elapsed (checked "
                             "between samples)")
    parser.add_argument("--oracles", default=None, metavar="NAMES",
                        help="comma-separated oracle subset (default: all "
                             "of %s)" % ",".join(DEFAULT_ORACLES))
    parser.add_argument("--replay", action="append", default=[],
                        metavar="PATH",
                        help="replay corpus entries (a *.json file or a "
                             "directory of them; repeatable) instead of "
                             "sampling")
    parser.add_argument("--scenario-file", action="append", default=[],
                        metavar="PATH",
                        help="register user-defined scenarios from this "
                             "TOML/JSON config (repeatable) and fuzz them "
                             "with sampled machine configs")
    parser.add_argument("--scenarios", default=None, metavar="NAMES",
                        help="comma-separated registered scenario names to "
                             "fuzz (directed mode; unknown names are an "
                             "error)")
    parser.add_argument("--failure-dir", default="fuzz-failures",
                        metavar="DIR",
                        help="where failure corpus entries are written "
                             "(default: fuzz-failures/)")
    parser.add_argument("--report", default=None, metavar="PATH",
                        help="also write the full report as JSON here")
    parser.add_argument("--no-shrink", action="store_true",
                        help="report failures without minimising them")
    parser.add_argument("--shrink-budget", type=int, default=DEFAULT_BUDGET,
                        metavar="N",
                        help="max oracle evaluations per shrink (default "
                             f"{DEFAULT_BUDGET})")
    args = parser.parse_args(argv)

    oracles = _parse_oracles(args.oracles, parser)

    if args.replay:
        if args.samples is not None or args.budget_seconds is not None:
            parser.error("--replay replays committed entries; it does not "
                         "take --samples/--budget-seconds")
        return _replay_main(args, parser, oracles)

    if args.samples is None and args.budget_seconds is None:
        parser.error("need --samples, --budget-seconds, or --replay")
    if args.samples is not None and args.samples <= 0:
        parser.error("--samples must be positive")
    if args.budget_seconds is not None and args.budget_seconds <= 0:
        parser.error("--budget-seconds must be positive")

    scenario_pool = None
    if args.scenario_file or args.scenarios is not None:
        from repro.experiments.scenarios import resolve_scenario_names
        from repro.trace.workloads import (get_scenario,
                                           register_scenario_file)

        registered: List[str] = []
        for path in args.scenario_file:
            try:
                names = register_scenario_file(path, replace=True)
            except (OSError, ValueError) as exc:
                parser.error(f"--scenario-file {path}: {exc}")
            registered.extend(names)
            print(f"registered scenarios from {path}: {', '.join(names)}")
        if args.scenarios is not None:
            requested = [name.strip() for name in args.scenarios.split(",")
                         if name.strip()]
        else:
            # --scenario-file without --scenarios fuzzes the registered
            # files' scenarios.
            requested = registered
        try:
            # Same validation path as the scenario-grid experiments:
            # unknown names raise, listing known scenarios sorted.
            names = resolve_scenario_names(requested)
        except ValueError as exc:
            parser.error(str(exc))
        scenario_pool = [get_scenario(name) for name in names]
        print(f"directed mode: fuzzing {len(scenario_pool)} registered "
              f"scenarios ({', '.join(names)})")

    report = run_fuzz(
        master_seed=args.seed,
        samples=args.samples,
        budget_seconds=args.budget_seconds,
        oracles=oracles,
        scenario_pool=scenario_pool,
        shrink_failures=not args.no_shrink,
        shrink_budget=args.shrink_budget,
        progress=lambda line: print(f"  {line}", file=sys.stderr))

    entry_paths: List[Path] = []
    if report.failures:
        entry_paths = _write_failures(report, Path(args.failure_dir))
    if args.report:
        report_dict = report.to_dict()
        for failure_dict, path in zip(report_dict["failures"], entry_paths, strict=True):
            failure_dict["entry_path"] = str(path)
            failure_dict["repro_command"] = (
                f"repro-experiments fuzz --replay {path} "
                f"--oracles {failure_dict['oracle']}")
        report_path = Path(args.report)
        if report_path.parent != Path(""):
            report_path.parent.mkdir(parents=True, exist_ok=True)
        with report_path.open("w", encoding="utf-8") as handle:
            json.dump(report_dict, handle, indent=2, sort_keys=True)
            handle.write("\n")

    print(report.summary())
    for failure, path in zip(report.failures, entry_paths, strict=True):
        print(f"  corpus entry written: {path}")
        print(f"  repro: repro-experiments fuzz --replay {path} "
              f"--oracles {failure.oracle}")
        print(f"  commit it to tests/fuzz/corpus/ once fixed to pin the "
              f"regression")
    return 1 if report.failed else 0


# ORACLES re-exported for the runner module docs / tests.
__all__ = ["fuzz_main", "ORACLES"]
