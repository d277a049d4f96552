"""Command-line entry point: regenerate any subset of the paper's artefacts.

Installed as ``repro-experiments``::

    repro-experiments table1 figure9 section44      # the analytical ones
    repro-experiments figure10 --trace-length 8000  # a quick simulation run
    repro-experiments all --quick                   # everything, reduced size

Simulation-based experiments accept ``--trace-length``;
``--quick`` selects a configuration small enough for a laptop-scale smoke
run (shorter traces, fewer register sizes).

The scenario-library experiments (``scenarios``, ``scenario_occupancy``)
additionally honour ``--scenario-file`` (register user-defined scenarios
from a TOML/JSON config; repeatable) and ``--scenarios a,b`` (restrict
the grid to the named scenarios; unknown names are an error)::

    repro-experiments scenarios scenario_occupancy \
        --scenario-file my_scenarios.toml --scenarios my_burst --quick

Simulations run on the accelerated C core by default (built on demand;
automatic fallback to the Python engine with identical results when no
toolchain is available — see :mod:`repro.engine.accel`);
``--engine python`` pins the reference engine.  The flag sets
``$REPRO_ENGINE`` for this process.

Simulation results are cached on disk by default (keyed by workload,
configuration hash, trace length, seed and engine backend), so
re-generating a figure — or generating Table 4 after Figure 11 — only
simulates points never simulated before.  ``--no-cache`` disables the
cache, ``--cache-dir`` relocates it (default: ``$REPRO_SWEEP_CACHE`` or
``~/.cache/repro/sweeps``) and ``--cache-backend`` points it at a shared
``repro-serve`` store (tiered local+remote; see ``docs/sweep-cache.md``).

The ``cache`` subcommand inspects and maintains that store::

    repro-experiments cache                          # per-workload stats
    repro-experiments cache --prune --max-age-days 30
    repro-experiments cache --prune --stale-code     # drop old-code entries

The ``fuzz`` subcommand runs the differential scenario fuzzer (random
workloads and tight machine configs cross-checked between engine
backends and trace-generation paths — see ``docs/fuzzing.md``)::

    repro-experiments fuzz --seed 20260808 --samples 80
    repro-experiments fuzz --budget-seconds 60 --report fuzz-report.json
    repro-experiments fuzz --replay tests/fuzz/corpus

The ``serve`` subcommand starts the HTTP sweep service (identical to the
``repro-serve`` console script — see ``docs/serving.md``)::

    repro-experiments serve --port 8713 --cache-dir /srv/repro-cache

The ``lint`` subcommand runs the contract-checking static analysis
(identical to the ``repro-lint`` console script — see
``docs/static-analysis.md``)::

    repro-experiments lint                    # all rules, text report
    repro-experiments lint --format json --output lint-report.json
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Dict, List, Optional

from repro.experiments import (figure2, figure3, figure9, figure10, figure11,
                               scenario_occupancy, scenarios, section33,
                               section44, table1, table4)

#: Experiments that run cycle-level simulations (and therefore accept
#: ``trace_length`` / ``cache``).
_SIMULATION_EXPERIMENTS = {"figure3", "figure10", "figure11", "table4",
                           "section33", "scenarios", "scenario_occupancy"}

#: Experiments that accept a ``scenarios=[...]`` name filter.
_SCENARIO_EXPERIMENTS = {"scenarios", "scenario_occupancy"}

#: Registry: experiment name → module with a ``run()`` function.
EXPERIMENTS: Dict[str, object] = {
    "table1": table1,
    "figure2": figure2,
    "figure3": figure3,
    "figure9": figure9,
    "figure10": figure10,
    "figure11": figure11,
    "table4": table4,
    "section33": section33,
    "section44": section44,
    "scenarios": scenarios,
    "scenario_occupancy": scenario_occupancy,
}

#: Reduced parameters used by ``--quick`` runs.
QUICK_TRACE_LENGTH = 6_000
QUICK_SIZES = (40, 48, 64, 96, 160)


def run_experiment(name: str, trace_length: Optional[int] = None,
                   quick: bool = False, cache=None,
                   scenarios: Optional[List[str]] = None):
    """Run one experiment by name and return its result object.

    ``cache`` is forwarded to the simulation experiments (see
    :func:`repro.analysis.sweep.run_sweep`); analytical experiments
    ignore it.  ``scenarios`` filters the scenario-library experiments to
    the named scenarios (unknown names raise :class:`ValueError`); other
    experiments ignore it.
    """
    if name not in EXPERIMENTS:
        known = ", ".join(sorted(EXPERIMENTS))
        raise KeyError(f"unknown experiment {name!r}; known experiments: {known}")
    module = EXPERIMENTS[name]
    if name not in _SIMULATION_EXPERIMENTS:
        return module.run()
    kwargs = {"cache": cache}
    if trace_length is not None:
        kwargs["trace_length"] = trace_length
    elif quick:
        kwargs["trace_length"] = QUICK_TRACE_LENGTH
    if quick and name in ("figure11", "table4"):
        kwargs["sizes"] = QUICK_SIZES
    if quick and name == "scenarios":
        kwargs["sizes"] = (48,)
    if name in _SCENARIO_EXPERIMENTS and scenarios is not None:
        kwargs["scenarios"] = scenarios
    return module.run(**kwargs)


def provenance(result) -> str:
    """Which engine produced ``result`` and how many points it simulated.

    Read from the :class:`~repro.analysis.sweep.SweepResult` the result
    was derived from (Table 4: its Figure 11 sweep); the backend is
    ``compiled``, ``python``, ``mixed``, or ``cached`` when every point
    came from the result cache.  Empty for analytical experiments.
    """
    sweep = getattr(result, "sweep", None)
    if sweep is None and hasattr(result, "figure11"):
        sweep = result.figure11.sweep
    if sweep is None:
        return ""
    return f"[{sweep.backend or 'cached'}: {sweep.simulated} simulated, {sweep.cached} cached]"


def cache_main(argv: List[str]) -> int:
    """The ``repro-experiments cache`` subcommand: stats and pruning."""
    from repro.analysis.cache import SweepCache

    parser = argparse.ArgumentParser(
        prog="repro-experiments cache",
        description="Inspect or prune the on-disk sweep result cache.")
    parser.add_argument("--cache-dir", default=None,
                        help="root of the sweep result cache (default: "
                             "$REPRO_SWEEP_CACHE or ~/.cache/repro/sweeps)")
    parser.add_argument("--prune", action="store_true",
                        help="delete entries matching the criteria below "
                             "(plus unreadable/outdated-schema files)")
    parser.add_argument("--max-age-days", type=float, default=None,
                        help="with --prune: drop entries older than this")
    parser.add_argument("--stale-code", action="store_true",
                        help="with --prune: drop entries produced by a "
                             "different version of the simulator source")
    parser.add_argument("--max-size-mb", type=float, default=None,
                        help="with --prune: evict oldest entries first "
                             "until the cache fits this many megabytes "
                             "(prints a per-workload eviction summary)")
    args = parser.parse_args(argv)

    cache = SweepCache(args.cache_dir)
    if args.prune:
        if (args.max_age_days is None and not args.stale_code
                and args.max_size_mb is None):
            parser.error("--prune needs --max-age-days, --stale-code "
                         "and/or --max-size-mb")
        if args.max_age_days is not None or args.stale_code:
            removed = cache.prune(max_age_days=args.max_age_days,
                                  stale_code=args.stale_code)
            print(f"pruned {removed} entries from {cache.cache_dir}")
        if args.max_size_mb is not None:
            report = cache.prune_to_size(args.max_size_mb)
            print(f"size cap {args.max_size_mb:g} MB on {cache.cache_dir}:")
            print(report.format())
    else:
        if (args.max_age_days is not None or args.stale_code
                or args.max_size_mb is not None):
            parser.error("--max-age-days/--stale-code/--max-size-mb "
                         "require --prune")
        print(f"cache: {cache.cache_dir}")
        print(cache.stats().format())
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Command-line interface (see module docstring)."""
    raw_argv = list(sys.argv[1:] if argv is None else argv)
    if raw_argv and raw_argv[0] == "cache":
        return cache_main(raw_argv[1:])
    if raw_argv and raw_argv[0] == "fuzz":
        from repro.fuzz.cli import fuzz_main

        return fuzz_main(raw_argv[1:])
    if raw_argv and raw_argv[0] == "serve":
        from repro.serve.cli import serve_main

        return serve_main(raw_argv[1:])
    if raw_argv and raw_argv[0] == "lint":
        from repro.checks.cli import main as lint_main

        return lint_main(raw_argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the tables and figures of 'Hardware Schemes for "
                    "Early Register Release' (ICPP 2002).")
    parser.add_argument("experiments", nargs="+",
                        help="experiment names (%s), 'all', or the 'cache' / "
                             "'fuzz' / 'serve' / 'lint' subcommands"
                             % ", ".join(sorted(EXPERIMENTS)))
    parser.add_argument("--trace-length", type=int, default=None,
                        help="dynamic instructions per benchmark simulation")
    parser.add_argument("--quick", action="store_true",
                        help="reduced trace length and register-size grid")
    parser.add_argument("--engine", default=None,
                        choices=["auto", "python", "compiled"],
                        help="simulation engine backend: 'compiled' (and "
                             "'auto') builds and uses the accelerated C core "
                             "(falls back to the Python engine, with identical "
                             "results, when no C toolchain is available); "
                             "'python' pins the reference engine (default: "
                             "$REPRO_ENGINE, else compiled)")
    parser.add_argument("--no-cache", action="store_true",
                        help="always re-simulate instead of using the on-disk "
                             "sweep result cache")
    parser.add_argument("--cache-dir", default=None,
                        help="root of the sweep result cache (default: "
                             "$REPRO_SWEEP_CACHE or ~/.cache/repro/sweeps)")
    parser.add_argument("--cache-backend", default=None, metavar="SPEC",
                        help="result-store backend: 'local' (default), "
                             "'http(s)://HOST:PORT' for a tiered local+remote "
                             "store backed by a repro-serve endpoint, or "
                             "'remote:URL' for remote-only (default: "
                             "$REPRO_CACHE_BACKEND); an unreachable remote "
                             "degrades to local-only, never fails the sweep")
    parser.add_argument("--scenario-file", action="append", default=[],
                        metavar="PATH",
                        help="register the user-defined scenarios in this "
                             "TOML/JSON config before running (repeatable); "
                             "they join the scenario-library experiments")
    parser.add_argument("--scenarios", default=None, metavar="NAMES",
                        help="comma-separated scenario names to restrict the "
                             "scenario-library experiments to (unknown names "
                             "are an error)")
    args = parser.parse_args(raw_argv)

    if args.engine is not None:
        # Exported (rather than threaded through run()) so every engine
        # the run builds sees the choice; "auto" restores the environment
        # default.
        import os

        from repro.engine.accel import ENGINE_ENV

        if args.engine == "auto":
            os.environ.pop(ENGINE_ENV, None)
        else:
            os.environ[ENGINE_ENV] = args.engine

    for path in args.scenario_file:
        try:
            from repro.trace.workloads import register_scenario_file

            registered = register_scenario_file(path, replace=True)
        except (OSError, ValueError) as exc:
            parser.error(f"--scenario-file {path}: {exc}")
        print(f"registered scenarios from {path}: {', '.join(registered)}")
    scenario_filter = ([name.strip() for name in args.scenarios.split(",")
                        if name.strip()]
                       if args.scenarios is not None else None)

    if args.no_cache:
        if args.cache_backend is not None:
            parser.error("--cache-backend conflicts with --no-cache")
        cache = None
    else:
        from repro.analysis.backends import resolve_backend
        from repro.analysis.cache import SweepCache

        cache = SweepCache(backend=resolve_backend(
            args.cache_backend, cache_dir=args.cache_dir))

    names = list(args.experiments)
    if names == ["all"]:
        names = list(EXPERIMENTS)
    unknown = [name for name in names if name not in EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiments: {', '.join(unknown)}")

    for name in names:
        start = time.time()
        result = run_experiment(name, trace_length=args.trace_length,
                                quick=args.quick, cache=cache,
                                scenarios=scenario_filter)
        elapsed = time.time() - start
        print("=" * 72)
        print(f"{name}  ({elapsed:.1f}s)  {provenance(result)}".rstrip())
        print("=" * 72)
        print(result.format())
        print()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
