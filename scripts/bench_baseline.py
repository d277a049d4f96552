#!/usr/bin/env python
"""Snapshot the wall-clock cost of regenerating every paper artefact.

Runs the ``benchmarks/`` harness under ``pytest-benchmark`` with
``--benchmark-json`` and writes a ``BENCH_<timestamp>.json`` snapshot into
the repository root (or ``--output``), so the performance trajectory of
the simulator is tracked PR over PR.  Usage::

    python scripts/bench_baseline.py                # BENCH_<UTC timestamp>.json
    python scripts/bench_baseline.py --output BENCH_pr1.json
    python scripts/bench_baseline.py --select figure11   # one artefact only

The script is a thin wrapper over::

    PYTHONPATH=src python -m pytest benchmarks --benchmark-json <out>

plus two serial probes embedded into the snapshot:

* ``"scheduler"`` — representative Figure 11 grid points with the
  scheduler's ready-set peak size alongside each point's wall-clock;
* ``"scheduler_compiled"`` — the same grid points on the compiled C
  engine (``repro.engine.accel``); each point records the backend that
  *actually* ran (``engine_backend``), so a toolchain fallback is
  visible in the snapshot instead of masquerading as a slow C core;
* ``"sweep_point"`` / ``"sweep_point_compiled"`` — the **end-to-end**
  cost of the same grid points: engine construction (trace export,
  warm-up) *plus* the run, which is what a sweep actually pays per
  point.  The compiled section also records the export hit/miss
  counters (``repro.engine.accel.artefacts``): hits are exports served
  from the traces' own columns;
* ``"generation"`` — trace-generation throughput (scalar oracle vs the
  vectorised bulk-draw path) over the scenario library plus
  representative SPEC-like workloads;
* ``"serve"`` — the ``repro-serve`` HTTP service under zipf-skewed
  concurrent load (local loopback, serial compute worker): throughput,
  p50/p99 latency and the cache + single-flight hit rate (see
  ``scripts/bench_serve.py`` for the full-size harness).  A degraded or
  error-laden run is recorded but excluded from the gate.

``--probe-only`` (the CI mode) skips the pytest harness, runs the
probes, and *gates*: it compares the probe against the newest committed
``BENCH_*.json`` and exits non-zero when any tracked throughput
regressed by more than the tolerance factor (default 1.4, generous
enough for runner-to-runner variance; override with ``--tolerance`` or
``$BENCH_PROBE_TOLERANCE``; ``--no-compare`` disables the gate).  The
gate is strictly like-for-like: the Python probe is compared against
the baseline's Python probe and the compiled probe against the
baseline's compiled probe, and a compiled section whose points fell
back to the Python engine is excluded from the compiled comparison.
``--engine`` selects which scheduler probes run in probe-only mode
(``python`` — the default, ``compiled``, or ``both``).  Pass
``--output`` to also write the probe JSON (uploaded as a CI artifact).
Otherwise exits with pytest's return code.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Optional

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Representative Figure 11 grid points for the scheduler probe: the
#: memory-latency-bound FP points (tight swim), one loose FP point and
#: one branchy integer point for contrast.
SCHEDULER_PROBE_POINTS = (
    ("swim", "conv", 40),
    ("swim", "conv", 48),
    ("swim", "extended", 40),
    ("swim", "extended", 48),
    ("swim", "extended", 96),
    ("gcc", "conv", 48),
)


def collect_scheduler_counters(trace_length: int = 4_000,
                               engine: str = "python") -> dict:
    """Serially simulate the probe points and collect scheduler telemetry.

    Runs at the same scale as the ``benchmarks/`` harness (trace length,
    default warm-up) so the wall-clock numbers are comparable PR over PR.
    ``engine`` pins the backend ("python" or "compiled"); the compiled
    backend is warmed (built + self-checked) before the timed loop so the
    one-time probe cost does not pollute the first point, and each point
    records the backend that actually produced it — a toolchain fallback
    records ``"python"``.
    """
    import time as time_module

    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.engine import SimulationEngine
    from repro.pipeline.config import ProcessorConfig
    from repro.trace.workloads import get_workload

    if engine == "compiled":
        from repro.engine import accel

        accel.resolve_engine_backend(ProcessorConfig(engine="compiled"))

    points = []
    for benchmark_name, policy, registers in SCHEDULER_PROBE_POINTS:
        trace = get_workload(benchmark_name, trace_length)
        config = ProcessorConfig(release_policy=policy,
                                 num_physical_int=registers,
                                 num_physical_fp=registers,
                                 engine=engine)
        sim = SimulationEngine(trace, config)
        start = time_module.perf_counter()
        stats = sim.run()
        elapsed = time_module.perf_counter() - start
        compiled = sim.backend_used == "compiled"
        points.append({
            "benchmark": benchmark_name,
            "policy": policy,
            "num_registers": registers,
            "engine_backend": sim.backend_used,
            "wall_clock_s": round(elapsed, 4),
            "cycles": stats.cycles,
            "ready_set_peak": sim.compiled_ready_peak if compiled
            else sim.state.ready.peak_size,
            "ipc": round(stats.ipc, 4),
        })
    return {
        "trace_length": trace_length,
        "engine_requested": engine,
        "engine_backend": probe_backend_label({"points": points}),
        "points": points,
    }

def collect_sweep_point_probe(trace_length: int = 4_000,
                              engine: str = "python",
                              repetitions: int = 3) -> dict:
    """Time the probe points **end-to-end**: construction plus run.

    The scheduler probe times ``run()`` alone; a sweep additionally pays
    engine construction — trace export and the warm-up pass — for every
    point.  This probe measures that whole cost (best of ``repetitions``
    per point, traces pre-generated as a sweep's workload cache would),
    and for the compiled backend records the export hit/miss deltas:
    hits > 0 shows the exports gathered from the traces' own columns.
    """
    import time as time_module

    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.engine import SimulationEngine
    from repro.engine.accel.artefacts import EXPORT_CACHE
    from repro.pipeline.config import ProcessorConfig
    from repro.trace.workloads import get_workload

    if engine == "compiled":
        from repro.engine import accel

        accel.resolve_engine_backend(ProcessorConfig(engine="compiled"))

    for benchmark_name, _, _ in SCHEDULER_PROBE_POINTS:
        get_workload(benchmark_name, trace_length)     # pre-generate
    hits_before, misses_before = EXPORT_CACHE.counters()
    best: dict = {}
    recorded: dict = {}
    for _ in range(repetitions):
        for benchmark_name, policy, registers in SCHEDULER_PROBE_POINTS:
            trace = get_workload(benchmark_name, trace_length)
            config = ProcessorConfig(release_policy=policy,
                                     num_physical_int=registers,
                                     num_physical_fp=registers,
                                     engine=engine)
            start = time_module.perf_counter()
            sim = SimulationEngine(trace, config)
            stats = sim.run()
            elapsed = time_module.perf_counter() - start
            key = (benchmark_name, policy, registers)
            if elapsed < best.get(key, float("inf")):
                best[key] = elapsed
            recorded[key] = (sim.backend_used, stats.cycles,
                             round(stats.ipc, 4))
    hits_after, misses_after = EXPORT_CACHE.counters()
    points = []
    for (benchmark_name, policy, registers), elapsed in best.items():
        backend, cycles, ipc = recorded[(benchmark_name, policy, registers)]
        points.append({
            "benchmark": benchmark_name,
            "policy": policy,
            "num_registers": registers,
            "engine_backend": backend,
            "wall_clock_s": round(elapsed, 4),
            "cycles": cycles,
            "ipc": ipc,
        })
    return {
        "trace_length": trace_length,
        "repetitions": repetitions,
        "engine_requested": engine,
        "engine_backend": probe_backend_label({"points": points}),
        "points": points,
        "export_cache_hits": hits_after - hits_before,
        "export_cache_misses": misses_after - misses_before,
    }


def format_sweep_point_summary(sweep_point: dict) -> str:
    """Human/CI-readable recap of the end-to-end sweep-point probe."""
    backend = probe_backend_label(sweep_point)
    requested = sweep_point.get("engine_requested", "python")
    label = backend if backend == requested \
        else f"{backend}, requested {requested}"
    lines = [f"sweep-point probe (end-to-end: construct + warm-up + run; "
             f"trace length {sweep_point['trace_length']}, engine {label}):"]
    total_wall = 0.0
    for point in sweep_point["points"]:
        total_wall += point["wall_clock_s"]
        lines.append(
            f"  {point['benchmark']}/{point['policy']}/"
            f"P{point['num_registers']:<3}  {point['wall_clock_s']:6.3f}s  "
            f"ipc={point['ipc']:.2f}")
    throughput = scheduler_throughput(sweep_point)
    lines.append(f"  total wall {total_wall:.3f}s; aggregate simulated "
                 f"cycles/s end-to-end: {throughput:,.0f}")
    lines.append(f"  exports: "
                 f"{sweep_point['export_cache_hits']} hits / "
                 f"{sweep_point['export_cache_misses']} misses")
    return "\n".join(lines)


#: SPEC-like workloads sampled by the generation probe (one per kernel
#: family), on top of the whole scenario library.
GENERATION_PROBE_BENCHMARKS = ("gcc", "li", "compress", "swim", "tomcatv")


def collect_generation_throughput(trace_length: int = 30_000) -> dict:
    """Time trace generation, scalar oracle vs vectorised, per workload.

    Each workload is generated once per mode per repetition (cache
    bypassed); the best of three repetitions is kept.  The aggregate
    ``vector_inst_per_s`` over the scenario grid is the number the CI
    bench gate tracks.
    """
    import time as time_module

    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.trace.workloads import (SCENARIOS, generate_scenario_trace,
                                       generate_trace, get_profile,
                                       scenario_workloads)

    def generate(name, vectorized):
        if name in SCENARIOS:
            return generate_scenario_trace(SCENARIOS[name], trace_length,
                                           seed=1, vectorized=vectorized)
        return generate_trace(get_profile(name), trace_length, seed=1,
                              vectorized=vectorized)

    points = []
    for name in list(scenario_workloads()) + list(GENERATION_PROBE_BENCHMARKS):
        best = {False: float("inf"), True: float("inf")}
        length = 0
        for _ in range(3):
            for vectorized in (False, True):
                start = time_module.perf_counter()
                trace = generate(name, vectorized)
                elapsed = time_module.perf_counter() - start
                best[vectorized] = min(best[vectorized], elapsed)
                length = len(trace)
        points.append({
            "workload": name,
            "scenario": name in SCENARIOS,
            "instructions": length,
            "scalar_inst_per_s": round(length / best[False]),
            "vector_inst_per_s": round(length / best[True]),
            "speedup": round(best[False] / best[True], 3),
        })
    scenario_points = [p for p in points if p["scenario"]]
    return {
        "trace_length": trace_length,
        "points": points,
        "scenario_vector_inst_per_s": round(
            sum(p["instructions"] for p in scenario_points)
            / sum(p["instructions"] / p["vector_inst_per_s"]
                  for p in scenario_points)),
        "scenario_speedup": round(
            sum(p["instructions"] / p["scalar_inst_per_s"]
                for p in scenario_points)
            / sum(p["instructions"] / p["vector_inst_per_s"]
                  for p in scenario_points), 3),
    }


def format_generation_summary(generation: dict) -> str:
    """Human/CI-readable recap of the generation probe."""
    lines = [f"generation probe (trace length {generation['trace_length']}):"]
    for point in generation["points"]:
        tag = "scenario " if point["scenario"] else "benchmark"
        lines.append(
            f"  {tag} {point['workload']:<18} "
            f"scalar {point['scalar_inst_per_s']:>9,} inst/s   "
            f"vector {point['vector_inst_per_s']:>9,} inst/s   "
            f"{point['speedup']:.2f}x")
    lines.append(f"  scenario-grid vectorised throughput: "
                 f"{generation['scenario_vector_inst_per_s']:,} inst/s "
                 f"({generation['scenario_speedup']:.2f}x over the scalar "
                 f"oracle)")
    return "\n".join(lines)


#: Parameters of the CI-sized serve probe: small enough for seconds of
#: wall clock, concurrent enough (6 clients over a 12-point pool) that
#: single-flight joins and cache hits both actually occur.
SERVE_PROBE_SETTINGS = dict(clients=6, requests=90, pool_size=12,
                            zipf_skew=1.1, trace_length=1_000, seed=9)


def collect_serve_probe(**overrides) -> dict:
    """Run the CI-sized zipf load probe against an in-process server.

    Self-hosts a loopback server with the serial compute worker over a
    fresh temporary store (every first touch is a genuine miss), so the
    resulting hit rate is a deterministic function of the sampled
    request stream — exactly comparable PR over PR.
    """
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.serve.loadgen import collect_serve_report

    settings = dict(SERVE_PROBE_SETTINGS)
    settings.update(overrides)
    return collect_serve_report(None, **settings)


def serve_probe_gateable(serve: dict) -> bool:
    """True when a serve section may be gated: it answered requests,
    saw no client-visible errors, and the store never degraded."""
    return bool(serve.get("answered")) and not serve.get("errors") \
        and not serve.get("cache_degradation_reason")


# ----------------------------------------------------------------------
# The CI regression gate.
# ----------------------------------------------------------------------
def scheduler_throughput(scheduler: dict) -> float:
    """Aggregate simulated cycles/s of a snapshot's scheduler probe."""
    points = scheduler.get("points", [])
    wall = sum(p["wall_clock_s"] for p in points)
    return sum(p["cycles"] for p in points) / wall if wall else 0.0


def probe_backend_label(scheduler: dict) -> str:
    """The backend a scheduler probe actually ran on.

    ``"python"`` / ``"compiled"`` when every point agrees (points
    predating the backend split count as Python), ``"mixed"`` otherwise
    — a mixed or fallen-back probe must never be gated against a true
    compiled baseline.
    """
    backends = {point.get("engine_backend", "python")
                for point in scheduler.get("points", [])}
    return backends.pop() if len(backends) == 1 else "mixed"


def find_latest_snapshot(root: Path) -> "Optional[Path]":
    """Newest committed ``BENCH_*.json``.

    Snapshots are ordered by the numeric runs in their names (date, then
    PR number or timestamp), so ``BENCH_20260728T150000Z.json`` ranks
    above ``BENCH_20260728_pr4.json`` from earlier the same day — a
    plain lexicographic sort would rank them the other way around
    (``_`` sorts after ``T``).
    """
    import re

    snapshots = sorted(
        root.glob("BENCH_*.json"),
        key=lambda path: ([int(token) for token in
                           re.findall(r"\d+", path.name)], path.name))
    return snapshots[-1] if snapshots else None


def compare_against_baseline(current: dict, baseline: dict,
                             tolerance: float) -> list:
    """Regression messages for every tracked metric slower than
    ``baseline / tolerance``; empty when the gate passes.

    Metrics the baseline snapshot does not carry (older snapshots lack
    the generation probe) are skipped — the gate only tightens once a
    snapshot recording the metric is committed.
    """
    if tolerance < 1.0:
        raise ValueError("tolerance must be >= 1.0")
    regressions = []

    def check(label, now, then):
        if then and now < then / tolerance:
            regressions.append(
                f"{label}: {now:,.0f} vs baseline {then:,.0f} "
                f"(more than {tolerance:g}x slower)")

    # Like-for-like only: each backend's probe is gated against the same
    # backend's baseline.  A probe that fell back to the Python engine is
    # excluded from the compiled comparison rather than failing it — the
    # fallback itself is reported by the probe summary and the tests.
    for section, backend, kind in (
            ("scheduler", "python", "scheduler"),
            ("scheduler_compiled", "compiled", "scheduler"),
            ("sweep_point", "python", "sweep-point"),
            ("sweep_point_compiled", "compiled", "sweep-point")):
        baseline_scheduler = baseline.get(section) or {}
        current_scheduler = current.get(section) or {}
        if not (baseline_scheduler.get("points")
                and current_scheduler.get("points")):
            continue
        if (probe_backend_label(baseline_scheduler) != backend
                or probe_backend_label(current_scheduler) != backend):
            continue
        check(f"{backend}-engine {kind} probe simulated cycles/s",
              scheduler_throughput(current_scheduler),
              scheduler_throughput(baseline_scheduler))
    baseline_generation = baseline.get("generation") or {}
    current_generation = current.get("generation") or {}
    check("scenario-grid generation inst/s",
          current_generation.get("scenario_vector_inst_per_s", 0.0),
          baseline_generation.get("scenario_vector_inst_per_s", 0.0))
    # The scalar-vs-vector speedup ratio is measured within one run, so
    # it is machine-independent: a drop here is a genuine vectorisation
    # regression even when the absolute numbers moved with the hardware.
    check("scenario-grid generation speedup (vector/scalar ratio)",
          current_generation.get("scenario_speedup", 0.0),
          baseline_generation.get("scenario_speedup", 0.0))
    # Serve probe: gate the service's throughput and its cache +
    # single-flight hit rate.  Strictly like-for-like, mirroring the
    # engine sections: both runs must be clean (no degradation, no
    # errors) and describe the same offered load — a probe whose shape
    # changed measures a different workload, not a regression.
    baseline_serve = baseline.get("serve") or {}
    current_serve = current.get("serve") or {}
    if (serve_probe_gateable(baseline_serve)
            and serve_probe_gateable(current_serve)
            and all(baseline_serve.get(field) == current_serve.get(field)
                    for field in ("clients", "requests", "pool_size",
                                  "zipf_skew", "trace_length", "seed"))):
        check("serve probe requests/s",
              current_serve.get("requests_per_s", 0.0),
              baseline_serve.get("requests_per_s", 0.0))
        check("serve probe hit rate (%)",
              current_serve.get("hit_rate", 0.0) * 100.0,
              baseline_serve.get("hit_rate", 0.0) * 100.0)
    return regressions


def format_probe_summary(scheduler: dict) -> str:
    """Human/CI-readable recap of the scheduler probe (markdown-friendly)."""
    backend = probe_backend_label(scheduler)
    requested = scheduler.get("engine_requested", "python")
    label = backend if backend == requested \
        else f"{backend}, requested {requested}"
    lines = [f"scheduler probe (trace length {scheduler['trace_length']}, "
             f"engine {label}):"]
    for point in scheduler["points"]:
        lines.append(
            f"  {point['benchmark']}/{point['policy']}/"
            f"P{point['num_registers']:<3}  {point['wall_clock_s']:6.3f}s  "
            f"ready_peak={point['ready_set_peak']}  ipc={point['ipc']:.2f}")
    throughput = sum(p["cycles"] / p["wall_clock_s"]
                     for p in scheduler["points"] if p["wall_clock_s"])
    lines.append(f"  aggregate simulated cycles/s over the probe: "
                 f"{throughput:,.0f}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the benchmark harness and write a BENCH_*.json snapshot.")
    parser.add_argument("--output", default=None,
                        help="snapshot path (default: BENCH_<UTC timestamp>.json "
                             "in the repository root)")
    parser.add_argument("--select", default=None,
                        help="pytest -k expression to run a subset of the harness")
    parser.add_argument("--probe-only", action="store_true",
                        help="skip the pytest harness; run the fast "
                             "scheduler, generation and serve probes, gate "
                             "against the newest committed BENCH_*.json, and print the summary (CI "
                             "signal). Appends to $GITHUB_STEP_SUMMARY when "
                             "set.")
    parser.add_argument("--tolerance", type=float,
                        default=float(os.environ.get("BENCH_PROBE_TOLERANCE",
                                                     "1.4")),
                        help="probe-only regression gate: fail when a probe "
                             "throughput is more than this factor slower "
                             "than the committed baseline (default 1.4, "
                             "or $BENCH_PROBE_TOLERANCE)")
    parser.add_argument("--no-compare", action="store_true",
                        help="probe-only: skip the baseline regression gate")
    parser.add_argument("--engine", default="python",
                        choices=["python", "compiled", "both"],
                        help="probe-only: which engine backends to run the "
                             "scheduler probe on (default: python; the full "
                             "snapshot always records both)")
    args = parser.parse_args(argv)

    if args.probe_only:
        current = {}
        summaries = []
        if args.engine in ("python", "both"):
            scheduler = collect_scheduler_counters()
            current["scheduler"] = scheduler
            summaries.append(format_probe_summary(scheduler))
            sweep_point = collect_sweep_point_probe()
            current["sweep_point"] = sweep_point
            summaries.append(format_sweep_point_summary(sweep_point))
        if args.engine in ("compiled", "both"):
            compiled_scheduler = collect_scheduler_counters(engine="compiled")
            current["scheduler_compiled"] = compiled_scheduler
            summaries.append(format_probe_summary(compiled_scheduler))
            compiled_sweep_point = collect_sweep_point_probe(
                engine="compiled")
            current["sweep_point_compiled"] = compiled_sweep_point
            summaries.append(format_sweep_point_summary(compiled_sweep_point))
        generation = collect_generation_throughput(trace_length=20_000)
        current["generation"] = generation
        summaries.append(format_generation_summary(generation))
        from repro.serve.loadgen import format_report

        serve = collect_serve_probe()
        current["serve"] = serve
        summaries.append(format_report(serve))
        summary = "\n".join(summaries)

        gate_lines = []
        returncode = 0
        if not args.no_compare:
            baseline_path = find_latest_snapshot(REPO_ROOT)
            if baseline_path is None:
                gate_lines.append("bench gate: no committed BENCH_*.json "
                                  "baseline; gate skipped")
            else:
                with open(baseline_path) as handle:
                    baseline = json.load(handle)
                regressions = compare_against_baseline(current, baseline,
                                                       args.tolerance)
                if regressions:
                    returncode = 1
                    gate_lines.append(
                        f"bench gate: REGRESSION vs {baseline_path.name} "
                        f"(tolerance {args.tolerance:g}x):")
                    gate_lines.extend("  " + line for line in regressions)
                else:
                    gate_lines.append(
                        f"bench gate: ok vs {baseline_path.name} "
                        f"(tolerance {args.tolerance:g}x)")
        summary = summary + "\n" + "\n".join(gate_lines)
        print(summary)
        if args.output:
            probe_path = Path(args.output).resolve()
            with open(probe_path, "w") as handle:
                json.dump(current, handle, indent=2)
            print(f"wrote probe JSON to {probe_path}")
        step_summary = os.environ.get("GITHUB_STEP_SUMMARY")
        if step_summary:
            with open(step_summary, "a") as handle:
                handle.write("### Bench probe\n\n```\n" + summary + "\n```\n")
        return returncode

    if args.output is None:
        stamp = datetime.datetime.now(datetime.timezone.utc).strftime("%Y%m%dT%H%M%SZ")
        output = REPO_ROOT / f"BENCH_{stamp}.json"
    else:
        output = Path(args.output).resolve()

    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")

    command = [sys.executable, "-m", "pytest", "benchmarks", "-q",
               "--benchmark-json", str(output)]
    if args.select:
        command += ["-k", args.select]
    returncode = subprocess.call(command, cwd=REPO_ROOT, env=env)
    if returncode != 0:
        return returncode

    # Embed the scheduler, sweep-point (both backends) and generation
    # probes.
    scheduler = collect_scheduler_counters()
    compiled_scheduler = collect_scheduler_counters(engine="compiled")
    sweep_point = collect_sweep_point_probe()
    compiled_sweep_point = collect_sweep_point_probe(engine="compiled")
    generation = collect_generation_throughput()
    # The serve section keeps the CI probe's shape so the gate compares
    # like-for-like against it.
    serve = collect_serve_probe()
    with open(output) as handle:
        payload = json.load(handle)
    payload["scheduler"] = scheduler
    payload["scheduler_compiled"] = compiled_scheduler
    payload["sweep_point"] = sweep_point
    payload["sweep_point_compiled"] = compiled_sweep_point
    payload["generation"] = generation
    payload["serve"] = serve
    with open(output, "w") as handle:
        json.dump(payload, handle, indent=2)

    # Human-readable recap of what was recorded.
    benches = payload.get("benchmarks", [])
    print(f"\nwrote {output} ({len(benches)} benchmarks)")
    for bench in sorted(benches, key=lambda b: b["stats"]["mean"], reverse=True):
        print(f"  {bench['stats']['mean']:8.2f}s  {bench['name']}")
    print()
    print(format_probe_summary(scheduler))
    print(format_probe_summary(compiled_scheduler))
    print(format_sweep_point_summary(sweep_point))
    print(format_sweep_point_summary(compiled_sweep_point))
    print(format_generation_summary(generation))
    from repro.serve.loadgen import format_report

    print(format_report(serve))
    return 0


if __name__ == "__main__":
    sys.exit(main())
