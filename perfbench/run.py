"""Run one workload of the benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --ref-calibration-ms C --workload W \\
        --seed N --seconds S --trace 0|1

Workloads: ``paper-artefacts``, ``long-trace-compiled``, ``serve-zipf``
(see ``perfbench/README.md``).  ``--trace 0`` measures the end-to-end
metrics with nothing traced; ``--trace 1`` makes one untraced and one
traced pass and reports the per-layer metrics, after printing the
per-layer self-time table.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; metric names and units are those of ``BENCHMARK.json``.

Everything the run writes stays under ``.perfbench_work/`` in the
checkout; the compiled core's build is cached there between runs.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

#: Set-ups measured per run; ``setup_s`` is their median.
SETUP_REPEATS = 5

WORKLOADS = ("paper-artefacts", "long-trace-compiled", "serve-zipf")

ARTEFACTS = ("figure3", "figure10", "section33", "figure11", "table4")


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--ref-calibration-ms", type=float, required=True,
                        help="reference calibration time C (see hostclock)")
    return parser.parse_args(argv)


def prepare_environment(scratch: Path) -> None:
    """Point the program at this checkout and keep its files inside it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'repro'} is missing; run from the root "
                 f"of a full checkout")
    scratch.mkdir(parents=True)
    existing = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + existing
                                           if existing else "")
    os.environ["REPRO_ACCEL_CACHE"] = str(WORK / "accel")
    os.environ["TMPDIR"] = str(scratch)
    # The default engine and the default stores, whatever the caller set.
    for name in ("REPRO_ENGINE", "REPRO_SWEEP_CACHE", "REPRO_CACHE_BACKEND"):
        os.environ.pop(name, None)
    sys.path.insert(0, str(SRC))


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def tail(samples: List[float]) -> float:
    """The highest percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    return ordered[max(0, len(ordered) - 11)]


def measure_setup(set_up_once: Callable[[], Tuple[float, float]],
                  ref_s: float) -> float:
    """Median of several set-ups in reference-seconds; ``set_up_once``
    returns the host interval from spawn to ready."""
    from hostclock import HostSampler

    with HostSampler(ref_s) as sampler:
        intervals = [set_up_once() for _ in range(SETUP_REPEATS)]
    return statistics.median(sampler.ref(*interval) for interval in intervals)


def probe_sweep_setup(workload: str) -> Tuple[float, float]:
    """Spawn-to-ready interval of one fresh sweep-workload process."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "setup_probe.py"), workload],
        stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter()
    proc.communicate(timeout=120)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {line!r}")
    return started, ready


# ----------------------------------------------------------------------
# Per-layer metrics from a traced run
# ----------------------------------------------------------------------
def layer_metrics(exported: dict) -> Dict[str, float]:
    self_time, counts, calls = (exported["self"], exported["counts"],
                                exported["calls"])

    def seconds(name: str) -> float:
        return self_time.get(name, 0.0)

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    metrics = {
        "trace.generate_s": seconds("trace.generate"),
        "trace.generated": counts.get("trace.generated", 0),
        # Every generation is a miss of the in-process trace memo.
        "trace.memo_hit_ratio": ratio(
            calls.get("trace.get_workload", 0)
            - calls.get("trace.generate", 0),
            calls.get("trace.get_workload", 0)),
        "engine.clock_advance_s": seconds("engine.clock_advance"),
        "engine.warmup_s": seconds("engine.warmup"),
        "engine.construct_s": seconds("engine.construct"),
        "engine.cycles_stepped": counts.get("engine.cycles_stepped", 0),
        "engine.cycles_skipped": counts.get("engine.cycles_skipped", 0),
        "accel.wp_fill_s": seconds("accel.wp_fill"),
        "accel.wp_payloads_drawn": counts.get("accel.wp_payloads_drawn", 0),
        "accel.wp_useful_ratio": ratio(
            counts.get("accel.fetched_wrong_path", 0),
            counts.get("accel.wp_payloads_drawn", 0)),
        "accel.exc_fill_s": seconds("accel.exc_fill"),
        "accel.export_s": seconds("accel.export"),
        "accel.export_cache_hits": counts.get("accel.export_cache_hits", 0),
        "accel.export_cache_misses": counts.get("accel.export_cache_misses",
                                                0),
        "accel.sim_run_s": seconds("accel.sim_run"),
        "accel.sim_run_calls": calls.get("accel.sim_run", 0),
        "accel.assemble_s": seconds("accel.assemble"),
        "analysis.cache_get_s": seconds("analysis.cache_get"),
        "analysis.cache_put_s": seconds("analysis.cache_put"),
        "analysis.cache_hits": counts.get("analysis.cache_hits", 0),
        "analysis.cache_misses": counts.get("analysis.cache_misses", 0),
        "analysis.point_key_s": seconds("analysis.point_key"),
    }
    for stage in ("commit", "writeback", "issue", "rename", "fetch"):
        metrics[f"engine.stage.{stage}_s"] = seconds(f"engine.stage.{stage}")
    return metrics


def report_trace(exported: dict, timed_raw_s: float) -> float:
    """Print the self-time table; return the share of the timed phase
    outside every top-level span."""
    import layers

    table, _ = layers.self_time_table(exported, timed_raw_s)
    print(table)
    return max(0.0, 1.0 - exported["top_level"] / timed_raw_s)


def gap_metrics(gaps: Dict[str, float]) -> Dict[str, float]:
    return {f"experiments.gap.{claim}_pp": gap for claim, gap in gaps.items()}


# ----------------------------------------------------------------------
# Sweep workloads
# ----------------------------------------------------------------------
def run_sweeps(args, ref_s: float, scratch: Path) -> dict:
    import claims
    import sweeps

    # One CPU for the simulating thread and the host sampler, so the
    # sampler measures the CPU the work runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sweeps.prepare(args.workload)
    if args.trace:
        return trace_sweeps(args, ref_s, scratch)
    setup_s = measure_setup(lambda: probe_sweep_setup(args.workload), ref_s)
    passes = sweeps.run_passes(args.workload, args.seed, args.seconds, ref_s,
                               scratch)
    rss = sweeps.peak_rss_mb()
    checks = sweeps.verify(args.workload, passes, args.seed)
    ops = [ms for p in passes for ms in p.op_ref_ms]
    hits = [ms for p in passes for ms in p.hit_ref_ms]
    metrics = {
        "setup_s": setup_s,
        "wall_ref_s": statistics.median(p.wall_ref_s for p in passes),
        "sim_kips_ref": statistics.median(
            p.exact_counts()["sim.committed"] / 1000.0 / p.wall_ref_s
            for p in passes),
        "op_p50_ref_ms": statistics.median(ops),
        "op_tail_ref_ms": tail(ops),
        "hit_p50_ref_ms": statistics.median(
            ms for p in passes for ms in p.readback_ref_ms),
        # Every simulated point is a result-cache miss.
        "miss_p50_ref_ms": statistics.median(ops),
        "req_per_ref_s": statistics.median(p.requests / p.wall_ref_s
                                           for p in passes),
        "peak_rss_mb": rss,
        "paper_gap_pp": claims.mean_abs_gap(passes[0].gaps),
    }
    raw_ops = [ms for p in passes for ms in p.op_raw_ms]
    raw_hits = [ms for p in passes for ms in p.hit_raw_ms]
    print(f"{args.workload}: {len(passes)} pass(es), {len(ops)} points "
          f"simulated, {len(hits)} cache hits; host time: wall "
          f"{statistics.median(p.raw_wall_s for p in passes):.3f} s, "
          f"op p50 {statistics.median(raw_ops):.3f} ms, tail "
          f"{tail(raw_ops):.3f} ms, hit p50 {statistics.median(raw_hits):.4f}"
          f" ms, tail {tail(raw_hits):.4f} ms")
    return result(metrics, checks, operations=len(ops))


def trace_sweeps(args, ref_s: float, scratch: Path) -> dict:
    import layers
    import sweeps

    untraced = sweeps.run_passes(args.workload, args.seed, args.seconds,
                                 ref_s, scratch, max_passes=1)[0]
    recorder = layers.Recorder()
    with layers.installed(recorder):
        traced = sweeps.run_passes(args.workload, args.seed, args.seconds,
                                   ref_s, scratch, recorder=recorder,
                                   max_passes=1)[0]
    exported = recorder.export()
    uncovered = report_trace(exported, traced.raw_wall_s)
    checks = sweeps.verify(args.workload, [untraced, traced], args.seed)
    metrics = layer_metrics(exported)
    metrics.update(untraced.exact_counts())
    metrics.update(gap_metrics(untraced.gaps))
    for name in ARTEFACTS:
        metrics[f"experiments.{name}_ref_s"] = untraced.artefact_ref_s.get(
            name, 0.0)
    metrics.update({
        # Too unsteady run to run for an end-to-end bound.
        "hit_tail_ref_ms": tail(untraced.hit_ref_ms),
        "host.calib_ms": untraced.calib_ms,
        "host.raw_wall_s": untraced.raw_wall_s,
        "host.tracing_overhead": traced.wall_ref_s / untraced.wall_ref_s,
        "host.uncovered_share": uncovered,
    })
    operations = len(untraced.op_ref_ms) + len(traced.op_ref_ms)
    return result(metrics, checks, operations=operations)


# ----------------------------------------------------------------------
# serve-zipf
# ----------------------------------------------------------------------
def run_serve(args, ref_s: float, scratch: Path) -> dict:
    import claims
    import serving

    stores = iter(scratch / f"store-{index}" for index in range(1_000))

    def start_and_stop() -> Tuple[float, float]:
        server = serving.Server(next(stores))
        server.stop()
        return server.startup

    if args.trace:
        return trace_serve(args, ref_s, scratch, stores)
    setup_s = measure_setup(start_and_stop, ref_s)
    rounds, checks, rss = [], {}, 0.0
    started = time.perf_counter()
    while True:
        server = serving.Server(next(stores))
        try:
            round_result = serving.run_round(server.url, args.seed, ref_s)
            rss = max(rss, server.peak_rss_mb())
            for name, ok in serving.verify_round(server.url,
                                                 round_result).items():
                checks[f"round{len(rounds)}.{name}"] = ok
        finally:
            server.stop()
        rounds.append(round_result)
        elapsed = time.perf_counter() - started
        if elapsed + statistics.median(r.raw_wall_s for r in rounds) \
                > args.seconds:
            break
    first = serving.exact_counts(rounds[0])
    for index, round_result in enumerate(rounds):
        checks[f"round{index}.exact_counts_repeat"] = (
            serving.exact_counts(round_result) == first)
    requests = [ms for r in rounds for ms in r.latencies()]
    hits = [ms for r in rounds for ms in r.latencies("cache")]
    misses = [ms for r in rounds for ms in r.latencies("computed")]
    metrics = {
        "setup_s": setup_s,
        "wall_ref_s": statistics.median(r.wall_ref_s for r in rounds),
        "sim_kips_ref": statistics.median(
            serving.exact_counts(r)["sim.committed"] / 1000.0 / r.wall_ref_s
            for r in rounds),
        "op_p50_ref_ms": statistics.median(requests),
        "op_tail_ref_ms": tail(requests),
        "hit_p50_ref_ms": statistics.median(hits),
        "miss_p50_ref_ms": statistics.median(misses),
        "req_per_ref_s": statistics.median(len(r.requests) / r.wall_ref_s
                                           for r in rounds),
        "peak_rss_mb": rss,
        "paper_gap_pp": claims.mean_abs_gap(serving.paper_gaps(rounds[0])),
    }
    print(f"serve-zipf: {len(rounds)} round(s), {len(requests)} answered, "
          f"{len(hits)} hits, {len(misses)} computed, raw wall "
          f"{[round(r.raw_wall_s, 2) for r in rounds]} s")
    failed_requests = sum(1 for r in rounds for *_, status in r.requests
                          if status != 200)
    failed_requests += sum(r.transport_errors for r in rounds)
    return result(metrics, checks,
                  operations=serving.ROUND_REQUESTS * len(rounds),
                  failed_operations=failed_requests)


def trace_serve(args, ref_s: float, scratch: Path, stores) -> dict:
    import serving

    summary = scratch / "serve-trace.json"
    checks, rounds, server_metrics = {}, [], []
    for label, traced in (("untraced", False), ("traced", True)):
        server = serving.Server(next(stores),
                                summary=summary if traced else None)
        try:
            rounds.append(serving.run_round(server.url, args.seed, ref_s))
            server_metrics.append(server.metrics())
            for name, ok in serving.verify_round(server.url,
                                                 rounds[-1]).items():
                checks[f"{label}.{name}"] = ok
        finally:
            server.stop()
    untraced, traced = rounds
    exported = json.loads(summary.read_text())
    uncovered = report_trace(exported, traced.raw_wall_s)
    counts = serving.exact_counts(untraced)
    checks["traced.exact_counts_repeat"] = (
        serving.exact_counts(traced) == counts)
    served = server_metrics[0]
    server_p50 = served["latency"]["POST /v1/sweep-point"]["p50_ms"]
    raw_ms = [raw for _, _, raw, _, _ in untraced.requests]
    metrics = layer_metrics(exported)
    metrics.update(counts)
    metrics.update(gap_metrics(serving.paper_gaps(untraced)))
    metrics.update({
        "serve.executor_wait_ms": statistics.median(
            exported["samples"]["serve.executor_wait_ms"]),
        "serve.server_p50_ms": server_p50,
        "serve.transport_p50_ms": statistics.median(raw_ms) - server_p50,
        "serve.joined": served["counters"].get("sweep_joined", 0),
        "serve.cache_hits": served["counters"].get("sweep_cache_hits", 0),
        "hit_tail_ref_ms": tail(untraced.latencies("cache")),
        "host.calib_ms": untraced.calib_ms,
        "host.raw_wall_s": untraced.raw_wall_s,
        "host.tracing_overhead": traced.wall_ref_s / untraced.wall_ref_s,
        "host.uncovered_share": uncovered,
    })
    checks["computations_match_server"] = (
        served["counters"].get("sweep_computations", 0)
        == counts["serve.computations"])
    failed_requests = sum(1 for r in rounds for *_, status in r.requests
                          if status != 200)
    return result(metrics, checks,
                  operations=2 * serving.ROUND_REQUESTS,
                  failed_operations=failed_requests)


# ----------------------------------------------------------------------
def result(metrics: Dict[str, float], checks: Dict[str, bool],
           operations: int, failed_operations: int = 0) -> dict:
    failed_checks = sorted(name for name, ok in checks.items() if not ok)
    for name in failed_checks:
        print(f"check failed: {name}", file=sys.stderr)
    attempted = operations + len(checks)
    failed = failed_operations + len(failed_checks)
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def declared_metrics(trace: bool) -> Dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    scratch = WORK / "tmp" / str(os.getpid())
    prepare_environment(scratch)
    declared = declared_metrics(bool(args.trace))
    ref_s = args.ref_calibration_ms / 1000.0
    try:
        run = run_serve if args.workload == "serve-zipf" else run_sweeps
        outcome = run(args, ref_s, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    measured = outcome["metrics"]
    if args.trace:
        measured["fail_ratio"] = outcome["failed"] / outcome["attempted"]
    unknown = sorted(set(measured) - set(declared))
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {unknown}")
    missing = sorted(set(declared) - set(measured))
    if missing and not args.trace:
        raise RuntimeError(f"end-to-end metrics not measured: {missing}")
    # A layer the workload never enters reports 0.
    outcome["metrics"] = {name: {"value": measured.get(name, 0), "unit": unit}
                          for name, unit in declared.items()}
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
