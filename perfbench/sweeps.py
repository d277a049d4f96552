"""The two sweep workloads: ``paper-artefacts`` and ``long-trace-compiled``.

One *pass* of a workload is what a user waits for in one fresh process:
``paper-artefacts`` regenerates Figure 3, Figure 10, Section 3.3,
Figure 11 and Table 4 on the default engine; ``long-trace-compiled``
regenerates Figure 10 on the compiled engine with long traces, then
reads it back from the result cache three times.  Every pass starts from a fresh
result store and from empty in-process trace and export memos.

Every sweep point simulated is one *operation*, timed in host seconds
and normalised by the host's speed around it (see ``hostclock``).  Every result-cache lookup is one
*request*: a lookup that returns stats is a hit, and a point that had to
be simulated is a miss.  In an untraced pass, each point stored is
followed by a batch of reads back from the store, which time the hit
path and are left out of the pass's own times.
"""

from __future__ import annotations

import dataclasses
import gc
import resource
import statistics
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.analysis import cache as cache_mod
from repro.analysis import sweep as sweep_mod
from repro.analysis.cache import code_digest
from repro.engine.accel.artefacts import EXPORT_CACHE
from repro.experiments import figure3, figure10, figure11, section33, table4
from repro.pipeline.config import ProcessorConfig
from repro.trace import workloads as workloads_mod

import claims
from hostclock import HostSampler

#: Bench scale of ``benchmarks/conftest.py``.
PAPER_TRACE_LENGTH = 4_000

#: Reduced Figure 11 grid: the sizes the paper's Figure 11 claims name
#: (40, 64, 104) plus 48, which Figure 10 has already cached.
FIGURE11_SIZES = (40, 48, 64, 104)

SECTION33_SIZES = (64, 48, 40)

LONG_TRACE_LENGTH = 100_000

#: Long-trace points re-simulated on the Python engine after the timed
#: phase and compared field for field with the compiled result.
PYTHON_CHECK_POINTS = (("li", "extended", 48),)

#: ``SweepCache.get`` calls in the read-back batch after each point is
#: stored, cycling through the points stored so far.  A batch (~15 ms) is
#: one ``hit_p50_ref_ms`` sample.  Single hits (~0.2 ms) are too short to
#: normalise, and one read-back block after the pass lasted a few
#: seconds, so it saw too few of the host's speed changes to be steady
#: run to run; batches spread over the whole pass see them all.
READBACK_GETS = 48

#: The conventional INT IPC is flat over this grid at 4k instructions:
#: between 40 and 104 registers it moves by up to about 6 % either way
#: from seed to seed, so the 0.05 IPC tolerance of
#: ``benchmarks/test_bench_figure11.py`` (one seed, 160 against 40
#: registers) fails on some seeds.  A curve may drop by this share.
FIGURE11_IPC_DROP = 0.15


def prepare(workload: str) -> None:
    """Everything a fresh process does before the first timed operation."""
    code_digest()
    if workload == "long-trace-compiled":
        from repro.engine import accel

        config = ProcessorConfig(engine="compiled")
        if accel.resolve_engine_backend(config) != "compiled":
            raise RuntimeError("compiled engine unavailable: "
                               f"{accel.backend_fallback_reason()}")


Interval = Tuple[float, float]


@dataclasses.dataclass
class PassResult:
    wall_ref_s: float
    raw_wall_s: float
    calib_ms: float
    op_ref_ms: List[float]
    hit_ref_ms: List[float]
    #: mean hit of each read-back batch.
    readback_ref_ms: List[float]
    #: the same operations and hits in host milliseconds.
    op_raw_ms: List[float]
    hit_raw_ms: List[float]
    requests: int
    #: (benchmark, policy, registers, engine) -> SimStats of simulated points.
    simulated: Dict[tuple, object]
    artefact_ref_s: Dict[str, float]
    checks: Dict[str, bool]
    gaps: Dict[str, float]
    sweeps: Dict[str, object]

    def exact_counts(self) -> Dict[str, float]:
        stats = list(self.simulated.values())
        return {
            "sim.committed": sum(s.committed_instructions for s in stats),
            "sim.cycles": sum(s.cycles for s in stats),
            "sim.ipc_hmean": statistics.harmonic_mean([s.ipc for s in stats]),
            "sim.fetched_wrong_path": sum(s.fetched_wrong_path for s in stats),
        }


class _Instrumented:
    """Records the host interval of every simulated point and every cache
    hit of one pass.  Given the pass's store, it also reads a batch of the
    points stored so far back after each point is stored, and records the
    interval of each batch."""

    def __init__(self, store: Optional[Path]) -> None:
        self.ops: List[Interval] = []
        self.hits: List[Interval] = []
        self.requests = 0
        self.simulated: Dict[tuple, object] = {}
        self.store = cache_mod.SweepCache(store) if store else None
        #: (sweep config, point, stats) of every point stored, in order.
        self.stored: List[tuple] = []
        self.readbacks: List[Interval] = []
        #: every read-back returned the stats stored for that point.
        self.readbacks_match = True

    def _read_back(self, cache_get) -> None:
        offset = len(self.readbacks) * READBACK_GETS
        batch = [self.stored[(offset + i) % len(self.stored)]
                 for i in range(READBACK_GETS)]
        gc.disable()
        try:
            start = time.perf_counter()
            got = [cache_get(self.store, config, point)
                   for config, point, _ in batch]
            self.readbacks.append((start, time.perf_counter()))
        finally:
            gc.enable()
        self.readbacks_match &= all(
            stats == expected for stats, (_, _, expected) in zip(got, batch))

    def __enter__(self) -> "_Instrumented":
        self._point = sweep_mod.run_simulation_point
        self._get = cache_mod.SweepCache.get
        self._put = cache_mod.SweepCache.put
        simulate_point, cache_get, cache_put = self._point, self._get, self._put

        def timed_point(sweep_config, point):
            start = time.perf_counter()
            stats = simulate_point(sweep_config, point)
            self.ops.append((start, time.perf_counter()))
            key = (point.benchmark, point.policy, point.num_registers,
                   sweep_config.base_config.engine)
            self.simulated[key] = stats
            return stats

        def timed_get(cache, sweep_config, point):
            start = time.perf_counter()
            stats = cache_get(cache, sweep_config, point)
            end = time.perf_counter()
            self.requests += 1
            if stats is not None:
                self.hits.append((start, end))
            return stats

        def put_and_read_back(cache, sweep_config, point, stats):
            cache_put(cache, sweep_config, point, stats)
            self.stored.append((sweep_config, point, stats))
            self._read_back(cache_get)

        sweep_mod.run_simulation_point = timed_point
        cache_mod.SweepCache.get = timed_get
        if self.store is not None:
            cache_mod.SweepCache.put = put_and_read_back
        return self

    def __exit__(self, *exc_info) -> None:
        sweep_mod.run_simulation_point = self._point
        cache_mod.SweepCache.get = self._get
        cache_mod.SweepCache.put = self._put


def _fresh_process_memos() -> None:
    """Drop what a previous pass left in this process's memos."""
    workloads_mod._cached_trace.cache_clear()
    EXPORT_CACHE.clear()
    gc.collect()


def _run_pass(artefacts: Callable, seed: int, store: Path, ref_s: float,
              recorder=None) -> PassResult:
    _fresh_process_memos()
    span = recorder.span if recorder is not None else (lambda _: nullcontext())
    artefact_spans: Dict[str, Interval] = {}

    def artefact(name: str, function, *args, **kwargs):
        start = time.perf_counter()
        with span(f"experiments.{name}"):
            result = function(*args, **kwargs)
        artefact_spans[name] = (start, time.perf_counter())
        return result

    # The traced pass reads nothing back, so no span covers a read-back.
    with HostSampler(ref_s) as sampler, _Instrumented(
            store if recorder is None else None) as instrumented:
        started = time.perf_counter()
        sweeps, checks, gaps = artefacts(artefact, seed, str(store))
        ended = time.perf_counter()
    readbacks = instrumented.readbacks
    if recorder is None:
        checks["readback.all_hits_match"] = instrumented.readbacks_match

    def raw_s(start: float, end: float) -> float:
        """Host seconds of ``[start, end]`` without the read-backs in it."""
        return end - start - sum(b - a for a, b in readbacks
                                 if start <= a and b <= end)

    def ref_s_of(start: float, end: float) -> float:
        return raw_s(start, end) * ref_s / sampler.c_between(start, end)

    def ref_ms(intervals: List[Interval], per: int = 1) -> List[float]:
        return [1000.0 * sampler.ref(*interval) / per
                for interval in intervals]

    def raw_ms(intervals: List[Interval]) -> List[float]:
        return [1000.0 * (end - start) for start, end in intervals]

    return PassResult(
        wall_ref_s=ref_s_of(started, ended), raw_wall_s=raw_s(started, ended),
        calib_ms=sampler.calib_ms(), op_ref_ms=ref_ms(instrumented.ops),
        hit_ref_ms=ref_ms(instrumented.hits),
        readback_ref_ms=ref_ms(readbacks, per=READBACK_GETS),
        op_raw_ms=raw_ms(instrumented.ops),
        hit_raw_ms=raw_ms(instrumented.hits), requests=instrumented.requests,
        simulated=instrumented.simulated,
        artefact_ref_s={name: ref_s_of(*interval)
                        for name, interval in artefact_spans.items()},
        checks=checks, gaps=gaps, sweeps=sweeps)


# ----------------------------------------------------------------------
# paper-artefacts
# ----------------------------------------------------------------------
def _paper_artefacts(artefact, seed: int, store: str):
    base = ProcessorConfig(seed=seed)
    common = {"trace_length": PAPER_TRACE_LENGTH, "base_config": base,
              "cache": store}
    fig3 = artefact("figure3", figure3.run, **common)
    fig10 = artefact("figure10", figure10.run, **common)
    sec33 = artefact("section33", section33.run, sizes=SECTION33_SIZES,
                     **common)
    fig11 = artefact("figure11", figure11.run, sizes=FIGURE11_SIZES, **common)
    # Table 4 derives from Figure 11's points, read back from the store.
    tab4 = artefact("table4", lambda: table4.run(
        figure11_result=figure11.run(sizes=FIGURE11_SIZES, **common)))

    sweeps = {"figure10": fig10.sweep, "section33": sec33.sweep,
              "figure11": fig11.sweep}
    sources = {name: claims.sweep_lookup(sweep)
               for name, sweep in sweeps.items()}
    gaps = claims.gaps(sources, figure3=fig3, table4=tab4)
    return sweeps, _paper_checks(fig3, fig10, sec33, fig11, tab4), gaps


def _paper_checks(fig3, fig10, sec33, fig11, tab4) -> Dict[str, bool]:
    """The artefact shape checks of ``benchmarks/test_bench_*.py``."""
    fp11 = dict(fig11.speedup_curve("fp", "extended"))
    low, high = min(FIGURE11_SIZES), max(FIGURE11_SIZES)
    savings = [row.saved_percent for row in tab4.rows_for("fp")
               if row.saved_percent is not None]
    checks = {
        "figure3.overheads_positive":
            fig3.idle_overhead("int") > 0 and fig3.idle_overhead("fp") > 0,
        "figure3.int_above_fp":
            fig3.idle_overhead("int") > fig3.idle_overhead("fp"),
        "figure10.fp_basic_gains":
            fig10.suite_speedup_percent("fp", "basic") > 0,
        "figure10.fp_extended_gains":
            fig10.suite_speedup_percent("fp", "extended") > 0,
        "figure10.fp_above_int":
            fig10.suite_speedup_percent("fp", "extended")
            > fig10.suite_speedup_percent("int", "extended"),
        "section33.fp_gains_at_40": sec33.speedup_percent("fp", 40) > 0,
        "section33.tighter_gains_more":
            sec33.speedup_percent("fp", 40)
            >= sec33.speedup_percent("fp", 64) - 1.0,
        "figure11.gains_shrink": fp11[low] > fp11[high] - 1.0,
        "table4.fp_rows": bool(tab4.rows_for("fp")),
        "table4.fp_saves": bool(savings) and max(savings) > 0,
    }
    for suite in ("int", "fp"):
        curve = dict(fig11.curve(suite, "conv"))
        checks[f"figure11.{suite}_ipc_holds"] = (
            curve[high] >= curve[low] * (1.0 - FIGURE11_IPC_DROP))
    return checks


# ----------------------------------------------------------------------
# long-trace-compiled
# ----------------------------------------------------------------------
def _long_trace(artefact, seed: int, store: str):
    common = {"trace_length": LONG_TRACE_LENGTH, "cache": store,
              "base_config": ProcessorConfig(engine="compiled", seed=seed)}
    fig10 = artefact("figure10", figure10.run, **common)
    rereads = [artefact("figure10_cached", figure10.run, **common)
               for _ in range(3)]
    checks = {
        "figure10.compiled_ran": fig10.sweep.compiled_fallback_reason is None,
        "figure10.reread_all_cached": all(
            again.sweep.cached == len(again.sweep) for again in rereads),
    }
    gaps = claims.gaps({"figure10": claims.sweep_lookup(fig10.sweep)})
    return {"figure10": fig10.sweep}, checks, gaps


def _python_engine_checks(result: PassResult, seed: int) -> Dict[str, bool]:
    """Re-simulate a fixed sample on the Python engine; compare SimStats."""
    sweep = result.sweeps["figure10"]
    checks = {}
    for benchmark, policy, registers in PYTHON_CHECK_POINTS:
        config = dataclasses.replace(
            sweep.config,
            base_config=ProcessorConfig(engine="python", seed=seed))
        point = sweep_mod.SweepPoint(benchmark, policy, registers)
        reference = sweep_mod.run_simulation_point(config, point)
        compiled = sweep.stats(benchmark, policy, registers)
        checks[f"python_engine.{benchmark}_{policy}_{registers}"] = (
            dataclasses.asdict(reference) == dataclasses.asdict(compiled))
    return checks


WORKLOADS = {"paper-artefacts": _paper_artefacts,
             "long-trace-compiled": _long_trace}


def run_passes(workload: str, seed: int, seconds: float, ref_s: float,
               scratch: Path, recorder=None, max_passes: Optional[int] = None,
               ) -> List[PassResult]:
    """Run whole passes while another one still fits in ``seconds``."""
    passes: List[PassResult] = []
    started = time.perf_counter()
    while True:
        store = scratch / f"store-{len(passes)}-{recorder is not None}"
        passes.append(_run_pass(WORKLOADS[workload], seed, store, ref_s,
                                recorder))
        if max_passes is not None and len(passes) >= max_passes:
            break
        elapsed = time.perf_counter() - started
        if elapsed + statistics.median(p.raw_wall_s for p in passes) > seconds:
            break
    return passes


def verify(workload: str, passes: List[PassResult], seed: int,
           ) -> Dict[str, bool]:
    """Output checks of a run: each pass's own checks, exact repeats
    across passes, and (long traces) the Python-engine re-simulation."""
    checks = {}
    first = passes[0].exact_counts()
    for index, result in enumerate(passes):
        for name, ok in result.checks.items():
            checks[f"pass{index}.{name}"] = ok
        checks[f"pass{index}.exact_counts_repeat"] = (
            result.exact_counts() == first and result.gaps == passes[0].gaps)
    if workload == "long-trace-compiled":
        checks.update(_python_engine_checks(passes[0], seed))
    return checks


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
