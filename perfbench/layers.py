"""Per-layer spans for the traced run.

Spans are recorded from the benchmark's own files by wrapping each
layer's entry points in place; no program file records anything.  A
span's *self time* is its duration minus the part covered by its child
spans.  Spans live in memory, aggregated by name, and the table is
printed when the run ends.

Layers are the program's modules: ``trace``, ``engine`` (stages, clock,
warm-up, construction), ``accel`` (the C core and its Python feed),
``analysis`` (sweep, result cache), ``experiments`` and ``serve``.
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time
from collections import Counter, defaultdict
from typing import Dict, Iterator, List, Tuple


class Recorder:
    """Aggregated spans and counts, one span stack per thread."""

    def __init__(self) -> None:
        self.total: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.samples: Dict[str, List[float]] = defaultdict(list)
        #: summed duration of spans opened with no parent span.
        self.top_level = 0.0
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        stack = self._stack()
        stack.append(0.0)
        start = time.perf_counter()
        try:
            yield
        finally:
            duration = time.perf_counter() - start
            children = stack.pop()
            with self._lock:
                self.total[name] += duration
                self.self_time[name] += duration - children
                self.calls[name] += 1
                if not stack:
                    self.top_level += duration
            if stack:
                stack[-1] += duration

    def wrap(self, name: str, function):
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return function(*args, **kwargs)
        return wrapper

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self.samples[name].append(value)

    def export(self) -> dict:
        return {"total": dict(self.total), "self": dict(self.self_time),
                "calls": dict(self.calls), "counts": dict(self.counts),
                "samples": {k: list(v) for k, v in self.samples.items()},
                "top_level": self.top_level}


class Patches:
    """Attribute replacements, undone in reverse order."""

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object]] = []

    def replace(self, owner, attribute: str, value) -> None:
        self._undo.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, value)

    def undo(self) -> None:
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)


class _LibProxy:
    """The compiled core's cffi library with ``sim_run`` timed."""

    def __init__(self, lib, recorder: Recorder) -> None:
        self._lib = lib
        self.sim_run = recorder.wrap("accel.sim_run", lib.sim_run)

    def __getattr__(self, name: str):
        return getattr(self._lib, name)


@contextlib.contextmanager
def installed(recorder: Recorder) -> Iterator[None]:
    """Wrap every layer's entry points for the duration of the block."""
    from repro.analysis import cache as cache_mod
    from repro.analysis import sweep as sweep_mod
    from repro.engine import clock as clock_mod
    from repro.engine import engine as engine_mod
    from repro.engine import stages as stages_mod
    from repro.engine import state as state_mod
    from repro.engine.accel import compiled as compiled_mod
    from repro.engine.accel import loader as loader_mod
    from repro.engine.accel.artefacts import EXPORT_CACHE
    from repro.experiments import figure3, figure10, figure11, section33
    from repro.trace import workloads as workloads_mod

    patches = Patches()
    wrap = recorder.wrap

    # trace: generation behind the in-process memo, and the memo lookup.
    def counting_generator(name, function):
        timed = wrap(name, function)

        def generate(*args, **kwargs):
            trace = timed(*args, **kwargs)
            recorder.count("trace.generated", len(trace.instructions))
            return trace
        return generate

    for name in ("generate_trace", "generate_scenario_trace"):
        patches.replace(workloads_mod, name, counting_generator(
            "trace.generate", getattr(workloads_mod, name)))
    get_workload = wrap("trace.get_workload", workloads_mod.get_workload)
    patches.replace(workloads_mod, "get_workload", get_workload)
    patches.replace(sweep_mod, "get_workload", get_workload)

    # engine: stage ticks, the clock, construction, warm-up, stats.
    for stage_name, stage_cls in (("commit", stages_mod.CommitStage),
                                  ("writeback", stages_mod.WritebackStage),
                                  ("issue", stages_mod.IssueStage),
                                  ("rename", stages_mod.RenameStage),
                                  ("fetch", stages_mod.FetchStage)):
        patches.replace(stage_cls, "tick",
                        wrap(f"engine.stage.{stage_name}", stage_cls.tick))
    for clock_cls in (clock_mod.EventClock, clock_mod.CycleClock):
        patches.replace(clock_cls, "advance",
                        wrap("engine.clock_advance", clock_cls.advance))
    engine_cls = engine_mod.SimulationEngine
    patches.replace(engine_cls, "__init__",
                    wrap("engine.construct", engine_cls.__init__))
    original_run = engine_cls.run

    def engine_run(self, *args, **kwargs):
        skipped = self.clock.cycles_skipped
        with recorder.span("engine.run"):
            stats = original_run(self, *args, **kwargs)
        if self.backend_used == "python":
            skipped = self.clock.cycles_skipped - skipped
            recorder.count("engine.cycles_skipped", skipped)
            recorder.count("engine.cycles_stepped", stats.cycles - skipped)
        return stats
    patches.replace(engine_cls, "run", engine_run)
    state_cls = state_mod.MachineState
    patches.replace(state_cls, "_warm_state",
                    wrap("engine.warmup", state_cls._warm_state))
    patches.replace(state_cls, "collect_stats",
                    wrap("engine.collect_stats", state_cls.collect_stats))

    # accel: the Python feed around the C core, and the core itself.
    fill = wrap("accel.wp_fill", compiled_mod._fill_wrongpath)

    def fill_wrongpath(columns, generator, start, stop):
        recorder.count("accel.wp_payloads_drawn", stop - start)
        return fill(columns, generator, start, stop)
    patches.replace(compiled_mod, "_fill_wrongpath", fill_wrongpath)
    patches.replace(compiled_mod, "_refill_exceptions",
                    wrap("accel.exc_fill", compiled_mod._refill_exceptions))
    for name in ("_export_trace", "_export_warmup", "_export_predictor",
                 "_export_btb", "_export_cache"):
        patches.replace(compiled_mod, name,
                        wrap("accel.export", getattr(compiled_mod, name)))
    patches.replace(compiled_mod, "_assemble_stats",
                    wrap("accel.assemble", compiled_mod._assemble_stats))
    run_compiled = wrap("accel.run_compiled", compiled_mod.run_compiled)

    def counted_run_compiled(state, **kwargs):
        result = run_compiled(state, **kwargs)
        if result is not None:
            recorder.count("accel.fetched_wrong_path",
                           result.stats.fetched_wrong_path)
        return result
    patches.replace(compiled_mod, "run_compiled", counted_run_compiled)
    load_core = loader_mod.load_core

    def proxied_load_core(*args, **kwargs):
        ffi, lib = load_core(*args, **kwargs)
        return ffi, _LibProxy(lib, recorder)
    patches.replace(loader_mod, "load_core", proxied_load_core)

    # analysis: the sweep driver and the result cache.
    get = wrap("analysis.cache_get", cache_mod.SweepCache.get)

    def cache_get(self, sweep_config, point):
        stats = get(self, sweep_config, point)
        recorder.count("analysis.cache_misses" if stats is None
                       else "analysis.cache_hits")
        return stats
    patches.replace(cache_mod.SweepCache, "get", cache_get)
    patches.replace(cache_mod.SweepCache, "put",
                    wrap("analysis.cache_put", cache_mod.SweepCache.put))
    patches.replace(cache_mod, "point_key",
                    wrap("analysis.point_key", cache_mod.point_key))
    run_sweep = wrap("analysis.run_sweep", sweep_mod.run_sweep)
    for module in (sweep_mod, figure3, figure10, figure11, section33):
        patches.replace(module, "run_sweep", run_sweep)

    try:
        yield
    finally:
        # Counters since the last clear: every pass clears the export
        # cache first, and a traced server is a fresh process.
        hits, misses = EXPORT_CACHE.counters()
        recorder.count("accel.export_cache_hits", hits)
        recorder.count("accel.export_cache_misses", misses)
        patches.undo()


def group_of(name: str) -> str:
    """Ranking group of a span: the five stage ticks count as one."""
    return "engine.stage.*" if name.startswith("engine.stage.") else name


def self_time_table(exported: dict, timed_raw_s: float) -> Tuple[str, str]:
    """Render the per-span self-time table; return it and the largest group."""
    self_time = exported["self"]
    groups: Dict[str, float] = defaultdict(float)
    for name, seconds in self_time.items():
        if not name.startswith("host."):
            groups[group_of(name)] += seconds
    largest = max(groups, key=groups.get) if groups else "-"
    lines = [f"{'span':<28}{'calls':>10}{'total s':>11}{'self s':>10}"
             f"{'self %':>8}"]
    for name in sorted(self_time, key=self_time.get, reverse=True):
        share = 100.0 * self_time[name] / timed_raw_s if timed_raw_s else 0.0
        lines.append(f"{name:<28}{exported['calls'].get(name, 0):>10}"
                     f"{exported['total'][name]:>11.3f}"
                     f"{self_time[name]:>10.3f}{share:>7.1f}%")
    uncovered = max(0.0, timed_raw_s - exported["top_level"])
    share = 100.0 * uncovered / timed_raw_s if timed_raw_s else 0.0
    lines.append(f"{'(not in a top-level span)':<28}{'':>10}{'':>11}"
                 f"{uncovered:>10.3f}{share:>7.1f}%")
    lines.append(f"largest self-time layer: {largest} "
                 f"({groups.get(largest, 0.0):.3f} s)")
    return "\n".join(lines), largest
