"""Simulation sweep driver (the engine behind Figures 10/11 and Table 4).

A *sweep* is the cross product of benchmarks × release policies ×
register-file sizes, each point being one cycle-level simulation.  The
driver layers two mechanisms over that cross product:

* a persistent on-disk **result cache** (:mod:`repro.analysis.cache`)
  keyed by (workload, config hash, trace length, seed), so regenerating a
  figure after a partial sweep only simulates the missing points, one
  after another in the calling process (:func:`run_points`);
* the :class:`SweepResult` accessors the experiment modules need
  (per-point stats, harmonic-mean IPC curves, iso-IPC sizes, merging).
"""

from __future__ import annotations

import threading
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.analysis.cache import SweepCache, resolve_cache
from repro.analysis.metrics import harmonic_mean, iso_ipc_register_requirement
from repro.engine import SimulationEngine
from repro.pipeline.config import ProcessorConfig
from repro.pipeline.stats import SimStats
from repro.trace.workloads import (SCENARIOS, ScenarioProfile, get_workload,
                                   install_ephemeral_profiles)


@dataclass(frozen=True)
class SweepPoint:
    """One simulation point of a sweep."""

    benchmark: str
    policy: str
    num_registers: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.benchmark}/{self.policy}/P{self.num_registers}"


@dataclass(frozen=True)
class SweepConfig:
    """Parameters shared by every point of a sweep.

    ``num_registers`` of a point is applied to *both* the integer and the
    FP file, exactly as the paper's "48int + 48FP" configurations.

    ``scenario_profiles`` carries the scenario profiles behind any
    non-built-in workload names in ``benchmarks``.  Derived profiles
    (e.g. per-phase ones) live in no registry, and the cache key must see
    the exact profile content being swept, so the profiles travel with
    the sweep config; :func:`run_sweep` attaches registered ones
    automatically.
    """

    benchmarks: Tuple[str, ...]
    policies: Tuple[str, ...] = ("conv", "basic", "extended")
    register_sizes: Tuple[int, ...] = (48,)
    trace_length: int = 20_000
    seed: int = 0
    base_config: ProcessorConfig = field(default_factory=ProcessorConfig)
    scenario_profiles: Tuple[ScenarioProfile, ...] = ()

    def points(self) -> List[SweepPoint]:
        """Enumerate every distinct simulation point of the sweep, in order
        (a benchmark, policy or size listed twice yields its points once)."""
        return list(dict.fromkeys(SweepPoint(benchmark, policy, size)
                                  for benchmark in self.benchmarks
                                  for policy in self.policies
                                  for size in self.register_sizes))

    def config_for(self, point: SweepPoint) -> ProcessorConfig:
        """Processor configuration of one sweep point."""
        return replace(self.base_config,
                       release_policy=point.policy,
                       num_physical_int=point.num_registers,
                       num_physical_fp=point.num_registers)


class _PointBackends(threading.local):
    """Points simulated by the current thread, per backend that ran them.

    The sweep drivers read its deltas, so the provenance survives a
    wrapper around :func:`run_simulation_point`.  Per thread because a
    server computes concurrent misses on executor threads, and each
    request's provenance must count its own points only.
    """

    def __init__(self) -> None:
        self.counts: Counter = Counter()


POINT_BACKENDS = _PointBackends()


def merge_backends(*backends: Optional[str]) -> Optional[str]:
    """Provenance of a set of points from the backends that ran them:
    ``"compiled"``, ``"python"``, ``"mixed"``, or None if nothing ran."""
    ran = {backend for backend in backends if backend is not None}
    if len(ran) > 1:
        return "mixed"
    return ran.pop() if ran else None


def run_simulation_point(sweep_config: SweepConfig, point: SweepPoint) -> SimStats:
    """Run the single simulation of ``point``."""
    # Make the config's profiles resolvable *by name*: the simulator's
    # warm-up pass re-resolves ``trace.name`` (different seed) through the
    # plain registry lookup, which would otherwise miss derived profiles
    # and warm up with a different trace than the config names — same
    # cache key, different stats.
    install_ephemeral_profiles(sweep_config.scenario_profiles)
    trace = get_workload(point.benchmark, sweep_config.trace_length,
                         seed=sweep_config.seed,
                         scenario_profiles=sweep_config.scenario_profiles)
    engine = SimulationEngine(trace, sweep_config.config_for(point))
    stats = engine.run()
    POINT_BACKENDS.counts[engine.backend_used] += 1
    return stats


def run_points(sweep_config: SweepConfig, points: Sequence[SweepPoint],
               on_result: Callable[[SweepPoint, SimStats], None]) -> Dict:
    """Simulate ``points`` in this process, handing each result to
    ``on_result`` as it lands; return the run's telemetry.

    The telemetry holds the backend that ran the points and why a
    compiled request ran on the Python engine.  The backend tally is per
    thread, so concurrent sweeps in one process (a server's misses) each
    count only their own points.
    """
    from repro.engine import accel

    backends_before = POINT_BACKENDS.counts.copy()
    for point in points:
        on_result(point, run_simulation_point(sweep_config, point))
    # The process-wide reason concerns these points only if they ran and
    # asked for the compiled backend.
    reason = (accel.backend_fallback_reason()
              if points and accel.requested_backend(
                  sweep_config.base_config) == "compiled"
              else None)
    return {"fallback_reason": reason,
            "backend": merge_backends(
                *(POINT_BACKENDS.counts - backends_before))}


def _attach_scenario_profiles(sweep_config: SweepConfig) -> SweepConfig:
    """Attach the registry profile of every scenario named in the sweep.

    Run before the cache lookups so the key derivation sees the exact
    profile content being swept.  Explicitly supplied profiles win over
    registry entries of the same name.
    """
    supplied = {profile.name for profile in sweep_config.scenario_profiles}
    from_registry = tuple(SCENARIOS[name] for name in sweep_config.benchmarks
                          if name in SCENARIOS and name not in supplied)
    if not from_registry:
        return sweep_config
    return replace(sweep_config,
                   scenario_profiles=sweep_config.scenario_profiles + from_registry)


class SweepResult:
    """Results of a sweep, indexed by (benchmark, policy, register size).

    ``simulated`` / ``cached`` report how many points the producing
    ``run_sweep`` call actually simulated versus served from the on-disk
    cache (both zero for results built directly from a dict).

    ``compiled_fallback_reason`` is set when
    the sweep requested the compiled backend but ran on the Python engine.
    ``backend`` records the engine that actually simulated the points:
    ``"compiled"``, ``"python"``, ``"mixed"`` (some of each, e.g. a
    configuration outside the C core's envelope), or None when every
    point came from the result cache.
    """

    def __init__(self, sweep_config: SweepConfig,
                 results: Dict[SweepPoint, SimStats],
                 simulated: int = 0, cached: int = 0,
                 compiled_fallback_reason: Optional[str] = None,
                 backend: Optional[str] = None) -> None:
        self.config = sweep_config
        self._results = dict(results)
        self.simulated = simulated
        self.cached = cached
        self.compiled_fallback_reason = compiled_fallback_reason
        self.backend = backend

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._results)

    def __contains__(self, point) -> bool:
        """Probe for a point: a :class:`SweepPoint` or a
        ``(benchmark, policy, num_registers)`` tuple."""
        if not isinstance(point, SweepPoint):
            try:
                point = SweepPoint(*point)
            except TypeError:
                return False
        return point in self._results

    def points(self) -> List[SweepPoint]:
        """All points present in the result."""
        return list(self._results)

    def stats(self, benchmark: str, policy: str, num_registers: int) -> SimStats:
        """Full statistics of one point.

        Raises a :class:`KeyError` naming the missing point and the
        nearest available coordinates, instead of a bare key repr.
        """
        point = SweepPoint(benchmark, policy, num_registers)
        try:
            return self._results[point]
        except KeyError:
            raise KeyError(self._describe_missing(point)) from None

    def _describe_missing(self, point: SweepPoint) -> str:
        benchmarks = sorted({p.benchmark for p in self._results})
        policies = sorted({p.policy for p in self._results})
        sizes = sorted({p.num_registers for p in self._results
                        if p.benchmark == point.benchmark
                        and p.policy == point.policy}
                       or {p.num_registers for p in self._results})
        nearest = sorted(sizes, key=lambda s: abs(s - point.num_registers))[:5]
        return (f"sweep has no point {point} — available benchmarks: "
                f"{benchmarks or '[]'}; policies: {policies or '[]'}; "
                f"nearest register sizes: {sorted(nearest) or '[]'}")

    def ipc(self, benchmark: str, policy: str, num_registers: int) -> float:
        """IPC of one point."""
        return self.stats(benchmark, policy, num_registers).ipc

    # ------------------------------------------------------------------
    def harmonic_mean_ipc(self, benchmarks: Sequence[str], policy: str,
                          num_registers: int) -> float:
        """Harmonic-mean IPC over ``benchmarks`` (the paper's Hm bars)."""
        return harmonic_mean(self.ipc(benchmark, policy, num_registers)
                             for benchmark in benchmarks)

    def ipc_curve(self, benchmarks: Sequence[str], policy: str,
                  ) -> List[Tuple[int, float]]:
        """Harmonic-mean IPC as a function of register-file size (Figure 11),
        one entry per distinct size."""
        return [(size, self.harmonic_mean_ipc(benchmarks, policy, size))
                for size in dict.fromkeys(self.config.register_sizes)]

    def iso_ipc_size(self, benchmarks: Sequence[str], policy: str,
                     target_ipc: float) -> Optional[float]:
        """Smallest register count at which ``policy`` reaches ``target_ipc``."""
        curve = self.ipc_curve(benchmarks, policy)
        sizes = [size for size, _ in curve]
        ipcs = [ipc for _, ipc in curve]
        return iso_ipc_register_requirement(sizes, ipcs, target_ipc)

    # ------------------------------------------------------------------
    def merge(self, other: "SweepResult") -> "SweepResult":
        """Combine two sweeps (``other`` wins on overlapping points)."""
        merged = dict(self._results)
        merged.update(other._results)
        sizes = tuple(sorted(set(self.config.register_sizes)
                             | set(other.config.register_sizes)))
        benchmarks = tuple(dict.fromkeys(self.config.benchmarks
                                         + other.config.benchmarks))
        policies = tuple(dict.fromkeys(self.config.policies + other.config.policies))
        profiles = {profile.name: profile
                    for profile in (self.config.scenario_profiles
                                    + other.config.scenario_profiles)}
        config = replace(self.config, register_sizes=sizes, benchmarks=benchmarks,
                         policies=policies,
                         scenario_profiles=tuple(profiles.values()))
        return SweepResult(
            config, merged,
            simulated=self.simulated + other.simulated,
            cached=self.cached + other.cached,
            compiled_fallback_reason=(self.compiled_fallback_reason
                                      or other.compiled_fallback_reason),
            backend=merge_backends(self.backend, other.backend))


def run_sweep(sweep_config: SweepConfig,
              cache: Union[None, bool, str, Path, SweepCache] = None,
              ) -> SweepResult:
    """Run every point of ``sweep_config`` and collect the results.

    The points missing from the cache run one after another in the
    calling process.  ``cache`` enables the persistent result cache:
    ``True`` uses the default directory (``$REPRO_SWEEP_CACHE`` or
    ``~/.cache/repro/sweeps``), a path roots the cache there, and a
    :class:`SweepCache` instance is used as-is.  Cached points are not
    simulated at all — re-running an already-computed sweep performs zero
    simulations — and freshly simulated points are written back for the
    next run.
    """
    sweep_config = _attach_scenario_profiles(sweep_config)
    store = resolve_cache(cache)
    points = sweep_config.points()

    results: Dict[SweepPoint, SimStats] = {}
    missing: List[SweepPoint] = []
    if store is not None:
        for point in points:
            stats = store.get(sweep_config, point)
            if stats is None:
                missing.append(point)
            else:
                results[point] = stats
    else:
        missing = points

    # Persist each result as soon as it lands (not after the whole
    # sweep): an interrupted or crashed run keeps every completed point,
    # so the re-run only simulates what is genuinely missing.
    def record(point: SweepPoint, stats: SimStats) -> None:
        results[point] = stats
        if store is not None:
            store.put(sweep_config, point, stats)

    telemetry = run_points(sweep_config, missing, record)

    return SweepResult(
        sweep_config, results,
        simulated=len(missing), cached=len(points) - len(missing),
        compiled_fallback_reason=telemetry["fallback_reason"],
        backend=telemetry["backend"])
