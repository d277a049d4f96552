"""Multiprocessing execution of simulation sweeps.

Each (benchmark, policy, register-size) point of a sweep is an independent
cycle-level simulation, so the sweep is embarrassingly parallel.  This is
the pattern the session's HPC guides (and the mpi4py tutorial's
scatter/gather examples) recommend: leave the inner simulation loop alone
and parallelise the outer loop over independent work items.  On the target
machines MPI is not available, so a :class:`concurrent.futures`
process pool provides the workers.

Work is sharded in *chunks*: submitting every point as its own future
costs one pickled ``SweepConfig`` round-trip and one scheduling decision
per point, which dominates for the short simulations of quick sweeps.
The default chunk size targets four chunks per worker — small enough that
slow points (tight register files, branch-heavy benchmarks) still balance
across the pool, large enough to amortise the per-future overhead.

With one worker the shards run in the calling process, with no full-heap
``gc.collect()``/``gc.freeze()`` around them: measured, the freeze cost
more than it saved (see ``docs/architecture.md``, "Serving a miss").
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.sweep import SweepConfig, SweepPoint
    from repro.pipeline.stats import SimStats


def available_workers(max_workers: Optional[int] = None) -> int:
    """Number of worker processes to use (bounded by the CPU count)."""
    cpu_count = os.cpu_count() or 1
    if max_workers is None:
        return max(1, cpu_count - 1)
    return max(1, min(max_workers, cpu_count))


def default_chunk_size(n_points: int, workers: int) -> int:
    """Chunk size giving roughly four chunks per worker."""
    return max(1, n_points // (workers * 4))


def _empty_telemetry() -> Dict:
    return {"export_cache_hits": 0, "export_cache_misses": 0,
            "fallback_chunks": 0, "fallback_reason": None, "backend": None}


def _run_chunk(sweep_config: "SweepConfig", chunk: Sequence["SweepPoint"],
               ) -> Tuple[List[Tuple["SweepPoint", "SimStats"]], Dict]:
    """Worker entry point for one shard of points.

    Returns the ``(point, stats)`` pairs plus the chunk's telemetry (see
    :func:`~repro.analysis.sweep.run_points`), so the parent can sum the
    export-cache counters and log one fallback summary for the whole
    sweep instead of one warning per worker.
    """
    from repro.analysis.sweep import run_points

    pairs: List[Tuple["SweepPoint", "SimStats"]] = []
    meta = run_points(sweep_config, chunk,
                      lambda point, stats: pairs.append((point, stats)))
    return pairs, meta


class ParallelSweepRunner:
    """Runs sweep points on a process pool and gathers the results."""

    def __init__(self, max_workers: Optional[int] = None) -> None:
        self.max_workers = available_workers(max_workers)
        #: telemetry aggregated over the chunks of the last :meth:`run`:
        #: export-artefact cache hits/misses, the backend that ran the
        #: points (see ``SweepResult.backend``), and how many chunks ran in a
        #: process that fell back from a requested compiled backend (with
        #: one representative reason).  The sweep driver folds this into
        #: ``SweepResult`` and emits a single fallback summary.
        self.telemetry: Dict = _empty_telemetry()

    def run(self, sweep_config: "SweepConfig",
            points: Sequence["SweepPoint"],
            chunk_size: Optional[int] = None,
            on_result: Optional[Callable[["SweepPoint", "SimStats"], None]] = None,
            ) -> Dict["SweepPoint", "SimStats"]:
        """Run every point and return ``{point: stats}``.

        ``chunk_size`` overrides the number of points per shard (see the
        module docstring for the default's rationale).  ``on_result`` is
        invoked in this process for every point as its chunk completes —
        the sweep driver uses it to persist results incrementally, so a
        crash mid-sweep keeps everything already simulated.
        """
        results: Dict["SweepPoint", "SimStats"] = {}
        self.telemetry = _empty_telemetry()
        if not points:
            return results
        workers = min(self.max_workers, len(points))
        if chunk_size is None:
            chunk_size = default_chunk_size(len(points), workers)
        chunks = [list(points[start:start + chunk_size])
                  for start in range(0, len(points), chunk_size)]
        if workers == 1:
            # No parallelism to gain: a single-worker pool would only add
            # process spawn, argument/result pickling and a cold
            # per-process workload cache (the worker regenerates every
            # trace the parent already holds).  Run the shards in-process.
            for chunk in chunks:
                pairs, meta = _run_chunk(sweep_config, chunk)
                self._fold_telemetry(meta)
                for point, stats in pairs:
                    results[point] = stats
                    if on_result is not None:
                        on_result(point, stats)
            return results
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_run_chunk, sweep_config, chunk)
                       for chunk in chunks]
            for future in as_completed(futures):
                pairs, meta = future.result()
                self._fold_telemetry(meta)
                for point, stats in pairs:
                    results[point] = stats
                    if on_result is not None:
                        on_result(point, stats)
        return results

    def _fold_telemetry(self, meta: Dict) -> None:
        from repro.analysis.sweep import merge_backends

        telemetry = self.telemetry
        telemetry["export_cache_hits"] += meta["export_cache_hits"]
        telemetry["export_cache_misses"] += meta["export_cache_misses"]
        telemetry["fallback_chunks"] += meta["fallback_chunks"]
        telemetry["fallback_reason"] = (meta["fallback_reason"]
                                        or telemetry["fallback_reason"])
        telemetry["backend"] = merge_backends(telemetry["backend"],
                                              meta["backend"])
