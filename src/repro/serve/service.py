"""The sweep service: request validation, single-flight, computation.

:class:`SweepService` is the transport-independent core of
``repro-serve``.  It answers *sweep-point* queries from the shared
result store (:class:`~repro.analysis.cache.SweepCache`, one local
directory), simulates each miss in place on a compute thread (through
:func:`~repro.analysis.sweep.run_points`, as ``run_sweep`` does for its
missing points), and dedupes concurrent identical requests **in
flight**: requests are keyed by the exact content-addressed point key,
the first requester computes, and every concurrent duplicate awaits the
same future and receives the *same response bytes* — N identical misses
cost exactly one simulation.

The single-flight table also keeps the last :data:`ANSWERS_KEPT`
finished 200 answers as their body bytes, least recently used dropped
first.  A repeat of a kept point gets the headers and bytes of a store
hit without a store read.  It is answered on the event loop when the
compute executor is idle, and otherwise behind the work already queued
there, so answers keep arrival order.

Contract with clients:

* responses to concurrently deduped requests are byte-identical (the
  where-it-came-from tag travels in the ``X-Repro-Served-From`` header,
  never the body, so joined responses cannot differ; so do the engine
  that computed a miss, ``X-Repro-Backend``, and why it fell back to the
  Python engine, ``X-Repro-Compiled-Fallback``);
* a repeat is byte-identical to the first answer, whether the table or
  the store serves it (``X-Repro-Served-From: cache`` either way);
* storage trouble — a full or read-only disk — degrades to an uncached
  answer (counted in the store's ``store_errors``), never raised to the
  client;
* any computation failure is a structured ``{"error": ...}`` JSON with
  a 4xx/5xx status, never a dropped connection, and is never kept.
"""

from __future__ import annotations

import asyncio
import dataclasses
import gc
import json
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Optional, Tuple, Union

from repro.analysis.cache import SweepCache, point_key
from repro.analysis.sweep import (SweepConfig, SweepPoint,
                                  _attach_scenario_profiles, run_points)
from repro.pipeline.config import ProcessorConfig

__all__ = ["ANSWERS_KEPT", "SIZE_CEILINGS", "SweepService", "RequestError"]

#: Finished 200 answers the single-flight table keeps (least recently
#: used dropped first).  A body is ~1.4 KB at the default register
#: count, so the table holds a few MB at most.
ANSWERS_KEPT = 1024

#: Largest value a request may give each size: ``num_registers`` and the
#: scalar ``config`` overrides that size a structure.  The engines
#: allocate per register, ROS row and BTB entry before the first cycle,
#: so an unbounded size is an unbounded allocation.  The ceilings sit
#: well above every size the experiments, examples, tests and fuzz
#: sampler use (at most 160 registers, a 128-entry ROS, 300 pending
#: branches, width 8, 2048 BTB entries).
SIZE_CEILINGS = {
    **dict.fromkeys(("num_registers", "num_physical_int", "num_physical_fp",
                     "num_logical_int", "num_logical_fp", "ros_size",
                     "lsq_size", "max_pending_branches"), 1024),
    **dict.fromkeys(("fetch_width", "rename_width", "issue_width",
                     "commit_width", "max_taken_branches_per_cycle",
                     "frontend_stages"), 64),
    "btb_entries": 65536,
}

#: What the joiners of a flight receive when its leader is cancelled.
_INTERRUPTED = (500, {"X-Repro-Served-From": "error"},
                b'{"error":"the computation was interrupted"}')

#: Policies a request may name (the paper's release-policy axis).
_KNOWN_POLICIES = ("conv", "basic", "extended")

#: Engine backends a request may pin.
_KNOWN_ENGINES = ("python", "compiled")

#: Top-level request fields (anything else is a client error — silently
#: ignoring a misspelled knob would serve the wrong point).
_REQUEST_FIELDS = {"benchmark", "policy", "num_registers", "trace_length",
                   "seed", "engine", "config"}

#: ``ProcessorConfig`` overrides a request may set: scalar knobs only.
#: The structured fields (functional-unit maps, nested configs) stay
#: server-side — remote callers tune the axes the paper sweeps.
_SCALAR_TYPES = (bool, int, float, str)


class RequestError(ValueError):
    """A malformed sweep-point request (maps to HTTP 400)."""


def _config_field_index() -> Dict[str, object]:
    return {field.name: field for field in
            dataclasses.fields(ProcessorConfig)}


def parse_sweep_request(payload: dict) -> Tuple[SweepConfig, SweepPoint]:
    """Validate one sweep-point request into ``(SweepConfig, SweepPoint)``.

    Raises :class:`RequestError` naming the offending field; the
    validation mirrors the CLI's (unknown workload and policy names are
    errors listing the known values, not silent misses).
    """
    from repro.trace.workloads import all_workloads, has_workload

    if not isinstance(payload, dict):
        raise RequestError("request body must be a JSON object")
    unknown = sorted(set(payload) - _REQUEST_FIELDS)
    if unknown:
        raise RequestError(
            f"unknown request fields: {', '.join(unknown)}; known fields: "
            f"{', '.join(sorted(_REQUEST_FIELDS))}")

    benchmark = payload.get("benchmark")
    if not isinstance(benchmark, str) or not benchmark:
        raise RequestError("'benchmark' (string) is required")
    if not has_workload(benchmark):
        from repro.trace.workloads import scenario_workloads

        known = sorted(set(all_workloads()) | set(scenario_workloads()))
        raise RequestError(f"unknown benchmark {benchmark!r}; known "
                           f"workloads: {', '.join(known)}")

    policy = payload.get("policy", "conv")
    if policy not in _KNOWN_POLICIES:
        raise RequestError(f"unknown policy {policy!r}; known policies: "
                           f"{', '.join(_KNOWN_POLICIES)}")

    num_registers = payload.get("num_registers", 48)
    if not isinstance(num_registers, int) or isinstance(num_registers, bool) \
            or num_registers <= 0:
        raise RequestError("'num_registers' must be a positive integer")
    _check_ceiling("num_registers", num_registers)

    trace_length = payload.get("trace_length", 20_000)
    if not isinstance(trace_length, int) or isinstance(trace_length, bool) \
            or not 1 <= trace_length <= 10_000_000:
        raise RequestError("'trace_length' must be an integer in "
                           "[1, 10000000]")

    seed = payload.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise RequestError("'seed' must be a non-negative integer")

    config = payload.get("config")
    if config is not None and not isinstance(config, dict):
        raise RequestError("'config' must be a JSON object")
    overrides = dict(config or {})
    engine = payload.get("engine")
    if engine is not None:
        if engine not in _KNOWN_ENGINES:
            raise RequestError(f"unknown engine {engine!r}; known engines: "
                               f"{', '.join(_KNOWN_ENGINES)}")
        overrides["engine"] = engine

    fields = _config_field_index()
    base_config = ProcessorConfig()
    for name, value in overrides.items():
        if name not in fields:
            known = sorted(name for name in fields)
            raise RequestError(f"unknown config field {name!r}; known "
                               f"fields: {', '.join(known)}")
        if not isinstance(value, _SCALAR_TYPES):
            raise RequestError(f"config field {name!r} must be a scalar "
                               f"(bool/int/float/str)")
        _check_ceiling(name, value)
    if overrides:
        try:
            base_config = dataclasses.replace(base_config, **overrides)
        except (TypeError, ValueError) as exc:
            raise RequestError(f"invalid config overrides: {exc}") from None

    sweep_config = SweepConfig(
        benchmarks=(benchmark,), policies=(policy,),
        register_sizes=(num_registers,), trace_length=trace_length,
        seed=seed, base_config=base_config)
    return sweep_config, SweepPoint(benchmark, policy, num_registers)


def _check_ceiling(name: str, value) -> None:
    ceiling = SIZE_CEILINGS.get(name)
    if ceiling is not None and isinstance(value, (int, float)) \
            and value > ceiling:
        raise RequestError(f"{name!r} must be at most {ceiling}")


class SweepService:
    """Answers sweep-point queries.

    ``compute_threads`` sizes the executor that runs simulations (1 — the
    default — serialises computation: predictable latency, the mode the
    load probe and the smoke test pin).  A request names one point; a
    miss simulates it in place on its compute thread.
    """

    def __init__(self, cache: Optional[SweepCache] = None,
                 compute_threads: int = 1) -> None:
        from repro.serve.metrics import ServiceMetrics

        self.cache = cache if cache is not None else SweepCache()
        self.metrics = ServiceMetrics()
        self._executor = ThreadPoolExecutor(
            max_workers=max(1, compute_threads),
            thread_name_prefix="repro-serve-compute")
        #: single-flight table, touched only on the event loop: point key
        #: -> the pending flight's future (resolving to status, headers,
        #: body bytes) or, once answered with a 200, the body bytes.
        #: Ordered from least to most recently used.
        self._inflight: "OrderedDict[str, Union[asyncio.Future, bytes]]" = \
            OrderedDict()
        #: pending flights in the table (the rest are answers)
        self._flights = 0
        #: executor jobs submitted whose result is not back on the loop
        self._queued = 0

    def close(self) -> None:
        self._executor.shutdown(wait=True)

    # ------------------------------------------------------------------
    # Sweep points
    # ------------------------------------------------------------------
    async def sweep_point(self, payload: dict) -> Tuple[int, dict, bytes]:
        """Answer one sweep-point query; single-flight on the point key.

        Returns ``(status, extra_headers, body_bytes)``.  Every error is
        a structured JSON body — clients never see a raw exception.
        """
        self.metrics.increment("sweep_requests")
        try:
            sweep_config, point = parse_sweep_request(payload)
        except RequestError as exc:
            self.metrics.increment("sweep_bad_requests")
            return 400, {}, _json_bytes({"error": str(exc)})

        try:
            # Deriving the key builds the point's ProcessorConfig, whose
            # own validation (e.g. fewer physical than logical registers)
            # is a client error, not a server fault.
            key = point_key(sweep_config, point)
        except (TypeError, ValueError) as exc:
            self.metrics.increment("sweep_bad_requests")
            return 400, {}, _json_bytes(
                {"error": f"invalid configuration: {exc}"})
        existing = self._inflight.get(key)
        if isinstance(existing, bytes):
            # An answered point: a store hit's headers and bytes.  Inline
            # when the executor is idle; otherwise behind the work queued
            # there, as a store read would be, so answers keep arrival
            # order.
            self._inflight.move_to_end(key)
            self.metrics.increment("sweep_cache_hits")
            if self._queued:
                await self._on_executor(lambda: None)
            return 200, {"X-Repro-Key": key,
                         "X-Repro-Served-From": "cache"}, existing
        if existing is not None:
            # Joined flight: same bytes as the leader's response, with
            # only the served-from header differing.
            self.metrics.increment("sweep_joined")
            status, headers, body = await asyncio.shield(existing)
            headers = dict(headers)
            headers["X-Repro-Served-From"] = "joined"
            return status, headers, body

        future: "asyncio.Future" = asyncio.get_running_loop().create_future()
        self._inflight[key] = future
        self._flights += 1
        self.metrics.increment("sweep_leaders")
        answer = _INTERRUPTED
        try:
            answer = await self._on_executor(
                self._lookup_or_compute, sweep_config, point, key)
        except Exception as exc:
            # Never propagate a raw exception — to this client or any
            # joined one.
            self.metrics.increment("sweep_errors")
            answer = 500, {"X-Repro-Served-From": "error"}, \
                _json_bytes({"error": f"{type(exc).__name__}: {exc}"})
        finally:
            # Settled even when the leader is cancelled, so no joiner
            # waits forever and only a 200 is kept.
            self._flights -= 1
            if answer[0] == 200:
                self._keep(key, answer[2])
            else:
                del self._inflight[key]
            future.set_result(answer)
        status, headers, body = answer
        return status, dict(headers), body

    async def _on_executor(self, function, *args):
        """``function(*args)`` on the compute executor, counted in
        ``_queued`` until its result is back on the loop."""
        self._queued += 1
        try:
            return await asyncio.get_running_loop().run_in_executor(
                self._executor, function, *args)
        finally:
            self._queued -= 1

    def _keep(self, key: str, body: bytes) -> None:
        """Record ``key``'s 200 answer, dropping the least recently used
        answers beyond :data:`ANSWERS_KEPT`."""
        table = self._inflight
        table[key] = body
        table.move_to_end(key)
        while len(table) - self._flights > ANSWERS_KEPT:
            del table[next(old for old, entry in table.items()
                           if isinstance(entry, bytes))]

    def _lookup_or_compute(self, sweep_config: SweepConfig,
                           point: SweepPoint, key: str) -> Tuple[int, dict, bytes]:
        """Executor-side body of a leading request: cache, then compute."""
        stats = self.cache.get(sweep_config, point)
        headers = {"X-Repro-Key": key}
        if stats is not None:
            self.metrics.increment("sweep_cache_hits")
            served_from = "cache"
        else:
            self.metrics.increment("sweep_cache_misses")
            self.metrics.increment("sweep_computations")
            served_from = "computed"
            sweep_config = _attach_scenario_profiles(sweep_config)
            results = {}
            telemetry = run_points(sweep_config, [point], results.__setitem__)
            # Reclaim the point's engine-state reference cycles while they
            # are young; a full collection would walk the whole heap.
            gc.collect(1)
            stats = results[point]
            headers["X-Repro-Backend"] = telemetry["backend"]
            fallback = telemetry["fallback_reason"]
            if fallback is not None:
                # One printable latin-1 line, as a header value must be.
                headers["X-Repro-Compiled-Fallback"] = " ".join(
                    fallback.encode("latin-1", "replace").decode("latin-1")
                    .split())
            self.cache.put(sweep_config, point, stats)
        body = _json_bytes({
            "key": key,
            "point": {"benchmark": point.benchmark, "policy": point.policy,
                      "num_registers": point.num_registers},
            "trace_length": sweep_config.trace_length,
            "seed": sweep_config.seed,
            "stats": stats,
        })
        headers["X-Repro-Served-From"] = served_from
        return 200, headers, body

    # ------------------------------------------------------------------
    def metrics_snapshot(self) -> dict:
        snapshot = self.metrics.snapshot()
        snapshot["in_flight"] = self._flights
        return snapshot


def _dataclass_fields(value) -> dict:
    """A dataclass as a field dict for ``json.dumps``: the bytes of
    ``dataclasses.asdict`` without its deep copy of the stats."""
    return {field.name: getattr(value, field.name)
            for field in dataclasses.fields(value)}


def _json_bytes(payload: dict) -> bytes:
    """Canonical response encoding: sorted keys, compact separators,
    dataclasses as their fields.

    Determinism is load-bearing — byte-identical bodies for deduped
    concurrent requests are part of the single-flight contract.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      default=_dataclass_fields).encode("utf-8")
