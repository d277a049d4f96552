"""The sweep service: request validation, single-flight, computation.

:class:`SweepService` is the transport-independent core of
``repro-serve``.  It answers *sweep-point* queries from the shared
result store (:class:`~repro.analysis.cache.SweepCache` over any
backend), simulates each miss in place on a compute thread (through
:func:`~repro.analysis.sweep.run_points`, as ``run_sweep`` does for its
missing points), and dedupes concurrent identical requests **in
flight**: requests are keyed by the exact content-addressed point key,
the first requester computes, and every concurrent duplicate awaits the
same future and receives the *same response bytes* — N identical misses
cost exactly one simulation.

Contract with clients:

* responses to concurrently deduped requests are byte-identical (the
  where-it-came-from tag travels in the ``X-Repro-Served-From`` header,
  never the body, so joined responses cannot differ; so do the engine
  that computed a miss, ``X-Repro-Backend``, and why it fell back to the
  Python engine, ``X-Repro-Compiled-Fallback``);
* storage trouble — an unreachable remote cache backend, a read-only
  disk — degrades service-side and is *surfaced* in the response
  (``cache_degradation_reason``), never raised to the client;
* any computation failure is a structured ``{"error": ...}`` JSON with
  a 4xx/5xx status, never a dropped connection.
"""

from __future__ import annotations

import asyncio
import dataclasses
import gc
import json
import math
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Optional, Tuple

from repro.analysis.cache import SweepCache, point_key
from repro.analysis.sweep import (SweepConfig, SweepPoint,
                                  _attach_scenario_profiles, run_points)
from repro.pipeline.config import ProcessorConfig

__all__ = ["SweepService", "RequestError", "KEY_HEX_LENGTH"]

#: Length of a cache key (SHA-256 hex digest).
KEY_HEX_LENGTH = 64

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


def valid_cache_key(key: str) -> bool:
    """True for a well-formed content-addressed cache key."""
    return (len(key) == KEY_HEX_LENGTH
            and all(c in "0123456789abcdef" for c in key))


class SweepService:
    """Answers sweep-point, cache-blob and artefact queries.

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
        #: single-flight table: point key -> future resolving to the
        #: finished response entry (status, headers, body bytes).
        self._inflight: Dict[str, "asyncio.Future"] = {}

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
        loop = asyncio.get_running_loop()
        existing = self._inflight.get(key)
        if existing is not None:
            # Joined flight: same bytes as the leader's response, with
            # only the served-from header differing.
            self.metrics.increment("sweep_joined")
            status, headers, body = await asyncio.shield(existing)
            headers = dict(headers)
            headers["X-Repro-Served-From"] = "joined"
            return status, headers, body

        future: "asyncio.Future" = loop.create_future()
        self._inflight[key] = future
        self.metrics.increment("sweep_leaders")
        try:
            status, headers, body = await loop.run_in_executor(
                self._executor, self._lookup_or_compute,
                sweep_config, point, key)
            future.set_result((status, headers, body))
        except BaseException as exc:
            # Never propagate a raw exception — to this client or any
            # joined one.  (A cancelled leader cancels its joiners too.)
            self.metrics.increment("sweep_errors")
            status, headers, body = 500, {"X-Repro-Served-From": "error"}, \
                _json_bytes({"error": f"{type(exc).__name__}: {exc}"})
            if not future.done():
                future.set_result((status, headers, body))
        finally:
            self._inflight.pop(key, None)
        return status, dict(headers), body

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
            "cache_degradation_reason": self.cache.degradation_reason(),
        })
        headers["X-Repro-Served-From"] = served_from
        return 200, headers, body

    # ------------------------------------------------------------------
    # Cache blobs (the remote side of HTTPCacheBackend / TieredBackend)
    # ------------------------------------------------------------------
    def cache_get(self, key: str) -> Tuple[int, dict, bytes]:
        """Serve one stored entry, framed in the integrity envelope."""
        from repro.analysis.backends import wrap_envelope

        self.metrics.increment("cache_gets")
        if not valid_cache_key(key):
            return 400, {}, _json_bytes({"error": "malformed cache key"})
        body = self.cache.backend.get_blob(key)
        if body is None:
            self.metrics.increment("cache_get_misses")
            return 404, {}, _json_bytes({"error": "no such entry"})
        self.metrics.increment("cache_get_hits")
        return 200, {"Content-Type": "application/octet-stream"}, \
            wrap_envelope(key, body)

    def cache_put(self, key: str, blob: bytes) -> Tuple[int, dict, bytes]:
        """Accept one envelope-framed entry into the shared store.

        The envelope must verify against the key and its own content
        digest — a partial or misrouted upload is rejected with 400 and
        never lands in the store (the unreadable-bucket problem stays a
        client-side one).  Entries are stored unwrapped, so the server's
        own sweep-point path reads them exactly like locally computed
        results.
        """
        from repro.analysis.backends import unwrap_envelope

        self.metrics.increment("cache_puts")
        if not valid_cache_key(key):
            return 400, {}, _json_bytes({"error": "malformed cache key"})
        body = unwrap_envelope(key, blob)
        if body is None:
            self.metrics.increment("cache_put_rejects")
            return 400, {}, _json_bytes(
                {"error": "payload failed integrity verification "
                          "(envelope digest/key mismatch)"})
        if not self.cache.backend.put_blob(key, body):
            self.metrics.increment("cache_put_errors")
            return 507, {}, _json_bytes({"error": "store write failed"})
        return 204, {}, b""

    # ------------------------------------------------------------------
    # Export artefacts (the trace arrays the compiled backend receives)
    # ------------------------------------------------------------------
    async def artefact(self, payload: dict) -> Tuple[int, dict, bytes]:
        """Describe one trace's compiled export (generating the trace).

        Answers with the trace's identity, the arrays the compiled core
        receives (shape, dtype, bytes) — the ``ROW_COLUMN_NAMES``
        row-table columns, one entry per row (three for the source
        columns), and ``rows`` and ``addr``, one entry per instruction —
        and the process's export counters
        (:mod:`repro.engine.accel.artefacts`) — the query a remote
        scheduler needs to decide where a sweep's trace is already warm.
        """
        self.metrics.increment("artefact_requests")
        benchmark = payload.get("workload") if isinstance(payload, dict) else None
        trace_length = payload.get("trace_length", 20_000) \
            if isinstance(payload, dict) else 20_000
        seed = payload.get("seed", 0) if isinstance(payload, dict) else 0
        from repro.trace.workloads import has_workload

        if not isinstance(benchmark, str) or not has_workload(benchmark):
            self.metrics.increment("artefact_bad_requests")
            return 400, {}, _json_bytes(
                {"error": f"unknown workload {benchmark!r}"})
        if not isinstance(trace_length, int) or isinstance(trace_length, bool) \
                or not 1 <= trace_length <= 10_000_000:
            self.metrics.increment("artefact_bad_requests")
            return 400, {}, _json_bytes(
                {"error": "'trace_length' must be an integer in "
                          "[1, 10000000]"})
        loop = asyncio.get_running_loop()
        try:
            body = await loop.run_in_executor(
                self._executor, self._describe_artefact,
                benchmark, trace_length, seed)
        except Exception as exc:
            self.metrics.increment("artefact_errors")
            return 500, {}, _json_bytes(
                {"error": f"{type(exc).__name__}: {exc}"})
        return 200, {}, body

    def _describe_artefact(self, benchmark: str, trace_length: int,
                           seed: int) -> bytes:
        from repro.engine.accel.artefacts import EXPORT_CACHE
        from repro.trace.records import ROW_COLUMN_NAMES
        from repro.trace.workloads import get_workload, workload_digest

        trace = get_workload(benchmark, trace_length, seed=seed).columns
        hits, misses = EXPORT_CACHE.counters()
        shapes = {name: trace.table[name].shape for name in ROW_COLUMN_NAMES}
        shapes.update(rows=trace.rows.shape, addr=trace.addr.shape)
        columns = {name: {"shape": list(shape), "dtype": "int64",
                          "nbytes": 8 * math.prod(shape)}
                   for name, shape in sorted(shapes.items())}
        return _json_bytes({
            "workload": benchmark,
            "workload_digest": workload_digest(benchmark, ()),
            "trace_length": trace_length,
            "seed": seed,
            "columns": columns,
            "export_cache": {"hits": hits, "misses": misses},
        })

    # ------------------------------------------------------------------
    def metrics_snapshot(self) -> dict:
        snapshot = self.metrics.snapshot()
        snapshot["in_flight"] = len(self._inflight)
        snapshot["cache_backend"] = self.cache.backend.name
        snapshot["cache_degradation_reason"] = self.cache.degradation_reason()
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
