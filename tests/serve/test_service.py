"""Unit tests for the transport-independent service core.

Request validation, the single-flight dedup contract (concurrent
identical misses cost exactly one computation and share one byte
sequence), error surfacing (structured JSON, never an exception) and
the cache-blob envelope handling.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.analysis.backends import unwrap_envelope, wrap_envelope
from repro.analysis.cache import SweepCache, point_key
from repro.serve.service import (
    RequestError,
    SweepService,
    parse_sweep_request,
    valid_cache_key,
)
from repro.trace.records import TRACE_COLUMN_NAMES
from repro.trace.workloads import get_workload

TINY = {"benchmark": "gcc", "policy": "conv", "num_registers": 48,
        "trace_length": 300, "seed": 1}


@pytest.fixture
def service(tmp_path):
    service = SweepService(cache=SweepCache(tmp_path))
    yield service
    service.close()


def run(coro):
    return asyncio.run(coro)


class TestParseSweepRequest:
    def test_full_request_parses(self):
        config, point = parse_sweep_request(dict(TINY))
        assert point.benchmark == "gcc"
        assert point.policy == "conv"
        assert point.num_registers == 48
        assert config.trace_length == 300
        assert config.seed == 1

    def test_defaults_applied(self):
        config, point = parse_sweep_request({"benchmark": "gcc"})
        assert point.policy == "conv"
        assert point.num_registers == 48
        assert config.trace_length == 20_000

    def test_unknown_benchmark_lists_known(self):
        with pytest.raises(RequestError, match="known workloads.*gcc"):
            parse_sweep_request({"benchmark": "quake3"})

    def test_unknown_policy_rejected(self):
        with pytest.raises(RequestError, match="known policies"):
            parse_sweep_request({"benchmark": "gcc", "policy": "lazy"})

    def test_unknown_field_rejected(self):
        with pytest.raises(RequestError, match="unknown request fields"):
            parse_sweep_request({"benchmark": "gcc", "registers": 48})

    def test_non_object_rejected(self):
        with pytest.raises(RequestError):
            parse_sweep_request(["gcc"])

    @pytest.mark.parametrize("field,value", [
        ("num_registers", 0), ("num_registers", -4),
        ("num_registers", "48"), ("num_registers", True),
        ("trace_length", 0), ("trace_length", 10_000_001),
        ("seed", "zero"), ("seed", False),
    ])
    def test_scalar_validation(self, field, value):
        payload = {"benchmark": "gcc", field: value}
        with pytest.raises(RequestError):
            parse_sweep_request(payload)

    def test_engine_folded_into_config(self):
        config, _ = parse_sweep_request(
            {"benchmark": "gcc", "engine": "python"})
        assert config.base_config.engine == "python"

    def test_unknown_engine_rejected(self):
        with pytest.raises(RequestError, match="known engines"):
            parse_sweep_request({"benchmark": "gcc", "engine": "fpga"})

    def test_config_overrides_applied(self):
        config, _ = parse_sweep_request(
            {"benchmark": "gcc", "config": {"warmup": False,
                                            "ros_size": 64}})
        assert config.base_config.warmup is False
        assert config.base_config.ros_size == 64

    def test_unknown_config_field_rejected(self):
        with pytest.raises(RequestError, match="unknown config field"):
            parse_sweep_request({"benchmark": "gcc",
                                 "config": {"turbo": True}})

    def test_non_scalar_config_value_rejected(self):
        with pytest.raises(RequestError, match="scalar"):
            parse_sweep_request({"benchmark": "gcc",
                                 "config": {"ros_size": [128]}})


class TestValidCacheKey:
    def test_accepts_hex_digest(self):
        assert valid_cache_key("0f" * 32)

    @pytest.mark.parametrize("key", ["", "zz" * 32, "0f" * 31, "0F" * 32,
                                     "../" + "a" * 61])
    def test_rejects_malformed(self, key):
        assert not valid_cache_key(key)


class TestSweepPointSingleFlight:
    def test_concurrent_identical_requests_compute_once(self, service):
        async def drive():
            return await asyncio.gather(*[
                service.sweep_point(dict(TINY)) for _ in range(5)])

        responses = run(drive())
        assert [status for status, _, _ in responses] == [200] * 5
        bodies = {body for _, _, body in responses}
        assert len(bodies) == 1                    # byte-identical
        assert service.metrics.count("sweep_computations") == 1
        origins = sorted(headers["X-Repro-Served-From"]
                         for _, headers, _ in responses)
        assert origins.count("joined") == 4
        assert origins.count("computed") == 1

    def test_sequential_repeat_hits_cache(self, service):
        first = run(service.sweep_point(dict(TINY)))
        second = run(service.sweep_point(dict(TINY)))
        assert second[1]["X-Repro-Served-From"] == "cache"
        assert first[2] == second[2]               # same bytes either way
        assert service.metrics.count("sweep_computations") == 1

    def test_computed_response_names_its_backend(self, service):
        from repro.engine import accel

        config, _ = parse_sweep_request(dict(TINY))
        _, computed, _ = run(service.sweep_point(dict(TINY)))
        _, cached, _ = run(service.sweep_point(dict(TINY)))
        assert computed["X-Repro-Backend"] == \
            accel.resolve_engine_backend(config.base_config)
        assert "X-Repro-Backend" not in cached

    def test_overlapping_computations_name_their_own_backend(self, tmp_path,
                                                             monkeypatch):
        # Two misses computed at once on two executor threads: each
        # header counts its own point only, never the other's.  A barrier
        # after each simulation holds both requests until both points
        # have run, so a shared tally would report "mixed" for both.
        import threading

        from repro.analysis import sweep as sweep_mod
        from repro.engine import accel

        barrier = threading.Barrier(2, timeout=60)
        real_point = sweep_mod.run_simulation_point

        def point_then_wait(sweep_config, point):
            stats = real_point(sweep_config, point)
            barrier.wait()
            return stats

        monkeypatch.setattr(sweep_mod, "run_simulation_point", point_then_wait)
        python_request = dict(TINY, engine="python")
        config, _ = parse_sweep_request(dict(TINY))

        async def both(service):
            return await asyncio.gather(service.sweep_point(python_request),
                                        service.sweep_point(dict(TINY)))

        service = SweepService(cache=SweepCache(tmp_path), compute_threads=2)
        try:
            (_, python_headers, _), (_, default_headers, _) = run(both(service))
        finally:
            service.close()
        assert python_headers["X-Repro-Served-From"] == "computed"
        assert default_headers["X-Repro-Served-From"] == "computed"
        assert python_headers["X-Repro-Backend"] == "python"
        assert default_headers["X-Repro-Backend"] == \
            accel.resolve_engine_backend(config.base_config)

    def test_toolchain_fallback_keeps_bodies_identical(self, service,
                                                       monkeypatch):
        # The fallback reason is per-process, not part of the result: it
        # travels in a header, so the cache hit repeats the computed bytes.
        from repro.engine import accel

        monkeypatch.setenv("REPRO_ACCEL_CC", "/nonexistent/compiler-xyz")
        accel.reset_backend_cache()
        try:
            _, computed, first = run(service.sweep_point(dict(TINY)))
            _, cached, second = run(service.sweep_point(dict(TINY)))
        finally:
            accel.reset_backend_cache()
        assert computed["X-Repro-Backend"] == "python"
        assert "unavailable" in computed["X-Repro-Compiled-Fallback"]
        assert cached["X-Repro-Served-From"] == "cache"
        assert first == second

    def test_result_lands_in_the_shared_store(self, service):
        status, headers, body = run(service.sweep_point(dict(TINY)))
        assert status == 200
        payload = json.loads(body)
        from repro.serve.service import parse_sweep_request

        config, point = parse_sweep_request(dict(TINY))
        assert payload["key"] == point_key(config, point)
        assert service.cache.get(config, point) is not None

    def test_response_shape(self, service):
        status, headers, body = run(service.sweep_point(dict(TINY)))
        payload = json.loads(body)
        assert payload["point"] == {"benchmark": "gcc", "policy": "conv",
                                    "num_registers": 48}
        assert payload["trace_length"] == 300
        assert payload["stats"]["committed_instructions"] > 0
        assert payload["cache_degradation_reason"] is None
        assert headers["X-Repro-Key"] == payload["key"]

    def test_bad_request_is_structured_400(self, service):
        status, _, body = run(service.sweep_point({"benchmark": "nope"}))
        assert status == 400
        assert "unknown benchmark" in json.loads(body)["error"]
        assert service.metrics.count("sweep_bad_requests") == 1

    def test_invalid_configuration_is_structured_400(self, service):
        # 8 physical registers cannot cover the logical file:
        # ProcessorConfig itself rejects the point.  The client must see
        # a JSON error, not a raw traceback.
        status, _, body = run(service.sweep_point(dict(TINY,
                                                       num_registers=8)))
        assert status == 400
        assert "invalid configuration" in json.loads(body)["error"]

    def test_computation_failure_is_structured_500(self, service):
        # 32 physical registers exactly cover the logical file, leaving
        # rename no headroom: the simulation deadlocks at runtime.  The
        # client must see a JSON error, not a dropped connection.
        request = dict(TINY, num_registers=32)
        status, headers, body = run(service.sweep_point(request))
        assert status == 500
        assert "error" in json.loads(body)
        assert headers["X-Repro-Served-From"] == "error"
        assert service.metrics.count("sweep_errors") == 1
        assert not service._inflight                # table drained

    def test_failed_flight_is_not_cached(self, service):
        request = dict(TINY, num_registers=32)
        run(service.sweep_point(request))
        run(service.sweep_point(request))
        assert service.metrics.count("sweep_errors") == 2   # recomputed


class TestCacheBlobEndpoints:
    def test_get_wraps_stored_entry_in_envelope(self, service):
        run(service.sweep_point(dict(TINY)))
        key = json.loads(run(service.sweep_point(dict(TINY)))[2])["key"]
        status, _, blob = service.cache_get(key)
        assert status == 200
        assert unwrap_envelope(key, blob) is not None

    def test_get_miss_is_404(self, service):
        status, _, _ = service.cache_get("0" * 64)
        assert status == 404

    def test_get_malformed_key_is_400(self, service):
        status, _, _ = service.cache_get("../../etc/passwd")
        assert status == 400

    def test_put_verifies_envelope(self, service):
        key = "ab" * 32
        status, _, _ = service.cache_put(key, wrap_envelope(key, b"body"))
        assert status == 204
        assert service.cache.backend.get_blob(key) == b"body"

    def test_put_rejects_tampered_envelope(self, service):
        key = "ab" * 32
        envelope = bytearray(wrap_envelope(key, b"body"))
        envelope[-1] ^= 0x01
        status, _, body = service.cache_put(key, bytes(envelope))
        assert status == 400
        assert "integrity" in json.loads(body)["error"]
        assert service.cache.backend.get_blob(key) is None

    def test_put_rejects_raw_bytes(self, service):
        status, _, _ = service.cache_put("ab" * 32, b"not an envelope")
        assert status == 400


class TestArtefactEndpoint:
    def test_describes_columns(self, service):
        status, _, body = run(service.artefact(
            {"workload": "gcc", "trace_length": 300}))
        assert status == 200
        payload = json.loads(body)
        assert payload["workload"] == "gcc"
        assert set(payload) == {"workload", "workload_digest", "trace_length",
                                "seed", "columns", "export_cache"}
        assert set(payload["columns"]) == set(TRACE_COLUMN_NAMES)
        n = len(get_workload("gcc", 300))
        for name, column in payload["columns"].items():
            width = 3 if name.startswith("src_") else 1
            assert column == {"shape": [width * n], "dtype": "int64",
                              "nbytes": 8 * width * n}

    def test_unknown_workload_is_400(self, service):
        status, _, _ = run(service.artefact({"workload": "quake3"}))
        assert status == 400


class TestMetricsSnapshot:
    def test_snapshot_carries_backend_and_inflight(self, service):
        snapshot = service.metrics_snapshot()
        assert snapshot["cache_backend"] == "local"
        assert snapshot["in_flight"] == 0
        assert snapshot["cache_degradation_reason"] is None

    def test_counters_accumulate(self, service):
        run(service.sweep_point(dict(TINY)))
        run(service.sweep_point(dict(TINY)))
        counters = service.metrics_snapshot()["counters"]
        assert counters["sweep_requests"] == 2
        assert counters["sweep_computations"] == 1
        assert counters["sweep_cache_hits"] == 1
