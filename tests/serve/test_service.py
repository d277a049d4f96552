"""Unit tests for the transport-independent service core.

Request validation, the single-flight dedup contract (concurrent
identical misses cost exactly one computation and share one byte
sequence), error surfacing (structured JSON, never an exception) and
the cache-blob envelope handling.
"""

from __future__ import annotations

import asyncio
import json
import math

import pytest

from repro.analysis.backends import unwrap_envelope, wrap_envelope
from repro.analysis.cache import SweepCache, point_key
from repro.serve.service import (
    RequestError,
    SweepService,
    parse_sweep_request,
    valid_cache_key,
)
from repro.trace.records import ROW_COLUMN_NAMES
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
        ("seed", "zero"), ("seed", False), ("seed", -1), ("seed", -70000),
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

    @pytest.mark.parametrize("overrides", [
        {"btb_entries": 2},
        {"btb_entries": 2050},
        {"gshare_history_bits": 40},
        {"gshare_history_bits": 64},
        {"gshare_history_bits": -1},
    ])
    def test_unbuildable_front_end_rejected(self, overrides):
        with pytest.raises(RequestError, match="invalid config overrides"):
            parse_sweep_request({"benchmark": "gcc", "config": overrides})

    @pytest.mark.parametrize("overrides", [
        {"num_logical_int": 8},
        {"num_logical_fp": 16},
    ])
    def test_logical_file_below_the_isa_rejected(self, overrides):
        with pytest.raises(RequestError, match="num_logical"):
            parse_sweep_request({"benchmark": "gcc", "config": overrides})

    @pytest.mark.parametrize("config", [[1, 2], "ab", 3])
    def test_non_object_config_rejected(self, config):
        with pytest.raises(RequestError, match="'config' must be a JSON object"):
            parse_sweep_request({"benchmark": "gcc", "config": config})

    def test_negative_config_seed_rejected(self):
        with pytest.raises(RequestError, match="seed"):
            parse_sweep_request({"benchmark": "gcc", "config": {"seed": -5}})

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

    def test_miss_simulates_without_full_collection(self, service,
                                                     monkeypatch):
        # A served miss simulates its one point in place: no full-heap
        # collection and no heap freeze per request (the sweep runner's
        # once-per-sweep preparation is not a per-point cost).
        import gc

        calls = []
        real_collect = gc.collect

        def collect(generation=2):
            calls.append(("collect", generation))
            return real_collect(generation)

        monkeypatch.setattr(gc, "collect", collect)
        monkeypatch.setattr(gc, "freeze", lambda: calls.append(("freeze",)))
        _, headers, _ = run(service.sweep_point(dict(TINY)))
        assert headers["X-Repro-Served-From"] == "computed"
        assert ("freeze",) not in calls
        assert [call for call in calls if call[0] == "collect"
                and call[1] >= 2] == []

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

    @pytest.mark.parametrize("config", [[1, 2], "ab"])
    def test_non_object_config_is_structured_400(self, service, config):
        status, _, body = run(service.sweep_point(dict(TINY, config=config)))
        assert status == 400
        assert "'config' must be a JSON object" in json.loads(body)["error"]
        assert service.metrics.count("sweep_bad_requests") == 1
        assert service.metrics.count("sweep_errors") == 0

    @pytest.mark.parametrize("request_body", [
        {"benchmark": "gcc", "seed": -70000},
        {"benchmark": "gcc", "config": {"seed": -5}},
        {"benchmark": "branch_storm", "seed": -1},
    ])
    def test_negative_seed_is_structured_400(self, service, request_body):
        # numpy rejects a negative seed only once a run starts; the
        # request must be refused before any simulation.
        status, _, body = run(service.sweep_point(request_body))
        assert status == 400
        assert "seed" in json.loads(body)["error"]
        assert service.metrics.count("sweep_bad_requests") == 1
        assert service.metrics.count("sweep_computations") == 0
        assert service.metrics.count("sweep_errors") == 0

    def test_invalid_configuration_is_structured_400(self, service):
        # 8 physical registers cannot cover the logical file:
        # ProcessorConfig itself rejects the point.  The client must see
        # a JSON error, not a raw traceback.
        status, _, body = run(service.sweep_point(dict(TINY,
                                                       num_registers=8)))
        assert status == 400
        assert "invalid configuration" in json.loads(body)["error"]

    @pytest.mark.parametrize("engine", ["python", "compiled"])
    def test_unbuildable_btb_is_structured_400(self, service, engine):
        # A 2-entry, 4-way BTB has no sets; neither engine may see it.
        status, _, body = run(service.sweep_point(dict(
            TINY, engine=engine, config={"btb_entries": 2})))
        assert status == 400
        assert "btb_entries" in json.loads(body)["error"]
        assert service.metrics.count("sweep_bad_requests") == 1

    @pytest.mark.parametrize("engine", ["python", "compiled"])
    def test_small_logical_file_is_structured_400(self, service, engine):
        # 8 logical integer registers cannot hold a trace that names 32;
        # the request never reaches an engine.
        status, _, body = run(service.sweep_point(dict(
            TINY, engine=engine, config={"num_logical_int": 8})))
        assert status == 400
        assert "num_logical_int" in json.loads(body)["error"]
        assert service.metrics.count("sweep_bad_requests") == 1

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


class TestHitPath:
    """A served hit derives its config digest once and encodes its stats
    without deep-copying them, with the bytes of the old encoding."""

    def test_hit_digests_once_and_miss_at_most_twice(self, service,
                                                      monkeypatch):
        from repro.analysis import cache as cache_mod

        calls = []
        real = cache_mod.config_digest
        monkeypatch.setattr(cache_mod, "config_digest",
                            lambda config: calls.append(config) or real(config))
        _, miss, _ = run(service.sweep_point(dict(TINY)))
        assert miss["X-Repro-Served-From"] == "computed"
        assert 1 <= len(calls) <= 2
        calls.clear()
        _, hit, _ = run(service.sweep_point(dict(TINY)))
        assert hit["X-Repro-Served-From"] == "cache"
        assert len(calls) == 1

    @staticmethod
    def _asdict_body(payload: dict) -> bytes:
        """The response encoding before the ``default=`` hook."""
        import dataclasses

        payload = dict(payload, stats=dataclasses.asdict(payload["stats"]))
        return json.dumps(payload, sort_keys=True,
                          separators=(",", ":")).encode("utf-8")

    def test_bodies_match_the_asdict_encoding_on_every_pool_point(
            self, service):
        from repro.serve.loadgen import build_request_pool

        for request in build_request_pool(24, trace_length=300):
            _, _, body = run(service.sweep_point(request))
            config, point = parse_sweep_request(request)
            stats = service.cache.get(config, point)
            assert stats.int_registers.occupancy is not None
            expected = self._asdict_body({
                "key": point_key(config, point),
                "point": {"benchmark": point.benchmark,
                          "policy": point.policy,
                          "num_registers": point.num_registers},
                "trace_length": config.trace_length, "seed": config.seed,
                "stats": stats, "cache_degradation_reason": None})
            assert body == expected, request

    def test_stats_without_occupancy_encode_as_asdict(self, service):
        import dataclasses

        from repro.serve.service import _json_bytes

        run(service.sweep_point(dict(TINY)))
        config, point = parse_sweep_request(dict(TINY))
        stats = service.cache.get(config, point)
        stats.int_registers = dataclasses.replace(stats.int_registers,
                                                  occupancy=None)
        payload = {"stats": stats, "seed": 1}
        assert _json_bytes(payload) == self._asdict_body(payload)
        assert b'"occupancy":null' in _json_bytes(payload)

    def test_non_dataclass_values_still_fail_to_encode(self):
        from repro.serve.service import _json_bytes

        with pytest.raises(TypeError):
            _json_bytes({"stats": object()})


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
        # The core receives the row table (one entry per row, three for
        # the source columns) and a row id and an address per instruction.
        assert set(payload["columns"]) == set(ROW_COLUMN_NAMES) | {"rows",
                                                                   "addr"}
        columns = get_workload("gcc", 300).columns
        n, n_rows = len(columns), len(columns.records)
        assert n_rows < n
        for name, column in payload["columns"].items():
            shape = ([n] if name in ("rows", "addr")
                     else [n_rows, 3] if name.startswith("src_") else [n_rows])
            assert column == {"shape": shape, "dtype": "int64",
                              "nbytes": 8 * math.prod(shape)}

    def test_unknown_workload_is_400(self, service):
        status, _, _ = run(service.artefact({"workload": "quake3"}))
        assert status == 400


class TestCommandLine:
    def test_max_workers_is_rejected(self, capsys):
        # A request names one point and never shards: the per-computation
        # process-pool width is gone, and a stale flag must fail loudly.
        from repro.serve.cli import build_parser

        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--max-workers", "2"])
        assert excinfo.value.code == 2
        assert "--max-workers" in capsys.readouterr().err


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
