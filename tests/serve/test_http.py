"""End-to-end tests over the real HTTP transport.

A :class:`BackgroundServer` on a loopback socket, driven by the stdlib
:class:`ServeClient` — the same path CI's smoke job and the load
harness use.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.analysis.backends import resolve_backend, wrap_envelope
from repro.analysis.cache import SweepCache
from repro.analysis.sweep import SweepConfig, run_sweep
from repro.serve import BackgroundServer, ServeClient

TINY = {"benchmark": "gcc", "policy": "conv", "num_registers": 48,
        "trace_length": 300, "seed": 1}


@pytest.fixture(scope="module")
def server():
    import tempfile

    with BackgroundServer(cache=SweepCache(tempfile.mkdtemp())) as server:
        yield server


@pytest.fixture
def client(server):
    return ServeClient(server.url)


class TestRoutes:
    def test_healthz(self, client):
        response = client.healthz()
        assert response.ok
        assert response.json()["status"] == "ok"
        assert response.json()["cache_backend"] == "local"

    def test_unknown_route_is_404_json(self, client):
        response = client._request("GET", "/nope")
        assert response.status == 404
        assert "no such route" in response.json()["error"]

    def test_wrong_method_is_405(self, client):
        response = client._request("GET", "/v1/sweep-point")
        assert response.status == 405

    def test_invalid_json_body_is_400(self, client):
        response = client._request("POST", "/v1/sweep-point", b"not json{")
        assert response.status == 400
        assert "invalid JSON" in response.json()["error"]

    def test_empty_body_is_400(self, client):
        response = client._request("POST", "/v1/sweep-point", b"")
        assert response.status == 400


class TestSweepPointOverHTTP:
    def test_concurrent_duplicates_share_bytes(self, client):
        results = [None] * 6

        def hit(index):
            results[index] = client.sweep_point_raw(dict(TINY))

        threads = [threading.Thread(target=hit, args=(index,))
                   for index in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(response.ok for response in results)
        assert len({response.body for response in results}) == 1
        origins = [response.served_from for response in results]
        assert origins.count("computed") <= 1
        assert set(origins) <= {"computed", "joined", "cache"}

    def test_metrics_reflect_the_traffic(self, client):
        client.sweep_point_raw(dict(TINY))
        metrics = client.metrics()
        assert metrics["counters"]["sweep_computations"] == 1
        assert metrics["in_flight"] == 0
        assert "POST /v1/sweep-point" in metrics["latency"]
        summary = metrics["latency"]["POST /v1/sweep-point"]
        assert summary["p50_ms"] <= summary["p99_ms"] <= summary["max_ms"]

    def test_stats_are_stable_across_requests(self, client):
        first = client.sweep_point_raw(dict(TINY)).json()
        second = client.sweep_point_raw(dict(TINY)).json()
        assert first["stats"] == second["stats"]

    def test_error_is_json_not_dropped_connection(self, client):
        response = client.sweep_point_raw(dict(TINY, num_registers=8))
        assert response.status == 400
        assert "error" in response.json()

    def test_distinct_points_are_distinct_results(self, client):
        conv = client.sweep_point_raw(dict(TINY)).json()
        extended = client.sweep_point_raw(
            dict(TINY, policy="extended")).json()
        assert conv["key"] != extended["key"]


class TestCacheProtocolOverHTTP:
    def test_round_trip_with_envelope(self, client):
        key = "cd" * 32
        envelope = wrap_envelope(key, b"remote entry")
        assert client.cache_put(key, envelope).status == 204
        fetched = client.cache_get(key)
        assert fetched.status == 200
        assert fetched.body == envelope

    def test_corrupt_upload_rejected(self, client):
        key = "ef" * 32
        assert client.cache_put(key, b"garbage").status == 400
        assert client.cache_get(key).status == 404


class TestSweepAgainstLiveServer:
    """The distributed story end-to-end: a sweep with a tiered backend
    shares results through a live server."""

    def test_tiered_sweep_shares_results(self, server, tmp_path):
        config = SweepConfig(benchmarks=("gcc",), policies=("basic",),
                             register_sizes=(48,), trace_length=300, seed=7)
        first = SweepCache(backend=resolve_backend(
            server.url, cache_dir=tmp_path / "node1"))
        result = run_sweep(config, cache=first)
        assert result.cache_degradation_reason is None
        assert first.stores == 1

        second = SweepCache(backend=resolve_backend(
            server.url, cache_dir=tmp_path / "node2"))
        rerun = run_sweep(config, cache=second)
        assert second.hits == 1                    # served via the remote
        assert second.backend.remote.remote_hits == 1
        point = config.points()[0]
        assert result.stats(point.benchmark, point.policy,
                            point.num_registers) == \
            rerun.stats(point.benchmark, point.policy, point.num_registers)

    def test_server_outage_degrades_to_local(self, tmp_path):
        config = SweepConfig(benchmarks=("gcc",), policies=("conv",),
                             register_sizes=(48,), trace_length=300, seed=9)
        backend = resolve_backend("http://127.0.0.1:9",
                                  cache_dir=tmp_path, retries=0)
        cache = SweepCache(backend=backend)
        result = run_sweep(config, cache=cache)
        assert result.cache_degradation_reason is not None
        assert "local-only" in result.cache_degradation_reason
        point = config.points()[0]
        assert result.stats(point.benchmark, point.policy,
                            point.num_registers).committed_instructions > 0


class TestBackgroundServerLifecycle:
    def test_start_stop_leaves_no_threads(self, tmp_path):
        before = {thread.name for thread in threading.enumerate()}
        server = BackgroundServer(cache=SweepCache(tmp_path))
        server.start()
        assert ServeClient(server.url).healthz().ok
        server.stop()
        after = {thread.name for thread in threading.enumerate()}
        assert "repro-serve" not in after - before

    def test_double_start_is_an_error(self, tmp_path):
        with BackgroundServer(cache=SweepCache(tmp_path)) as server:
            with pytest.raises(RuntimeError):
                server.start()


class TestMalformedRequests:
    """Requests the transport cannot parse get a JSON 4xx, counted as
    client errors, never a 500 or a dropped connection."""

    @staticmethod
    def _exchange(server, raw: bytes):
        import socket

        with socket.create_connection(("127.0.0.1", server.port),
                                      timeout=30) as sock:
            sock.sendall(raw)
            sock.shutdown(socket.SHUT_WR)
            chunks = []
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
        head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
        status = int(head.split(b" ", 2)[1])
        return status, json.loads(body)

    @pytest.mark.parametrize("raw, status, message", [
        (b"POST /v1/sweep-point HTTP/1.1\r\nContent-Length: abc\r\n\r\n",
         400, "Content-Length"),
        (b"POST /v1/sweep-point HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
         400, "Content-Length"),
        (b"POST /v1/sweep-point HTTP/1.1\r\nContent-Length: 99999999999"
         b"\r\n\r\n", 413, "exceeds"),
        (b"GET /healthz HTTP/1.1\r\nX-Pad: " + b"a" * 40_000 + b"\r\n\r\n",
         431, "header section"),
        (b"GARBAGE\r\n\r\n", 400, "request line"),
        (b"GET /healthz\r\n\r\n", 400, "request line"),
    ])
    def test_answered_with_a_structured_client_error(self, tmp_path, raw,
                                                     status, message):
        with BackgroundServer(cache=SweepCache(tmp_path)) as server:
            answer_status, answer = self._exchange(server, raw)
            assert answer_status == status
            assert message in answer["error"]
            counters = ServeClient(server.url).metrics()["counters"]
            assert counters["http_client_errors"] == 1
            assert counters.get("http_errors", 0) == 0

    def test_well_formed_request_still_served(self, tmp_path):
        with BackgroundServer(cache=SweepCache(tmp_path)) as server:
            status, answer = self._exchange(
                server, b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            assert (status, answer["status"]) == (200, "ok")


class TestEngineVerdict:
    """``/healthz`` and the start-up line report the probe verdict."""

    def test_lazy_server_reports_without_probing(self, tmp_path,
                                                 monkeypatch):
        from repro.engine import accel

        def probe():
            raise AssertionError("/healthz probed the compiled backend")

        monkeypatch.delenv(accel.ENGINE_ENV, raising=False)
        monkeypatch.setattr(accel, "_probe_backend", probe)
        accel.reset_backend_cache()
        try:
            with BackgroundServer(cache=SweepCache(tmp_path)) as server:
                health = ServeClient(server.url).healthz().json()
                assert health["engine"] is None
                assert health["compiled_fallback_reason"] is None
                monkeypatch.setenv(accel.ENGINE_ENV, "python")
                health = ServeClient(server.url).healthz().json()
                assert health["engine"] == "python"
        finally:
            accel.reset_backend_cache()

    @staticmethod
    def _start(tmp_path, **env):
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = Path(__file__).resolve().parents[2] / "src"
        environ = dict(os.environ, PYTHONPATH=str(src))
        environ.pop("REPRO_ENGINE", None)
        environ.update(env)
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "--port", "0",
             "--cache-dir", str(tmp_path / "store")],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=environ)
        before = []
        for line in process.stdout:
            if "listening on " in line:
                return process, before, line
            before.append(line)
        process.wait(timeout=30)
        raise AssertionError(f"repro-serve never listened: {before}")

    @staticmethod
    def _stop(process):
        import signal

        process.send_signal(signal.SIGINT)
        try:
            process.communicate(timeout=30)
        except Exception:
            process.kill()
            process.communicate()

    def test_fallback_warning_precedes_listening(self, tmp_path):
        process, before, line = self._start(
            tmp_path, REPRO_ACCEL_CC="/nonexistent/compiler-xyz",
            REPRO_ACCEL_CACHE=str(tmp_path / "accel"))
        try:
            assert any("using the Python engine" in earlier
                       for earlier in before)
            assert "engine: python; compiled fallback: compiled engine " \
                "requested but unavailable" in line
            url = line.split("listening on ", 1)[1].split()[0]
            health = ServeClient(url).healthz().json()
            assert health["engine"] == "python"
            assert "unavailable" in health["compiled_fallback_reason"]
        finally:
            self._stop(process)

    def test_python_engine_skips_the_probe(self, tmp_path):
        process, before, line = self._start(
            tmp_path, REPRO_ENGINE="python",
            REPRO_ACCEL_CC="/nonexistent/compiler-xyz",
            REPRO_ACCEL_CACHE=str(tmp_path / "accel"))
        try:
            assert before == []
            assert line.rstrip().endswith("engine: python)")
            assert not (tmp_path / "accel").exists()
        finally:
            self._stop(process)
