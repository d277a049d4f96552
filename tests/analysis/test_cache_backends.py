"""Backend-contract suite for the pluggable sweep-cache storage layer.

Every backend (local directory, remote HTTP, tiered composition) must
honour the same contract: get/put round-trips, ``None``/``False`` on
failure (never an exception), idempotent concurrent puts, degradation
with a surfaced reason when a remote becomes unreachable, and — for the
tiered composition — write-through consistency once a remote recovers,
plus the integrity property that a value is *never* served unless it
verifies against its point key and content digest.

The remote side is a controllable in-process HTTP store
(:class:`FakeRemoteStore`) whose failure mode can be toggled per test,
so retry/degradation/recovery are driven deterministically (with the
injectable clock/sleep hooks, no real waiting).
"""

from __future__ import annotations

import http.server
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.backends import (
    CACHE_BACKEND_ENV,
    HTTPCacheBackend,
    LocalDirBackend,
    TieredBackend,
    resolve_backend,
    unwrap_envelope,
    wrap_envelope,
)

KEY_A = "a" * 64
KEY_B = "b" * 64


class FakeRemoteStore:
    """A tiny in-process ``/v1/cache`` remote with a failure toggle.

    ``mode`` is ``"ok"`` (normal store), ``"error"`` (every request is a
    500 — an unhealthy remote) or ``"hang"`` is deliberately absent:
    timeouts are exercised against a connection-refused port instead,
    which fails just as a dead host does but without slow tests.
    """

    def __init__(self):
        self.blobs = {}
        self.mode = "ok"
        self.requests = 0
        store = self

        class Handler(http.server.BaseHTTPRequestHandler):
            def log_message(self, *args):
                pass

            def _key(self):
                return self.path.rsplit("/", 1)[-1]

            def do_GET(self):
                store.requests += 1
                if store.mode == "error":
                    self.send_error(500)
                    return
                blob = store.blobs.get(self._key())
                if blob is None:
                    self.send_error(404)
                    return
                self.send_response(200)
                self.send_header("Content-Length", str(len(blob)))
                self.end_headers()
                self.wfile.write(blob)

            def do_PUT(self):
                store.requests += 1
                if store.mode == "error":
                    self.send_error(500)
                    return
                length = int(self.headers.get("Content-Length", "0"))
                store.blobs[self._key()] = self.rfile.read(length)
                self.send_response(204)
                self.send_header("Content-Length", "0")
                self.end_headers()

        self.server = http.server.ThreadingHTTPServer(("127.0.0.1", 0),
                                                      Handler)
        self.thread = threading.Thread(target=self.server.serve_forever,
                                       daemon=True)
        self.thread.start()
        self.url = f"http://127.0.0.1:{self.server.server_address[1]}"

    def close(self):
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=10)


@pytest.fixture
def remote_store():
    store = FakeRemoteStore()
    yield store
    store.close()


def make_http_backend(url, **overrides):
    """An HTTP backend with fast, injectable timing for tests."""
    options = dict(timeout=5.0, retries=1, backoff=0.0,
                   recovery_interval=30.0, _sleep=lambda seconds: None)
    options.update(overrides)
    return HTTPCacheBackend(url, **options)


# ----------------------------------------------------------------------
# The shared contract, run against all three backends.
# ----------------------------------------------------------------------
@pytest.fixture(params=["local", "http", "tiered"])
def backend(request, tmp_path, remote_store):
    if request.param == "local":
        return LocalDirBackend(tmp_path / "store")
    if request.param == "http":
        return make_http_backend(remote_store.url)
    return TieredBackend(LocalDirBackend(tmp_path / "store"),
                         make_http_backend(remote_store.url))


class TestBackendContract:
    def test_get_put_round_trip(self, backend):
        payload = b"pickled sweep result bytes"
        assert backend.get_blob(KEY_A) is None
        assert backend.put_blob(KEY_A, payload) is True
        assert backend.get_blob(KEY_A) == payload

    def test_keys_are_independent(self, backend):
        backend.put_blob(KEY_A, b"alpha")
        backend.put_blob(KEY_B, b"beta")
        assert backend.get_blob(KEY_A) == b"alpha"
        assert backend.get_blob(KEY_B) == b"beta"

    def test_overwrite_is_last_writer_wins(self, backend):
        backend.put_blob(KEY_A, b"first")
        backend.put_blob(KEY_A, b"second")
        assert backend.get_blob(KEY_A) == b"second"

    def test_concurrent_identical_puts_are_idempotent(self, backend):
        """Racing writers of the same entry (sweep shards finishing the
        same point on two machines) must all succeed and leave the
        payload intact — no torn or interleaved bytes."""
        payload = b"x" * 4096
        failures = []

        def put():
            if not backend.put_blob(KEY_A, payload):
                failures.append(True)

        threads = [threading.Thread(target=put) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures
        assert backend.get_blob(KEY_A) == payload

    def test_healthy_backend_reports_no_degradation(self, backend):
        backend.put_blob(KEY_A, b"payload")
        backend.get_blob(KEY_A)
        assert backend.degradation_reason() is None


# ----------------------------------------------------------------------
# Local backend specifics.
# ----------------------------------------------------------------------
class TestLocalDirBackend:
    def test_layout_matches_the_historical_cache(self, tmp_path):
        backend = LocalDirBackend(tmp_path)
        backend.put_blob(KEY_A, b"payload")
        assert (tmp_path / KEY_A[:2] / f"{KEY_A}.pkl").read_bytes() == \
            b"payload"

    def test_local_dir_exposed_for_maintenance(self, tmp_path):
        assert LocalDirBackend(tmp_path).local_dir == tmp_path

    def test_unwritable_dir_returns_false_not_raise(self, tmp_path):
        target = tmp_path / "blocked"
        target.write_text("a file where the store dir should be")
        backend = LocalDirBackend(target)
        assert backend.put_blob(KEY_A, b"payload") is False
        assert backend.get_blob(KEY_A) is None


# ----------------------------------------------------------------------
# HTTP backend: misses, retries, degradation, recovery.
# ----------------------------------------------------------------------
class TestHTTPCacheBackend:
    def test_miss_is_not_a_fault(self, remote_store):
        backend = make_http_backend(remote_store.url)
        assert backend.get_blob(KEY_A) is None
        assert backend.degradation_reason() is None
        assert backend.remote_misses == 1

    def test_unreachable_remote_degrades_with_reason(self):
        # A refused connection (no listener) fails exactly like a dead
        # host, without tying the test to real timeouts.
        backend = make_http_backend("http://127.0.0.1:9")
        assert backend.get_blob(KEY_A) is None
        reason = backend.degradation_reason()
        assert reason is not None
        assert "unreachable" in reason and "local-only" in reason
        assert "127.0.0.1:9" in reason

    def test_server_errors_retry_then_degrade(self, remote_store):
        remote_store.mode = "error"
        sleeps = []
        backend = make_http_backend(remote_store.url, retries=2,
                                    backoff=0.2, _sleep=sleeps.append)
        assert backend.get_blob(KEY_A) is None
        assert remote_store.requests == 3          # initial + 2 retries
        assert sleeps == [0.2, 0.4]                # exponential backoff
        assert "HTTP 500" in backend.degradation_reason()

    def test_degraded_backend_short_circuits(self, remote_store):
        remote_store.mode = "error"
        backend = make_http_backend(remote_store.url, retries=0)
        backend.get_blob(KEY_A)
        seen = remote_store.requests
        for _ in range(5):
            assert backend.get_blob(KEY_A) is None
            assert backend.put_blob(KEY_A, b"data") is False
        assert remote_store.requests == seen       # no further traffic

    def test_recovery_after_interval(self, remote_store):
        clock = [0.0]
        remote_store.mode = "error"
        backend = make_http_backend(remote_store.url, retries=0,
                                    recovery_interval=30.0,
                                    _clock=lambda: clock[0])
        backend.get_blob(KEY_A)
        assert backend.degradation_reason() is not None

        remote_store.mode = "ok"
        clock[0] = 10.0                            # interval not elapsed
        remote_store.blobs[KEY_A] = b"payload"
        assert backend.get_blob(KEY_A) is None     # still short-circuited

        clock[0] = 31.0                            # interval elapsed: probe
        assert backend.get_blob(KEY_A) == b"payload"
        assert backend.degradation_reason() is None

    def test_still_down_remote_redegrades_quietly(self, remote_store):
        clock = [0.0]
        remote_store.mode = "error"
        backend = make_http_backend(remote_store.url, retries=0,
                                    recovery_interval=30.0,
                                    _clock=lambda: clock[0])
        backend.get_blob(KEY_A)
        clock[0] = 31.0
        assert backend.get_blob(KEY_A) is None     # probe fails
        assert backend.degradation_reason() is not None
        seen = remote_store.requests
        clock[0] = 40.0                            # interval restarted
        backend.get_blob(KEY_A)
        assert remote_store.requests == seen

    def test_put_round_trips_raw_bytes(self, remote_store):
        backend = make_http_backend(remote_store.url)
        assert backend.put_blob(KEY_A, b"\x00\xffraw") is True
        assert backend.get_blob(KEY_A) == b"\x00\xffraw"
        assert backend.remote_hits == 1

    def test_rejects_negative_retries(self):
        with pytest.raises(ValueError):
            HTTPCacheBackend("http://127.0.0.1:9", retries=-1)


# ----------------------------------------------------------------------
# Tiered backend: write-through, degradation, recovery consistency.
# ----------------------------------------------------------------------
def make_tiered(tmp_path, remote_store, **http_overrides):
    return TieredBackend(LocalDirBackend(tmp_path / "local"),
                         make_http_backend(remote_store.url,
                                           **http_overrides))


class TestTieredBackend:
    def test_put_writes_envelope_to_remote(self, tmp_path, remote_store):
        tiered = make_tiered(tmp_path, remote_store)
        tiered.put_blob(KEY_A, b"payload")
        assert tiered.local.get_blob(KEY_A) == b"payload"
        assert unwrap_envelope(KEY_A, remote_store.blobs[KEY_A]) == b"payload"

    def test_remote_hit_written_through_to_local(self, tmp_path,
                                                 remote_store):
        remote_store.blobs[KEY_A] = wrap_envelope(KEY_A, b"payload")
        tiered = make_tiered(tmp_path, remote_store)
        assert tiered.get_blob(KEY_A) == b"payload"
        assert tiered.remote_serves == 1
        # second read is served locally, no remote round trip
        seen = remote_store.requests
        assert tiered.get_blob(KEY_A) == b"payload"
        assert remote_store.requests == seen
        assert tiered.local_serves == 1

    def test_local_read_preferred_over_remote(self, tmp_path, remote_store):
        tiered = make_tiered(tmp_path, remote_store)
        tiered.local.put_blob(KEY_A, b"local copy")
        remote_store.blobs[KEY_A] = wrap_envelope(KEY_A, b"remote copy")
        assert tiered.get_blob(KEY_A) == b"local copy"

    def test_remote_outage_degrades_but_serves_local(self, tmp_path,
                                                     remote_store):
        tiered = make_tiered(tmp_path, remote_store, retries=0)
        tiered.put_blob(KEY_A, b"payload")
        remote_store.mode = "error"
        assert tiered.get_blob(KEY_A) == b"payload"    # local, no remote
        assert tiered.get_blob(KEY_B) is None          # miss degrades
        assert tiered.degradation_reason() is not None
        # writes keep succeeding against the local source of truth
        assert tiered.put_blob(KEY_B, b"new payload") is True
        assert tiered.get_blob(KEY_B) == b"new payload"

    def test_write_through_consistency_after_recovery(self, tmp_path,
                                                      remote_store):
        """Entries written during an outage reach the remote once it is
        back: a fresh node (empty local layer) sees the same bytes."""
        clock = [0.0]
        tiered = make_tiered(tmp_path, remote_store, retries=0,
                             recovery_interval=30.0,
                             _clock=lambda: clock[0])
        remote_store.mode = "error"
        tiered.put_blob(KEY_A, b"written during outage")
        assert KEY_A not in remote_store.blobs
        assert tiered.degradation_reason() is not None

        remote_store.mode = "ok"
        clock[0] = 31.0
        tiered.put_blob(KEY_A, b"written during outage")   # re-sync
        assert tiered.degradation_reason() is None
        fresh_node = TieredBackend(
            LocalDirBackend(tmp_path / "fresh"),
            make_http_backend(remote_store.url))
        assert fresh_node.get_blob(KEY_A) == b"written during outage"

    def test_corrupt_remote_blob_rejected_not_served(self, tmp_path,
                                                     remote_store):
        envelope = bytearray(wrap_envelope(KEY_A, b"payload"))
        envelope[-1] ^= 0x01                       # flip one payload bit
        remote_store.blobs[KEY_A] = bytes(envelope)
        tiered = make_tiered(tmp_path, remote_store)
        assert tiered.get_blob(KEY_A) is None
        assert tiered.remote_rejects == 1
        assert tiered.local.get_blob(KEY_A) is None    # never written through

    def test_misrouted_remote_blob_rejected(self, tmp_path, remote_store):
        remote_store.blobs[KEY_A] = wrap_envelope(KEY_B, b"other point")
        tiered = make_tiered(tmp_path, remote_store)
        assert tiered.get_blob(KEY_A) is None
        assert tiered.remote_rejects == 1

    def test_local_dir_is_the_local_layers(self, tmp_path, remote_store):
        tiered = make_tiered(tmp_path, remote_store)
        assert tiered.local_dir == tmp_path / "local"


class TestTieredIntegrityProperty:
    """The required property: a tiered backend never serves a value whose
    point key does not verify against its content digest — whatever bytes
    a (hostile, corrupt, confused) remote returns."""

    @settings(max_examples=200, deadline=None)
    @given(blob=st.binary(max_size=300))
    def test_arbitrary_remote_bytes_never_served(self, blob):
        served = unwrap_envelope(KEY_A, blob)
        if served is not None:
            # Only a well-formed envelope for exactly this key verifies;
            # then the digest must match the body by construction.
            assert wrap_envelope(KEY_A, served) == blob

    @settings(max_examples=100, deadline=None)
    @given(body=st.binary(max_size=200),
           flip=st.integers(min_value=0, max_value=10_000))
    def test_any_single_byte_corruption_is_rejected(self, body, flip):
        envelope = bytearray(wrap_envelope(KEY_A, body))
        index = flip % len(envelope)
        envelope[index] ^= 0xFF
        assert unwrap_envelope(KEY_A, bytes(envelope)) is None

    @settings(max_examples=100, deadline=None)
    @given(body=st.binary(max_size=200))
    def test_round_trip_always_verifies(self, body):
        assert unwrap_envelope(KEY_A, wrap_envelope(KEY_A, body)) == body

    @settings(max_examples=100, deadline=None)
    @given(body=st.binary(max_size=200))
    def test_wrong_key_never_verifies(self, body):
        assert unwrap_envelope(KEY_B, wrap_envelope(KEY_A, body)) is None


class TestEnvelope:
    def test_rejects_short_blob(self):
        assert unwrap_envelope(KEY_A, b"RSB1short") is None

    def test_rejects_none(self):
        assert unwrap_envelope(KEY_A, None) is None

    def test_rejects_foreign_magic(self):
        blob = b"PK\x03\x04" + b"\x00" * 200
        assert unwrap_envelope(KEY_A, blob) is None

    def test_wrap_requires_full_length_key(self):
        with pytest.raises(ValueError):
            wrap_envelope("abc", b"payload")


# ----------------------------------------------------------------------
# Spec resolution.
# ----------------------------------------------------------------------
class TestResolveBackend:
    def test_local_spec(self, tmp_path):
        backend = resolve_backend("local", cache_dir=tmp_path)
        assert isinstance(backend, LocalDirBackend)
        assert backend.cache_dir == tmp_path

    def test_http_spec_is_tiered(self, tmp_path):
        backend = resolve_backend("http://127.0.0.1:9", cache_dir=tmp_path)
        assert isinstance(backend, TieredBackend)
        assert isinstance(backend.local, LocalDirBackend)
        assert isinstance(backend.remote, HTTPCacheBackend)
        assert backend.local_dir == tmp_path

    def test_remote_spec_is_pure_http(self, tmp_path):
        backend = resolve_backend("remote:http://127.0.0.1:9",
                                  cache_dir=tmp_path)
        assert isinstance(backend, HTTPCacheBackend)
        assert backend.local_dir is None

    def test_empty_spec_reads_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_BACKEND_ENV, "http://127.0.0.1:9")
        backend = resolve_backend(None, cache_dir=tmp_path)
        assert isinstance(backend, TieredBackend)

    def test_environment_defaults_to_local(self, tmp_path, monkeypatch):
        monkeypatch.delenv(CACHE_BACKEND_ENV, raising=False)
        assert isinstance(resolve_backend(None, cache_dir=tmp_path),
                          LocalDirBackend)

    def test_unknown_spec_is_an_error(self, tmp_path):
        with pytest.raises(ValueError):
            resolve_backend("ftp://files", cache_dir=tmp_path)

    def test_remote_spec_requires_http_url(self, tmp_path):
        with pytest.raises(ValueError):
            resolve_backend("remote:files", cache_dir=tmp_path)

    def test_http_options_forwarded(self, tmp_path):
        backend = resolve_backend("remote:http://127.0.0.1:9",
                                  cache_dir=tmp_path,
                                  timeout=1.5, retries=7)
        assert backend.timeout == 1.5
        assert backend.retries == 7


def test_sweep_import_leaves_the_http_stack_unloaded():
    # urllib.request pulls in ssl, http.client and email (~2 MB of RSS in
    # every sweep process); only a remote cache backend needs it, so the
    # HTTP backend imports it on its first request.
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    probe = ("import sys, repro.analysis.sweep; "
             "print(sorted({'urllib.request', 'ssl'} & set(sys.modules)))")
    env = dict(os.environ,
               PYTHONPATH=str(Path(repro.__file__).resolve().parent.parent))
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"
