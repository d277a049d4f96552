"""Pluggable storage backends for the sweep result cache.

The on-disk sweep cache (:mod:`repro.analysis.cache`) keys every entry by
an exact content-addressed digest — workload content, configuration hash,
trace length, seed, simulator code digest, schema version — so sharing
results *across machines* is purely a transport problem: any store that
can hold ``key -> bytes`` can serve them.  This module provides that
transport seam:

* :class:`LocalDirBackend` — today's layout (``<dir>/<key[:2]>/<key>.pkl``,
  atomic writes), byte-identical paths and bytes to the pre-backend cache;
* :class:`HTTPCacheBackend` — a remote blob store speaking the tiny
  ``GET/PUT /v1/cache/<key>`` protocol served by ``repro-serve``, with
  per-request timeouts, bounded retries with exponential backoff, and
  *graceful degradation*: after an unreachable remote exhausts its
  retries the backend goes local-only (every remote call short-circuits)
  until a recovery interval elapses, and the reason is surfaced through
  :meth:`CacheBackend.degradation_reason` all the way to
  ``SweepResult.cache_degradation_reason`` — mirroring the compiled
  backend's fallback contract;
* :class:`TieredBackend` — composes a local backend under a remote one:
  reads hit local first, remote hits are written through to local, writes
  go to both (remote best-effort).  Remote traffic is framed in a small
  integrity envelope binding the payload to its key and content digest,
  so a corrupt or misrouted remote blob is *never* served.

Backend selection (``resolve_backend``) accepts a spec string from
``--cache-backend`` / ``$REPRO_CACHE_BACKEND``:

* ``local`` (or empty) — the plain local directory store;
* ``http://host:port`` / ``https://…`` — tiered: local write-through
  under that remote;
* ``remote:http://host:port`` — the remote alone (no local copy; mostly
  for tests and diagnostics).
"""

from __future__ import annotations

import hashlib
import os
import tempfile
import time
from pathlib import Path
from typing import Callable, Optional, Union

__all__ = [
    "CacheBackend", "LocalDirBackend", "HTTPCacheBackend", "TieredBackend",
    "resolve_backend", "wrap_envelope", "unwrap_envelope",
    "CACHE_BACKEND_ENV",
]

#: Environment variable holding the default backend spec.
CACHE_BACKEND_ENV = "REPRO_CACHE_BACKEND"

#: Magic prefix of the remote integrity envelope (version 1).
_ENVELOPE_MAGIC = b"RSB1"
_DIGEST_BYTES = 32
_KEY_BYTES = 64


def wrap_envelope(key: str, body: bytes) -> bytes:
    """Frame ``body`` for the wire: magic, content digest, owning key.

    The envelope is what tiered backends ship to a remote store; it binds
    the payload to the exact cache key it was stored under *and* to its
    own SHA-256, so a remote that corrupts, truncates or misroutes a blob
    can never have it served as a live result.
    """
    key_bytes = key.encode("ascii")
    if len(key_bytes) != _KEY_BYTES:
        raise ValueError(f"cache keys are {_KEY_BYTES}-char hex digests, "
                         f"got {key!r}")
    return (_ENVELOPE_MAGIC + hashlib.sha256(body).digest()
            + key_bytes + body)


def unwrap_envelope(key: str, blob: Optional[bytes]) -> Optional[bytes]:
    """Verify and strip the envelope; None for anything that fails.

    Rejects short/foreign blobs, a stored key that differs from the
    requested one, and any body whose digest does not match — the three
    ways a remote store can lie.
    """
    header = len(_ENVELOPE_MAGIC) + _DIGEST_BYTES + _KEY_BYTES
    if blob is None or len(blob) < header:
        return None
    if not blob.startswith(_ENVELOPE_MAGIC):
        return None
    digest = blob[len(_ENVELOPE_MAGIC):len(_ENVELOPE_MAGIC) + _DIGEST_BYTES]
    stored_key = blob[len(_ENVELOPE_MAGIC) + _DIGEST_BYTES:header]
    body = blob[header:]
    try:
        if stored_key.decode("ascii") != key:
            return None
    except UnicodeDecodeError:
        return None
    if hashlib.sha256(body).digest() != digest:
        return None
    return body


class CacheBackend:
    """Key/value transport contract shared by every backend.

    Payloads are opaque bytes (the cache layer's pickled dict).  The
    contract is deliberately forgiving: a failed read is ``None`` and a
    failed write is ``False`` — backends absorb their own faults and
    report persistent trouble through :meth:`degradation_reason`, so a
    sweep whose simulation work is already done never crashes on storage.
    """

    #: Short human-readable backend name (metrics, reprs, docs).
    name = "abstract"

    def get_blob(self, key: str) -> Optional[bytes]:
        raise NotImplementedError

    def put_blob(self, key: str, data: bytes) -> bool:
        raise NotImplementedError

    def degradation_reason(self) -> Optional[str]:
        """Why the backend is running in a degraded mode, or None."""
        return

    @property
    def local_dir(self) -> Optional[Path]:
        """Directory of the local layer, when the backend has one.

        The maintenance surface (stats/prune/clear) operates on this
        directory; purely remote backends return None and the cache layer
        refuses maintenance with a clear error.
        """
        return

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


class LocalDirBackend(CacheBackend):
    """The on-disk store: ``<dir>/<key[:2]>/<key>.pkl``, atomic writes.

    Byte-identical paths and bytes to the pre-backend ``SweepCache`` —
    existing caches keep working and tools that reach for
    ``SweepCache.path_for`` see the same files.
    """

    name = "local"

    def __init__(self, cache_dir: Union[str, Path]) -> None:
        self.cache_dir = Path(cache_dir)

    @property
    def local_dir(self) -> Path:
        return self.cache_dir

    def path_for_key(self, key: str) -> Path:
        return self.cache_dir / key[:2] / f"{key}.pkl"

    def get_blob(self, key: str) -> Optional[bytes]:
        try:
            return self.path_for_key(key).read_bytes()
        except OSError:
            return None

    def put_blob(self, key: str, data: bytes) -> bool:
        tmp_name = None
        try:
            path = self.path_for_key(key)
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(tmp_name, path)
        except OSError:
            if tmp_name is not None:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
            return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LocalDirBackend({str(self.cache_dir)!r})"


class HTTPCacheBackend(CacheBackend):
    """Remote blob store over the ``repro-serve`` cache protocol.

    ``GET {base}/v1/cache/<key>`` returns the blob (404 on a miss);
    ``PUT`` stores it.  Every request carries ``timeout``; transport
    errors are retried up to ``retries`` extra times with exponential
    backoff (``backoff * 2**attempt`` seconds).  When a request still
    fails after its retries the backend *degrades*: the reason is
    recorded, and every call short-circuits (local-only operation for a
    tiered composition) until ``recovery_interval`` seconds pass, at
    which point the next call probes the remote again.  A 404 is a miss,
    not a fault.

    ``_sleep`` / ``_clock`` are injection points for tests — the contract
    suite drives the retry/degradation machinery without real waiting.
    """

    name = "http"

    def __init__(self, base_url: str, timeout: float = 3.0,
                 retries: int = 2, backoff: float = 0.2,
                 recovery_interval: float = 30.0,
                 _sleep: Callable[[float], None] = time.sleep,
                 _clock: Callable[[], float] = time.monotonic) -> None:
        if retries < 0:
            raise ValueError("retries must be >= 0")
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.recovery_interval = recovery_interval
        self._sleep = _sleep
        self._clock = _clock
        self._degraded_reason: Optional[str] = None
        self._degraded_at: Optional[float] = None
        # telemetry (surfaced through /metrics and tests)
        self.remote_hits = 0
        self.remote_misses = 0
        self.remote_errors = 0

    # ------------------------------------------------------------------
    def degradation_reason(self) -> Optional[str]:
        return self._degraded_reason

    def _short_circuit(self) -> bool:
        """True while degraded and the recovery interval has not passed."""
        if self._degraded_at is None:
            return False
        if self._clock() - self._degraded_at >= self.recovery_interval:
            # Probe again; keep the reason until a request succeeds so a
            # still-down remote re-degrades without losing the history.
            self._degraded_at = None
            return False
        return True

    def _degrade(self, reason: str) -> None:
        self._degraded_reason = (
            f"remote cache {self.base_url} unreachable ({reason}); "
            f"continuing local-only")
        self._degraded_at = self._clock()

    def _recover(self) -> None:
        self._degraded_reason = None
        self._degraded_at = None

    def _url(self, key: str) -> str:
        return f"{self.base_url}/v1/cache/{key}"

    def _request(self, key: str, data: Optional[bytes] = None):
        """One GET (data None) or PUT with bounded retries.

        Returns ``(outcome, payload)`` where outcome is ``"ok"``,
        ``"miss"`` or ``"error"``.
        """
        if self._short_circuit():
            return "error", None
        # Imported here, not at module top: urllib.request pulls in ssl,
        # http.client and email, which no local-only sweep needs.
        import urllib.error
        import urllib.request

        last_error = "unreachable"
        for attempt in range(self.retries + 1):
            request = urllib.request.Request(
                self._url(key), data=data,
                method="PUT" if data is not None else "GET",
                headers={"Content-Type": "application/octet-stream"}
                if data is not None else {})
            try:
                with urllib.request.urlopen(request,
                                            timeout=self.timeout) as response:
                    body = response.read()
                self._recover()
                return "ok", body
            except urllib.error.HTTPError as exc:
                exc.close()
                if exc.code == 404:
                    self._recover()
                    return "miss", None
                last_error = f"HTTP {exc.code}"
            except (urllib.error.URLError, OSError, TimeoutError) as exc:
                reason = getattr(exc, "reason", exc)
                last_error = str(reason) or type(exc).__name__
            self.remote_errors += 1
            if attempt < self.retries:
                self._sleep(self.backoff * (2 ** attempt))
        self._degrade(last_error)
        return "error", None

    # ------------------------------------------------------------------
    def get_blob(self, key: str) -> Optional[bytes]:
        outcome, body = self._request(key)
        if outcome == "ok":
            self.remote_hits += 1
            return body
        if outcome == "miss":
            self.remote_misses += 1
        return None

    def put_blob(self, key: str, data: bytes) -> bool:
        outcome, _ = self._request(key, data=data)
        return outcome == "ok"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "degraded" if self._degraded_reason else "healthy"
        return f"HTTPCacheBackend({self.base_url!r}, {state})"


class TieredBackend(CacheBackend):
    """Local write-through under a remote store.

    * ``get`` — local first; on a local miss the remote is consulted, the
      blob is integrity-checked against its envelope (key *and* content
      digest must verify — a corrupt or misrouted remote entry is treated
      as a miss, never served), and a verified hit is written through to
      the local layer so the next read is local.
    * ``put`` — local always; remote best-effort (a degraded remote never
      fails the write, the local copy is the source of truth).
    """

    name = "tiered"

    def __init__(self, local: CacheBackend, remote: CacheBackend) -> None:
        self.local = local
        self.remote = remote
        # telemetry: where reads were served from
        self.local_serves = 0
        self.remote_serves = 0
        self.remote_rejects = 0

    @property
    def local_dir(self) -> Optional[Path]:
        return self.local.local_dir

    def degradation_reason(self) -> Optional[str]:
        return self.remote.degradation_reason() \
            or self.local.degradation_reason()

    def get_blob(self, key: str) -> Optional[bytes]:
        body = self.local.get_blob(key)
        if body is not None:
            self.local_serves += 1
            return body
        blob = self.remote.get_blob(key)
        if blob is None:
            return None
        body = unwrap_envelope(key, blob)
        if body is None:
            self.remote_rejects += 1
            return None
        self.remote_serves += 1
        self.local.put_blob(key, body)      # write-through (best effort)
        return body

    def put_blob(self, key: str, data: bytes) -> bool:
        ok = self.local.put_blob(key, data)
        self.remote.put_blob(key, wrap_envelope(key, data))
        return ok

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TieredBackend({self.local!r}, {self.remote!r})"


def resolve_backend(spec: Optional[str],
                    cache_dir: Union[None, str, Path] = None,
                    **http_options) -> CacheBackend:
    """Build a backend from a ``--cache-backend`` spec string.

    ``None``/empty falls back to ``$REPRO_CACHE_BACKEND``, then to the
    plain local store.  ``cache_dir`` roots the local layer (default:
    the sweep cache's default directory).  ``http_options`` are forwarded
    to :class:`HTTPCacheBackend` (timeout/retries/backoff).
    """
    from repro.analysis.cache import default_cache_dir

    if not spec:
        spec = os.environ.get(CACHE_BACKEND_ENV, "") or "local"
    spec = spec.strip()
    local_root = Path(cache_dir) if cache_dir else default_cache_dir()
    if spec == "local":
        return LocalDirBackend(local_root)
    if spec.startswith("remote:"):
        url = spec[len("remote:"):]
        if not url.startswith(("http://", "https://")):
            raise ValueError(f"remote cache backend needs an http(s) URL, "
                             f"got {url!r}")
        return HTTPCacheBackend(url, **http_options)
    if spec.startswith(("http://", "https://")):
        return TieredBackend(LocalDirBackend(local_root),
                             HTTPCacheBackend(spec, **http_options))
    raise ValueError(
        f"unknown cache backend spec {spec!r}; expected 'local', an "
        f"http(s):// URL (tiered with local write-through) or "
        f"'remote:<url>' (remote only)")
