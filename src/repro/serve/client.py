"""Blocking stdlib client for a ``repro-serve`` endpoint.

Used by the load harness, the CI smoke script and tests; intentionally
plain ``urllib`` so it exercises exactly the transport a third-party
client would (fresh connection per request, no keep-alive, no retries —
a latency probe must count every round trip it makes).
"""

from __future__ import annotations

import json
from typing import Optional

__all__ = ["ServeClient", "ServeResponse"]


class ServeResponse:
    """One HTTP exchange: status, body bytes, selected headers
    (``X-Repro-Served-From`` and ``X-Repro-Backend``)."""

    def __init__(self, status: int, body: bytes,
                 served_from: Optional[str] = None,
                 backend: Optional[str] = None) -> None:
        self.status = status
        self.body = body
        self.served_from = served_from
        self.backend = backend

    def json(self) -> dict:
        return json.loads(self.body.decode("utf-8"))

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300


class ServeClient:
    """Talk to one server; every method returns a :class:`ServeResponse`
    (HTTP error statuses included) and only raises on transport failure
    (``URLError``/``OSError``)."""

    def __init__(self, base_url: str, timeout: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    # ------------------------------------------------------------------
    def _request(self, method: str, path: str,
                 body: Optional[bytes] = None) -> ServeResponse:
        # Imported here, not at module top: urllib.request pulls in ssl,
        # http.client and email, which a server importing this package
        # never uses (~20 ms of its start-up).
        import urllib.error
        import urllib.request

        request = urllib.request.Request(
            self.base_url + path, data=body, method=method,
            headers={"Content-Type": "application/json"}
            if body is not None else {})
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as resp:
                return ServeResponse(resp.status, resp.read(),
                                     resp.headers.get("X-Repro-Served-From"),
                                     resp.headers.get("X-Repro-Backend"))
        except urllib.error.HTTPError as exc:
            # An HTTP-level error is still an answer; read it out.
            return ServeResponse(exc.code, exc.read(),
                                 exc.headers.get("X-Repro-Served-From"),
                                 exc.headers.get("X-Repro-Backend"))

    # ------------------------------------------------------------------
    def healthz(self) -> ServeResponse:
        return self._request("GET", "/healthz")

    def metrics(self) -> dict:
        return self._request("GET", "/metrics").json()

    def sweep_point(self, benchmark: str, policy: str = "conv",
                    num_registers: int = 48, *,
                    trace_length: Optional[int] = None,
                    seed: Optional[int] = None,
                    engine: Optional[str] = None,
                    config: Optional[dict] = None) -> ServeResponse:
        payload = {"benchmark": benchmark, "policy": policy,
                   "num_registers": num_registers}
        if trace_length is not None:
            payload["trace_length"] = trace_length
        if seed is not None:
            payload["seed"] = seed
        if engine is not None:
            payload["engine"] = engine
        if config:
            payload["config"] = config
        return self._request("POST", "/v1/sweep-point",
                             json.dumps(payload).encode("utf-8"))

    def sweep_point_raw(self, payload: dict) -> ServeResponse:
        """Send an arbitrary (possibly invalid) request body."""
        return self._request("POST", "/v1/sweep-point",
                             json.dumps(payload).encode("utf-8"))
