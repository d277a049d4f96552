"""Minimal asyncio HTTP/1.1 transport for ``repro-serve``.

The service runs in environments where only the standard library is
available, so the transport is a small hand-rolled HTTP/1.1 server over
:func:`asyncio.start_server`: request line + headers + Content-Length
body in, status line + headers + body out, one request per connection
(``Connection: close`` — the stdlib ``urllib`` clients the repo ships
open a fresh connection per request anyway, and closing keeps the
parser trivially robust).

Routes::

    GET  /healthz           liveness and the engine verdict
    GET  /metrics           JSON counters + latency percentiles
    POST /v1/sweep-point    answer one sweep point (single-flight)

Everything interesting lives in :mod:`repro.serve.service`; this module
only parses, routes, times and serialises.  A request it cannot parse (a
malformed request line, a non-numeric ``Content-Length``, an oversized
header section or body) is answered with a JSON 4xx error and counted
as ``http_client_errors``, never dropped.
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import Dict, Optional, Tuple

from repro.engine.accel import backend_fallback_reason, probe_verdict
from repro.serve.service import SweepService

__all__ = ["HTTPServer", "MAX_BODY_BYTES", "MAX_HEADER_BYTES"]

#: Request-body ceiling: a sweep-point request is a few hundred bytes;
#: the ceiling keeps one client from buffering the process into the
#: ground.
MAX_BODY_BYTES = 32 * 1024 * 1024

#: Header-section ceiling (request line included).
MAX_HEADER_BYTES = 32 * 1024

_REASONS = {200: "OK", 400: "Bad Request",
            404: "Not Found", 405: "Method Not Allowed",
            413: "Payload Too Large",
            431: "Request Header Fields Too Large",
            500: "Internal Server Error"}


class _BadRequest(Exception):
    """A request the transport cannot parse; answered with ``status``."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class HTTPServer:
    """Serve a :class:`SweepService` over loopback (or any interface)."""

    def __init__(self, service: SweepService, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None

    # ------------------------------------------------------------------
    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port)
        # With port 0 the OS picks; surface the bound port for clients.
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self.service.close()

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            method, path, body = await self._read_request(reader)
            started = time.monotonic()
            status, headers, payload = await self._dispatch(method, path, body)
            self.service.metrics.observe_latency(
                _route_label(method, path), time.monotonic() - started)
            self.service.metrics.increment("http_requests")
            await self._write_response(writer, status, headers, payload)
        except _BadRequest as exc:
            self.service.metrics.increment("http_client_errors")
            try:
                await self._write_response(writer, exc.status, {},
                                           _json_bytes({"error": str(exc)}))
            except ConnectionError:
                pass
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-exchange; nothing to answer
        except Exception as exc:  # absolute backstop: never drop silently
            self.service.metrics.increment("http_errors")
            try:
                await self._write_response(
                    writer, 500, {},
                    json.dumps({"error": f"{type(exc).__name__}: {exc}"},
                               sort_keys=True).encode("utf-8"))
            except ConnectionError:
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader,
                            ) -> Tuple[str, str, bytes]:
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.LimitOverrunError:
            head = b""
        if not head or len(head) > MAX_HEADER_BYTES:
            raise _BadRequest(431, f"request header section exceeds "
                                   f"{MAX_HEADER_BYTES} bytes")
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split(" ")
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            raise _BadRequest(400, f"malformed request line: "
                                   f"{lines[0][:200]!r}")
        method, target, _version = parts
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        raw_length = headers.get("content-length", "0") or "0"
        if not raw_length.isdecimal():
            raise _BadRequest(400, f"malformed Content-Length: "
                                   f"{raw_length[:50]!r}")
        length = int(raw_length)
        if length > MAX_BODY_BYTES:
            raise _BadRequest(413, f"request body of {length} bytes exceeds "
                                   f"{MAX_BODY_BYTES} bytes")
        body = await reader.readexactly(length) if length else b""
        return method.upper(), target.split("?", 1)[0], body

    async def _write_response(self, writer: asyncio.StreamWriter, status: int,
                              headers: Dict[str, str], body: bytes) -> None:
        reason = _REASONS.get(status, "Unknown")
        out = [f"HTTP/1.1 {status} {reason}"]
        merged = {"Content-Type": "application/json; charset=utf-8",
                  "Content-Length": str(len(body)),
                  "Connection": "close"}
        merged.update(headers)
        merged["Content-Length"] = str(len(body))
        for name, value in merged.items():
            out.append(f"{name}: {value}")
        writer.write(("\r\n".join(out) + "\r\n\r\n").encode("latin-1") + body)
        await writer.drain()

    # ------------------------------------------------------------------
    async def _dispatch(self, method: str, path: str, body: bytes,
                        ) -> Tuple[int, Dict[str, str], bytes]:
        service = self.service
        if path == "/healthz":
            if method != "GET":
                return _method_not_allowed("GET")
            # The verdict as known: a lazy server that has not probed yet
            # reports a null engine instead of probing here.
            return 200, {}, _json_bytes({
                "status": "ok",
                "engine": probe_verdict(),
                "compiled_fallback_reason": backend_fallback_reason(),
            })
        if path == "/metrics":
            if method != "GET":
                return _method_not_allowed("GET")
            return 200, {}, _json_bytes(service.metrics_snapshot())
        if path == "/v1/sweep-point":
            if method != "POST":
                return _method_not_allowed("POST")
            payload, error = _parse_json(body)
            if error is not None:
                return 400, {}, _json_bytes({"error": error})
            return await service.sweep_point(payload)
        return 404, {}, _json_bytes({"error": f"no such route: {path}"})


#: The ``"<method> <path>"`` latency labels of the routes served.
_ROUTE_LABELS = frozenset({"GET /healthz", "GET /metrics",
                           "POST /v1/sweep-point"})


def _route_label(method: str, path: str) -> str:
    """Latency label of one request: its route, or ``"other"`` for every
    unrouted path or method, so clients cannot grow ``/metrics``."""
    label = f"{method} {path}"
    return label if label in _ROUTE_LABELS else "other"


def _method_not_allowed(allowed: str) -> Tuple[int, Dict[str, str], bytes]:
    return 405, {"Allow": allowed}, _json_bytes(
        {"error": f"method not allowed; use {allowed}"})


def _parse_json(body: bytes) -> Tuple[Optional[dict], Optional[str]]:
    if not body:
        return None, "request body must be a JSON object"
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        return None, f"invalid JSON body: {exc}"
    if not isinstance(payload, dict):
        return None, "request body must be a JSON object"
    return payload, None


def _json_bytes(payload: dict) -> bytes:
    return json.dumps(payload, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
