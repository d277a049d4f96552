"""Run an :class:`~repro.serve.http.HTTPServer` on a background thread.

The tests use it to get a live server inside the current process (no
subprocess management, deterministic teardown) while the caller's own
thread drives blocking clients against it.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Optional

from repro.analysis.cache import SweepCache
from repro.serve.http import HTTPServer
from repro.serve.service import SweepService

__all__ = ["BackgroundServer"]


class BackgroundServer:
    """A served :class:`SweepService` with its own event-loop thread.

    Usable as a context manager::

        with BackgroundServer(cache=SweepCache(tmp_path)) as server:
            client = ServeClient(server.url)
            ...

    ``start()`` returns only once the socket is bound (so ``url`` is
    immediately connectable) and ``stop()`` only once the loop thread
    has fully exited — no leaked threads between tests.
    """

    def __init__(self, cache: Optional[SweepCache] = None,
                 service: Optional[SweepService] = None,
                 host: str = "127.0.0.1", port: int = 0,
                 compute_threads: int = 1) -> None:
        if service is None:
            service = SweepService(cache=cache,
                                   compute_threads=compute_threads)
        self.service = service
        self.server = HTTPServer(service, host=host, port=port)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None

    # ------------------------------------------------------------------
    def start(self) -> "BackgroundServer":
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(target=self._run,
                                        name="repro-serve", daemon=True)
        self._thread.start()
        self._started.wait(timeout=30.0)
        if self._startup_error is not None:
            raise RuntimeError(
                f"server failed to start: {self._startup_error}")
        if not self._started.is_set():
            raise RuntimeError("server failed to start within 30s")
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            try:
                loop.run_until_complete(self.server.start())
            except BaseException as exc:
                self._startup_error = exc
                return
            finally:
                self._started.set()
            loop.run_forever()
            # Drain the shutdown initiated by stop().
            loop.run_until_complete(self.server.stop())
        finally:
            loop.close()
            asyncio.set_event_loop(None)

    def stop(self) -> None:
        loop, thread = self._loop, self._thread
        if loop is None or thread is None:
            return
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=30.0)
        self._loop = None
        self._thread = None

    # ------------------------------------------------------------------
    @property
    def url(self) -> str:
        return self.server.url

    @property
    def port(self) -> int:
        return self.server.port

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
