"""Command line for ``repro-serve``::

    repro-serve --port 8713 --cache-dir /srv/repro-cache
    repro-experiments serve ...                   # same thing

Starts the stdlib asyncio HTTP front over the sweep-result store (one
local directory) and blocks until interrupted.  Before it listens it
derives the source digest and resolves the engine (loading and
self-checking the compiled core), and its ``listening on`` line names
the store, the engine and any fallback reason.  See ``docs/serving.md``
for the API.
"""

from __future__ import annotations

import argparse
import asyncio
import sys
from typing import List, Optional

__all__ = ["serve_main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Serve sweep-point queries from the result store "
                    "over HTTP.")
    parser.add_argument("--host", default="127.0.0.1",
                        help="interface to bind (default: loopback only)")
    parser.add_argument("--port", type=int, default=8713,
                        help="TCP port (0 picks a free one; default: 8713)")
    parser.add_argument("--cache-dir", default=None,
                        help="root of the sweep result store (default: "
                             "$REPRO_SWEEP_CACHE or ~/.cache/repro/sweeps)")
    parser.add_argument("--compute-threads", type=int, default=1,
                        help="concurrent cache-miss computations "
                             "(default: 1 — misses queue behind each other)")
    return parser


def serve_main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    from repro.analysis.cache import SweepCache, code_digest
    from repro.engine.accel import (backend_fallback_reason,
                                    resolve_engine_backend)
    from repro.serve.http import HTTPServer
    from repro.serve.service import SweepService

    cache = SweepCache(args.cache_dir)
    service = SweepService(cache=cache,
                           compute_threads=args.compute_threads)
    server = HTTPServer(service, host=args.host, port=args.port)
    # Warm up before listening: the source digest every key folds in, and
    # the compiled core's load and self-check (no probe when
    # $REPRO_ENGINE=python).  The first miss is then an ordinary miss,
    # and a toolchain fallback is logged once, here.
    code_digest()
    engine = resolve_engine_backend()
    fallback = backend_fallback_reason()
    if fallback is not None:
        engine += f"; compiled fallback: {' '.join(fallback.split())}"

    async def _serve() -> None:
        await server.start()
        print(f"repro-serve listening on {server.url} "
              f"(store: {cache.cache_dir}, engine: {engine})", flush=True)
        await server.serve_forever()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("repro-serve: interrupted, shutting down", flush=True)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(serve_main())
