#!/usr/bin/env python
"""CI smoke test for ``repro-serve``: single-flight under the real CLI.

Starts the actual ``python -m repro.serve`` process against a temporary
store, fires N concurrent *identical* sweep-point requests at it, and
asserts the service's core contract:

* every response is HTTP 200 and **byte-identical** — concurrent
  duplicates can never observe different payloads;
* the server performed **exactly one** computation — the duplicates
  were deduplicated in flight (single-flight), not each simulated;
* a follow-up request is served from the cache, still byte-identical,
  and ``/metrics`` shows one computation and at least one cache hit;
* a second server started on the same store answers its first request
  from the store (``cache``) with the same bytes the first server
  answered from memory;
* with ``--expect-backend``, ``/healthz`` names that engine before the
  first request (the server probed it at start-up), and the computing
  response names it in ``X-Repro-Backend`` (``compiled`` proves the C
  core really ran, not its silent Python fallback).

Both servers' stdout/stderr goes to ``--log`` and the final ``/metrics``
snapshot to ``--metrics-out`` — CI uploads both as artifacts, so a red
run ships its own diagnostics.  Exits non-zero on any violation.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: The identical request every concurrent client sends.  Small trace:
#: the point of the job is the dedup contract, not simulation scale.
REQUEST = {"benchmark": "gcc", "policy": "extended", "num_registers": 48,
           "trace_length": 2_000, "seed": 20_260_808}


def wait_for_listen_line(log_path: Path, process, timeout: float = 60.0,
                         offset: int = 0) -> str:
    """Poll the server log, from character ``offset`` on, for the
    listening banner; return the URL."""
    deadline = time.monotonic() + timeout
    pattern = re.compile(r"listening on (http://[0-9.]+:\d+)")
    while time.monotonic() < deadline:
        if process.poll() is not None:
            raise RuntimeError(
                f"server exited early with code {process.returncode}; "
                f"see {log_path}")
        if log_path.exists():
            match = pattern.search(log_path.read_text()[offset:])
            if match:
                return match.group(1)
        time.sleep(0.1)
    raise RuntimeError(f"server did not start within {timeout:g}s; "
                       f"see {log_path}")


def start_server(store: str, log_handle, env: dict) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-m", "repro.serve", "--port", "0",
         "--cache-dir", store],
        stdout=log_handle, stderr=subprocess.STDOUT,
        cwd=REPO_ROOT, env=env)


def stop_server(process: subprocess.Popen) -> None:
    process.terminate()
    try:
        process.wait(timeout=15)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Single-flight smoke test against a real repro-serve "
                    "process.")
    parser.add_argument("--requests", type=int, default=8,
                        help="concurrent identical requests (default: 8)")
    parser.add_argument("--log", default="serve-smoke.log",
                        help="server stdout/stderr (CI artifact)")
    parser.add_argument("--metrics-out", default="serve-metrics.json",
                        help="final /metrics snapshot (CI artifact)")
    parser.add_argument("--expect-backend", choices=("compiled", "python"),
                        default=None,
                        help="engine the computing response must name in "
                             "X-Repro-Backend (default: not checked)")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.serve.client import ServeClient

    log_path = Path(args.log).resolve()
    store = tempfile.mkdtemp(prefix="repro-serve-smoke-")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")

    failures = []
    with open(log_path, "w") as log_handle:
        process = start_server(store, log_handle, env)
        try:
            url = wait_for_listen_line(log_path, process)
            print(f"server up at {url} (store {store})")
            client = ServeClient(url, timeout=300.0)
            health = client.healthz().json()
            print(f"healthz: {health}")
            if args.expect_backend is not None \
                    and health.get("engine") != args.expect_backend:
                failures.append(
                    f"/healthz reports engine {health.get('engine')!r} "
                    f"before the first request, expected "
                    f"{args.expect_backend!r} (compiled fallback: "
                    f"{health.get('compiled_fallback_reason')})")

            # ---- N concurrent identical misses ------------------------
            responses = [None] * args.requests

            def fire(index):
                responses[index] = client.sweep_point_raw(dict(REQUEST))

            threads = [threading.Thread(target=fire, args=(index,))
                       for index in range(args.requests)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

            statuses = [response.status for response in responses]
            if statuses != [200] * args.requests:
                failures.append(f"expected all 200s, got {statuses}")
            bodies = {response.body for response in responses}
            if len(bodies) != 1:
                failures.append(
                    f"{len(bodies)} distinct response bodies across "
                    f"{args.requests} concurrent duplicates (must be 1)")
            origins = sorted(response.served_from or "?"
                             for response in responses)
            print(f"served_from: {origins}")
            if origins.count("computed") > 1:
                failures.append(f"more than one leader computed: {origins}")
            backends = [response.backend for response in responses
                        if response.served_from == "computed"]
            print(f"computing backend: {backends}")
            if args.expect_backend is not None \
                    and backends != [args.expect_backend]:
                failures.append(f"expected the computing response to name "
                                f"backend {args.expect_backend!r}, got "
                                f"{backends}")

            metrics = client.metrics()
            computations = metrics["counters"].get("sweep_computations", 0)
            print(f"computations: {computations} "
                  f"(requests: {args.requests})")
            if computations != 1:
                failures.append(
                    f"expected exactly 1 computation for "
                    f"{args.requests} concurrent duplicates, "
                    f"got {computations}")

            # ---- a follow-up request is a cache hit, same bytes -------
            repeat = client.sweep_point_raw(dict(REQUEST))
            if repeat.served_from != "cache":
                failures.append(f"follow-up served from "
                                f"{repeat.served_from!r}, expected 'cache'")
            if repeat.body not in bodies:
                failures.append("cache-served follow-up differs from the "
                                "computed response bytes")

            final_metrics = client.metrics()
            with open(args.metrics_out, "w") as handle:
                json.dump(final_metrics, handle, indent=2)
            print(f"metrics snapshot written to {args.metrics_out}")
            counters = final_metrics["counters"]
            if counters.get("sweep_computations", 0) != 1 \
                    or counters.get("sweep_cache_hits", 0) < 1:
                failures.append(
                    f"after the follow-up, expected 1 computation and at "
                    f"least 1 cache hit, got "
                    f"{counters.get('sweep_computations', 0)} and "
                    f"{counters.get('sweep_cache_hits', 0)}")

            # ---- a new server answers from the store, same bytes ------
            stop_server(process)
            log_handle.flush()
            offset = len(log_path.read_text())
            process = start_server(store, log_handle, env)
            url = wait_for_listen_line(log_path, process, offset=offset)
            print(f"second server up at {url} (same store)")
            reread = ServeClient(url, timeout=300.0).sweep_point_raw(
                dict(REQUEST))
            print(f"second server served_from: {reread.served_from}")
            if reread.served_from != "cache":
                failures.append(f"second server served its first request "
                                f"from {reread.served_from!r}, expected "
                                f"'cache'")
            if reread.body != repeat.body:
                failures.append("the store's answer differs from the first "
                                "server's in-memory answer")
        except Exception as exc:
            failures.append(f"{type(exc).__name__}: {exc}")
        finally:
            stop_server(process)
            shutil.rmtree(store, ignore_errors=True)

    if failures:
        print("SERVE SMOKE FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("serve smoke ok: single-flight dedup held, responses "
          "byte-identical from memory and from the store")
    return 0


if __name__ == "__main__":
    sys.exit(main())
