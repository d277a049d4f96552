"""The ``serve-zipf`` workload.

``python -m repro.serve`` runs as a subprocess over a fresh store.  Two
closed-loop client threads (sweep drivers wait for each answer) send
zipf-1.1 requests over a 24-point pool of 2k-instruction points on the
default engine, so cache reads (hits) run beside cache writes (misses,
computed and then stored).  A *round* is 2000 requests against a fresh
server over a fresh store, so every round computes its misses afresh and
repeats the same work.

Requests are timed in host seconds and normalised by the host's speed
around them, sampled in this process while the round runs (see
``hostclock``).
"""

from __future__ import annotations

import dataclasses
import json
import signal
import statistics
import subprocess
import sys
import threading
import time
import types
from pathlib import Path
from typing import Dict, List, Optional

from repro.serve.client import ServeClient
from repro.serve.loadgen import ZipfSampler, build_request_pool

import claims
from hostclock import HostSampler

POOL_SIZE = 24
TRACE_LENGTH = 2_000
CLIENTS = 2
ROUND_REQUESTS = 2_000
ZIPF_SKEW = 1.1

HERE = Path(__file__).resolve().parent


class Server:
    """One ``repro-serve`` subprocess; ``startup`` is the host interval
    from spawn to listening."""

    def __init__(self, store: Path, summary: Optional[Path] = None) -> None:
        if summary is None:
            command = [sys.executable, "-m", "repro.serve"]
        else:
            command = [sys.executable, str(HERE / "serve_traced.py"),
                       str(summary)]
        command += ["--port", "0", "--cache-dir", str(store)]
        started = time.perf_counter()
        self.proc = subprocess.Popen(command, stdout=subprocess.PIPE,
                                     text=True)
        line = self.proc.stdout.readline()
        self.startup = (started, time.perf_counter())
        if "listening on " not in line:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.url = line.split("listening on ", 1)[1].split()[0]

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def metrics(self) -> dict:
        return ServeClient(self.url).metrics()

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()


@dataclasses.dataclass
class Round:
    pool: List[dict]
    wall_ref_s: float
    raw_wall_s: float
    #: per answered request: (pool slot, ref ms, raw ms, served-from, status)
    requests: List[tuple]
    bodies: Dict[int, bytes]
    mismatched_bodies: int
    transport_errors: int
    calib_ms: float

    def latencies(self, origin: Optional[str] = None) -> List[float]:
        return [ref for _, ref, _, served, _ in self.requests
                if origin is None or served == origin]

    def computed_slots(self) -> set:
        return {slot for slot, _, _, served, _ in self.requests
                if served == "computed"}


def run_round(url: str, seed: int, ref_s: float) -> Round:
    """One round against a fresh server; ``seed`` fixes the request
    streams, the pool is the same in every run."""
    pool = build_request_pool(POOL_SIZE, trace_length=TRACE_LENGTH)
    timed: List[tuple] = []
    bodies: Dict[int, List[bytes]] = {}
    transport_errors = [0]
    lock = threading.Lock()

    def client_main(client_index: int, count: int) -> None:
        sampler = ZipfSampler(len(pool), skew=ZIPF_SKEW,
                              seed=seed * 1_000_003 + client_index)
        client = ServeClient(url, timeout=120.0)
        for _ in range(count):
            slot = sampler.sample()
            start = time.perf_counter()
            try:
                response = client.sweep_point_raw(pool[slot])
            except OSError:
                with lock:
                    transport_errors[0] += 1
                continue
            end = time.perf_counter()
            with lock:
                timed.append((slot, start, end, response.served_from,
                              response.status))
                bodies.setdefault(slot, []).append(response.body)

    share = ROUND_REQUESTS // CLIENTS
    threads = [threading.Thread(target=client_main, args=(index, share))
               for index in range(CLIENTS)]
    with HostSampler(ref_s) as host:
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        ended = time.perf_counter()
    records = [(slot, 1000.0 * host.ref(start, end), 1000.0 * (end - start),
                served, status)
               for slot, start, end, served, status in timed]
    mismatched = sum(1 for answers in bodies.values()
                     for body in answers if body != answers[0])
    return Round(pool=pool, wall_ref_s=host.ref(started, ended),
                 raw_wall_s=ended - started, requests=records,
                 bodies={slot: answers[0] for slot, answers in bodies.items()},
                 mismatched_bodies=mismatched,
                 transport_errors=transport_errors[0],
                 calib_ms=host.calib_ms())


def verify_round(url: str, result: Round) -> Dict[str, bool]:
    """Untimed checks: statuses, single flight, and byte-identical bodies,
    including one more request per pool point after the round."""
    checks = {
        "all_200": all(status == 200 for *_, status in result.requests),
        "no_transport_errors": result.transport_errors == 0,
        "bodies_identical": result.mismatched_bodies == 0,
        "one_computation_per_point":
            len(result.computed_slots()) == len(result.bodies)
            == sum(1 for *_, served, _ in result.requests
                   if served == "computed"),
    }
    client = ServeClient(url, timeout=120.0)
    again_identical = True
    for slot, payload in enumerate(result.pool):
        response = client.sweep_point_raw(payload)
        checks.setdefault("reread_all_200", True)
        checks["reread_all_200"] &= response.status == 200
        if slot in result.bodies:
            again_identical &= response.body == result.bodies[slot]
        else:
            result.bodies[slot] = response.body
    checks["reread_bodies_identical"] = again_identical
    return checks


def pool_stats(result: Round) -> Dict[tuple, dict]:
    """Stats of every pool point, keyed (benchmark, policy, registers)."""
    stats = {}
    for slot, body in result.bodies.items():
        payload = result.pool[slot]
        key = (payload["benchmark"], payload["policy"],
               payload["num_registers"])
        stats[key] = json.loads(body)["stats"]
    return stats


def exact_counts(result: Round) -> Dict[str, float]:
    """Counts over the points the round computed (fixed by the seed)."""
    computed = [result.pool[slot] for slot in result.computed_slots()]
    by_key = pool_stats(result)
    stats = [by_key[(p["benchmark"], p["policy"], p["num_registers"])]
             for p in computed]
    return {
        "sim.committed": sum(s["committed_instructions"] for s in stats),
        "sim.cycles": sum(s["cycles"] for s in stats),
        "sim.ipc_hmean": statistics.harmonic_mean(
            [s["committed_instructions"] / s["cycles"] for s in stats]),
        "sim.fetched_wrong_path": sum(s["fetched_wrong_path"] for s in stats),
        "serve.computations": len(computed),
    }


def paper_gaps(result: Round) -> Dict[str, float]:
    """Figure 10 claims evaluable from the served pool points."""
    by_key = pool_stats(result)

    def lookup(benchmark, policy, registers):
        stats = by_key.get((benchmark, policy, registers))
        if stats is None:
            return None
        return types.SimpleNamespace(
            ipc=stats["committed_instructions"] / stats["cycles"])
    return claims.gaps({"figure10": lookup})
