"""``python -m repro.serve`` with every layer's entry points wrapped.

Usage: ``python3 perfbench/serve_traced.py SUMMARY.json [repro-serve args]``
with ``src`` on ``PYTHONPATH``.  On shutdown (SIGINT) the recorded spans
are written to ``SUMMARY.json``.  Besides the layers of ``layers``, it
records ``serve.executor_wait_ms``: for each request that leads a
computation or cache lookup, the time from entering the service to the
start of ``_lookup_or_compute`` on the compute thread.
"""

import contextvars
import json
import sys
import time

from repro.serve import service as service_mod
from repro.serve.cli import serve_main

import layers


def main(summary: str, argv) -> int:
    recorder = layers.Recorder()
    service_cls = service_mod.SweepService
    request = contextvars.ContextVar("request", default=None)
    leader_entered = {}
    patches = layers.Patches()

    sweep_point = service_cls.sweep_point

    async def entered_sweep_point(self, payload):
        token = request.set((self, time.perf_counter()))
        try:
            return await sweep_point(self, payload)
        finally:
            request.reset(token)

    point_key = recorder.wrap("analysis.point_key", service_mod.point_key)

    def leader_key(sweep_config, point):
        key = point_key(sweep_config, point)
        current = request.get()
        if current is not None and key not in current[0]._inflight:
            leader_entered[key] = current[1]
        return key

    lookup = recorder.wrap("serve.lookup_or_compute",
                           service_cls._lookup_or_compute)

    def waited_lookup(self, sweep_config, point, key):
        entered = leader_entered.pop(key, None)
        if entered is not None:
            recorder.sample("serve.executor_wait_ms",
                            1000.0 * (time.perf_counter() - entered))
        return lookup(self, sweep_config, point, key)

    patches.replace(service_cls, "sweep_point", entered_sweep_point)
    patches.replace(service_mod, "point_key", leader_key)
    patches.replace(service_cls, "_lookup_or_compute", waited_lookup)
    try:
        with layers.installed(recorder):
            return serve_main(argv)
    finally:
        patches.undo()
        with open(summary, "w") as handle:
            json.dump(recorder.export(), handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
