"""``repro-serve``: an HTTP service front over the sweep-result store.

The paper's experiments are batch sweeps; this package turns the same
machinery into a long-lived query service.  A stdlib-only asyncio HTTP
server (:mod:`repro.serve.http`) answers *sweep-point* and
*export-artefact* queries from the shared content-addressed store
(:class:`repro.analysis.cache.SweepCache` over any
:class:`repro.analysis.backends.CacheBackend`), simulates each miss's
one point in place on a compute thread (the in-process path of
``run_sweep``), dedupes
concurrent identical requests in flight (:mod:`repro.serve.service`),
and exposes hit/miss/in-flight counters plus latency percentiles on
``/metrics`` (:mod:`repro.serve.metrics`).

Entry points: the ``repro-serve`` console script / ``python -m
repro.serve`` (:mod:`repro.serve.cli`), the blocking
:class:`~repro.serve.client.ServeClient`, the in-process
:class:`~repro.serve.runtime.BackgroundServer` test helper, and the
zipf request mix (:mod:`repro.serve.loadgen`) that the benchmark's
``serve-zipf`` workload drives the server with.  The HTTP API is
documented in ``docs/serving.md``.
"""

from repro.serve.client import ServeClient, ServeResponse
from repro.serve.http import HTTPServer
from repro.serve.metrics import ServiceMetrics, percentile
from repro.serve.runtime import BackgroundServer
from repro.serve.service import RequestError, SweepService

__all__ = [
    "BackgroundServer",
    "HTTPServer",
    "RequestError",
    "ServeClient",
    "ServeResponse",
    "ServiceMetrics",
    "SweepService",
    "percentile",
]
