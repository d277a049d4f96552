"""Process-level cache of immutable compiled-export artefacts.

A sweep replays the *same trace* under many processor configurations, but
the compiled backend's export used to rebuild the trace's numpy columns
(the ``_export_trace`` inputs) from the ``Instruction`` objects for every
single point.  Those columns are pure functions of the trace, so this
module builds them once per trace and shares them — read-only — across
every configuration that replays that trace in the process.

Identity and safety:

* **Cache key** — ``(workload profile digest, trace length, seed)``.
  The profile digest comes from :func:`repro.trace.workloads.workload_digest`
  (content-addressed, so a scenario re-registered with different content
  under the same name can never be served stale columns); length and seed
  complete the trace identity exactly as the sweep-result cache does.
  Traces whose name the process's registry does not know (hand-built
  :class:`~repro.trace.records.Trace` objects) bypass the cache entirely.
* **No aliasing of mutable state** — only the immutable trace columns are
  cached.  Predictor/BTB/cache tables and Release-Queue arrays are
  allocated per ``Machine`` by ``sim_new`` for every run; two
  configurations sharing cached columns can never observe each other's
  state.  The cached arrays themselves are marked read-only
  (``writeable=False``) so an aliasing bug fails loudly instead of
  corrupting a neighbouring run.
* **Defence against name collisions** — the cache remembers which trace
  object produced an entry; serving a *different* object under the same
  key first spot-checks a few instructions against the cached columns and
  rebuilds on any mismatch (a hand-built trace reusing a registry
  workload's name, length and seed cannot be served the registry's
  columns).

Hit/miss counters aggregate into ``SweepResult`` (see
``repro/analysis/sweep.py``) so bench snapshots can prove the
amortisation.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Optional, Tuple

import numpy as np

__all__ = ["ExportArtefactCache", "EXPORT_CACHE",
           "build_trace_columns", "build_warmup_columns",
           "TRACE_COLUMN_NAMES", "WARMUP_COLUMN_NAMES"]

TraceColumns = Dict[str, "np.ndarray"]

#: Measured-trace export columns (everything rename/fetch consumes).
TRACE_COLUMN_NAMES = ("op", "pc", "dc", "dest", "nsrc", "src_class",
                      "src_log", "taken", "target", "addr")

#: Warm-up replay columns (the predictor/BTB/memory models only).
WARMUP_COLUMN_NAMES = ("op", "pc", "addr", "taken", "target")


def _freeze(columns: TraceColumns) -> TraceColumns:
    for array in columns.values():
        array.setflags(write=False)
    return columns


def build_trace_columns(instructions) -> TraceColumns:
    """Build the full measured-trace export columns (read-only)."""
    n = len(instructions)
    op = np.empty(n, dtype=np.int64)
    pc = np.empty(n, dtype=np.int64)
    dc = np.empty(n, dtype=np.int64)
    dest = np.empty(n, dtype=np.int64)
    nsrc = np.empty(n, dtype=np.int64)
    src_class = np.zeros(3 * n, dtype=np.int64)
    src_log = np.zeros(3 * n, dtype=np.int64)
    taken = np.empty(n, dtype=np.int64)
    target = np.empty(n, dtype=np.int64)
    addr = np.empty(n, dtype=np.int64)
    for i, inst in enumerate(instructions):
        op[i] = int(inst.op)
        pc[i] = inst.pc
        if inst.dest is None:
            dc[i] = -1
            dest[i] = 0
        else:
            dc[i] = int(inst.dest[0])
            dest[i] = inst.dest[1]
        srcs = inst.srcs
        nsrc[i] = len(srcs)
        for s, (reg_class, log) in enumerate(srcs):
            src_class[3 * i + s] = int(reg_class)
            src_log[3 * i + s] = log
        taken[i] = int(inst.taken)
        target[i] = inst.target
        addr[i] = inst.mem_addr
    return _freeze({"op": op, "pc": pc, "dc": dc, "dest": dest,
                    "nsrc": nsrc, "src_class": src_class,
                    "src_log": src_log, "taken": taken, "target": target,
                    "addr": addr})


def build_warmup_columns(instructions) -> TraceColumns:
    """Build the warm-up replay columns (read-only)."""
    n = len(instructions)
    op = np.empty(n, dtype=np.int64)
    pc = np.empty(n, dtype=np.int64)
    addr = np.empty(n, dtype=np.int64)
    taken = np.empty(n, dtype=np.int64)
    target = np.empty(n, dtype=np.int64)
    for i, inst in enumerate(instructions):
        op[i] = int(inst.op)
        pc[i] = inst.pc
        addr[i] = inst.mem_addr
        taken[i] = int(inst.taken)
        target[i] = inst.target
    return _freeze({"op": op, "pc": pc, "addr": addr, "taken": taken,
                    "target": target})


def _trace_key(trace) -> Optional[Tuple[str, int, int]]:
    """Content-addressed identity, or ``None`` for unregistered traces."""
    from repro.trace.workloads import workload_digest

    try:
        digest = workload_digest(trace.name)
    except KeyError:
        return None
    return (digest, len(trace.instructions), trace.seed)


def _spot_check(instructions, columns: TraceColumns) -> bool:
    """Cheap consistency probe: do these columns describe this trace?"""
    n = len(instructions)
    if len(columns["op"]) != n:
        return False
    for i in {0, n // 2, n - 1} if n else set():
        inst = instructions[i]
        if (columns["op"][i] != int(inst.op)
                or columns["pc"][i] != inst.pc
                or columns["addr"][i] != inst.mem_addr
                or columns["taken"][i] != int(inst.taken)
                or columns["target"][i] != inst.target):
            return False
    return True


class ExportArtefactCache:
    """Memo of the last trace's export columns, with hit/miss counters.

    One slot per column set (measured trace, warm-up trace).  Sweeps walk
    their points benchmark-major, so every configuration of one trace
    runs back to back and reuses the slot.  A server's misses mostly
    alternate between traces and rebuild the columns (about 3 ms for a
    2k-instruction trace).  Measured on a 2-core host, an eight-entry
    cache halves those rebuilds on the ``serve-zipf`` benchmark but
    raises its peak RSS by 2.2 MB (+4 %), and paper-artefacts' by 4.5 MB
    (+7 %), while serve's median miss latency moves by under 1 % (56.6
    vs 56.1 reference-ms, five runs each).
    """

    def __init__(self) -> None:
        #: column set -> (key, source trace, columns) of the last build;
        #: the trace reference enables the identity fast path
        #: (get_workload memoises Trace objects, so the common case is
        #: `is`) and pins nothing new — the workload layer already caches
        #: the same traces.
        self._last: Dict[str, Tuple] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    def trace_columns(self, trace) -> TraceColumns:
        """The measured-trace columns for ``trace`` (cached, read-only)."""
        return self._get("trace", trace, build_trace_columns)

    def warmup_columns(self, trace) -> TraceColumns:
        """The warm-up replay columns for ``trace`` (cached, read-only)."""
        return self._get("warmup", trace, build_warmup_columns)

    def _get(self, slot: str, trace, builder: Callable) -> TraceColumns:
        key = _trace_key(trace)
        if key is None:
            with self._lock:
                self.misses += 1
            return builder(trace.instructions)
        with self._lock:
            last = self._last.get(slot)
            if last is not None and last[0] == key:
                _, cached_trace, columns = last
                # Same key from a different object: spot-check the
                # content, and rebuild on any mismatch.
                if cached_trace is trace or _spot_check(trace.instructions,
                                                        columns):
                    self.hits += 1
                    return columns
            self.misses += 1
        columns = builder(trace.instructions)
        with self._lock:
            self._last[slot] = (key, trace, columns)
        return columns

    # ------------------------------------------------------------------
    def counters(self) -> Tuple[int, int]:
        """``(hits, misses)`` since construction / the last clear."""
        with self._lock:
            return (self.hits, self.misses)

    def clear(self) -> None:
        """Drop every entry and zero the counters (test hook)."""
        with self._lock:
            self._last.clear()
            self.hits = 0
            self.misses = 0


#: The process-wide cache every compiled export goes through.
EXPORT_CACHE = ExportArtefactCache()
