"""Export counters of the compiled backend.

A trace's storage is the columns the core reads
(:class:`~repro.trace.records.TraceColumns`), so the compiled export is a
gather from them and nothing is cached here.  :data:`EXPORT_CACHE` counts
exports: a **hit** is served from a trace's own columns, a **miss** first
derived them from a hand-built instruction list (once per trace).  The
process totals (:meth:`ExportCounters.counters`) serve readers on other
threads; the per-thread tallies (:meth:`ExportCounters.thread_counters`)
let concurrent sweeps in one process each count their own exports.
"""

from __future__ import annotations

import threading
from typing import Tuple

from repro.trace.records import TraceColumns

__all__ = ["ExportCounters", "EXPORT_CACHE"]


class ExportCounters:
    """Hit/miss counters of the compiled export, process-wide and per thread."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self.hits = 0
        self.misses = 0

    def trace_columns(self, trace) -> TraceColumns:
        """``trace``'s columns, counting the export as a hit or a miss."""
        hit = trace.has_columns
        columns = trace.columns
        local = self._local
        with self._lock:
            if hit:
                self.hits += 1
            else:
                self.misses += 1
        local.hits = getattr(local, "hits", 0) + hit
        local.misses = getattr(local, "misses", 0) + (not hit)
        return columns

    def counters(self) -> Tuple[int, int]:
        """Process-wide ``(hits, misses)`` since construction / the last clear."""
        with self._lock:
            return (self.hits, self.misses)

    def thread_counters(self) -> Tuple[int, int]:
        """``(hits, misses)`` of the exports made by the calling thread."""
        local = self._local
        return (getattr(local, "hits", 0), getattr(local, "misses", 0))

    def clear(self) -> None:
        """Zero the process-wide counters (test and benchmark hook)."""
        with self._lock:
            self.hits = 0
            self.misses = 0


#: The counters every compiled export goes through.
EXPORT_CACHE = ExportCounters()
