"""Export counters of the compiled backend.

The core reads a trace's storage as it is
(:class:`~repro.trace.records.TraceColumns`: row table, row ids,
addresses), so the compiled export is a copy of it and nothing is
cached here.  :data:`EXPORT_CACHE` counts
exports: a **hit** is served from a trace's own columns, a **miss** first
derived them from a hand-built instruction list (once per trace).
"""

from __future__ import annotations

import threading
from typing import Tuple

from repro.trace.records import TraceColumns

__all__ = ["ExportCounters", "EXPORT_CACHE"]


class ExportCounters:
    """Process-wide hit/miss counters of the compiled export."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def trace_columns(self, trace) -> TraceColumns:
        """``trace``'s columns, counting the export as a hit or a miss."""
        hit = trace.has_columns
        columns = trace.columns
        with self._lock:
            if hit:
                self.hits += 1
            else:
                self.misses += 1
        return columns

    def counters(self) -> Tuple[int, int]:
        """Process-wide ``(hits, misses)`` since construction / the last clear."""
        with self._lock:
            return (self.hits, self.misses)

    def clear(self) -> None:
        """Zero the process-wide counters (test and benchmark hook)."""
        with self._lock:
            self.hits = 0
            self.misses = 0


#: The counters every compiled export goes through.
EXPORT_CACHE = ExportCounters()
