"""Indexed scheduler structures: ready set, wakeup index, completion queue.

Instead of scanning the whole Reorder Structure every cycle, the issue
and writeback stages work off three incrementally maintained indexes
over the in-flight window:

* :class:`ReadySet` — the age-ordered queue of instructions whose source
  operands are all available and (for loads) whose older store addresses
  are all known.  The issue stage pops it oldest-first.
* :class:`WakeupIndex` — the producer→consumer lists.  Writeback calls
  :meth:`WakeupIndex.wake` with a completing producer and gets back
  exactly the consumers whose *last* outstanding producer that was, so
  only those are promoted to the ready set.
* :class:`CompletionQueue` — completion events bucketed by cycle; the
  writeback stage drains the bucket of the current cycle.

Staleness discipline
--------------------
All three indexes use lazy deletion: squash removes the authoritative
dict entry (or simply leaves the reference behind) and stale keys are
skipped on the next pop, which keeps misprediction recovery O(squashed)
instead of O(heap).  Because the columnar Reorder Structure *recycles*
its row handles (:class:`repro.backend.ros.ROSEntry` objects are reused
once their occupant leaves the window), a parked reference alone no
longer proves identity: the wakeup lists and completion buckets
therefore store the **sequence number alongside the handle** and treat a
reference whose ``entry.seq`` no longer matches as dead.  Sequence
numbers are never reused, so the check is exact — a stale key can never
alias a live entry.  The :class:`ReadySet` needs no tag because its
membership dict is keyed by seq and squash removes the key eagerly.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.backend.ros import ROSEntry

#: A handle tagged with the sequence number it was stored under; the
#: reference is dead when ``entry.seq != seq`` (the row was recycled).
TaggedEntry = Tuple[int, "ROSEntry"]


class ReadySet:
    """Age-ordered set of issue-ready instructions (min-heap on seq).

    Membership is the dict (``seq -> entry``); the heap only orders
    candidate sequence numbers and may lag behind after :meth:`discard`
    (squash) — stale keys are dropped on the next :meth:`pop`.
    """

    __slots__ = ("_heap", "_entries", "peak_size")

    def __init__(self) -> None:
        self._heap: List[int] = []
        self._entries: Dict[int, "ROSEntry"] = {}
        #: high-water mark of the membership (scheduler telemetry).
        self.peak_size = 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    def __contains__(self, seq: int) -> bool:
        return seq in self._entries

    # ------------------------------------------------------------------
    def add(self, entry: "ROSEntry") -> None:
        """Insert ``entry``; a no-op when it is already a member."""
        seq = entry.seq
        if seq in self._entries:
            return
        self._entries[seq] = entry
        heapq.heappush(self._heap, seq)
        if len(self._entries) > self.peak_size:
            self.peak_size = len(self._entries)

    def discard(self, seq: int) -> None:
        """Remove ``seq`` if present (squash); the heap key goes stale."""
        self._entries.pop(seq, None)

    def pop(self) -> "ROSEntry":
        """Remove and return the oldest ready entry."""
        heap = self._heap
        entries = self._entries
        while heap:
            seq = heapq.heappop(heap)
            entry = entries.pop(seq, None)
            if entry is not None:
                return entry
        raise IndexError("pop from an empty ReadySet")

    def clear(self) -> None:
        """Drop every member (exception flush)."""
        self._heap.clear()
        self._entries.clear()


class WakeupIndex:
    """Producer seq → list of consumers still waiting on it.

    Consumers are stored seq-tagged (see the module docstring): a waiter
    whose handle was recycled after a squash is recognised by its
    mismatching sequence number and skipped without touching the new
    occupant's state.
    """

    __slots__ = ("_waiters",)

    def __init__(self) -> None:
        self._waiters: Dict[int, List[TaggedEntry]] = {}

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._waiters)

    def register(self, producer_seq: int, consumer: "ROSEntry") -> None:
        """``consumer`` waits for the result of ``producer_seq``."""
        record = (consumer.seq, consumer)
        waiters = self._waiters.get(producer_seq)
        if waiters is None:
            self._waiters[producer_seq] = [record]
        else:
            waiters.append(record)

    def wake(self, producer_seq: int) -> List["ROSEntry"]:
        """Producer completed: clear it from every live waiter and return
        the consumers for which it was the *last* outstanding producer.

        Squashed waiters (flagged or recycled) are never returned — they
        can no longer issue — and recycled handles are left untouched.
        """
        woken: List["ROSEntry"] = []
        for seq, consumer in self._waiters.pop(producer_seq, ()):
            if consumer.seq != seq or consumer.squashed:
                continue
            consumer.wait_producers.discard(producer_seq)
            if not consumer.wait_producers:
                woken.append(consumer)
        return woken

    def drop(self, producer_seq: int) -> None:
        """Forget the waiters of a squashed producer (they are squashed too)."""
        self._waiters.pop(producer_seq, None)

    def clear(self) -> None:
        """Drop every list (exception flush)."""
        self._waiters.clear()


class CompletionQueue:
    """Completion events bucketed by cycle.

    The writeback stage drains the bucket of the current cycle.  Bucket
    members are seq-tagged so events stranded by a squash cannot alias
    the row's next occupant (module docstring).
    """

    __slots__ = ("_buckets",)

    def __init__(self) -> None:
        self._buckets: Dict[int, List[TaggedEntry]] = {}

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._buckets)

    def __bool__(self) -> bool:
        return bool(self._buckets)

    def schedule(self, cycle: int, entry: "ROSEntry") -> None:
        """``entry`` finishes execution at ``cycle``."""
        bucket = self._buckets.get(cycle)
        record = (entry.seq, entry)
        if bucket is None:
            self._buckets[cycle] = [record]
        else:
            bucket.append(record)

    def pop_due(self, cycle: int) -> Optional[List[TaggedEntry]]:
        """Remove and return the (seq-tagged) events of ``cycle``.

        Dead members are *not* filtered here: a branch resolving early in
        the drained bucket can squash younger entries later in the same
        bucket, so liveness (``entry.seq == seq and not entry.squashed``)
        must be re-tested per entry at the moment it is processed, not at
        drain time.  Returns None when the cycle holds no events at all.
        """
        return self._buckets.pop(cycle, None)

    def pending(self) -> Iterable["ROSEntry"]:
        """Every live scheduled entry, in no particular order (tests)."""
        for bucket in self._buckets.values():
            for seq, entry in bucket:
                if entry.seq == seq:
                    yield entry

    def clear(self) -> None:
        """Drop every event (tests/debugging; flushes keep squashed events)."""
        self._buckets.clear()
