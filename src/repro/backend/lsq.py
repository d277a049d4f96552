"""Load/Store Queue with store-to-load forwarding (Table 2: 64 entries).

The paper's issue rule is conservative: "Loads are executed when all
previously store addresses are known".  Store addresses become known when
the store issues (address generation); stores update the data cache at
commit.

Loads blocked by that rule do not sit in the scheduler's ready set being
re-tested every cycle: they park on the wait list of their *first* older
store with an unknown address (:meth:`LoadStoreQueue.park_blocked_load`),
and :meth:`LoadStoreQueue.mark_address_known` hands the parked loads back
to the issue stage when that store computes its address.  Blocking is
monotone — older stores only ever *gain* known addresses, and a store can
never be squashed without also squashing every younger parked load — so
parking on the first blocker is exact, not heuristic.

The queue itself is a deque ordered by program order with a seq-keyed
side index, so the per-instruction operations are O(1): commit removes
from the front (retirement is in order), squash pops from the back, and
the completion/address-known updates resolve their entry through the
index instead of scanning.

A load squashed while parked stays on its wait list until the store's
address is known; :meth:`mark_address_known` drops it by its ``squashed``
flag (ROS entries are never reused, so the flag is exact).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional


@dataclass(slots=True)
class LSQEntry:
    """One in-flight memory operation."""

    seq: int
    is_store: bool
    address: int
    addr_known: bool = False
    done: bool = False


class LoadStoreQueue:
    """Program-ordered queue of in-flight loads and stores."""

    def __init__(self, capacity: int = 64) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._entries: Deque[LSQEntry] = deque()
        #: seq -> entry, kept in lockstep with the deque (O(1) find).
        self._by_seq: Dict[int, LSQEntry] = {}
        #: store seq -> ROS entries of loads parked until its address is known.
        self._waiters: Dict[int, List[object]] = {}
        self.forwarded_loads = 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    @property
    def is_full(self) -> bool:
        """True when dispatch of another memory operation must stall."""
        return len(self._entries) >= self.capacity

    def insert(self, seq: int, is_store: bool, address: int) -> LSQEntry:
        """Add a renamed memory operation at the queue tail."""
        if len(self._entries) >= self.capacity:
            raise RuntimeError("LSQ overflow: dispatch must stall instead")
        if self._entries and seq <= self._entries[-1].seq:
            raise ValueError("LSQ entries must be inserted in program order")
        entry = LSQEntry(seq=seq, is_store=is_store, address=address)
        self._entries.append(entry)
        self._by_seq[seq] = entry
        return entry

    def find(self, seq: int) -> Optional[LSQEntry]:
        """Entry for instruction ``seq``, or None (O(1))."""
        return self._by_seq.get(seq)

    # ------------------------------------------------------------------
    def load_may_issue(self, seq: int) -> bool:
        """Paper issue rule: every older store's address must be known."""
        for entry in self._entries:
            if entry.seq >= seq:
                break
            if entry.is_store and not entry.addr_known:
                return False
        return True

    def store_forwards_to(self, seq: int, address: int, line_mask: int = ~7) -> bool:
        """True when the youngest older store to the same (8-byte) word
        can forward its data to the load ``seq``."""
        best: Optional[LSQEntry] = None
        target = address & line_mask
        for entry in self._entries:
            if entry.seq >= seq:
                break
            if entry.is_store and entry.addr_known and \
                    (entry.address & line_mask) == target:
                best = entry
        if best is not None:
            self.forwarded_loads += 1
            return True
        return False

    def park_blocked_load(self, seq: int, ros_entry: object) -> bool:
        """Park ``ros_entry`` on its first older unknown-address store.

        Returns True when the load was parked (it may not issue yet) and
        False when no older store blocks it (the load is issue-ready).
        The parked reference is handed back by :meth:`mark_address_known`
        when the blocking store computes its address.
        """
        for entry in self._entries:
            if entry.seq >= seq:
                break
            if entry.is_store and not entry.addr_known:
                self._waiters.setdefault(entry.seq, []).append(ros_entry)
                return True
        return False

    def mark_address_known(self, seq: int) -> List[object]:
        """The memory operation ``seq`` has computed its effective address.

        Returns the *live* loads that were parked on it; each must be
        re-examined by the caller (re-parked on the next unknown older
        store, or promoted to the ready set).  Parked loads that were
        squashed are dropped here.
        """
        entry = self._by_seq.get(seq)
        if entry is not None:
            entry.addr_known = True
        parked = self._waiters.pop(seq, None)
        if not parked:
            return []
        return [load for load in parked if not load.squashed]

    def mark_done(self, seq: int) -> None:
        """The memory operation ``seq`` completed execution."""
        entry = self._by_seq.get(seq)
        if entry is not None:
            entry.done = True

    # ------------------------------------------------------------------
    def remove(self, seq: int) -> None:
        """Remove the entry of ``seq`` (at commit).

        Commit is in order and the queue is program-ordered, so the entry
        is (almost) always the queue head; the defensive fallback scans.
        """
        if self._by_seq.pop(seq, None) is None:
            return
        entries = self._entries
        if entries and entries[0].seq == seq:
            entries.popleft()
        else:  # pragma: no cover - unreachable under in-order commit
            for entry in entries:
                if entry.seq == seq:
                    entries.remove(entry)
                    break
        # A committing store has issued, so its wait list was drained at
        # issue; popping defensively keeps the invariant obvious.
        if self._waiters:
            self._waiters.pop(seq, None)

    def squash_younger_than(self, seq: int) -> None:
        """Drop every entry younger than ``seq`` (misprediction recovery).

        Wait lists keyed by squashed stores go too; loads parked on
        *surviving* stores may themselves be squashed — their
        ``squashed`` flag filters those when the list is drained.
        """
        entries = self._entries
        by_seq = self._by_seq
        while entries and entries[-1].seq > seq:
            del by_seq[entries.pop().seq]
        if self._waiters:
            self._waiters = {store_seq: waiters
                             for store_seq, waiters in self._waiters.items()
                             if store_seq <= seq}

    def clear(self) -> None:
        """Drop every entry (exception flush)."""
        self._entries.clear()
        self._by_seq.clear()
        self._waiters.clear()
