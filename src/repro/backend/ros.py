"""Reorder Structure (ROS) and its entries.

Every renamed, uncommitted instruction occupies one :class:`ROSEntry` in
the :class:`ReorderStructure`, a program-ordered FIFO (paper Table 2).
An entry keeps the conventional-renaming fields of paper Figure 1
(``old_pd``, ``rd``, ``pd``) and the fields added by the basic mechanism
in Figure 5: logical/physical source identifiers, the previous-version
release bit ``rel_old`` and the early-release bits ``rel1/rel2/reld``,
stored here as a slot bitmask.

The rename stage builds a fresh entry per instruction, and a squashed
entry is never reused: once ``entry.squashed`` is set it stays set, so
any index still holding the reference (completion queue, wakeup lists,
LSQ wait lists) recognises it as dead by that flag alone.  A
``seq -> entry`` map is kept in lockstep with the FIFO, so :meth:`find`
(the release policies' LU lookups) is O(1).
"""

from __future__ import annotations

from collections import deque
from itertools import islice
from typing import Deque, Dict, Iterator, List, Optional, Tuple

from repro.isa import Instruction, RegClass


#: Bit of ``ROSEntry.early_release_mask`` corresponding to source slot *i*.
def src_slot_bit(slot: int) -> int:
    """Mask bit for source slot ``slot`` (0-based)."""
    return 1 << slot


#: Bit of ``ROSEntry.early_release_mask`` corresponding to the destination slot.
DEST_SLOT_BIT = 1 << 3


class ROSEntry:
    """One uncommitted instruction."""

    __slots__ = (
        "seq", "inst", "wrong_path", "resume_cursor", "prediction",
        "predicted_taken", "fetch_mispredicted",
        "dest_class", "dest_logical", "pd", "old_pd", "allocated_new", "reused",
        "rel_old", "early_release_mask",
        "src_regs", "wait_producers",
        "issued", "completed", "issue_cycle", "exception", "squashed",
    )

    def __init__(self, seq: int, inst: Optional[Instruction]) -> None:
        self.seq = seq
        self.inst = inst
        self.wrong_path = inst.wrong_path if inst is not None else False
        self.resume_cursor = -1
        self.prediction = None
        self.predicted_taken = False
        self.fetch_mispredicted = False

        self.dest_class: Optional[RegClass] = None
        self.dest_logical: Optional[int] = None
        self.pd: Optional[int] = None
        self.old_pd: Optional[int] = None
        self.allocated_new = False
        self.reused = False

        #: conventional previous-version release enable (paper ``rel_old``).
        self.rel_old = False
        #: early-release bits: bits 0..2 = source slots, bit 3 = destination.
        self.early_release_mask = 0

        #: per source slot: (reg_class, logical, physical).
        self.src_regs: List[Tuple[RegClass, int, int]] = []
        #: producer sequence numbers this instruction still waits on.
        self.wait_producers: set = set()

        self.issued = False
        self.completed = False
        self.issue_cycle = -1
        self.exception = False
        self.squashed = False

    # ------------------------------------------------------------------
    @property
    def has_dest(self) -> bool:
        """True when the entry allocated (or reused) a destination register."""
        return self.dest_class is not None

    @property
    def ready(self) -> bool:
        """True when every source operand is available (may issue)."""
        return not self.wait_producers

    def physical_of_slot(self, slot_bit: int) -> Tuple[RegClass, int, Optional[int]]:
        """Return ``(reg_class, physical, logical)`` for an early-release slot bit."""
        if slot_bit == DEST_SLOT_BIT:
            assert self.dest_class is not None and self.pd is not None
            return self.dest_class, self.pd, self.dest_logical
        slot = slot_bit.bit_length() - 1
        reg_class, logical, physical = self.src_regs[slot]
        return reg_class, physical, logical

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        op = self.inst.op.name if self.inst is not None else "?"
        return (f"ROSEntry(seq={self.seq}, op={op}, "
                f"pd={self.pd}, old_pd={self.old_pd}, "
                f"issued={self.issued}, completed={self.completed})")


class ReorderStructure:
    """Program-ordered FIFO of uncommitted instructions (the paper's ROS).

    :attr:`entries` holds the in-flight entries oldest first: commit
    pops the old end and squashes trim the young end.
    """

    def __init__(self, capacity: int = 128) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.entries: Deque[ROSEntry] = deque()
        self._by_seq: Dict[int, ROSEntry] = {}

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[ROSEntry]:
        """Iterate the in-flight entries in age (program) order."""
        return iter(self.entries)

    @property
    def is_full(self) -> bool:
        """True when dispatch must stall."""
        return len(self.entries) >= self.capacity

    @property
    def is_empty(self) -> bool:
        """True when no instruction is in flight."""
        return not self.entries

    def head(self) -> Optional[ROSEntry]:
        """Oldest uncommitted instruction, or None when empty."""
        return self.entries[0] if self.entries else None

    def tail(self) -> Optional[ROSEntry]:
        """Youngest uncommitted instruction, or None when empty."""
        return self.entries[-1] if self.entries else None

    # ------------------------------------------------------------------
    def append(self, entry: ROSEntry) -> None:
        """Insert a renamed entry at the tail.

        The rename stage appends only after the entry's rename hooks have
        run, so an instruction is not in the window (nor visible to
        :meth:`find`) during its own rename.
        """
        entries = self.entries
        if len(entries) >= self.capacity:
            raise RuntimeError("ROS overflow: dispatch must stall instead")
        if entries and entry.seq <= entries[-1].seq:
            raise ValueError("ROS entries must be appended in program order")
        entries.append(entry)
        self._by_seq[entry.seq] = entry

    def pop_head(self) -> ROSEntry:
        """Remove and return the committing head entry."""
        if not self.entries:
            raise IndexError("pop_head() on an empty ROS")
        entry = self.entries.popleft()
        del self._by_seq[entry.seq]
        return entry

    def completed_prefix(self, limit: int) -> int:
        """Length of the contiguous completed run at the head, capped at
        ``limit`` — the number of entries the commit stage may retire this
        cycle before looking at exception flags."""
        run = 0
        for entry in self.entries:
            if run >= limit or not entry.completed:
                break
            run += 1
        return run

    def exception_in_prefix(self, length: int) -> int:
        """Offset of the first excepting entry among the head ``length``
        entries, or -1."""
        for offset, entry in enumerate(islice(self.entries, length)):
            if entry.exception:
                return offset
        return -1

    def retire_prefix(self, count: int) -> List[ROSEntry]:
        """Batched commit: remove and return the ``count`` oldest entries."""
        if count > len(self.entries):
            raise IndexError("retire_prefix() beyond the occupied window")
        popleft = self.entries.popleft
        by_seq = self._by_seq
        retired = [popleft() for _ in range(count)]
        for entry in retired:
            del by_seq[entry.seq]
        return retired

    def squash_younger_than(self, seq: int) -> List[ROSEntry]:
        """Remove every entry younger than ``seq``; youngest first.

        Returning youngest-first lets callers undo rename state in reverse
        program order, which is required for walk-based free-list repair.
        """
        entries = self.entries
        by_seq = self._by_seq
        squashed: List[ROSEntry] = []
        while entries and entries[-1].seq > seq:
            entry = entries.pop()
            entry.squashed = True
            del by_seq[entry.seq]
            squashed.append(entry)
        return squashed

    def squash_all(self) -> List[ROSEntry]:
        """Remove every entry (exception flush); youngest first."""
        squashed = list(reversed(self.entries))
        for entry in squashed:
            entry.squashed = True
        self.entries.clear()
        self._by_seq.clear()
        return squashed

    def find(self, seq: int) -> Optional[ROSEntry]:
        """Return the in-flight entry with sequence number ``seq`` (O(1))."""
        return self._by_seq.get(seq)
