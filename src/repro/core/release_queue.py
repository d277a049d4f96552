"""Release Queue (RelQue) of the extended mechanism (paper Section 4.1/4.2).

One *level* exists per branch pending verification.  A level holds the
conditional release schedulings made by next-version (NV) instructions
decoded while that branch was the youngest pending branch:

* ``rwns`` ("Release when Non-Speculative") — releases whose last-use
  (LU) instruction has already committed.  The paper stores these as a
  bit vector over physical registers; here they are an insertion-ordered
  set of ``(physical, logical)`` pairs (a dict with ``None`` values), so
  a confirmation releases them in scheduling order.  The logical register
  is carried only for the stale-architectural-mapping bookkeeping, not
  because the hardware needs it.
* ``rwc`` ("Release when Commit") — releases whose LU is still in
  flight: the LU's ROS identifier mapped to a mask of its early-release
  slot bits, to be OR-ed into the LU entry's plain early-release bits
  (``RwC0``) once the speculation in front of the NVs is resolved.

Level movements follow the paper's steps: a branch confirmation merges its
level into the next older one (or, for the oldest level, releases the
``rwns`` registers and promotes the ``rwc`` masks to ``RwC0``); a
misprediction clears the level and every younger one; an exception flush
clears every level; the commit of an LU moves its ``rwc`` bits, in
ascending bit order, into the same level's ``rwns``.

Nothing records which NV made a scheduling, because the level clears
alone cancel every scheduling of a squashed NV.  An NV schedules at the
TAIL level, whose branch is the youngest branch pending when the NV is
renamed; a branch B older than the NV and still unresolved was pending
then, so the NV's level is B's or a younger one.  Confirming a branch
merges its level only into the next older level, and a mispredicted B is
never confirmed, so a scheduling made by an NV younger than B stays at
B's level or a younger one, and B's misprediction clears exactly those
levels.  An NV older than B scheduled before B's level existed, so its
scheduling sits in an older level and survives.  An exception flush
squashes every NV and clears every level.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple


@dataclass
class ReleaseQueueLevel:
    """Conditional releases guarded by one pending branch."""

    branch_seq: int
    #: (physical, logical) pairs, in scheduling order (values unused).
    rwns: Dict[Tuple[int, Optional[int]], None] = field(default_factory=dict)
    #: LU seq -> mask of early-release slot bits.
    rwc: Dict[int, int] = field(default_factory=dict)

    @property
    def n_scheduled(self) -> int:
        """Number of conditional releases held at this level."""
        return len(self.rwns) + sum(mask.bit_count()
                                    for mask in self.rwc.values())


class ReleaseQueue:
    """The stack of conditional-release levels, one per pending branch."""

    def __init__(self, capacity: int = 20) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._levels: List[ReleaseQueueLevel] = []

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._levels)

    @property
    def depth(self) -> int:
        """Number of occupied levels (the TAIL pointer of the paper)."""
        return len(self._levels)

    def levels(self) -> List[ReleaseQueueLevel]:
        """The levels, oldest branch first (for inspection/tests)."""
        return list(self._levels)

    def total_scheduled(self) -> int:
        """Total number of conditional releases currently queued."""
        return sum(level.n_scheduled for level in self._levels)

    # ------------------------------------------------------------------
    # Step 1: branch decode appends a level.
    # ------------------------------------------------------------------
    def push_level(self, branch_seq: int) -> None:
        """A branch was renamed: append an empty level at TAIL."""
        if len(self._levels) >= self.capacity:
            raise RuntimeError("Release Queue overflow: rename must stall instead")
        if self._levels and branch_seq <= self._levels[-1].branch_seq:
            raise ValueError("levels must be pushed in program order")
        self._levels.append(ReleaseQueueLevel(branch_seq=branch_seq))

    # ------------------------------------------------------------------
    # Step 2: speculative NV decode marks the TAIL level.
    # ------------------------------------------------------------------
    def schedule_committed_lu(self, physical: int, logical: Optional[int]) -> None:
        """Conditional release of ``physical`` whose LU has already committed (RwNS)."""
        if not self._levels:
            raise RuntimeError("no pending branch: the release is not conditional")
        self._levels[-1].rwns[(physical, logical)] = None

    def schedule_inflight_lu(self, lu_seq: int, slot_bit: int) -> None:
        """Conditional release tied to the in-flight LU ``lu_seq`` (RwC)."""
        if not self._levels:
            raise RuntimeError("no pending branch: the release is not conditional")
        rwc = self._levels[-1].rwc
        rwc[lu_seq] = rwc.get(lu_seq, 0) | slot_bit

    # ------------------------------------------------------------------
    # Step 5: commit of an LU instruction moves its RwC bits to RwNS.
    # ------------------------------------------------------------------
    def on_lu_commit(self, lu_seq: int,
                     slot_resolver: Callable[[int], Tuple[int, Optional[int]]]) -> None:
        """The LU ``lu_seq`` commits before its speculation resolves.

        ``slot_resolver`` maps a slot bit to ``(physical, logical)`` using
        the committing ROS entry (the "decoding of the register
        identifiers located at the ROS head" of the paper).  Each level's
        bits move to its ``rwns`` in ascending bit order.
        """
        for level in self._levels:
            mask = level.rwc.pop(lu_seq, 0)
            while mask:
                slot_bit = mask & -mask
                level.rwns[slot_resolver(slot_bit)] = None
                mask ^= slot_bit

    # ------------------------------------------------------------------
    # Steps 3/4/6: branch resolution.
    # ------------------------------------------------------------------
    def on_branch_confirmed(self, branch_seq: int,
                            release: Callable[[int, Optional[int]], None],
                            promote_rwc0: Callable[[int, int], None]) -> None:
        """Branch ``branch_seq`` verified correct: collapse its level.

        For the oldest level this performs the Branch-Confirm Release of
        the ``rwns`` registers (via ``release(physical, logical)``) and
        promotes the ``rwc`` masks to the LU entries' plain early-release
        bits (via ``promote_rwc0(lu_seq, mask)``); for any other level the
        contents are OR-ed into the next older level.
        """
        index = self._find(branch_seq)
        if index is None:
            return
        level = self._levels.pop(index)
        if index == 0:
            for physical, logical in level.rwns:
                release(physical, logical)
            for lu_seq, mask in level.rwc.items():
                promote_rwc0(lu_seq, mask)
        else:
            older = self._levels[index - 1]
            older.rwns.update(level.rwns)
            for lu_seq, mask in level.rwc.items():
                older.rwc[lu_seq] = older.rwc.get(lu_seq, 0) | mask

    def on_branch_mispredicted(self, branch_seq: int) -> int:
        """Branch ``branch_seq`` mispredicted: clear its level and all younger ones.

        Returns the number of conditional releases squashed.
        """
        index = self._find(branch_seq)
        if index is None:
            return 0
        dropped = sum(level.n_scheduled for level in self._levels[index:])
        del self._levels[index:]
        return dropped

    def clear(self) -> int:
        """Full flush (exception): drop every level; returns schedulings dropped."""
        dropped = self.total_scheduled()
        self._levels.clear()
        return dropped

    # ------------------------------------------------------------------
    def _find(self, branch_seq: int) -> Optional[int]:
        for index, level in enumerate(self._levels):
            if level.branch_seq == branch_seq:
                return index
        return None
