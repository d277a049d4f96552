"""Property test: the Release Queue's level clears alone cancel squashed schedulings.

Random legal histories drive a :class:`ReleaseQueue` through branch
renames, next-version (NV) schedulings for committed and in-flight last
uses (LUs), confirmations in any order, mispredictions, LU commits and
exception flushes.  The test keeps its own NV tag for every scheduling
(each scheduling releases a fresh register, so the tag is found by what
is released) and checks two things:

* after a misprediction, no scheduling left in the queue (or promoted to
  an LU's plain early-release bits) was made by an NV the misprediction
  squashed;
* :class:`TaggedReleaseQueue`, a copy of the queue that tagged every
  scheduling with its NV and swept the surviving levels for squashed tags
  after each misprediction, releases the same ``(physical, logical)``
  pairs in the same order and promotes the same masks; only the pairs
  one LU commit resolves may come in another order among themselves
  (:meth:`History.canonical`).
"""

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.release_queue import ReleaseQueue

#: Bits of an instruction's early-release mask: three sources, one destination.
SLOT_BITS = (0b0001, 0b0010, 0b0100, 0b1000)


@dataclass
class _TaggedLevel:
    branch_seq: int
    rwns: Dict[Tuple[int, int], int] = field(default_factory=dict)
    rwc: Dict[int, Dict[int, int]] = field(default_factory=dict)


class TaggedReleaseQueue:
    """The tag-and-sweep Release Queue the simulator used to carry.

    Every scheduling remembers the sequence number of the NV that made
    it, and a misprediction of branch ``B`` both clears ``B``'s level with
    every younger one and drops, from the surviving levels, each
    scheduling whose NV is younger than ``B``.
    """

    def __init__(self) -> None:
        self.levels: List[_TaggedLevel] = []

    def push_level(self, branch_seq: int) -> None:
        self.levels.append(_TaggedLevel(branch_seq))

    def schedule_committed_lu(self, physical, logical, nv_seq) -> None:
        self.levels[-1].rwns[(physical, logical)] = nv_seq

    def schedule_inflight_lu(self, lu_seq, slot_bit, nv_seq) -> None:
        self.levels[-1].rwc.setdefault(lu_seq, {})[slot_bit] = nv_seq

    def on_lu_commit(self, lu_seq, slot_resolver) -> None:
        for level in self.levels:
            bits = level.rwc.pop(lu_seq, None)
            if bits:
                for slot_bit, nv_seq in bits.items():
                    level.rwns[slot_resolver(slot_bit)] = nv_seq

    def on_branch_confirmed(self, branch_seq, release, promote_rwc0) -> None:
        index = self._find(branch_seq)
        if index is None:
            return
        level = self.levels.pop(index)
        if index == 0:
            for physical, logical in level.rwns:
                release(physical, logical)
            for lu_seq, bits in level.rwc.items():
                mask = 0
                for slot_bit in bits:
                    mask |= slot_bit
                promote_rwc0(lu_seq, mask)
        else:
            older = self.levels[index - 1]
            older.rwns.update(level.rwns)
            for lu_seq, bits in level.rwc.items():
                older.rwc.setdefault(lu_seq, {}).update(bits)

    def on_branch_mispredicted(self, branch_seq) -> None:
        index = self._find(branch_seq)
        if index is not None:
            del self.levels[index:]
        for level in self.levels:
            for key in [k for k, nv in level.rwns.items() if nv > branch_seq]:
                del level.rwns[key]
            for lu_seq in list(level.rwc):
                bits = level.rwc[lu_seq]
                for bit in [b for b, nv in bits.items() if nv > branch_seq]:
                    del bits[bit]
                if not bits:
                    del level.rwc[lu_seq]

    def clear(self) -> None:
        self.levels.clear()

    def _find(self, branch_seq) -> Optional[int]:
        for index, level in enumerate(self.levels):
            if level.branch_seq == branch_seq:
                return index
        return None


class History:
    """A legal program-order history applied to both queues in lockstep."""

    MAX_PENDING = 8

    def __init__(self) -> None:
        self.queue = ReleaseQueue(capacity=self.MAX_PENDING)
        self.reference = TaggedReleaseQueue()
        self.next_seq = 1
        self.next_physical = 100
        self.pending: List[int] = []            # unresolved branches, oldest first
        #: in-flight LU seq -> {slot bit: (physical, logical)}, oldest first.
        self.lus: Dict[int, Dict[int, Tuple[int, int]]] = {}
        #: (lu seq, slot bit) pairs a live NV has scheduled.
        self.scheduled_slots = set()
        #: the test's own NV tags: released pair / RwC slot -> NV seq.
        self.pair_tag: Dict[Tuple[int, int], int] = {}
        self.slot_tag: Dict[Tuple[int, int], int] = {}
        #: pair of an LU's slot -> (lu seq, slot bit).
        self.pair_slot: Dict[Tuple[int, int], Tuple[int, int]] = {}
        #: lu seq -> mask promoted to the LU's plain early-release bits.
        self.rwc0: Dict[int, int] = {}
        self.log = {"queue": [], "reference": []}

    # -- helpers --------------------------------------------------------
    def _seq(self) -> int:
        seq = self.next_seq
        self.next_seq += 1
        return seq

    def _fresh_pair(self, choice: int) -> Tuple[int, int]:
        physical = self.next_physical
        self.next_physical += 1
        return physical, choice % 32

    def _callbacks(self, side: str):
        log = self.log[side]

        def release(physical, logical):
            log.append(("release", physical, logical))

        def promote(lu_seq, mask):
            assert lu_seq in self.lus, "promoted an LU that is not in flight"
            log.append(("promote", lu_seq, mask))

        return release, promote

    # -- program events -------------------------------------------------
    def branch(self, _choice: int) -> None:
        if len(self.pending) == self.MAX_PENDING:
            return
        seq = self._seq()
        self.queue.push_level(seq)
        self.reference.push_level(seq)
        self.pending.append(seq)

    def last_use(self, choice: int) -> None:
        seq = self._seq()
        slots = [bit for i, bit in enumerate(SLOT_BITS) if choice >> i & 1]
        self.lus[seq] = {bit: self._fresh_pair(choice + bit) for bit in slots}
        for bit, pair in self.lus[seq].items():
            self.pair_slot[pair] = (seq, bit)

    def nv_committed_lu(self, choice: int) -> None:
        if not self.pending:
            return
        nv = self._seq()
        pair = self._fresh_pair(choice)
        self.pair_tag[pair] = nv
        self.queue.schedule_committed_lu(*pair)
        self.reference.schedule_committed_lu(*pair, nv)

    def nv_inflight_lu(self, choice: int) -> None:
        free = [(lu, bit) for lu, slots in self.lus.items() for bit in slots
                if (lu, bit) not in self.scheduled_slots]
        if not self.pending or not free:
            return
        lu, bit = free[choice % len(free)]
        nv = self._seq()
        self.scheduled_slots.add((lu, bit))
        self.slot_tag[(lu, bit)] = nv
        self.pair_tag[self.lus[lu][bit]] = nv
        self.queue.schedule_inflight_lu(lu, bit)
        self.reference.schedule_inflight_lu(lu, bit, nv)

    def confirm(self, choice: int) -> None:
        if not self.pending:
            return
        branch = self.pending.pop(choice % len(self.pending))
        logged = len(self.log["queue"])
        self.queue.on_branch_confirmed(branch, *self._callbacks("queue"))
        self.reference.on_branch_confirmed(branch,
                                           *self._callbacks("reference"))
        for event in self.log["queue"][logged:]:
            if event[0] == "promote":
                self.rwc0[event[1]] = self.rwc0.get(event[1], 0) | event[2]

    def mispredict(self, choice: int) -> None:
        if not self.pending:
            return
        branch = self.pending[choice % len(self.pending)]
        self.queue.on_branch_mispredicted(branch)
        self.reference.on_branch_mispredicted(branch)
        self.pending = [seq for seq in self.pending if seq < branch]
        self.lus = {lu: slots for lu, slots in self.lus.items() if lu < branch}
        self.rwc0 = {lu: mask for lu, mask in self.rwc0.items() if lu < branch}
        self.assert_nothing_squashed_survives(branch)
        # The squashed NVs never redefined their registers: the correct
        # path may schedule those last uses again.
        self.scheduled_slots = {slot for slot in self.scheduled_slots
                                if self.slot_tag[slot] < branch}

    def lu_commit(self, _choice: int) -> None:
        if not self.lus:
            return
        lu = next(iter(self.lus))
        if self.pending and self.pending[0] < lu:
            return                  # an older branch has not resolved yet
        slots = self.lus.pop(lu)
        for side in ("queue", "reference"):
            mask = self.rwc0.get(lu, 0)
            for bit in SLOT_BITS:
                if mask & bit:
                    self.log[side].append(("release", *slots[bit]))
        self.rwc0.pop(lu, None)
        self.queue.on_lu_commit(lu, slots.__getitem__)
        self.reference.on_lu_commit(lu, slots.__getitem__)

    def exception_flush(self, _choice: int) -> None:
        self.queue.clear()
        self.reference.clear()
        self.pending.clear()
        self.lus.clear()
        self.rwc0.clear()

    # -- checks ---------------------------------------------------------
    def assert_nothing_squashed_survives(self, branch: int) -> None:
        for level in self.queue.levels():
            for pair in level.rwns:
                assert self.pair_tag[pair] < branch, (
                    f"RwNS {pair} by squashed NV {self.pair_tag[pair]} "
                    f"survived the misprediction of {branch}")
            for lu, mask in level.rwc.items():
                for bit in (b for b in SLOT_BITS if mask & b):
                    assert self.slot_tag[(lu, bit)] < branch, (
                        f"RwC ({lu}, {bit:#06b}) by squashed NV "
                        f"{self.slot_tag[(lu, bit)]} survived the "
                        f"misprediction of {branch}")
        for lu, mask in self.rwc0.items():
            for bit in SLOT_BITS:
                if mask & bit:
                    assert self.slot_tag[(lu, bit)] < branch

    def canonical(self, log):
        """``log`` with each run of one LU's releases in slot-bit order.

        The pairs one LU commit moves to RwNS are one hardware bit vector:
        the queue resolves them in ascending slot-bit order, the tagged
        queue in the order their NVs scheduled them.  Every other release
        and promotion is compared in order.
        """
        out, run = [], []
        for event in log + [("end",)]:
            origin = (self.pair_slot.get(event[1:])
                      if event[0] == "release" else None)
            if run and (origin is None or origin[0] != run[0][0][0]):
                out += [e for _, e in sorted(run, key=lambda r: r[0][1])]
                run = []
            if origin is None:
                out.append(event)
            else:
                run.append((origin, event))
        return out[:-1]

    def assert_same_releases(self) -> None:
        assert (self.canonical(self.log["queue"])
                == self.canonical(self.log["reference"]))


#: Event kinds, repeated by weight: enough branches and schedulings to
#: keep several levels busy, and rare exception flushes (each one empties
#: the queue).
EVENTS = (("branch",) * 4 + ("last_use",) * 2 + ("nv_committed_lu",) * 3
          + ("nv_inflight_lu",) * 3 + ("confirm",) * 2 + ("mispredict",)
          + ("lu_commit",) * 2 + ("exception_flush",))

history_strategy = st.lists(
    st.tuples(st.sampled_from(EVENTS), st.integers(min_value=0, max_value=63)),
    min_size=20, max_size=200)


@settings(max_examples=300, deadline=None)
@given(history_strategy)
def test_level_clears_match_the_tag_and_sweep_queue(events):
    history = History()
    for event, choice in events:
        getattr(history, event)(choice)
        history.assert_same_releases()
    # Drain: resolve every pending branch, oldest first, then commit.
    while history.pending:
        history.confirm(0)
    while history.lus:
        history.lu_commit(0)
    history.assert_same_releases()
    assert history.queue.depth == 0
