"""Extended early-release mechanism (paper Section 4).

The extended mechanism handles the case the basic one gives up on: a
next-version (NV) instruction decoded while branches are still pending
between it and the last use (LU) of the previous register version.  Such
releases are *conditional* and live in the Release Queue until the
speculation in front of the NV resolves:

* every renamed branch appends a Release Queue level;
* a speculative NV schedules the release at the TAIL level, in ``RwNS``
  form if its LU has committed and in ``RwC`` form (tied to the LU's ROS
  entry) otherwise;
* branch confirmation collapses the level toward ``RwC0``; confirmation of
  the *oldest* branch releases the level's ``RwNS`` registers outright;
* branch misprediction clears the level and every younger one;
* commit of an LU moves its still-conditional ``RwC`` bits to ``RwNS``.

Because every previous-version release is routed through the mechanism,
the conventional ``old_pd``/``rel_old`` fields of the ROS are no longer
used (the paper points this out as a storage saving).
"""

from __future__ import annotations

from typing import ClassVar, Optional, Tuple

from repro.backend.ros import DEST_SLOT_BIT, ROSEntry, src_slot_bit
from repro.core.lus_table import DST_SLOT, LastUse, LastUsesTable
from repro.core.release_policy import DestRenameOutcome, ReleasePolicy
from repro.core.release_queue import ReleaseQueue


def _slot_bit(slot: int) -> int:
    """ROS early-release mask bit for an LUs-table slot value."""
    return DEST_SLOT_BIT if slot == DST_SLOT else src_slot_bit(slot)


class ExtendedEarlyRelease(ReleasePolicy):
    """Early release with conditional (speculative) schedulings (Section 4)."""

    name: ClassVar[str] = "extended"

    def __init__(self, *args, release_queue_capacity: int = 20, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.lus_table = LastUsesTable(self.map_table.num_logical)
        self.release_queue = ReleaseQueue(capacity=release_queue_capacity)
        self.conditional_schedulings = 0

    # ------------------------------------------------------------------
    # Rename-time hooks
    # ------------------------------------------------------------------
    def note_source_use(self, entry: ROSEntry, slot: int, logical: int,
                        physical: int) -> None:
        """Record this instruction as the last user of ``logical``."""
        self.lus_table.record_use(logical, entry.seq, slot)

    def note_dest_definition(self, entry: ROSEntry, logical: int) -> None:
        """Record the definition as a (Kind=dst) use."""
        self.lus_table.record_use(logical, entry.seq, DST_SLOT)

    def on_branch_renamed(self, entry: ROSEntry) -> None:
        """Step 1: append a Release Queue level for the new pending branch."""
        self.release_queue.push_level(entry.seq)

    def rename_destination(self, entry: ROSEntry, logical: int,
                           old_pd: int) -> DestRenameOutcome:
        """Schedule the previous-version release (conditionally if speculative)."""
        if self.map_table.is_stale(logical):
            # The mapping names a register released before an exception flush
            # (Section 4.3): there is nothing left to release or reuse.
            return DestRenameOutcome(release_previous_at_commit=False)

        lu: Optional[LastUse] = self.lus_table.lookup(logical)
        pending = self.view.count_pending_branches()
        lu_committed = lu is None or lu.seq <= self.view.committed_watermark

        if lu_committed:
            if pending == 0:
                # Same rules as the basic mechanism (paper Section 4.2, last
                # paragraph): release immediately or reuse the register.
                if self.options.reuse_on_committed_lu:
                    self.register_reuses += 1
                    return DestRenameOutcome(reuse_previous=True,
                                             release_previous_at_commit=False)
                self._release_physical(old_pd, logical,
                                       self.view.current_cycle(), early=True)
                self.immediate_releases += 1
                return DestRenameOutcome(released_immediately=True,
                                         release_previous_at_commit=False)
            # Step 2, first case: conditional release in decoded (RwNS) form.
            self.release_queue.schedule_committed_lu(old_pd, logical, entry.seq)
            self.conditional_schedulings += 1
            return DestRenameOutcome(scheduled_early=True,
                                     release_previous_at_commit=False)

        if lu.seq == entry.seq:
            # The renaming instruction reads its own destination register
            # (e.g. the ``p = p->next`` load of a pointer chase), so *it*
            # is the last use of the previous version.  Its ROS entry is
            # not published to the seq index until rename finishes, so the
            # generic lookup below would miss it — and the historical
            # "treat an unknown LU as committed" fallback then scheduled
            # an RwNS release of a register whose definer could still be
            # in flight, double-releasing it when an exception flush later
            # returned the squashed definer's allocation (the last
            # remaining seed-era ``FreeListError`` family).
            lu_entry = entry
        else:
            lu_entry = self.view.ros_entry(lu.seq)
        if lu_entry is None:
            # Defensive: treat an unknown in-flight LU as committed.  The
            # scheduling carries the NV's seq, so a squash of the NV
            # cancels it before it can fire.
            if pending == 0:
                self._release_physical(old_pd, logical,
                                       self.view.current_cycle(), early=True)
                self.immediate_releases += 1
                return DestRenameOutcome(released_immediately=True,
                                         release_previous_at_commit=False)
            self.release_queue.schedule_committed_lu(old_pd, logical, entry.seq)
            self.conditional_schedulings += 1
            return DestRenameOutcome(scheduled_early=True,
                                     release_previous_at_commit=False)

        bit = _slot_bit(lu.slot)
        _cls, physical, _logical = lu_entry.physical_of_slot(bit)
        assert physical == old_pd, (
            "LUs table slot does not name the previous version: "
            f"slot maps to p{physical}, expected p{old_pd}")

        if pending == 0:
            # Non-speculative: plain RwC0 early-release bit on the LU entry.
            lu_entry.early_release_mask |= bit
            self.early_releases_scheduled += 1
            return DestRenameOutcome(scheduled_early=True,
                                     release_previous_at_commit=False)

        # Step 2, second case: conditional release tied to the in-flight LU.
        self.release_queue.schedule_inflight_lu(lu.seq, bit, entry.seq)
        self.conditional_schedulings += 1
        return DestRenameOutcome(scheduled_early=True,
                                 release_previous_at_commit=False)

    # ------------------------------------------------------------------
    # Resolution-time hooks
    # ------------------------------------------------------------------
    def on_branch_confirmed(self, branch_seq: int) -> None:
        """Step 4/6: collapse the confirmed branch's level toward RwC0."""
        cycle = self.view.current_cycle()

        def release(physical: int, logical: Optional[int]) -> None:
            self._release_physical(physical, logical, cycle, early=True)

        def promote_rwc0(lu_seq: int, mask: int) -> None:
            lu_entry = self.view.ros_entry(lu_seq)
            assert lu_entry is not None, (
                "RwC scheduling references an instruction that is neither in "
                "flight nor was moved to RwNS at its commit")
            lu_entry.early_release_mask |= mask

        self.release_queue.on_branch_confirmed(branch_seq, release, promote_rwc0)

    def on_branch_mispredicted(self, branch_seq: int) -> None:
        """Step 3: clear the level of the mispredicted branch and all younger ones.

        Confirmation merges can move a squashed NV's scheduling into a
        level *older* than the mispredicted branch, so the level clear is
        followed by an NV-tag sweep over the surviving levels.
        """
        self.release_queue.on_branch_mispredicted(branch_seq)
        self.release_queue.cancel_younger_than(branch_seq)

    # ------------------------------------------------------------------
    # Commit / flush hooks
    # ------------------------------------------------------------------
    def on_commit(self, entry: ROSEntry, cycle: int) -> None:
        """Step 5/6: release RwC0 registers; move conditional RwC bits to RwNS.

        As in the basic mechanism, the architectural-liveness update for the
        entry's own destination must run *before* the mask releases so that
        a destination-slot self-release leaves ``arch_version_released``
        set (see :meth:`BasicEarlyRelease.on_commit`).
        """
        if entry.dest_class is self.reg_class:
            assert entry.dest_logical is not None
            self._note_architectural_update(entry.dest_logical)
        mask = entry.early_release_mask
        if mask:
            bit = 1
            while bit <= DEST_SLOT_BIT:
                if mask & bit:
                    reg_class, physical, logical = entry.physical_of_slot(bit)
                    if reg_class is self.reg_class:
                        self._release_physical(physical, logical, cycle, early=True)
                bit <<= 1

        def slot_resolver(slot_bit: int) -> Tuple[int, Optional[int]]:
            _cls, physical, logical = entry.physical_of_slot(slot_bit)
            return physical, logical

        self.release_queue.on_lu_commit(entry.seq, slot_resolver)

    def on_exception_flush(self, cycle: int) -> None:
        """Nothing is in flight: forget last uses and drop conditional releases."""
        super().on_exception_flush(cycle)
        self.lus_table.reset()
        self.release_queue.clear()

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------
    def snapshot_state(self):
        """Checkpoint the LUs Table (the Release Queue is repaired by level clears)."""
        return self.lus_table.snapshot()

    def restore_state(self, snapshot) -> None:
        """Restore the LUs Table copy of a mispredicted branch."""
        if snapshot is not None:
            self.lus_table.restore(snapshot)
