"""Basic early-release mechanism (paper Section 3).

When a next-version (NV) instruction is renamed and **no unresolved
branches exist between it and the last-use (LU) instruction** of the
previous version, the release of the previous version is tied to the LU
instruction instead of the NV instruction:

* LU still in flight → set the appropriate early-release bit
  (``rel1``/``rel2``/``reld``) in the LU's ROS entry and clear the NV's
  ``rel_old`` bit; the register is released when the LU commits.
* LU already committed → the register can be released immediately; the
  paper additionally allows *reusing* it as the NV's own destination
  without touching the mapping (enabled by default, see
  :class:`repro.core.release_policy.PolicyOptions`).

In every other case (an unresolved branch between LU and NV) the policy
falls back to conventional release, which is why the basic mechanism
helps FP codes (few branches) much more than integer codes.
"""

from __future__ import annotations

from typing import ClassVar, Optional

from repro.backend.ros import DEST_SLOT_BIT, ROSEntry, src_slot_bit
from repro.core.lus_table import DST_SLOT, LastUse, LastUsesTable
from repro.core.release_policy import DestRenameOutcome, ReleasePolicy


def _slot_bit(slot: int) -> int:
    """ROS early-release mask bit for an LUs-table slot value."""
    return DEST_SLOT_BIT if slot == DST_SLOT else src_slot_bit(slot)


class BasicEarlyRelease(ReleasePolicy):
    """Early release restricted to non-speculative LU/NV pairs (Section 3)."""

    name: ClassVar[str] = "basic"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.lus_table = LastUsesTable(self.map_table.num_logical)
        self.fallback_conventional = 0

    # ------------------------------------------------------------------
    # Rename-time hooks
    # ------------------------------------------------------------------
    def note_source_use(self, entry: ROSEntry, slot: int, logical: int,
                        physical: int) -> None:
        """Renaming 1 (paper): record this instruction as the last user of ``logical``."""
        self.lus_table.record_use(logical, entry.seq, slot)

    def note_dest_definition(self, entry: ROSEntry, logical: int) -> None:
        """Renaming 1 (paper): record the definition as a (Kind=dst) use."""
        self.lus_table.record_use(logical, entry.seq, DST_SLOT)

    def rename_destination(self, entry: ROSEntry, logical: int,
                           old_pd: int) -> DestRenameOutcome:
        """Renaming 2 (paper): schedule an early release or reuse the register."""
        if self.map_table.is_stale(logical):
            # The mapping names a register that was already released before
            # an exception flush (Section 4.3): nothing to release or reuse.
            return DestRenameOutcome(release_previous_at_commit=False)

        lu: Optional[LastUse] = self.lus_table.lookup(logical)
        if lu is None:
            # Unknown last use (cold table): conventional release.
            self.fallback_conventional += 1
            return DestRenameOutcome(release_previous_at_commit=True)

        if self.view.has_pending_branch_younger_than(lu.seq):
            # Case 2 of the paper: a branch is pending between LU and NV —
            # the basic mechanism gives up and releases conventionally.
            self.fallback_conventional += 1
            return DestRenameOutcome(release_previous_at_commit=True)

        if lu.seq <= self.view.committed_watermark:
            # LU already committed: release immediately, or reuse the register.
            if self.options.reuse_on_committed_lu:
                self.register_reuses += 1
                return DestRenameOutcome(reuse_previous=True,
                                         release_previous_at_commit=False)
            self._release_physical(old_pd, logical,
                                   self.view.current_cycle(), early=True)
            self.immediate_releases += 1
            return DestRenameOutcome(released_immediately=True,
                                     release_previous_at_commit=False)

        if lu.seq == entry.seq:
            # The renaming instruction reads its own destination register
            # (e.g. the ``p = p->next`` load of a pointer chase): its ROS
            # entry is not published to the seq index until rename
            # finishes, so the basic mechanism releases conventionally.
            self.fallback_conventional += 1
            return DestRenameOutcome(release_previous_at_commit=True)

        # An uncommitted LU other than this NV is older than it and was
        # not squashed (the LUs Table is restored on misprediction and
        # reset on an exception flush), so it is in flight, and its
        # recorded slot names the previous version.
        lu_entry = self.view.ros_entry(lu.seq)
        assert lu_entry is not None, (
            f"in-flight last use {lu.seq} of r{logical} is not in the ROS")
        bit = _slot_bit(lu.slot)
        _cls, physical, _logical = lu_entry.physical_of_slot(bit)
        assert physical == old_pd, (
            "LUs table slot does not name the previous version: "
            f"slot maps to p{physical}, expected p{old_pd}")

        lu_entry.early_release_mask |= bit
        self.early_releases_scheduled += 1
        return DestRenameOutcome(scheduled_early=True,
                                 release_previous_at_commit=False)

    # ------------------------------------------------------------------
    # Commit / flush hooks
    # ------------------------------------------------------------------
    def on_commit(self, entry: ROSEntry, cycle: int) -> None:
        """Release the registers whose early-release bits point at this entry.

        The architectural-liveness update for the entry's own destination
        runs *before* the mask releases: when the entry's destination slot
        bit is set (its version was last used by its own definition), the
        release below frees the register the IOMT now names, and the
        resulting ``arch_version_released`` flag must survive this commit —
        updating afterwards would clear it and let a later exception flush
        rebuild a live-looking mapping to a freed register.
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
        if entry.dest_class is self.reg_class:
            if entry.rel_old and entry.allocated_new and entry.old_pd is not None:
                self._release_physical(entry.old_pd, entry.dest_logical, cycle,
                                       early=False)
                self.conventional_releases += 1

    def on_exception_flush(self, cycle: int) -> None:
        """Nothing is in flight any more: forget all recorded last uses."""
        super().on_exception_flush(cycle)
        self.lus_table.reset()

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------
    def snapshot_state(self):
        """Checkpoint the LUs Table (one copy per predicted branch, Section 3.1)."""
        return self.lus_table.snapshot()

    def restore_state(self, snapshot) -> None:
        """Restore the LUs Table copy of a mispredicted branch."""
        if snapshot is not None:
            self.lus_table.restore(snapshot)
