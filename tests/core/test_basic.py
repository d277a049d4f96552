"""Tests for the basic early-release mechanism (paper Section 3)."""

import pytest

from repro.backend.ros import DEST_SLOT_BIT, src_slot_bit

from tests.core.helpers import PolicyHarness


@pytest.fixture
def harness():
    return PolicyHarness("basic", num_physical=40)


class TestFigure4Scenarios:
    def test_source_last_use_schedules_early_release(self, harness):
        """Figure 4a: LU reads r1 for the last time; NV redefines r1."""
        producer = harness.rename(dest=1)              # i : r1 = ...
        old_version = producer.pd
        lu = harness.rename(dest=3, srcs=(2, 1))       # LU: r3 = r2 + r1
        nv = harness.rename(dest=1)                    # NV: r1 = ...
        # The early-release bit for source slot 1 (r1) must be set on LU.
        assert lu.early_release_mask & src_slot_bit(1)
        assert not nv.rel_old
        # Release happens at LU commit, before NV commits.
        harness.commit(producer)
        assert not harness.register_file.is_free(old_version)
        harness.commit(lu)
        assert harness.register_file.is_free(old_version)
        # NV commit must not release it again (no double free).
        harness.commit(nv)
        assert harness.allocated_consistency()

    def test_dest_last_use_schedules_early_release(self, harness):
        """Figure 4b: the previous definer is itself the last use (no readers)."""
        lu = harness.rename(dest=3)                    # LU: r3 = ...
        nv = harness.rename(dest=3)                    # NV: r3 = ...
        assert lu.early_release_mask & DEST_SLOT_BIT
        assert not nv.rel_old
        harness.commit(lu)
        assert harness.register_file.is_free(lu.pd)

    def test_committed_lu_reuses_register(self, harness):
        """Renaming 2, C = 1: reuse the physical register, no new allocation."""
        producer = harness.rename(dest=1)
        lu = harness.rename(dest=3, srcs=(1,))
        harness.commit(producer)
        harness.commit(lu)
        free_before = harness.register_file.n_free
        nv = harness.rename(dest=1)
        assert nv.reused and not nv.allocated_new
        assert nv.pd == producer.pd
        assert harness.register_file.n_free == free_before
        assert harness.policy.register_reuses == 1

    def test_committed_lu_without_reuse_releases_immediately(self):
        harness = PolicyHarness("basic", num_physical=40,
                                reuse_on_committed_lu=False)
        producer = harness.rename(dest=1)
        lu = harness.rename(dest=3, srcs=(1,))
        harness.commit(producer)
        harness.commit(lu)
        nv = harness.rename(dest=1)
        assert not nv.reused and nv.allocated_new
        assert nv.pd != producer.pd
        assert harness.register_file.is_free(producer.pd)
        assert harness.policy.immediate_releases == 1

    def test_self_reading_redefinition(self, harness):
        """r1 = r1 + r2: the NV is its own LU; release at its own commit."""
        producer = harness.rename(dest=1)
        harness.commit(producer)
        fallbacks = harness.policy.fallback_conventional
        nv = harness.rename(dest=1, srcs=(1, 2))
        # The NV is not yet in the ROS seq index while it renames, so the
        # basic mechanism keeps the conventional release (rel_old).
        assert nv.early_release_mask == 0
        assert nv.rel_old
        assert harness.policy.fallback_conventional == fallbacks + 1
        harness.commit(nv)
        assert harness.register_file.is_free(producer.pd)
        assert harness.allocated_consistency()


class TestSpeculationLimits:
    def test_pending_branch_between_lu_and_nv_falls_back(self, harness):
        """Case 2 of the paper: the basic mechanism gives up."""
        producer = harness.rename(dest=1)
        lu = harness.rename(dest=3, srcs=(1,))
        branch = harness.rename(is_branch=True)
        nv = harness.rename(dest=1)
        assert lu.early_release_mask == 0
        assert nv.rel_old                       # conventional release kept
        assert harness.policy.fallback_conventional >= 1
        # Conventional release still happens at NV commit.
        harness.commit(producer)
        harness.commit(lu)
        harness.resolve_branch(branch, mispredicted=False)
        harness.commit(branch)
        assert not harness.register_file.is_free(producer.pd)
        harness.commit(nv)
        assert harness.register_file.is_free(producer.pd)

    def test_pending_branch_older_than_lu_does_not_block(self, harness):
        """Only branches *between* LU and NV matter."""
        producer = harness.rename(dest=1)
        branch = harness.rename(is_branch=True)
        lu = harness.rename(dest=3, srcs=(1,))
        nv = harness.rename(dest=1)
        assert lu.early_release_mask & src_slot_bit(0)
        assert not nv.rel_old

    def test_mispredicted_branch_squashes_lu_and_nv_consistently(self, harness):
        """If the NV is squashed, its LU is squashed too; nothing leaks."""
        producer = harness.rename(dest=1)
        harness.commit(producer)
        allocated_before = harness.register_file.n_allocated
        branch = harness.rename(is_branch=True)
        lu = harness.rename(dest=3, srcs=(1,))      # wrong-path last use
        nv = harness.rename(dest=1)                 # wrong-path redefinition
        assert lu.early_release_mask != 0
        harness.resolve_branch(branch, mispredicted=True)
        # Wrong-path allocations returned; previous version still allocated.
        assert harness.register_file.n_allocated == allocated_before
        assert not harness.register_file.is_free(producer.pd)
        assert harness.map_table.lookup(1) == producer.pd
        # Correct path redefines r1: released exactly once at the new LU commit.
        lu2 = harness.rename(dest=4, srcs=(1,))
        nv2 = harness.rename(dest=1)
        harness.commit(lu2)
        assert harness.register_file.is_free(producer.pd)
        harness.commit(nv2)
        assert harness.allocated_consistency()

    def test_lus_table_restored_from_checkpoint(self, harness):
        producer = harness.rename(dest=1)
        lu = harness.rename(dest=3, srcs=(1,))
        branch = harness.rename(is_branch=True)
        harness.rename(dest=5, srcs=(1,))           # wrong-path use of r1
        harness.resolve_branch(branch, mispredicted=True)
        # After recovery the recorded last use of r1 must be LU again.
        entry = harness.policy.lus_table.lookup(1)
        assert entry is not None and entry.seq == lu.seq


class TestSteadyState:
    def test_no_leaks_over_many_redefinitions(self, harness):
        for index in range(50):
            entry = harness.rename(dest=index % 4, srcs=((index + 1) % 4,))
            harness.commit(entry)
        assert harness.quiescent_allocated() == 32
        assert harness.allocated_consistency()

    def test_exception_flush_then_redefinition_is_safe(self, harness):
        producer = harness.rename(dest=1)
        lu = harness.rename(dest=3, srcs=(1,))
        nv = harness.rename(dest=1)
        harness.commit(producer)
        harness.commit(lu)                           # early release fires here
        assert harness.register_file.is_free(producer.pd)
        # NV still in flight; an exception flushes the pipeline.
        harness.exception_flush()
        # The architectural mapping of r1 points at the released register,
        # and is marked stale; the next redefinition must not double free.
        assert harness.map_table.is_stale(1)
        nv2 = harness.rename(dest=1)
        harness.commit(nv2)
        assert harness.allocated_consistency()
