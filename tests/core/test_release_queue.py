"""Tests for the Release Queue of the extended mechanism (paper Section 4)."""

import pytest

from repro.core.release_queue import ReleaseQueue


class Recorder:
    """Collects release / promote callbacks."""

    def __init__(self):
        self.released = []
        self.promoted = []

    def release(self, physical, logical):
        self.released.append((physical, logical))

    def promote(self, lu_seq, mask):
        self.promoted.append((lu_seq, mask))


class TestLevels:
    def test_push_levels_in_order(self):
        queue = ReleaseQueue()
        queue.push_level(1)
        queue.push_level(5)
        assert queue.depth == 2
        with pytest.raises(ValueError):
            queue.push_level(3)

    def test_capacity(self):
        queue = ReleaseQueue(capacity=2)
        queue.push_level(1)
        queue.push_level(2)
        with pytest.raises(RuntimeError):
            queue.push_level(3)

    def test_schedule_requires_pending_branch(self):
        queue = ReleaseQueue()
        with pytest.raises(RuntimeError):
            queue.schedule_committed_lu(5, 1)
        with pytest.raises(RuntimeError):
            queue.schedule_inflight_lu(7, 1)

    def test_schedules_land_at_tail(self):
        queue = ReleaseQueue()
        queue.push_level(1)
        queue.push_level(2)
        queue.schedule_committed_lu(40, 3)
        queue.schedule_inflight_lu(17, 0b100)
        levels = queue.levels()
        assert list(levels[1].rwns) == [(40, 3)]
        assert levels[1].rwc == {17: 0b100}
        assert levels[0].n_scheduled == 0
        assert queue.total_scheduled() == 2


class TestBranchConfirmation:
    def test_oldest_confirm_releases_rwns(self):
        queue = ReleaseQueue()
        recorder = Recorder()
        queue.push_level(1)
        queue.schedule_committed_lu(33, 4)
        queue.on_branch_confirmed(1, recorder.release, recorder.promote)
        assert recorder.released == [(33, 4)]
        assert queue.depth == 0

    def test_oldest_confirm_promotes_rwc_to_rwc0(self):
        queue = ReleaseQueue()
        recorder = Recorder()
        queue.push_level(1)
        queue.schedule_inflight_lu(9, 0b010)
        queue.on_branch_confirmed(1, recorder.release, recorder.promote)
        assert recorder.promoted == [(9, 0b010)]
        assert recorder.released == []

    def test_non_oldest_confirm_merges_into_older_level(self):
        queue = ReleaseQueue()
        recorder = Recorder()
        queue.push_level(1)
        queue.push_level(2)
        queue.schedule_committed_lu(50, 7)   # at level of branch 2
        queue.on_branch_confirmed(2, recorder.release, recorder.promote)
        assert recorder.released == []           # still conditional on branch 1
        assert queue.depth == 1
        assert list(queue.levels()[0].rwns) == [(50, 7)]

    def test_out_of_order_confirmation_chain(self):
        queue = ReleaseQueue()
        recorder = Recorder()
        queue.push_level(1)
        queue.push_level(2)
        queue.push_level(3)
        queue.schedule_committed_lu(60, 2)   # guarded by branches 1..3
        queue.on_branch_confirmed(2, recorder.release, recorder.promote)
        queue.on_branch_confirmed(3, recorder.release, recorder.promote)
        assert recorder.released == []
        queue.on_branch_confirmed(1, recorder.release, recorder.promote)
        assert recorder.released == [(60, 2)]

    def test_confirm_unknown_branch_is_noop(self):
        queue = ReleaseQueue()
        recorder = Recorder()
        queue.push_level(1)
        queue.on_branch_confirmed(99, recorder.release, recorder.promote)
        assert queue.depth == 1

    def test_rwc_merge_or_combines_masks(self):
        queue = ReleaseQueue()
        recorder = Recorder()
        queue.push_level(1)
        queue.schedule_inflight_lu(5, 0b001)
        queue.push_level(2)
        queue.schedule_inflight_lu(5, 0b100)
        queue.on_branch_confirmed(2, recorder.release, recorder.promote)
        assert queue.levels()[0].rwc == {5: 0b101}


class TestMispredictionAndCommit:
    def test_mispredict_clears_level_and_younger(self):
        queue = ReleaseQueue()
        queue.push_level(1)
        queue.schedule_committed_lu(40, 0)
        queue.push_level(2)
        queue.schedule_committed_lu(41, 1)
        queue.push_level(3)
        queue.schedule_committed_lu(42, 2)
        dropped = queue.on_branch_mispredicted(2)
        assert dropped == 2
        assert queue.depth == 1
        assert queue.total_scheduled() == 1

    def test_mispredict_unknown_branch(self):
        queue = ReleaseQueue()
        queue.push_level(1)
        assert queue.on_branch_mispredicted(9) == 0
        assert queue.depth == 1

    def test_lu_commit_moves_rwc_to_rwns(self):
        queue = ReleaseQueue()
        queue.push_level(1)
        queue.schedule_inflight_lu(7, 0b001)

        def resolver(bit):
            assert bit == 0b001
            return (22, 6)

        queue.on_lu_commit(7, resolver)
        assert queue.levels()[0].rwc == {}
        assert list(queue.levels()[0].rwns) == [(22, 6)]

    def test_lu_commit_resolves_bits_in_ascending_order(self):
        queue = ReleaseQueue()
        queue.push_level(1)
        queue.schedule_inflight_lu(7, 0b100)
        queue.schedule_inflight_lu(7, 0b001)
        slots = {0b001: (30, 1), 0b100: (31, 2)}
        queue.on_lu_commit(7, slots.__getitem__)
        assert list(queue.levels()[0].rwns) == [(30, 1), (31, 2)]

    def test_rescheduled_pair_keeps_its_place(self):
        queue = ReleaseQueue()
        queue.push_level(1)
        queue.schedule_committed_lu(40, 3)
        queue.schedule_committed_lu(41, 4)
        queue.schedule_committed_lu(40, 3)
        assert list(queue.levels()[0].rwns) == [(40, 3), (41, 4)]

    def test_lu_commit_without_schedulings_is_noop(self):
        queue = ReleaseQueue()
        queue.push_level(1)
        queue.on_lu_commit(99, lambda bit: (0, 0))
        assert queue.total_scheduled() == 0

    def test_clear(self):
        queue = ReleaseQueue()
        queue.push_level(1)
        queue.schedule_committed_lu(40, 0)
        assert queue.clear() == 1
        assert queue.depth == 0

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            ReleaseQueue(capacity=0)
