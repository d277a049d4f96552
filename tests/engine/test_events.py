"""Unit tests of the indexed scheduler structures (ready set, wakeup
index, completion queue) and of the backend hooks that feed them."""

import pytest

from repro.backend.lsq import LoadStoreQueue
from repro.backend.ros import ROSEntry, ReorderStructure
from repro.backend.functional_units import FunctionalUnitPool
from repro.engine.events import CompletionQueue, ReadySet, WakeupIndex
from repro.isa import Instruction, OpClass


def entry(seq: int) -> ROSEntry:
    return ROSEntry(seq, Instruction(pc=0x1000 + 4 * seq, op=OpClass.INT_ALU))


class TestReadySet:
    def test_pops_in_age_order_regardless_of_insertion_order(self):
        ready = ReadySet()
        for seq in (5, 1, 9, 3):
            ready.add(entry(seq))
        assert [ready.pop().seq for _ in range(4)] == [1, 3, 5, 9]
        assert not ready

    def test_add_is_idempotent(self):
        ready = ReadySet()
        e = entry(7)
        ready.add(e)
        ready.add(e)
        assert len(ready) == 1
        assert ready.pop() is e
        with pytest.raises(IndexError):
            ready.pop()

    def test_discard_leaves_stale_heap_keys_harmless(self):
        ready = ReadySet()
        for seq in (1, 2, 3):
            ready.add(entry(seq))
        ready.discard(1)
        ready.discard(3)
        assert len(ready) == 1
        assert 2 in ready and 1 not in ready
        assert ready.pop().seq == 2

    def test_readd_after_pop_keeps_order(self):
        # The issue stage pops FU-blocked entries and re-arms them.
        ready = ReadySet()
        blocked = entry(4)
        ready.add(blocked)
        ready.add(entry(6))
        assert ready.pop() is blocked
        ready.add(blocked)               # re-armed: still oldest
        assert ready.pop().seq == 4
        assert ready.pop().seq == 6


class TestWakeupIndex:
    def test_wake_returns_only_last_producer_consumers(self):
        index = WakeupIndex()
        consumer = entry(10)
        consumer.wait_producers = {1, 2}
        index.register(1, consumer)
        index.register(2, consumer)
        assert index.wake(1) == []       # one producer still outstanding
        assert index.wake(2) == [consumer]
        assert not consumer.wait_producers

    def test_wake_skips_squashed_consumers(self):
        index = WakeupIndex()
        consumer = entry(10)
        consumer.wait_producers = {1}
        consumer.squashed = True
        index.register(1, consumer)
        assert index.wake(1) == []

    def test_drop_forgets_waiters(self):
        index = WakeupIndex()
        consumer = entry(10)
        consumer.wait_producers = {1}
        index.register(1, consumer)
        index.drop(1)
        assert index.wake(1) == []
        assert len(index) == 0


class TestCompletionQueue:
    def test_next_cycle_is_minimum_over_buckets(self):
        # Buckets are keyed by cycle, not by insertion order: a clock
        # stepping cycle by cycle meets the earliest bucket first.
        queue = CompletionQueue()
        queue.schedule(30, entry(1))
        queue.schedule(10, entry(2))
        queue.schedule(10, entry(3))
        due = {cycle: bucket for cycle in range(31)
               if (bucket := queue.pop_due(cycle)) is not None}
        assert list(due) == [10, 30]
        assert [e.seq for e in due[10]] == [2, 3]
        assert not queue

    def test_pop_due_drains_one_bucket_in_schedule_order(self):
        queue = CompletionQueue()
        queue.schedule(30, entry(1))
        queue.schedule(10, entry(2))
        queue.schedule(10, entry(3))
        assert [e.seq for e in queue.pop_due(10)] == [2, 3]
        assert queue.pop_due(10) is None
        assert queue.pop_due(11) is None
        assert queue.pop_due(30)[0].seq == 1
        assert not queue

    def test_pop_due_keeps_dead_events_for_in_loop_liveness_checks(self):
        # The writeback stage re-tests liveness per entry (a branch in the
        # same bucket may squash younger members mid-drain), so pop_due
        # must hand back squashed members rather than filter eagerly.
        queue = CompletionQueue()
        live, squashed = entry(1), entry(2)
        queue.schedule(10, live)
        queue.schedule(10, squashed)
        squashed.squashed = True
        drained = queue.pop_due(10)
        assert [(e.seq, not e.squashed) for e in drained] == [(1, True),
                                                               (2, False)]

    def test_pending_enumerates_everything(self):
        queue = CompletionQueue()
        queue.schedule(5, entry(1))
        queue.schedule(8, entry(2))
        assert sorted(e.seq for e in queue.pending()) == [1, 2]
        queue.clear()
        assert not queue


class TestBackendHooks:
    def test_ros_find_is_indexed_across_mutations(self):
        ros = ReorderStructure(capacity=8)
        entries = [entry(seq) for seq in range(5)]
        for e in entries:
            ros.append(e)
        assert ros.find(3) is entries[3]
        ros.pop_head()
        assert ros.find(0) is None
        ros.squash_younger_than(2)
        assert ros.find(3) is None and ros.find(4) is None
        assert ros.find(2) is entries[2]
        ros.squash_all()
        assert ros.find(1) is None

    def test_lsq_parks_on_first_unknown_store_and_drains(self):
        lsq = LoadStoreQueue(capacity=8)
        lsq.insert(0, True, 0x100)       # store, address unknown
        lsq.insert(1, True, 0x200)       # store, address unknown
        load = entry(2)
        lsq.insert(2, False, 0x300)
        assert lsq.park_blocked_load(2, load)
        # Store 0 resolves: the load is handed back but store 1 still blocks.
        woken = lsq.mark_address_known(0)
        assert woken == [load]
        assert lsq.park_blocked_load(2, load)
        assert lsq.mark_address_known(1) == [load]
        assert not lsq.park_blocked_load(2, load)
        assert lsq.load_may_issue(2)

    def test_lsq_squash_drops_wait_lists_of_squashed_stores(self):
        lsq = LoadStoreQueue(capacity=8)
        lsq.insert(0, True, 0x100)
        lsq.insert(5, True, 0x200)
        load = entry(6)
        lsq.insert(6, False, 0x300)
        assert lsq.park_blocked_load(6, load)   # parks on store 0
        lsq.squash_younger_than(4)              # drops store 5 and load 6
        assert lsq.mark_address_known(0) == [load]  # parked ref survives;
        # the issue stage skips it via the squashed flag.

    def test_fu_unpipelined_divider_occupancy(self):
        fus = FunctionalUnitPool()
        fus.issue(OpClass.FP_DIV, cycle=3)      # unpipelined, 16 cycles
        assert fus.can_issue(OpClass.FP_DIV, 3)  # 3 more units free
        for _ in range(3):
            fus.issue(OpClass.FP_DIV, cycle=3)
        assert not fus.can_issue(OpClass.FP_DIV, 18)
        assert fus.can_issue(OpClass.FP_DIV, 19)

    def test_structural_stall_bulk_booking(self):
        # The issue stage books one stall per blocked ready entry per
        # cycle; the pool only accumulates them.
        fus = FunctionalUnitPool()
        for _ in range(42):
            fus.note_structural_stall()
        assert fus.structural_stalls == 42
