"""The five pipeline stages as composable objects.

Each stage is stateless: :meth:`Stage.tick` reads and mutates one
:class:`repro.engine.state.MachineState`.  The engine runs them each cycle
in reverse pipeline order so same-cycle producer/consumer interactions
behave like a real machine:

1. :class:`CommitStage`    — retire up to ``commit_width`` completed head
   entries, update the in-order map table, drive the release policy's
   commit hooks, take exceptions;
2. :class:`WritebackStage` — finish instructions whose execution latency
   expires this cycle (drained from the indexed completion queue), wake
   exactly the consumers whose last producer completed, resolve branches
   (confirm or recover);
3. :class:`IssueStage`     — pop up to ``issue_width`` instructions from
   the age-ordered ready set, subject to functional-unit availability;
   the dependency and memory-ordering rules were already enforced when
   the entries became ready (see
   :meth:`repro.engine.state.MachineState.make_issue_ready`);
4. :class:`RenameStage`    — rename/dispatch up to ``rename_width``
   decoded instructions, allocating physical registers, ROS/LSQ entries
   and branch checkpoints, and invoking the release policy's rename hooks
   (this is where early releases are scheduled and where register-shortage
   stalls happen);
5. :class:`FetchStage`     — fetch up to ``fetch_width`` instructions from
   the trace (or the wrong-path generator) into the front-end pipe.

The rename stage checks its hazards up front with the side-effect-free
probes :func:`dispatch_hazard` and :func:`may_avoid_allocation`.
"""

from __future__ import annotations

import abc
from typing import Optional

from repro.backend.ros import ROSEntry
from repro.engine.state import (
    STALL_CHECKPOINTS_FULL,
    STALL_LSQ_FULL,
    STALL_NO_FREE_FP,
    STALL_NO_FREE_INT,
    STALL_ROS_FULL,
    MachineState,
)
from repro.frontend.fetch import FetchedOp
from repro.isa import Instruction, OpClass, RegClass
from repro.rename.checkpoints import Checkpoint


class Stage(abc.ABC):
    """One pipeline stage; processes a single cycle of one machine."""

    #: short stage name (progress displays, tests).
    name: str = "stage"

    @abc.abstractmethod
    def tick(self, state: MachineState) -> None:
        """Process the current cycle of ``state``."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__}>"


# ======================================================================
# Rename hazard probes
# ======================================================================
def may_avoid_allocation(state: MachineState, dest_class: RegClass,
                         logical: int,
                         inst: Optional[Instruction] = None) -> bool:
    """Side-effect-free probe: could rename proceed without a free register?

    True when the release policy would either reuse the previous
    version or release it immediately (committed LU, no pending
    branches), so a stalled free list does not have to stall rename.

    When ``inst`` is given, an instruction that *reads its own
    destination register* (e.g. ``LOAD r11 <- [r11]``) is never treated
    as avoidable: recording its source uses at rename makes the
    instruction itself the last use of the previous version, so the
    policy cannot reuse or immediately release it and a fresh register
    must be allocated.  Probing the LUs table without this test would
    look at pre-rename state and wrongly wave the instruction through a
    dry free list (the seed-era ``allocate() on an empty free list``
    crash).
    """
    policy = state.policies[dest_class]
    lus_table = getattr(policy, "lus_table", None)
    if lus_table is None:
        return False
    if state.map_tables[dest_class].is_stale(logical):
        return False
    if inst is not None and any(reg_class is dest_class and source == logical
                                for reg_class, source in inst.srcs):
        return False
    lu = lus_table.lookup(logical)
    if lu is None:
        # Unknown LU: basic falls back to conventional, extended treats it
        # as committed; only the extended policy can proceed.
        return policy.name == "extended" and state.count_pending_branches() == 0
    if state.has_pending_branch_younger_than(lu.seq):
        return False
    if not state.is_committed(lu.seq):
        return False
    if policy.name == "extended" and state.count_pending_branches() > 0:
        return False
    return True


def dispatch_hazard(state: MachineState, inst: Instruction) -> Optional[str]:
    """Stall reason that would block renaming ``inst`` this cycle, or None.

    Pure probe: no counter updates; the rename stage books the returned
    reason as one dispatch stall.
    """
    ros = state.ros
    if len(ros.entries) >= ros.capacity:
        return STALL_ROS_FULL
    if inst.is_mem and state.lsq.is_full:
        return STALL_LSQ_FULL
    if inst.is_branch and state.checkpoints.is_full:
        return STALL_CHECKPOINTS_FULL
    dest = inst.dest
    if dest is not None:
        dest_class = dest[0]
        if not state.register_files[dest_class].can_allocate() and \
                not may_avoid_allocation(state, dest_class, dest[1], inst):
            return (STALL_NO_FREE_INT if dest_class is RegClass.INT
                    else STALL_NO_FREE_FP)
    return None


# ======================================================================
# Stage 1: commit
# ======================================================================
class CommitStage(Stage):
    """In-order retirement of completed ROS head entries.

    The retire set is the contiguous completed prefix at the ROS head
    (capped at ``commit_width``), truncated after the first excepting
    entry; the instruction count and last-commit cycle are booked once
    per batch.  The per-entry effects (release-policy hooks, IOMT
    updates, occupancy accounting, LSQ removal) walk the retired
    entries in order.
    """

    name = "commit"

    def tick(self, state: MachineState) -> None:
        ros = state.ros
        retire = ros.completed_prefix(state.config.commit_width)
        if not retire:
            return
        # An exception truncates the batch: the excepting entry commits
        # and then flushes the pipeline, so nothing younger retires.
        excepting_at = ros.exception_in_prefix(retire)
        if excepting_at >= 0:
            retire = excepting_at + 1
        cycle = state.cycle
        stats = state.stats
        by_class = stats.committed_by_class
        policies = state.policies.values()
        register_files = state.register_files
        iomts = state.iomts
        lsq = state.lsq
        memory = state.memory
        entry = None
        for entry in ros.retire_prefix(retire):
            op_name = entry.inst.op_name
            by_class[op_name] = by_class.get(op_name, 0) + 1

            # Architectural (in-order) map table update.  The watermark
            # must advance entry by entry: the release-policy hooks below
            # consult it for *this* instruction's LU committed tests.
            state.committed_watermark = entry.seq
            dest_class = entry.dest_class
            if dest_class is not None:
                iomts[dest_class].commit_mapping(entry.dest_logical, entry.pd)
            # Release-policy commit hooks (both register classes see every entry).
            for policy in policies:
                policy.on_commit(entry, cycle)

            # Occupancy accounting: this commit is (potentially) the last use
            # of each source register, and of the destination if never read.
            for reg_class, _logical, physical in entry.src_regs:
                register_files[reg_class].note_use_commit(physical, cycle)
            if dest_class is not None:
                register_files[dest_class].note_use_commit(entry.pd, cycle)

            # Memory operations leave the LSQ at commit; stores write the cache.
            inst = entry.inst
            if inst.is_mem:
                if inst.is_store:
                    memory.data_write(inst.mem_addr)
                lsq.remove(entry.seq)

        stats.committed_instructions += retire
        state.last_commit_cycle = cycle
        if excepting_at >= 0:
            stats.exceptions_taken += 1
            state.exception_flush(entry)


# ======================================================================
# Stage 2: writeback / branch resolution
# ======================================================================
class WritebackStage(Stage):
    """Completion-event drain: wakeups, load completion, branch resolution."""

    name = "writeback"

    def tick(self, state: MachineState) -> None:
        entries = state.completions.pop_due(state.cycle)
        if not entries:
            return
        cycle = state.cycle
        register_files = state.register_files
        consumers = state.consumers
        for entry in entries:
            # Liveness is re-tested per entry: a branch resolved earlier
            # in this very bucket may have squashed this one meanwhile.
            if entry.squashed:
                continue
            entry.completed = True
            if entry.dest_class is not None:
                register_files[entry.dest_class].mark_written(entry.pd, cycle)
            # Wake the consumers for which this was the last outstanding
            # producer: they become issue-ready right now.
            for consumer in consumers.wake(entry.seq):
                if not consumer.issued:
                    state.make_issue_ready(consumer)
            inst = entry.inst
            if inst.is_load:
                state.lsq.mark_done(entry.seq)
            if inst.is_branch:
                self._resolve_branch(state, entry)

    # ------------------------------------------------------------------
    def _resolve_branch(self, state: MachineState, entry: ROSEntry) -> None:
        taken = entry.inst.taken
        if entry.prediction is not None:
            state.predictor.resolve(entry.prediction, taken)
        if taken:
            state.btb.update(entry.inst.pc, entry.inst.target)
        if not entry.wrong_path:
            state.stats.branches_resolved += 1

        if entry.fetch_mispredicted:
            state.stats.branch_mispredictions += 1
            state.recover_from_misprediction(entry)
        else:
            state.checkpoints.confirm(entry.seq)
            for policy in state.policies.values():
                policy.on_branch_confirmed(entry.seq)


# ======================================================================
# Stage 3: issue / execute
# ======================================================================
class IssueStage(Stage):
    """Out-of-order selection from the age-ordered ready set.

    The per-cycle work is proportional to the instructions actually
    considered (issued plus structurally stalled), not to the ROS
    occupancy: entries waiting on producers or on older store addresses
    are not in the ready set at all.  A store issuing here drains its LSQ
    wait list, so a younger parked load can still issue *in the same
    cycle* — it re-enters the ready set with a higher sequence number
    than the store being processed and is popped later in this tick,
    exactly where the old oldest-first ROS scan would have met it.
    """

    name = "issue"

    def tick(self, state: MachineState) -> None:
        ready = state.ready
        if not ready:
            return
        issued = 0
        blocked: Optional[list] = None
        fus = state.fus
        cycle = state.cycle
        while issued < state.config.issue_width and ready:
            entry = ready.pop()
            inst = entry.inst
            latency = fus.try_issue(inst.op, cycle)
            if latency is None:
                # Still ready next cycle; re-armed below so the pop order
                # (and the stall accounting) matches the old full scan.
                fus.note_structural_stall()
                if blocked is None:
                    blocked = []
                blocked.append(entry)
                continue
            entry.issued = True
            entry.issue_cycle = cycle
            issued += 1

            if inst.is_mem:
                for load in state.lsq.mark_address_known(entry.seq):
                    state.make_issue_ready(load)
            if inst.is_load:
                if state.lsq.store_forwards_to(entry.seq, inst.mem_addr):
                    mem_latency = 1
                else:
                    mem_latency = state.memory.data_read(inst.mem_addr)
                complete_at = cycle + latency + mem_latency
            else:
                complete_at = cycle + latency
            state.completions.schedule(complete_at, entry)
        if blocked:
            for entry in blocked:
                ready.add(entry)


# ======================================================================
# Stage 4: rename / dispatch
# ======================================================================
class RenameStage(Stage):
    """In-order rename and dispatch of decoded instructions."""

    name = "rename"

    def tick(self, state: MachineState) -> None:
        decode_queue = state.decode_queue
        if not decode_queue:
            return
        renamed = 0
        width = state.config.rename_width
        cycle = state.cycle
        rename_one = self._rename_one
        while renamed < width and decode_queue:
            ready_cycle, op = decode_queue[0]
            if ready_cycle > cycle:
                break
            # Hazard probe up front: while register- or capacity-stalled
            # (every cycle, at tight configurations) the stage pays one
            # probe and one counter bump, nothing more.
            hazard = dispatch_hazard(state, op.inst)
            if hazard is not None:
                state.stats.dispatch_stalls[hazard] += 1
                break
            rename_one(state, op)
            decode_queue.popleft()
            renamed += 1

    # ------------------------------------------------------------------
    def _rename_one(self, state: MachineState, op: FetchedOp) -> None:
        """Rename a single instruction (the caller has cleared the hazards)."""
        inst = op.inst

        # The entry joins the ROS only after its own rename hooks have run
        # (the append below), so they do not see it in the window.
        entry = ROSEntry(state.seq, inst)
        state.seq += 1
        entry.resume_cursor = op.resume_cursor
        entry.prediction = op.prediction
        entry.predicted_taken = op.predicted_taken
        entry.fetch_mispredicted = op.mispredicted

        # ------------------------------------------------------- sources
        map_tables = state.map_tables
        register_files = state.register_files
        policies = state.policies
        srcs = inst.srcs
        if srcs:
            src_regs = entry.src_regs
            is_store = inst.is_store
            wait_producers = entry.wait_producers
            consumers = state.consumers
            for slot, (reg_class, logical) in enumerate(srcs):
                physical = map_tables[reg_class].lookup(logical)
                src_regs.append((reg_class, logical, physical))
                # Stores wait only for their *address* operands before
                # issuing (slot 0 is the value by trace convention): the
                # paper's rule is that loads wait for prior store
                # addresses, and the data is needed no earlier than
                # commit, which in-order retirement of the older producer
                # already guarantees.
                if not is_store or slot != 0:
                    producer = register_files[reg_class].producer_of(physical)
                    if producer is not None:
                        wait_producers.add(producer)
                        consumers.register(producer, entry)
                policies[reg_class].note_source_use(entry, slot, logical,
                                                    physical)

        # ------------------------------------------------------- destination
        if inst.dest is not None:
            dest_class, dest_logical = inst.dest
            policy = policies[dest_class]
            register_file = register_files[dest_class]
            old_pd = map_tables[dest_class].lookup(dest_logical)
            outcome = policy.rename_destination(entry, dest_logical, old_pd)
            if outcome.reuse_previous:
                pd = old_pd
                entry.allocated_new = False
                entry.reused = True
                register_file.set_producer(pd, entry.seq)
            else:
                pd = register_file.allocate(state.cycle, entry.seq)
                map_tables[dest_class].set_mapping(dest_logical, pd)
                entry.allocated_new = True
            entry.dest_class = dest_class
            entry.dest_logical = dest_logical
            entry.pd = pd
            entry.old_pd = old_pd
            entry.rel_old = outcome.release_previous_at_commit
            policy.note_dest_definition(entry, dest_logical)

        # ------------------------------------------------------- branches
        if inst.is_branch:
            checkpoint = Checkpoint(
                branch_seq=entry.seq,
                map_snapshots={rc: mt.snapshot()
                               for rc, mt in map_tables.items()},
                policy_snapshots={rc: p.snapshot_state()
                                  for rc, p in policies.items()},
            )
            state.checkpoints.push(checkpoint)
            for policy in policies.values():
                policy.on_branch_renamed(entry)

        # ------------------------------------------------------- memory ops
        if inst.is_mem:
            state.lsq.insert(entry.seq, inst.is_store, inst.mem_addr)

        # ------------------------------------------------------- exceptions
        # The lottery is one double of the raw-word contract
        # (repro.trace.draws): the top 53 bits of the next raw word, as
        # the compiled core's pcg_double draws it.
        rate = state.config.exception_rate
        if (rate > 0.0 and not entry.wrong_path
                and (state.exception_rng.bit_generator.random_raw() >> 11)
                * 2.0 ** -53 < rate):
            entry.exception = True

        state.ros.append(entry)
        state.stats.renamed_instructions += 1

        # Instructions with no execution dependencies and no FU requirement
        # (NOPs) complete immediately at the next writeback; everything
        # else either enters the ready set now or waits on its producers'
        # wakeup lists.
        if inst.op is OpClass.NOP:
            state.completions.schedule(state.cycle + 1, entry)
            entry.issued = True
        elif not entry.wait_producers:
            state.make_issue_ready(entry)


# ======================================================================
# Stage 5: fetch
# ======================================================================
class FetchStage(Stage):
    """Trace-driven fetch into the bounded front-end pipe."""

    name = "fetch"

    def tick(self, state: MachineState) -> None:
        if len(state.decode_queue) >= state.decode_capacity:
            return
        group = state.fetch_unit.fetch_cycle(state.cycle)
        ready = state.cycle + state.config.frontend_stages
        for op in group:
            state.decode_queue.append((ready, op))
        state.stats.fetched_instructions += len(group)
        state.stats.fetched_wrong_path += sum(1 for op in group if op.wrong_path)


#: The canonical stage ordering (reverse pipeline order; see module docstring).
def default_stages() -> list:
    """Fresh instances of the five stages in execution order."""
    return [CommitStage(), WritebackStage(), IssueStage(), RenameStage(),
            FetchStage()]
