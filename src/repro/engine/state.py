"""Shared machine state operated on by the pipeline stages.

:class:`MachineState` owns every structure of the simulated processor —
front end, rename substrate, back end, the scheduler indexes of
:mod:`repro.engine.events` (ready set, wakeup index, completion queue)
and the statistics — and implements the
:class:`repro.core.release_policy.PipelineView` protocol the release
policies query.  The stages in :mod:`repro.engine.stages` are stateless
and mutate one ``MachineState``; the clocks in :mod:`repro.engine.clock`
advance :attr:`MachineState.cycle`.

The scheduler indexes are maintained *incrementally*: rename either
inserts an instruction into :attr:`ready` (operands available) or
registers it on its producers' wakeup lists; writeback promotes exactly
the consumers whose last producer completed; squash recovery filters the
indexes by the squashed window.  :meth:`make_issue_ready` is the single
funnel through which an instruction enters the ready set, so the
"park blocked loads on their first unknown-address store" rule lives in
one place.

Cross-stage state transitions (misprediction recovery, precise-exception
flush, squash undo) live here because more than one stage triggers them.

A machine built with ``warmup=True`` warms itself at construction
(:meth:`MachineState._warm_state`).  A compiled run from reset builds no
machine at all: the core starts cold from the trace and the config and
replays the same warm-up segment (:func:`build_warmup_trace`) itself.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.backend.functional_units import FunctionalUnitPool
from repro.backend.lsq import LoadStoreQueue
from repro.backend.ros import ROSEntry, ReorderStructure
from repro.core import make_release_policy
from repro.engine.events import CompletionQueue, ReadySet, WakeupIndex
from repro.core.release_policy import PolicyOptions, ReleasePolicy
from repro.frontend.btb import BranchTargetBuffer
from repro.frontend.fetch import FetchedOp, FetchUnit
from repro.frontend.gshare import GsharePredictor
from repro.isa import OpClass, RegClass
from repro.memory.hierarchy import MemoryHierarchy
from repro.pipeline.config import ProcessorConfig
from repro.pipeline.stats import RegisterFileStats, SimStats
from repro.rename.checkpoints import CheckpointStack
from repro.rename.iomt import InOrderMapTable
from repro.rename.map_table import MapTable
from repro.rename.register_file import PhysicalRegisterFile
from repro.trace.records import Trace
from repro.trace.wrongpath import WrongPathGenerator

#: Dispatch stall reason labels used in :attr:`SimStats.dispatch_stalls`.
STALL_ROS_FULL = "ros_full"
STALL_LSQ_FULL = "lsq_full"
STALL_CHECKPOINTS_FULL = "checkpoints_full"
STALL_NO_FREE_INT = "no_free_int_register"
STALL_NO_FREE_FP = "no_free_fp_register"


def build_warmup_trace(trace: Trace) -> Trace:
    """The instruction sequence that warms a machine for ``trace``.

    A segment of the same benchmark under a different seed (see
    :meth:`MachineState._warm_state`); a trace outside the workload
    registry (hand-built test traces) warms on itself.  The compiled
    core replays the same segment on a cold start.
    """
    from repro.trace.workloads import get_workload, has_workload

    if not has_workload(trace.name):
        return trace
    length = min(len(trace), 20_000)
    # get_workload caches, so repeated simulations of the same benchmark
    # (different policies / register sizes) reuse the warm-up segment.
    return get_workload(trace.name, length, seed=trace.seed + 7919)


def wrongpath_generator(trace: Trace,
                        cfg: ProcessorConfig) -> Optional[WrongPathGenerator]:
    """The run's wrong-path generator (None when the wrong path is off).

    The one place a run seeds its wrong-path stream: both engines call
    it, so their streams cannot drift apart.
    """
    if not cfg.enable_wrong_path:
        return None
    return WrongPathGenerator.for_trace(trace, seed=cfg.seed)


def exception_rng(cfg: ProcessorConfig) -> np.random.Generator:
    """The run's exception-lottery RNG, seeded for both engines alike."""
    return np.random.default_rng(cfg.seed + 0xE)


class MachineState:
    """All mutable state of one simulated processor (paper Table 2)."""

    def __init__(self, trace: Trace, config: Optional[ProcessorConfig] = None) -> None:
        self.trace = trace
        self.config = config or ProcessorConfig()
        cfg = self.config

        # ------------------------------------------------------------ memory & front end
        self.memory = MemoryHierarchy(cfg.memory)
        self.predictor = GsharePredictor(history_bits=cfg.gshare_history_bits)
        self.btb = BranchTargetBuffer(entries=cfg.btb_entries,
                                      associativity=cfg.btb_associativity)
        self.fetch_unit = FetchUnit(
            trace, self.predictor, self.btb, self.memory,
            wrongpath_generator(trace, cfg),
            fetch_width=cfg.fetch_width,
            max_taken_per_cycle=cfg.max_taken_branches_per_cycle)

        # ------------------------------------------------------------ rename substrate
        self.register_files: Dict[RegClass, PhysicalRegisterFile] = {
            RegClass.INT: PhysicalRegisterFile(RegClass.INT, cfg.num_physical_int,
                                               cfg.num_logical_int),
            RegClass.FP: PhysicalRegisterFile(RegClass.FP, cfg.num_physical_fp,
                                              cfg.num_logical_fp),
        }
        self.map_tables: Dict[RegClass, MapTable] = {
            rc: MapTable(rf.num_logical, range(rf.num_logical))
            for rc, rf in self.register_files.items()
        }
        self.iomts: Dict[RegClass, InOrderMapTable] = {
            rc: InOrderMapTable(rf.num_logical, range(rf.num_logical))
            for rc, rf in self.register_files.items()
        }
        self.checkpoints = CheckpointStack(capacity=cfg.max_pending_branches)

        options = PolicyOptions(reuse_on_committed_lu=cfg.reuse_on_committed_lu)
        # The extended policy's Release Queue is as deep as the checkpoint
        # stack: one level per unresolved branch, so the config's
        # max_pending_branches bounds both (a level can never overflow
        # before the checkpoint hazard stalls rename).
        policy_kwargs = ({"release_queue_capacity": cfg.max_pending_branches}
                         if cfg.release_policy == "extended" else {})
        self.policies: Dict[RegClass, ReleasePolicy] = {
            rc: make_release_policy(cfg.release_policy, rc, self.register_files[rc],
                                    self.map_tables[rc], self.iomts[rc], self,
                                    options=options, **policy_kwargs)
            for rc in (RegClass.INT, RegClass.FP)
        }
        #: the same two policies as a tuple: the per-commit/per-rename hooks
        #: iterate this instead of rebuilding a dict values view each entry.
        self.policy_list: Tuple[ReleasePolicy, ...] = tuple(self.policies.values())

        # ------------------------------------------------------------ back end
        self.ros = ReorderStructure(capacity=cfg.ros_size)
        self.lsq = LoadStoreQueue(capacity=cfg.lsq_size)
        self.fus = FunctionalUnitPool(cfg.functional_units)

        # ------------------------------------------------------------ pipeline state
        self.cycle = 0
        self.seq = 0
        self.committed_watermark = -1
        #: front-end pipe: (cycle the op becomes available to rename, op).
        self.decode_queue: Deque[Tuple[int, FetchedOp]] = deque()
        #: front-end pipe bound: fetch-to-rename latency at full width plus
        #: two groups of slack (config-derived constant, read every cycle).
        self.decode_capacity = (cfg.frontend_stages + 2) * cfg.fetch_width
        #: completion events, indexed by cycle (next-writeback in O(1)).
        self.completions = CompletionQueue()
        #: producer -> consumer wakeup lists.
        self.consumers = WakeupIndex()
        #: age-ordered queue of issue-ready instructions.
        self.ready = ReadySet()
        self.exception_rng = exception_rng(cfg)

        # ------------------------------------------------------------ rename fast-path hooks
        #: True when the exception lottery must be drawn at all.
        self.exception_enabled = cfg.exception_rate > 0.0
        #: per class: the policy's source-use / dest-definition hooks, or
        #: None when the policy inherits the base no-op (conventional
        #: release) — the rename loop then skips the call entirely.
        base = ReleasePolicy
        self.source_use_hooks = {
            rc: (p.note_source_use
                 if type(p).note_source_use is not base.note_source_use else None)
            for rc, p in self.policies.items()
        }
        self.dest_def_hooks = {
            rc: (p.note_dest_definition
                 if type(p).note_dest_definition is not base.note_dest_definition
                 else None)
            for rc, p in self.policies.items()
        }
        #: per class: direct views of the map-table mapping list and the
        #: register file's producer list (identity-stable; see
        #: :meth:`repro.rename.map_table.MapTable.restore`).
        self.map_lists = {rc: mt._map for rc, mt in self.map_tables.items()}
        self.producer_lists = {rc: rf._producer
                               for rc, rf in self.register_files.items()}
        #: per class: the occupancy tracker's last-use-commit array and the
        #: IOMT mapping list, written directly by the (per-instruction)
        #: commit loop.
        self.last_use_lists = {rc: rf._occ_last_use
                               for rc, rf in self.register_files.items()}
        self.iomt_lists = {rc: iomt._map for rc, iomt in self.iomts.items()}
        #: per class: the free list's deque (truthiness == can_allocate)
        #: for the dispatch-hazard probe, which runs once per rename
        #: attempt — every cycle while register-stalled.
        self.free_deques = {rc: rf.free_list._free
                           for rc, rf in self.register_files.items()}

        # ------------------------------------------------------------ statistics
        self.stats = SimStats(benchmark=trace.name, release_policy=cfg.release_policy)
        self.stats.dispatch_stalls = {
            STALL_ROS_FULL: 0, STALL_LSQ_FULL: 0, STALL_CHECKPOINTS_FULL: 0,
            STALL_NO_FREE_INT: 0, STALL_NO_FREE_FP: 0,
        }
        self.last_commit_cycle = 0

        if cfg.warmup:
            self._warm_state()

    # ------------------------------------------------------------------
    @property
    def finished(self) -> bool:
        """True when every fetched instruction has drained from the pipeline."""
        return (self.fetch_unit.trace_exhausted and not self.decode_queue
                and self.ros.is_empty)

    # ------------------------------------------------------------------
    def _warm_state(self) -> None:
        """Bring caches, BTB and branch predictor to steady state.

        The paper measures multi-hundred-million-instruction runs, so its
        structures are warm for essentially the whole measurement.  The
        scaled-down traces used here would otherwise be dominated by cold
        misses and predictor training; one functional pass (no timing) over
        a *different* segment of the same benchmark removes that artefact.

        The warm-up segment is generated from the same benchmark profile
        with a different seed, so the predictor learns the benchmark's
        static branch sites and statistical behaviour but cannot memorise
        the exact dynamic outcome sequence it will be measured on.  When the
        trace does not come from the workload registry (hand-built test
        traces), the trace itself is used.  Statistics are reset afterwards
        so reported rates cover only the measured run.
        """
        warmup_trace = build_warmup_trace(self.trace)
        memory = self.memory
        instruction_access = memory.instruction_access
        data_write = memory.data_write
        data_read = memory.data_read
        predict = self.predictor.predict
        resolve = self.predictor.resolve
        btb_update = self.btb.update
        for inst in warmup_trace:
            instruction_access(inst.pc)
            if inst.is_mem:
                if inst.is_store:
                    data_write(inst.mem_addr)
                else:
                    data_read(inst.mem_addr)
            if inst.is_branch:
                record = predict(inst.pc)
                resolve(record, inst.taken)
                if inst.taken:
                    btb_update(inst.pc, inst.target)
        memory.reset_statistics()
        self.btb.reset_statistics()
        self.predictor.reset_statistics()

    # ==================================================================
    # PipelineView protocol (used by the release policies)
    # ==================================================================
    def is_committed(self, seq: int) -> bool:
        """In-order commit watermark test (the paper's LUs Table C bit)."""
        return seq <= self.committed_watermark

    def has_pending_branch_younger_than(self, seq: int) -> bool:
        """True when an unresolved branch younger than ``seq`` is in flight."""
        return self.checkpoints.has_pending_younger_than(seq)

    def count_pending_branches(self) -> int:
        """Number of unresolved branches (Release Queue TAIL level)."""
        return self.checkpoints.count_pending()

    def ros_entry(self, seq: int) -> Optional[ROSEntry]:
        """In-flight ROS entry with sequence number ``seq``."""
        return self.ros.find(seq)

    def current_cycle(self) -> int:
        """Current simulation cycle."""
        return self.cycle

    # ==================================================================
    # Scheduler index maintenance
    # ==================================================================
    def make_issue_ready(self, entry: ROSEntry) -> None:
        """All source operands of ``entry`` are available: queue it for issue.

        Loads additionally obey the paper's memory-ordering rule ("loads
        are executed when all previous store addresses are known"): a load
        with an older unknown-address store parks on that store's LSQ wait
        list instead, and re-enters here when the store issues.
        """
        if entry.inst.is_load and self.lsq.park_blocked_load(entry.seq, entry):
            return
        self.ready.add(entry)

    # ==================================================================
    # Cross-stage state transitions
    # ==================================================================
    def exception_flush(self, excepting: ROSEntry) -> None:
        """Precise-exception recovery: flush, rebuild the map from the IOMT."""
        squashed = self.ros.squash_all()
        self.undo_squashed(squashed)
        self.lsq.clear()
        self.checkpoints.clear()
        for reg_class, map_table in self.map_tables.items():
            map_table.restore_architectural(self.iomts[reg_class].snapshot())
        for policy in self.policies.values():
            policy.on_exception_flush(self.cycle)
        self.decode_queue.clear()
        if excepting.resume_cursor >= 0:
            self.fetch_unit.recover(excepting.resume_cursor)

    def recover_from_misprediction(self, branch: ROSEntry) -> None:
        """Squash younger instructions and restore checkpointed state."""
        # Early releases scheduled *on the branch itself* were scheduled by
        # next-version instructions younger than the branch (a last use is
        # always older than its redefinition) — all of them are squashed
        # below, so every bit must be dropped with them.  Leaving a bit set
        # would release a register the restored map table still names.
        branch.early_release_mask = 0
        squashed = self.ros.squash_younger_than(branch.seq)
        self.undo_squashed(squashed)
        self.lsq.squash_younger_than(branch.seq)

        # Conditional releases scheduled by the squashed path disappear.
        for policy in self.policies.values():
            policy.on_branch_mispredicted(branch.seq)

        checkpoint = self.checkpoints.mispredict(branch.seq)
        if checkpoint is not None:
            for reg_class, snapshot in checkpoint.map_snapshots.items():
                self.map_tables[reg_class].restore(snapshot)
            for reg_class, snapshot in checkpoint.policy_snapshots.items():
                self.policies[reg_class].restore_state(snapshot)

        self.decode_queue.clear()
        if branch.resume_cursor >= 0:
            self.fetch_unit.recover(branch.resume_cursor)

    def undo_squashed(self, squashed: List[ROSEntry]) -> None:
        """Free resources of squashed entries (called youngest first).

        The entries arrive already flagged ``squashed`` by the ROS.
        Destination registers allocated by the squashed window are
        gathered per register class and returned through the checked free
        list in one bulk call, preserving the youngest-first release order
        within each class.
        """
        cycle = self.cycle
        self.stats.squashed_instructions += len(squashed)
        freed: Dict[RegClass, List[int]] = {RegClass.INT: [], RegClass.FP: []}
        register_files = self.register_files
        policy_list = self.policy_list
        consumers = self.consumers
        ready = self.ready
        for entry in squashed:
            if entry.dest_class is not None:
                if entry.allocated_new:
                    freed[entry.dest_class].append(entry.pd)
                elif entry.reused:
                    # The reused register's value is still the committed one.
                    register_files[entry.dest_class].set_producer(entry.pd, None)
            for policy in policy_list:
                policy.on_squash(entry, cycle)
            consumers.drop(entry.seq)
            ready.discard(entry.seq)
        for reg_class, regs in freed.items():
            if regs:
                register_files[reg_class].release_many(regs, cycle)

    # ==================================================================
    # Statistics collection
    # ==================================================================
    def collect_stats(self) -> SimStats:
        """Close the books and return the aggregate :class:`SimStats`."""
        stats = self.stats
        stats.cycles = self.cycle
        stats.btb_hit_rate = self.btb.hit_rate
        stats.l1i_miss_rate = self.memory.l1i.miss_rate
        stats.l1d_miss_rate = self.memory.l1d.miss_rate
        stats.l2_miss_rate = self.memory.l2.miss_rate
        stats.forwarded_loads = self.lsq.forwarded_loads
        stats.structural_stalls = self.fus.structural_stalls
        # The commit stage counts classes in first-commit order; list
        # them in OpClass order, as the compiled core does.
        by_class = stats.committed_by_class
        stats.committed_by_class = {op.name: by_class[op.name]
                                    for op in OpClass if op.name in by_class}

        for reg_class, label in ((RegClass.INT, "int"), (RegClass.FP, "fp")):
            register_file = self.register_files[reg_class]
            policy = self.policies[reg_class]
            totals = register_file.finalize_occupancy(self.cycle)
            file_stats = RegisterFileStats(
                num_physical=register_file.num_physical,
                allocations=register_file.allocations,
                releases=register_file.releases,
                early_releases=register_file.early_releases,
                register_reuses=policy.register_reuses,
                immediate_releases=policy.immediate_releases,
                scheduled_early_releases=policy.early_releases_scheduled,
                conventional_releases=policy.conventional_releases,
                conditional_schedulings=getattr(policy, "conditional_schedulings", 0),
                occupancy=totals.averages(),
            )
            if label == "int":
                stats.int_registers = file_stats
            else:
                stats.fp_registers = file_stats
        return stats
