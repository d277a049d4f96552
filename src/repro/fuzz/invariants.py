"""Engine-internal conservation invariants checked by the fuzzer.

The checks split into three tiers:

* **per-cycle** (cheap, every executed cycle): structural occupancy
  bounds — ROS, LSQ, checkpoint stack and Release-Queue depth can never
  exceed their configured capacities;
* **periodic** (every :data:`DEEP_CHECK_INTERVAL` cycles, and once at the
  end): free-list accounting — the free deque and the per-register free
  flags must agree, free + allocated must equal P, and every register the
  Release Queue still plans to release must currently be allocated (a
  scheduled release of a free register is the double-release family of
  seed-era ``FreeListError`` bugs, caught *before* the checked free list
  trips);
* **final** (after the run): statistic identities — fetched ≥ renamed-
  correct-path ≥ committed, committed equals the trace length,
  mispredictions ≤ resolved branches, early releases ≤ releases, and the
  allocation/release counters must reconcile exactly with the end-state
  free-list occupancy.

The probes attach to :class:`repro.engine.engine.SimulationEngine` via
its ``probe`` hook and therefore observe the Python engine; the compiled
backend is covered differentially by the backend-equivalence oracle
instead.
"""

from __future__ import annotations

from typing import List

from repro.isa import RegClass
from repro.pipeline.stats import SimStats

#: Cycle interval of the deep (free-list / Release-Queue) checks.
DEEP_CHECK_INTERVAL = 32


class InvariantViolation(AssertionError):
    """An engine-internal conservation law failed during a fuzz run."""


class InvariantProbe:
    """Per-cycle invariant checker attached to a ``SimulationEngine``.

    Instantiate one probe per run; it keeps the number of executed
    cycles so the deep checks run on a stride (plus once in
    :meth:`final_check`).
    """

    def __init__(self, deep_interval: int = DEEP_CHECK_INTERVAL) -> None:
        self.deep_interval = deep_interval
        self.cycles_probed = 0
        self.deep_checks = 0

    # ------------------------------------------------------------------
    def __call__(self, state) -> None:
        self.cycles_probed += 1
        cfg = state.config
        ros_count = len(state.ros)
        if not 0 <= ros_count <= cfg.ros_size:
            raise InvariantViolation(
                f"ROS occupancy {ros_count} outside [0, {cfg.ros_size}] "
                f"at cycle {state.cycle}")
        lsq_count = len(state.lsq)
        if not 0 <= lsq_count <= cfg.lsq_size:
            raise InvariantViolation(
                f"LSQ occupancy {lsq_count} outside [0, {cfg.lsq_size}] "
                f"at cycle {state.cycle}")
        if len(state.checkpoints) > cfg.max_pending_branches:
            raise InvariantViolation(
                f"checkpoint stack depth {len(state.checkpoints)} exceeds "
                f"max_pending_branches={cfg.max_pending_branches} "
                f"at cycle {state.cycle}")
        for policy in state.policies.values():
            queue = getattr(policy, "release_queue", None)
            if queue is not None and queue.depth > queue.capacity:
                raise InvariantViolation(
                    f"Release Queue depth {queue.depth} exceeds capacity "
                    f"{queue.capacity} at cycle {state.cycle}")
        if self.cycles_probed % self.deep_interval == 0:
            self.deep_check(state)

    # ------------------------------------------------------------------
    def deep_check(self, state) -> None:
        """Free-list accounting and Release-Queue liveness (slower)."""
        self.deep_checks += 1
        for reg_class, reg_file in state.register_files.items():
            free_list = reg_file.free_list
            flagged = sum(free_list._is_free)
            if flagged != len(free_list._free):
                raise InvariantViolation(
                    f"{reg_class.name} free-list deque ({len(free_list._free)} "
                    f"entries) disagrees with the free flags ({flagged} set) "
                    f"at cycle {state.cycle}")
            if free_list.n_free + free_list.n_allocated != reg_file.num_physical:
                raise InvariantViolation(
                    f"{reg_class.name} free + allocated != P "
                    f"at cycle {state.cycle}")
            policy = state.policies[reg_class]
            queue = getattr(policy, "release_queue", None)
            if queue is None:
                continue
            for level in queue.levels():
                for (physical, _logical) in level.rwns:
                    if free_list.is_free(physical):
                        raise InvariantViolation(
                            f"{reg_class.name} Release Queue holds an RwNS "
                            f"scheduling for p{physical}, which is already "
                            f"free, at cycle {state.cycle} (double-release "
                            f"in flight)")

    # ------------------------------------------------------------------
    def final_check(self, state, stats: SimStats) -> None:
        """End-of-run stat identities plus one last deep sweep."""
        self.deep_check(state)
        problems: List[str] = []
        trace_len = len(state.trace)
        if stats.committed_instructions != trace_len:
            problems.append(
                f"committed {stats.committed_instructions} != trace length "
                f"{trace_len}")
        if stats.fetched_instructions < stats.committed_instructions:
            problems.append(
                f"fetched {stats.fetched_instructions} < committed "
                f"{stats.committed_instructions}")
        if stats.renamed_instructions < stats.committed_instructions:
            problems.append(
                f"renamed {stats.renamed_instructions} < committed "
                f"{stats.committed_instructions}")
        if stats.branch_mispredictions > stats.branches_resolved:
            problems.append(
                f"mispredictions {stats.branch_mispredictions} > resolved "
                f"branches {stats.branches_resolved}")
        if stats.cycles <= 0:
            problems.append(f"cycles {stats.cycles} <= 0")
        for label, reg_file in (("int", state.register_files[RegClass.INT]),
                                ("fp", state.register_files[RegClass.FP])):
            if reg_file.early_releases > reg_file.releases:
                problems.append(
                    f"{label} early releases {reg_file.early_releases} > "
                    f"releases {reg_file.releases}")
            # Counter/structure reconciliation: the file starts with the
            # logical registers allocated, so
            #   L + allocations - releases == allocated-now.
            expected = (reg_file.num_logical + reg_file.allocations
                        - reg_file.releases)
            if expected != reg_file.n_allocated:
                problems.append(
                    f"{label} allocation ledger drift: L + alloc - release = "
                    f"{expected} but {reg_file.n_allocated} registers are "
                    f"allocated")
        if problems:
            raise InvariantViolation(
                "final stat identities violated: " + "; ".join(problems))
