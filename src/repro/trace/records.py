"""Trace containers and summary statistics.

A :class:`Trace` is an ordered sequence of
:class:`~repro.isa.instructions.Instruction` records together with the
metadata the experiment harness needs (benchmark name, which register file
the paper's figures measure for this program, the generator seed).  The
:class:`TraceSummary` gives the aggregate properties that the workload
calibration tests assert on (instruction mix, branch density, register
working sets).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Sequence

from repro.isa import Instruction, OpClass, RegClass


@dataclass(frozen=True)
class TraceSummary:
    """Aggregate statistics of a dynamic trace.

    Attributes
    ----------
    length:
        Number of dynamic instructions.
    mix:
        Fraction of instructions per :class:`OpClass` name.
    branch_fraction:
        Fraction of instructions that are branches.
    load_fraction / store_fraction:
        Fractions of loads and stores.
    int_regs_written / fp_regs_written:
        Number of distinct logical registers of each class that appear as a
        destination anywhere in the trace (the "register working set").
    avg_def_use_distance:
        Mean distance, in dynamic instructions, between an instruction that
        defines a logical register and the *last* read of that definition
        before its next redefinition.  This is the quantity that drives
        Idle time (Figure 3 of the paper).
    avg_def_redefine_distance:
        Mean distance between a definition of a logical register and its
        next redefinition (the conventional-release lifetime).
    """

    length: int
    mix: Dict[str, float]
    branch_fraction: float
    load_fraction: float
    store_fraction: float
    int_regs_written: int
    fp_regs_written: int
    avg_def_use_distance: float
    avg_def_redefine_distance: float


@dataclass
class Trace:
    """A dynamic instruction trace for one synthetic benchmark.

    Attributes
    ----------
    name:
        Benchmark name ("swim", "gcc", ...).
    focus_class:
        The register class whose file the paper measures for this program:
        integer programs report the integer file, FP programs the FP file
        (Section 2: "We consider only integer registers for integer
        programs and FP registers for FP programs").
    instructions:
        The dynamic instruction sequence.
    seed:
        RNG seed used to generate the trace (for reproducibility).
    """

    name: str
    focus_class: RegClass
    instructions: List[Instruction]
    seed: int = 0
    #: memoised :meth:`summary` result (traces are cached and shared
    #: across whole sweeps).
    _summary: object = field(default=None, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __getitem__(self, index: int) -> Instruction:
        return self.instructions[index]

    # ------------------------------------------------------------------
    def summary(self) -> TraceSummary:
        """Aggregate statistics used by calibration tests and reports.

        Computed once per trace and memoised: the instruction list is
        treated as immutable after construction.
        """
        if self._summary is None:
            self._summary = self._compute_summary()
        return self._summary

    def _compute_summary(self) -> TraceSummary:
        instructions = self.instructions
        n = len(instructions)
        if n == 0:
            return TraceSummary(
                length=0, mix={}, branch_fraction=0.0, load_fraction=0.0,
                store_fraction=0.0, int_regs_written=0, fp_regs_written=0,
                avg_def_use_distance=0.0, avg_def_redefine_distance=0.0,
            )

        counts: Counter = Counter(inst.op for inst in instructions)
        mix = {op.name: counts.get(op, 0) / n for op in OpClass if counts.get(op, 0)}
        branches = sum(1 for inst in instructions if inst.is_branch)
        loads = sum(1 for inst in instructions if inst.is_load)
        stores = sum(1 for inst in instructions if inst.is_store)

        int_written = set()
        fp_written = set()
        # Per logical register: position of the current definition and of the
        # latest read of that definition.
        last_def: Dict[tuple, int] = {}
        last_read: Dict[tuple, int] = {}
        use_distances: List[int] = []
        redefine_distances: List[int] = []

        for pos, inst in enumerate(instructions):
            for src in inst.srcs:
                if src in last_def:
                    last_read[src] = pos
            if inst.dest is not None:
                reg = inst.dest
                if reg[0] is RegClass.INT or reg[0] == RegClass.INT:
                    int_written.add(reg[1])
                else:
                    fp_written.add(reg[1])
                if reg in last_def:
                    def_pos = last_def[reg]
                    redefine_distances.append(pos - def_pos)
                    use_pos = last_read.get(reg, def_pos)
                    if use_pos >= def_pos:
                        use_distances.append(use_pos - def_pos)
                last_def[reg] = pos
                last_read.pop(reg, None)

        avg_use = sum(use_distances) / len(use_distances) if use_distances else 0.0
        avg_redef = (
            sum(redefine_distances) / len(redefine_distances)
            if redefine_distances
            else 0.0
        )
        return TraceSummary(
            length=n,
            mix=mix,
            branch_fraction=branches / n,
            load_fraction=loads / n,
            store_fraction=stores / n,
            int_regs_written=len(int_written),
            fp_regs_written=len(fp_written),
            avg_def_use_distance=avg_use,
            avg_def_redefine_distance=avg_redef,
        )

    # ------------------------------------------------------------------
    def truncated(self, max_instructions: int) -> "Trace":
        """Return a copy limited to the first ``max_instructions`` records."""
        if max_instructions >= len(self.instructions):
            return self
        return Trace(
            name=self.name,
            focus_class=self.focus_class,
            instructions=self.instructions[:max_instructions],
            seed=self.seed,
        )

    @staticmethod
    def concatenate(name: str, focus_class: RegClass,
                    pieces: Sequence[Sequence[Instruction]], seed: int = 0) -> "Trace":
        """Build a trace by concatenating instruction sequences in order."""
        instructions: List[Instruction] = []
        for piece in pieces:
            instructions.extend(piece)
        return Trace(name=name, focus_class=focus_class,
                     instructions=instructions, seed=seed)
