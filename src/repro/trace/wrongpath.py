"""Wrong-path instruction synthesis.

SimpleScalar's ``sim-outorder`` is execution driven: after a branch
misprediction it keeps fetching and renaming the *actual* wrong-path
instructions until the branch resolves, and those instructions consume
physical registers, issue-queue slots and — for the paper's Section 4
mechanism — schedule conditional releases that must be squashed.

A trace-driven simulator only has the correct path, so this module
supplies a statistically similar stand-in: after the fetch unit follows a
mispredicted branch it draws instructions from a
:class:`WrongPathGenerator` seeded with the benchmark's instruction mix
until the branch resolves.  The injected instructions exercise the exact
same rename / conditional-release / squash machinery (see DESIGN.md,
"Reproduction substitutions").
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass
from typing import List

import numpy as np

from repro.isa import Instruction, OpClass, RegClass
from repro.trace.draws import RawDraws, bounded_threshold
from repro.trace.records import Trace

#: Span and Lemire threshold of a wrong-path branch's target delta
#: (8..255 instructions ahead).
_DELTA_SPAN = 248
_DELTA_THRESHOLD = bounded_threshold(_DELTA_SPAN)


@dataclass(frozen=True)
class WrongPathMix:
    """Operation mix used when synthesising wrong-path instructions.

    The fractions need not sum to one; the remainder is filled with integer
    ALU operations.  Frozen: one mix is shared by every generator built
    for the same trace (:meth:`WrongPathGenerator.for_trace`).
    """

    load: float = 0.22
    store: float = 0.10
    branch: float = 0.12
    fp: float = 0.0
    fp_load_share: float = 0.4

    @staticmethod
    def from_trace(trace: Trace) -> "WrongPathMix":
        """Derive a mix from the correct-path trace's op counts.

        The fractions equal those of :meth:`Trace.summary` bit for bit,
        without its def-use walk: the ops are counted per row of the
        trace's row table (``np.bincount`` over the row ids), so no
        instruction is materialised.
        """
        n = len(trace)
        if n == 0:
            return WrongPathMix(load=0.0, store=0.0, branch=0.0, fp=0.0)
        columns = trace.columns
        per_row = np.bincount(columns.rows, minlength=len(columns.records))
        counts: Counter = Counter()
        for (op, *_), count in zip(columns.records, per_row.tolist(),
                                   strict=True):
            counts[op] += count
        return WrongPathMix(
            load=(counts[OpClass.LOAD] + counts[OpClass.FP_LOAD]) / n,
            store=(counts[OpClass.STORE] + counts[OpClass.FP_STORE]) / n,
            branch=counts[OpClass.BRANCH] / n,
            fp=sum(counts[op] / n for op in (OpClass.FP_ADD, OpClass.FP_MULT,
                                             OpClass.FP_DIV)),
        )


class WrongPathGenerator:
    """Generates synthetic instructions for the wrong path of a misprediction.

    Wrong-path control flow is simplified in one respect: wrong-path
    branches always resolve the way they were predicted, so they never
    trigger *nested* recoveries (the fetch unit enforces this by stamping
    the predicted outcome into the injected record).  They still allocate
    rename checkpoints and Release Queue levels, which is the resource
    pressure that matters for the mechanisms under study.

    Every value is drawn by the contract of :mod:`repro.trace.draws`
    from the raw words of a PCG64 seeded with ``seed``; ``draws`` holds
    that bit generator and the pending 32-bit half, which is where the
    compiled core continues the stream from.
    """

    def __init__(self, mix: WrongPathMix, seed: int = 0,
                 int_window: int = 10, fp_window: int = 16) -> None:
        self.mix = mix
        self.draws = RawDraws(np.random.PCG64(seed))
        self._int_regs = list(range(1, 1 + int_window))
        self._fp_regs = list(range(0, fp_window))
        self._int_cursor = 0
        self._fp_cursor = 0
        self._data_base = 0xF00000

    # ------------------------------------------------------------------
    def _next_int_reg(self) -> int:
        reg = self._int_regs[self._int_cursor % len(self._int_regs)]
        self._int_cursor += 1
        return reg

    def _next_fp_reg(self) -> int:
        reg = self._fp_regs[self._fp_cursor % len(self._fp_regs)]
        self._fp_cursor += 1
        return reg

    def _random_addr(self) -> int:
        return self._data_base + self.draws.next_bounded(1 << 11) * 8

    # ------------------------------------------------------------------
    def next_instruction(self, pc: int) -> Instruction:
        """Synthesise the wrong-path instruction at address ``pc``.

        One category draw, then the category's own draws; the stream
        persists across misprediction episodes.  The compiled engine's
        ``wp_draw`` (``engine/accel/core.c``) ports this cascade draw for
        draw; a change here must be made there too.
        """
        draws = self.draws
        draw = draws.next_double()
        mix = self.mix
        int_src = (RegClass.INT, self._int_regs[self._int_cursor % len(self._int_regs)])
        if draw < mix.branch:
            return Instruction(pc=pc, op=OpClass.BRANCH, srcs=(int_src,),
                               taken=draws.next_double() < 0.5,
                               target=pc + (8 + draws.next_bounded(
                                   _DELTA_SPAN, _DELTA_THRESHOLD)) * 4,
                               wrong_path=True)
        draw -= mix.branch
        if draw < mix.load:
            if draws.next_double() < mix.fp_load_share and mix.fp > 0:
                return Instruction(pc=pc, op=OpClass.FP_LOAD,
                                   dest=(RegClass.FP, self._next_fp_reg()),
                                   srcs=(int_src,), mem_addr=self._random_addr(),
                                   wrong_path=True)
            return Instruction(pc=pc, op=OpClass.LOAD,
                               dest=(RegClass.INT, self._next_int_reg()),
                               srcs=(int_src,), mem_addr=self._random_addr(),
                               wrong_path=True)
        draw -= mix.load
        if draw < mix.store:
            value_src = (RegClass.INT, self._next_int_reg())
            return Instruction(pc=pc, op=OpClass.STORE,
                               srcs=(value_src, int_src),
                               mem_addr=self._random_addr(), wrong_path=True)
        draw -= mix.store
        if draw < mix.fp:
            op = OpClass.FP_MULT if draws.next_double() < 0.5 else OpClass.FP_ADD
            return Instruction(pc=pc, op=op,
                               dest=(RegClass.FP, self._next_fp_reg()),
                               srcs=((RegClass.FP, self._fp_regs[self._fp_cursor % len(self._fp_regs)]),),
                               wrong_path=True)
        return Instruction(pc=pc, op=OpClass.INT_ALU,
                           dest=(RegClass.INT, self._next_int_reg()),
                           srcs=(int_src,), wrong_path=True)

    def next_instructions(self, pc: int, count: int) -> List[Instruction]:
        """Synthesise ``count`` consecutive wrong-path instructions from ``pc``."""
        out: List[Instruction] = []
        for i in range(count):
            out.append(self.next_instruction(pc + 4 * i))
        return out

    @staticmethod
    def for_trace(trace: Trace, seed: int = 0, *,
                  shared: bool = False) -> "WrongPathGenerator":
        """Build a generator whose mix mirrors ``trace``.

        The mix is derived once per trace and memoised on the trace
        itself, so a sweep's points share one count and the memo dies
        with the trace.  ``shared=True`` returns one pristine generator
        per mix and seed, for a caller that reads its state and never
        draws from it (seeding a PCG64 costs about 10 us).
        """
        if trace.wrongpath_mix is None:
            trace.wrongpath_mix = WrongPathMix.from_trace(trace)
        build = _shared_generator if shared else WrongPathGenerator
        return build(trace.wrongpath_mix, seed=seed)


#: One pristine generator per (mix, seed): see ``for_trace(shared=True)``.
_shared_generator = functools.lru_cache(maxsize=256)(WrongPathGenerator)
