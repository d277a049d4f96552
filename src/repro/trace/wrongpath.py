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

from collections import Counter
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.isa import Instruction, OpClass, RegClass
from repro.trace.draws import (RawCursor, ReplayUnsupported,
                               bounded_threshold, replay_supported,
                               vectorized_enabled)
from repro.trace.records import Trace


@dataclass
class WrongPathMix:
    """Operation mix used when synthesising wrong-path instructions.

    The fractions need not sum to one; the remainder is filled with integer
    ALU operations.
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
    """

    #: pre-drawn instructions per bulk refill of the vectorised path.
    BLOCK = 64

    def __init__(self, mix: WrongPathMix, seed: int = 0,
                 int_window: int = 10, fp_window: int = 16,
                 vectorized: Optional[bool] = None) -> None:
        self.mix = mix
        self._rng = np.random.default_rng(seed)
        self._int_regs = list(range(1, 1 + int_window))
        self._fp_regs = list(range(0, fp_window))
        self._int_cursor = 0
        self._fp_cursor = 0
        self._data_base = 0xF00000
        #: pc-agnostic pre-drawn payloads (the vectorised path); consumed
        #: in order across misprediction episodes — exactly as the scalar
        #: generator's RNG stream persists across recoveries — so no
        #: rewind is ever needed at recovery time.
        self._pending: List[tuple] = []
        self._pending_head = 0
        self._vectorized = vectorized_enabled(vectorized) and replay_supported()

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
        return self._data_base + int(self._rng.integers(0, 1 << 11)) * 8

    # ------------------------------------------------------------------
    def next_instruction(self, pc: int) -> Instruction:
        """Synthesise the wrong-path instruction at address ``pc``.

        The vectorised path materialises from a pc-agnostic pre-drawn
        payload (the RNG draws are the pc-independent part of an
        instruction; the actual pc — which depends on the front end's
        predicted-taken redirects — is stamped in here, at fetch time).
        Produces bit-identically the instructions of the scalar oracle.
        """
        if self._vectorized:
            if self._pending_head >= len(self._pending):
                if not self._refill():
                    return self._next_instruction_scalar(pc)
            payload = self._pending[self._pending_head]
            self._pending_head += 1
            kind = payload[0]
            if kind == "a":
                return Instruction(pc=pc, op=OpClass.INT_ALU,
                                   dest=(RegClass.INT, payload[1]),
                                   srcs=((RegClass.INT, payload[2]),),
                                   wrong_path=True)
            if kind == "b":
                return Instruction(pc=pc, op=OpClass.BRANCH,
                                   srcs=((RegClass.INT, payload[1]),),
                                   taken=payload[2],
                                   target=pc + payload[3] * 4,
                                   wrong_path=True)
            if kind == "li":
                return Instruction(pc=pc, op=OpClass.LOAD,
                                   dest=(RegClass.INT, payload[1]),
                                   srcs=((RegClass.INT, payload[2]),),
                                   mem_addr=payload[3], wrong_path=True)
            if kind == "lf":
                return Instruction(pc=pc, op=OpClass.FP_LOAD,
                                   dest=(RegClass.FP, payload[1]),
                                   srcs=((RegClass.INT, payload[2]),),
                                   mem_addr=payload[3], wrong_path=True)
            if kind == "s":
                return Instruction(pc=pc, op=OpClass.STORE,
                                   srcs=((RegClass.INT, payload[1]),
                                         (RegClass.INT, payload[2])),
                                   mem_addr=payload[3], wrong_path=True)
            # kind == "f"
            return Instruction(pc=pc, op=payload[1],
                               dest=(RegClass.FP, payload[2]),
                               srcs=((RegClass.FP, payload[3]),),
                               wrong_path=True)
        return self._next_instruction_scalar(pc)

    def _refill(self) -> bool:
        """Pre-draw :data:`BLOCK` instruction payloads in one bulk scan.

        Replays the scalar draw cascade (category, then the category's
        own draws) from one bulk raw block, then rewinds the overdraw, so
        the generator's RNG state after ``n`` consumed instructions is
        identical to ``n`` scalar calls.  Returns False (and disables the
        vectorised path) if the bit generator cannot be replayed.

        The compiled engine's ``wp_draw`` (``engine/accel/core.c``) ports
        this cascade draw for draw; a change here must be made there too.
        """
        block = self.BLOCK
        try:
            cursor = RawCursor(self._rng, 3 * block + 4)
        except ReplayUnsupported:
            self._vectorized = False
            return False
        mix = self.mix
        # The category cascade must replicate the scalar path's
        # subtract-then-compare sequence bit-for-bit (cumulative cuts are
        # not float-equivalent to repeated subtraction).
        mix_branch, mix_load, mix_store, mix_fp = (mix.branch, mix.load,
                                                   mix.store, mix.fp)
        fp_share = mix.fp_load_share
        has_fp = mix_fp > 0
        int_regs, fp_regs = self._int_regs, self._fp_regs
        n_int, n_fp = len(int_regs), len(fp_regs)
        int_cursor, fp_cursor = self._int_cursor, self._fp_cursor
        data_base = self._data_base
        threshold_248 = bounded_threshold(248)
        next_double = cursor.next_double
        next_bounded = cursor.next_bounded
        payloads: List[tuple] = []
        append = payloads.append
        try:
            for _ in range(block):
                draw = next_double()
                int_src = int_regs[int_cursor % n_int]
                if draw < mix_branch:
                    taken = next_double() < 0.5
                    delta = 8 + next_bounded(248, threshold_248)
                    append(("b", int_src, taken, delta))
                    continue
                draw -= mix_branch
                if draw < mix_load:
                    fp_draw = next_double()
                    addr = data_base + next_bounded(2048, 0) * 8
                    if fp_draw < fp_share and has_fp:
                        reg = fp_regs[fp_cursor % n_fp]
                        fp_cursor += 1
                        append(("lf", reg, int_src, addr))
                    else:
                        reg = int_regs[int_cursor % n_int]
                        int_cursor += 1
                        append(("li", reg, int_src, addr))
                    continue
                draw -= mix_load
                if draw < mix_store:
                    value = int_regs[int_cursor % n_int]
                    int_cursor += 1
                    # The scalar path evaluates ``srcs`` before
                    # ``mem_addr``, but neither the value register pick
                    # nor the address consult each other's state; the
                    # address source register is the *pre-advance* peek.
                    addr = data_base + next_bounded(2048, 0) * 8
                    append(("s", value, int_src, addr))
                    continue
                draw -= mix_store
                if draw < mix_fp:
                    op = (OpClass.FP_MULT if next_double() < 0.5
                          else OpClass.FP_ADD)
                    reg = fp_regs[fp_cursor % n_fp]
                    fp_cursor += 1
                    src = fp_regs[fp_cursor % n_fp]
                    append(("f", op, reg, src))
                    continue
                reg = int_regs[int_cursor % n_int]
                int_cursor += 1
                append(("a", reg, int_src))
        finally:
            cursor.finalize()
        self._int_cursor, self._fp_cursor = int_cursor, fp_cursor
        self._pending = payloads
        self._pending_head = 0
        return True

    def _next_instruction_scalar(self, pc: int) -> Instruction:
        """The scalar oracle (the original draw-per-field path)."""
        rng = self._rng
        draw = rng.random()
        mix = self.mix
        int_src = (RegClass.INT, self._int_regs[self._int_cursor % len(self._int_regs)])
        if draw < mix.branch:
            return Instruction(pc=pc, op=OpClass.BRANCH, srcs=(int_src,),
                               taken=bool(rng.random() < 0.5),
                               target=pc + int(rng.integers(8, 256)) * 4,
                               wrong_path=True)
        draw -= mix.branch
        if draw < mix.load:
            if rng.random() < mix.fp_load_share and mix.fp > 0:
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
            op = OpClass.FP_MULT if rng.random() < 0.5 else OpClass.FP_ADD
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
    def for_trace(trace: Trace, seed: int = 0) -> "WrongPathGenerator":
        """Build a generator whose mix mirrors ``trace``."""
        return WrongPathGenerator(WrongPathMix.from_trace(trace), seed=seed)
