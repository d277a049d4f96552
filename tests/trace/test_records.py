"""Tests for trace containers and summary statistics."""

from collections import Counter

import pytest

from repro.isa import InstructionBuilder, OpClass, RegClass
from repro.trace.records import Trace, TraceSummary
from repro.trace.workloads import SCENARIOS, WORKLOADS, get_workload


def build_trace():
    builder = InstructionBuilder()
    builder.alu(dest=1, srcs=(2,))
    builder.load(dest=2, addr_reg=1, mem_addr=0x100)
    builder.alu(dest=3, srcs=(1, 2))
    builder.store(value_reg=3, addr_reg=1, mem_addr=0x108)
    builder.branch(taken=True, target=0x1000, srcs=(3,))
    builder.alu(dest=1, srcs=(3,))
    builder.alu(dest=0, srcs=(), fp=True)
    return Trace(name="unit", focus_class=RegClass.INT,
                 instructions=builder.trace())


class TestTraceContainer:
    def test_len_iter_getitem(self):
        trace = build_trace()
        assert len(trace) == 7
        assert trace[0].op is OpClass.INT_ALU
        assert sum(1 for _ in trace) == 7

    def test_truncated(self):
        trace = build_trace()
        short = trace.truncated(3)
        assert len(short) == 3
        assert short.name == trace.name
        # Truncating beyond the length returns the same object.
        assert trace.truncated(100) is trace

    def test_concatenate(self):
        trace = build_trace()
        combined = Trace.concatenate("combo", RegClass.FP,
                                     [trace.instructions, trace.instructions])
        assert len(combined) == 14
        assert combined.focus_class is RegClass.FP


class TestSummary:
    def test_basic_fractions(self):
        summary = build_trace().summary()
        assert summary.length == 7
        assert summary.branch_fraction == pytest.approx(1 / 7)
        assert summary.load_fraction == pytest.approx(1 / 7)
        assert summary.store_fraction == pytest.approx(1 / 7)

    def test_register_working_sets(self):
        summary = build_trace().summary()
        assert summary.int_regs_written == 3      # r1, r2, r3
        assert summary.fp_regs_written == 1       # f0

    def test_mix_sums_to_one(self):
        summary = build_trace().summary()
        assert sum(summary.mix.values()) == pytest.approx(1.0)

    def test_def_use_and_redefine_distances(self):
        builder = InstructionBuilder()
        builder.alu(dest=1, srcs=())          # def r1 at 0
        builder.alu(dest=2, srcs=(1,))        # last use of r1 at 1
        builder.alu(dest=3, srcs=())          # filler
        builder.alu(dest=1, srcs=())          # redefine r1 at 3
        trace = Trace("d", RegClass.INT, builder.trace())
        summary = trace.summary()
        assert summary.avg_def_use_distance == pytest.approx(1.0)
        assert summary.avg_def_redefine_distance == pytest.approx(3.0)

    def test_empty_trace_summary(self):
        trace = Trace("empty", RegClass.INT, [])
        summary = trace.summary()
        assert summary.length == 0
        assert summary.branch_fraction == 0.0

    def test_reads_at_the_redefinition_count(self):
        # A source is read before the destination is written: r1's
        # definition at 0 is last read by its own redefinition at 2.
        builder = InstructionBuilder()
        builder.alu(dest=1, srcs=())
        builder.alu(dest=2, srcs=())
        builder.alu(dest=1, srcs=(1,))
        summary = Trace("r", RegClass.INT, builder.trace()).summary()
        assert summary.avg_def_use_distance == 2.0
        assert summary.avg_def_redefine_distance == 2.0


def walked_summary(instructions) -> TraceSummary:
    """The reference: one walk over the ``Instruction`` objects."""
    n = len(instructions)
    counts = Counter(inst.op for inst in instructions)
    written = {RegClass.INT: set(), RegClass.FP: set()}
    last_def, last_read = {}, {}
    uses, redefines = [], []
    for pos, inst in enumerate(instructions):
        for src in inst.srcs:
            if src in last_def:
                last_read[src] = pos
        if inst.dest is not None:
            reg = inst.dest
            written[reg[0]].add(reg[1])
            if reg in last_def:
                redefines.append(pos - last_def[reg])
                uses.append(last_read.get(reg, last_def[reg]) - last_def[reg])
            last_def[reg] = pos
            last_read.pop(reg, None)
    return TraceSummary(
        length=n,
        mix={op.name: counts[op] / n for op in OpClass if counts[op]},
        branch_fraction=sum(inst.is_branch for inst in instructions) / n,
        load_fraction=sum(inst.is_load for inst in instructions) / n,
        store_fraction=sum(inst.is_store for inst in instructions) / n,
        int_regs_written=len(written[RegClass.INT]),
        fp_regs_written=len(written[RegClass.FP]),
        avg_def_use_distance=sum(uses) / len(uses) if uses else 0.0,
        avg_def_redefine_distance=(sum(redefines) / len(redefines)
                                   if redefines else 0.0))


@pytest.mark.parametrize("length, seed", [(3_000, 0), (12_000, 5)])
@pytest.mark.parametrize("name", [*WORKLOADS, *SCENARIOS])
def test_columnar_summary_equals_the_instruction_walk(name, length, seed):
    columns = get_workload(name, length, seed=seed).columns
    trace = Trace(name, RegClass.INT, seed=seed, columns=columns)
    summary = trace.summary()
    assert not trace.materialised
    assert summary == walked_summary(columns.instructions())
