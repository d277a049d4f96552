"""Tests for the wrong-path instruction generator."""

import dataclasses

import pytest

from repro.isa import OpClass, RegClass
from repro.trace.records import Trace
from repro.trace.workloads import (all_workloads, get_workload,
                                   scenario_workloads)
from repro.trace.wrongpath import WrongPathGenerator, WrongPathMix


def _summary_mix(trace: Trace) -> WrongPathMix:
    """The mix as derived from the full trace summary."""
    summary = trace.summary()
    return WrongPathMix(
        load=summary.load_fraction, store=summary.store_fraction,
        branch=summary.branch_fraction,
        fp=sum(frac for name, frac in summary.mix.items()
               if name in ("FP_ADD", "FP_MULT", "FP_DIV")))


class TestMix:
    @pytest.mark.parametrize("workload",
                             all_workloads() + scenario_workloads())
    def test_op_count_mix_equals_summary_mix(self, workload):
        # The engine derives the mix from op counts alone; it must equal
        # the summary-derived fractions exactly, not approximately.
        trace = get_workload(workload, 2_000, seed=3)
        assert dataclasses.asdict(WrongPathMix.from_trace(trace)) == \
            dataclasses.asdict(_summary_mix(trace))

    def test_empty_trace_mix(self):
        empty = Trace(name="empty", focus_class=RegClass.INT, instructions=[])
        assert dataclasses.asdict(WrongPathMix.from_trace(empty)) == \
            dataclasses.asdict(_summary_mix(empty))

    def test_from_trace_matches_summary(self):
        trace = get_workload("gcc", 3000)
        summary = trace.summary()
        mix = WrongPathMix.from_trace(trace)
        assert mix.load == pytest.approx(summary.load_fraction)
        assert mix.branch == pytest.approx(summary.branch_fraction)

    def test_fp_share_from_fp_trace(self):
        mix = WrongPathMix.from_trace(get_workload("swim", 3000))
        assert mix.fp > 0.1


class TestGeneration:
    def test_instructions_are_wrong_path_and_valid(self):
        generator = WrongPathGenerator(WrongPathMix(), seed=1)
        for inst in generator.next_instructions(0x9000, 50):
            assert inst.wrong_path
            inst.validate()

    def test_pc_sequence(self):
        generator = WrongPathGenerator(WrongPathMix(branch=0.0), seed=1)
        insts = generator.next_instructions(0x9000, 5)
        assert [inst.pc for inst in insts] == [0x9000 + 4 * i for i in range(5)]

    def test_mix_is_respected_roughly(self):
        generator = WrongPathGenerator(WrongPathMix(load=0.5, store=0.0,
                                                    branch=0.0, fp=0.0), seed=2)
        insts = generator.next_instructions(0x9000, 400)
        loads = sum(1 for inst in insts if inst.is_load)
        assert 0.35 < loads / len(insts) < 0.65

    def test_pure_alu_mix(self):
        generator = WrongPathGenerator(WrongPathMix(load=0.0, store=0.0,
                                                    branch=0.0, fp=0.0), seed=3)
        insts = generator.next_instructions(0x9000, 50)
        assert all(inst.op is OpClass.INT_ALU for inst in insts)

    def test_fp_trace_generator_produces_fp_ops(self):
        generator = WrongPathGenerator.for_trace(get_workload("swim", 3000), seed=4)
        insts = generator.next_instructions(0x9000, 300)
        assert any(inst.dest is not None and inst.dest[0] is RegClass.FP
                   for inst in insts)

    def test_deterministic_given_seed(self):
        a = WrongPathGenerator(WrongPathMix(), seed=9).next_instructions(0, 30)
        b = WrongPathGenerator(WrongPathMix(), seed=9).next_instructions(0, 30)
        assert a == b
