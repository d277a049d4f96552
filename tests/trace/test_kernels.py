"""Tests for the instruction-stream kernels, through their one emitter.

Each test drives ``emit_chunk`` and reads the result back from the
sink's columns; ``iteration`` emits one iteration (``k=1``) into a
fresh sink.
"""

import numpy as np
import pytest

from repro.isa import OpClass, RegClass
from repro.trace.kernels import (KernelParams, branchy_kernel,
                                 int_compute_kernel, pointer_chase_kernel,
                                 random_stream_span, stencil_fp_kernel,
                                 streaming_fp_kernel)
from repro.trace.records import TraceSink


@pytest.fixture
def rng():
    return np.random.default_rng(7)


ALL_FACTORIES = [streaming_fp_kernel, stencil_fp_kernel, int_compute_kernel,
                 branchy_kernel, pointer_chase_kernel]


def iteration(kernel, rng):
    """The instructions of the kernel's next iteration."""
    sink = TraceSink()
    kernel.emit_chunk(rng, 1, sink)
    return sink.columns().instructions()


def iterations(kernel, rng, count):
    return [iteration(kernel, rng) for _ in range(count)]


def chunk(kernel, rng, k):
    """The instructions of the kernel's next ``k`` iterations, one chunk."""
    sink = TraceSink()
    kernel.emit_chunk(rng, k, sink)
    return sink.columns().instructions()


class TestCommonProperties:
    @pytest.mark.parametrize("factory", ALL_FACTORIES)
    def test_iterations_produce_valid_instructions(self, factory, rng):
        kernel = factory(KernelParams())
        for insts in iterations(kernel, rng, 5):
            for inst in insts:
                inst.validate()

    @pytest.mark.parametrize("factory", ALL_FACTORIES)
    def test_every_iteration_ends_with_loop_branch(self, factory, rng):
        kernel = factory(KernelParams())
        for insts in iterations(kernel, rng, 3):
            assert insts[-1].is_branch
            assert insts[-1].pc == kernel.loop_branch.pc

    @pytest.mark.parametrize("factory", ALL_FACTORIES)
    def test_static_code_footprint_is_bounded(self, factory, rng):
        # The same static loop body is re-executed every iteration (hammock
        # paths may add a few pcs depending on branch outcomes), so the set of
        # distinct pcs is small compared with the dynamic instruction count.
        insts = chunk(factory(KernelParams()), rng, 10)
        assert len({inst.pc for inst in insts}) < len(insts) / 3

    @pytest.mark.parametrize("factory", ALL_FACTORIES)
    def test_prologue_is_valid(self, factory):
        for inst in factory(KernelParams()).prologue():
            inst.validate()

    @pytest.mark.parametrize("factory", ALL_FACTORIES)
    def test_iterations_fit_the_chunk_bound(self, factory, rng):
        kernel = factory(KernelParams())
        bound = kernel.max_iteration_length()
        assert all(len(insts) <= bound
                   for insts in iterations(kernel, rng, 20))

    @pytest.mark.parametrize("params", [
        KernelParams(),
        # Two-register windows: five-back source reads wrap the window.
        KernelParams(int_window=2, fp_window=2),
    ])
    @pytest.mark.parametrize("factory", ALL_FACTORIES)
    def test_chunking_does_not_change_the_stream(self, factory, params):
        whole_rng, split_rng = (np.random.default_rng(11) for _ in range(2))
        whole = chunk(factory(params), whole_rng, 24)
        split_kernel = factory(params)
        split = [inst for k in (1, 5, 1, 17)
                 for inst in chunk(split_kernel, split_rng, k)]
        assert split == whole
        assert (split_rng.bit_generator.state
                == whole_rng.bit_generator.state)

    @pytest.mark.parametrize("factory", ALL_FACTORIES)
    def test_loop_branch_closes_every_trip(self, factory, rng):
        kernel = factory(KernelParams(trip_count=8))
        outcomes = [insts[-1].taken for insts in iterations(kernel, rng, 16)]
        assert outcomes == ([True] * 7 + [False]) * 2


class TestRegisterRotation:
    @pytest.mark.parametrize("factory,reg_class", [
        (streaming_fp_kernel, RegClass.INT), (streaming_fp_kernel, RegClass.FP),
        (stencil_fp_kernel, RegClass.INT), (stencil_fp_kernel, RegClass.FP),
        (int_compute_kernel, RegClass.INT), (branchy_kernel, RegClass.INT),
        (pointer_chase_kernel, RegClass.INT),
    ])
    def test_destinations_walk_the_window_in_order(self, factory, reg_class,
                                                   rng):
        kernel = factory(KernelParams(div_interval=3, mult_interval=2))
        rotation = kernel.fp_rot if reg_class is RegClass.FP else kernel.int_rot
        window = list(rotation.window)
        dests = [inst.dest[1] for inst in chunk(kernel, rng, 12)
                 if inst.dest is not None and inst.dest[0] is reg_class
                 and inst.dest[1] in window]
        assert len(dests) > 2 * len(window)
        assert dests == [window[i % len(window)] for i in range(len(dests))]
        assert rotation.cursor == len(dests)

    def test_pointer_registers_stay_outside_the_window(self, rng):
        kernel = pointer_chase_kernel(KernelParams(load_chain_len=2))
        loads = [inst for inst in chunk(kernel, rng, 4) if inst.is_load]
        assert {inst.dest[1] for inst in loads} == set(kernel._ptr_regs)
        assert not set(kernel._ptr_regs) & set(kernel.int_rot.window)


class TestFPKernels:
    def test_streaming_mixes_fp_and_int(self, rng):
        kernel = streaming_fp_kernel(KernelParams(n_streams=3, chain_len=2))
        insts = iteration(kernel, rng)
        ops = {inst.op for inst in insts}
        assert OpClass.FP_LOAD in ops and OpClass.FP_STORE in ops
        assert OpClass.INT_ALU in ops
        fp_dests = sum(1 for inst in insts
                       if inst.dest is not None and inst.dest[0] is RegClass.FP)
        assert 0 < fp_dests < len(insts)

    def test_streaming_fp_dest_density_moderate(self, rng):
        kernel = streaming_fp_kernel(KernelParams(n_streams=4, chain_len=2))
        insts = iteration(kernel, rng)
        fp_dests = sum(1 for inst in insts
                       if inst.dest is not None and inst.dest[0] is RegClass.FP)
        assert fp_dests / len(insts) < 0.65

    def test_stencil_has_divides_when_configured(self, rng):
        kernel = stencil_fp_kernel(KernelParams(div_interval=1))
        assert any(inst.op is OpClass.FP_DIV for inst in iteration(kernel, rng))

    def test_stencil_without_divides(self, rng):
        kernel = stencil_fp_kernel(KernelParams(div_interval=0))
        assert not any(inst.op is OpClass.FP_DIV
                       for inst in iteration(kernel, rng))

    def test_divide_interval(self, rng):
        kernel = stencil_fp_kernel(KernelParams(div_interval=3))
        has_div = [any(inst.op is OpClass.FP_DIV for inst in insts)
                   for insts in iterations(kernel, rng, 6)]
        assert has_div == [True, False, False, True, False, False]

    def test_loop_branch_mostly_taken(self, rng):
        kernel = streaming_fp_kernel(KernelParams(trip_count=64))
        outcomes = [insts[-1].taken for insts in iterations(kernel, rng, 64)]
        assert sum(outcomes) == 63

    def test_stream_stride_respected(self, rng):
        kernel = streaming_fp_kernel(KernelParams(n_streams=1, stream_stride=64))
        first, second = ([inst for inst in insts if inst.is_load][0]
                         for insts in iterations(kernel, rng, 2))
        assert second.mem_addr - first.mem_addr == 64

    def test_streams_wrap_at_the_footprint(self, rng):
        params = KernelParams(n_streams=1, stream_stride=64, mem_footprint=256)
        kernel = streaming_fp_kernel(params)
        loads = [inst.mem_addr for inst in chunk(kernel, rng, 6)
                 if inst.is_load]
        base = params.data_base
        assert loads == [base + 64 * (i % 4) for i in range(6)]


class TestIntKernels:
    def test_int_compute_parallel_chains(self, rng):
        kernel = int_compute_kernel(KernelParams(n_parallel_chains=3, chain_len=2))
        loads = [inst for inst in iteration(kernel, rng) if inst.is_load]
        assert len(loads) == 3

    def test_int_compute_multiply_interval(self, rng):
        kernel = int_compute_kernel(KernelParams(mult_interval=2))
        has_mult = [any(inst.op is OpClass.INT_MULT for inst in insts)
                    for insts in iterations(kernel, rng, 4)]
        assert has_mult == [True, False, True, False]

    @pytest.mark.parametrize("fraction,stores", [(0.0, 0), (1.0, 10)])
    def test_int_compute_store_lottery(self, rng, fraction, stores):
        kernel = int_compute_kernel(KernelParams(store_fraction=fraction,
                                                 extra_stores=2))
        insts = chunk(kernel, rng, 10)
        assert sum(inst.is_store for inst in insts) == stores + 2 * 10

    def test_branchy_branch_density(self, rng):
        kernel = branchy_kernel(KernelParams(n_branch_sites=10, block_len=4))
        branches = sum(1 for inst in iteration(kernel, rng) if inst.is_branch)
        assert branches == 11                       # 10 sites + loop branch

    def test_branchy_no_fp(self, rng):
        insts = iteration(branchy_kernel(KernelParams()), rng)
        assert not any(inst.dest is not None and inst.dest[0] is RegClass.FP
                       for inst in insts)

    def test_branchy_pattern_sites_repeat_their_patterns(self, rng):
        kernel = branchy_kernel(KernelParams(pattern_fraction=1.0))
        outcomes = {site.pc: [] for site in kernel.sites}
        for inst in chunk(kernel, rng, 12):
            if inst.is_branch and inst.pc in outcomes:
                outcomes[inst.pc].append(inst.taken)
        for site in kernel.sites:
            pattern = list(site.pattern)
            assert outcomes[site.pc] == [pattern[i % len(pattern)]
                                         for i in range(12)]

    def test_pointer_chase_dependent_loads(self, rng):
        kernel = pointer_chase_kernel(KernelParams(load_chain_len=2))
        # Each chase load reads and redefines its own pointer register.
        for load in (inst for inst in iteration(kernel, rng) if inst.is_load):
            assert load.srcs == (load.dest,)

    def test_pointer_chase_two_interleaved_chases(self, rng):
        kernel = pointer_chase_kernel(KernelParams(load_chain_len=2))
        pointer_regs = [inst.dest[1] for inst in iteration(kernel, rng)
                        if inst.is_load]
        assert pointer_regs == kernel._ptr_regs * 2

    def test_pointer_chase_pattern_branch(self, rng):
        kernel = pointer_chase_kernel(KernelParams())
        pc = kernel.pattern_branch.pc
        outcomes = [inst.taken for inst in chunk(kernel, rng, 8)
                    if inst.is_branch and inst.pc == pc]
        assert outcomes == [True, False, True, True] * 2

    def test_hammock_skipped_when_taken(self, rng):
        params = KernelParams(branch_bias=1.0, branch_noise=0.0, hammock_len=3)
        kernel = int_compute_kernel(params)
        pc = kernel.hammock_branch.pc
        insts = chunk(kernel, rng, 10)
        # Bias 1.0 without noise: every context's outcome is taken, so the
        # hammock body never runs.
        assert [inst.taken for inst in insts
                if inst.is_branch and inst.pc == pc] == [True] * 10
        assert not any(pc < inst.pc < kernel.hammock_branch.target
                       for inst in insts)

    def test_noise_flips_correlated_outcomes(self, rng):
        params = KernelParams(branch_bias=1.0, branch_noise=0.5)
        kernel = int_compute_kernel(params)
        pc = kernel.hammock_branch.pc
        outcomes = [inst.taken for inst in chunk(kernel, rng, 400)
                    if inst.is_branch and inst.pc == pc]
        assert 0.3 < np.mean(outcomes) < 0.7


class TestRandomAddresses:
    @pytest.mark.parametrize("factory", [int_compute_kernel, branchy_kernel])
    def test_aligned_and_inside_the_footprint(self, factory, rng):
        params = KernelParams(mem_footprint=1 << 12)
        kernel = factory(params)
        data = kernel.data
        addresses = [inst.mem_addr for inst in chunk(kernel, rng, 200)
                     if inst.is_mem and inst.mem_addr >= data.base
                     and inst.mem_addr < data.base + 2 * params.mem_footprint]
        assert len(addresses) > 100
        assert all(address % 8 == 0 for address in addresses)
        assert all(address < data.base + params.mem_footprint
                   for address in addresses)
        # The draws cover the working set (512 slots).
        assert len(set(addresses)) > 256

    def test_pointer_chase_store_addresses(self, rng):
        params = KernelParams(mem_footprint=1000, store_fraction=0.5)
        kernel = pointer_chase_kernel(params)
        stores = [inst.mem_addr for inst in chunk(kernel, rng, 300)
                  if inst.is_store]
        data = kernel.data
        # 1000 // 8 = 125 slots: not a power of two, which the cursor's
        # Lemire rejection handles.
        assert 100 < len(stores) < 200
        assert all(data.base <= address < data.base + 1000
                   and address % 8 == 0 for address in stores)

    def test_pointer_chase_loads_walk_node_aligned(self, rng):
        kernel = pointer_chase_kernel(KernelParams(chase_nodes=64))
        for chase_id, chase in enumerate(kernel.chases):
            loads = [inst.mem_addr for inst in chunk(kernel, rng, 1)
                     if inst.is_load][chase_id::2]
            assert all((address - chase.base) % chase.node_size == 0
                       and address - chase.base < 64 * chase.node_size
                       for address in loads)


class TestFootprintValidation:
    @pytest.mark.parametrize("footprint", [1000, 3 << 10, 1 << 35])
    @pytest.mark.parametrize("factory", [int_compute_kernel, branchy_kernel])
    def test_rejects_a_span_that_is_not_a_small_power_of_two(self, factory,
                                                             footprint):
        with pytest.raises(ValueError, match="mem_footprint"):
            factory(KernelParams(mem_footprint=footprint))

    @pytest.mark.parametrize("footprint", [8, 1 << 12, 1 << 34])
    def test_accepts_powers_of_two_up_to_2_31_slots(self, footprint):
        params = KernelParams(mem_footprint=footprint)
        assert random_stream_span(params) == footprint // 8
        int_compute_kernel(params)
        branchy_kernel(params)

    @pytest.mark.parametrize("factory", [streaming_fp_kernel,
                                         stencil_fp_kernel,
                                         pointer_chase_kernel])
    def test_other_kernels_take_any_footprint(self, factory):
        factory(KernelParams(mem_footprint=1000))
