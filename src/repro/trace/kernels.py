"""Parameterised instruction-stream kernels.

Each kernel models one characteristic inner-loop shape of the SPEC95
programs the paper evaluates.  The workload profiles in
:mod:`repro.trace.workloads` compose and calibrate these kernels per
benchmark.

All kernels share the same conventions:

* every static instruction of the loop body has a fixed pc, so the gshare
  predictor, BTB and instruction cache observe a realistic, repetitive
  static code footprint;
* destination registers come from :class:`RegisterRotation` windows,
  so the def-to-redefine distance (register lifetime under conventional
  release) is controlled by the window size;
* data-dependent branches are modelled as *hammocks*: when the branch is
  taken the next few body instructions are skipped, exactly as the
  dynamic stream of a real if-then region would look.

Each kernel has one emitter, :meth:`~_KernelBase.emit_chunk`, which
appends ``k`` iterations to a :class:`~repro.trace.records.TraceSink`:
row ids and memory-op addresses, no ``Instruction`` objects.  Its random
values follow the draw contract of :mod:`repro.trace.draws` in a fixed
per-iteration order (documented on each emitter), so neither the stream
nor the bit generator's state after it depends on how the iterations
are grouped into chunks.  An iteration's row ids (a branchy block's,
for :class:`BranchyKernel`) are a function of its *shape* — the
rotation cursors modulo their windows, the branch outcomes and the
per-iteration flags — so each emitter memoises them per shape
(:meth:`TraceSink.memo`) and builds a sequence only on a miss.  A
kernel's static code is small and its rotations cycle, so misses are
rare; the addresses are computed in bulk, a chunk at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.isa import Instruction, OpClass, RegClass
from repro.trace.draws import (DOUBLE, RawCursor, RawDraws,
                               bounded_threshold, draw_template)
from repro.trace.records import TraceSink
from repro.trace.synthetic import (
    BranchSite,
    PointerChaseStream,
    RandomStream,
    RegisterRotation,
    StridedStream,
    fill_context_tables,
)

INT = RegClass.INT
FP = RegClass.FP


def _recent(window: Sequence[int], cursor: int, k: int) -> int:
    """The register handed out ``k`` destinations before ``cursor``
    (1 = the most recent); the window's first register before any."""
    return window[max(cursor - k, 0) % len(window)]


@dataclass(frozen=True)
class KernelParams:
    """Tunable knobs shared by the kernel generators.

    Only a subset is meaningful to any given kernel; unspecified knobs keep
    their defaults.  See the individual kernel classes for which knobs they
    honour.  Frozen (and therefore hashable) so profiles built from it can
    key the workload trace cache by *content*, not by name.
    """

    #: base address of the kernel's code (each kernel gets a disjoint range).
    pc_base: int = 0x10000
    #: base address of the kernel's data.
    data_base: int = 0x100000
    #: number of independent array streams (FP kernels).
    n_streams: int = 4
    #: length of the dependent arithmetic chain per loaded value.
    chain_len: int = 3
    #: FP destination-register rotation window size.
    fp_window: int = 20
    #: integer destination-register rotation window size.
    int_window: int = 8
    #: loop branch trip count.
    trip_count: int = 128
    #: probability that a data-dependent branch is taken.
    branch_bias: float = 0.75
    #: number of static data-dependent branch sites (branchy kernels).
    n_branch_sites: int = 12
    #: instructions per basic block in branchy kernels.
    block_len: int = 4
    #: instructions skipped when a hammock branch is taken.
    hammock_len: int = 3
    #: memory footprint per stream, in bytes.  The int_compute and branchy
    #: kernels need ``mem_footprint // 8`` to be a power of two no larger
    #: than 2**31 (:func:`random_stream_span`).
    mem_footprint: int = 1 << 17
    #: address stride of the FP array streams, in bytes.  64 (one element per
    #: cache line, e.g. a column walk or a padded multi-field array) makes the
    #: streams L1-resident-never / L2-resident, the regime of the SPECfp95
    #: streaming codes; 8 models a dense unit-stride walk.
    stream_stride: int = 64
    #: emit one FP divide every this many iterations (0 = never).
    div_interval: int = 0
    #: emit one integer multiply every this many iterations (0 = never).
    mult_interval: int = 0
    #: length of the dependent load chain (pointer-chase kernel).
    load_chain_len: int = 3
    #: number of nodes in the pointer-chase working set.
    chase_nodes: int = 2048
    #: fraction of iterations that perform a store.
    store_fraction: float = 1.0
    #: additional unconditional stores per iteration (integer compute
    #: kernel only; the store-heavy scenario family's knob).
    extra_stores: int = 0
    #: number of independent work chains per iteration (integer kernels);
    #: controls the instruction-level parallelism of the synthetic code.
    n_parallel_chains: int = 3
    #: fraction of data-dependent branch sites whose outcome follows a
    #: repeating (history-predictable) pattern rather than a history-correlated
    #: function.
    pattern_fraction: float = 0.5
    #: flip probability of history-correlated branch outcomes; sets the floor
    #: of the achievable branch misprediction rate for the integer codes.
    branch_noise: float = 0.05


def random_stream_span(params: KernelParams) -> int:
    """The span of the ``int_compute`` and ``branchy`` random address
    stream: ``mem_footprint // 8`` aligned slots.

    Their draw templates take one bounded integer per address, which
    must never reject (a rejection would make a chunk's word count
    data-dependent), so the span must be a power of two no larger than
    ``2**31``.  Raises :class:`ValueError` naming ``mem_footprint``
    otherwise.
    """
    span = RandomStream(base=0, footprint=params.mem_footprint).span
    if span & (span - 1) or span > 1 << 31:
        raise ValueError(
            f"mem_footprint must be 8 times a power of two no larger than "
            f"2**31 for the int_compute and branchy kernels (their random "
            f"addresses span mem_footprint // 8 slots), got "
            f"{params.mem_footprint}")
    return span


class _KernelBase:
    """What every kernel provides: a prologue, one chunk emitter and the
    bound generation sizes its chunks by."""

    def __init__(self, params: KernelParams) -> None:
        self.params = params

    def max_iteration_length(self) -> int:
        """A (generous) upper bound on one iteration's instruction count.

        Generation sizes its chunks by this bound, so a chunk never runs
        past the first iteration boundary at or after a segment's target
        length.
        """
        raise NotImplementedError

    def emit_chunk(self, rng: np.random.Generator, k: int,
                   sink: TraceSink) -> None:
        """Append ``k`` iterations to ``sink``, drawing from ``rng``'s bit
        generator, and advance the kernel's cursors and counters."""
        raise NotImplementedError

    def prologue(self) -> List[Instruction]:
        """Return set-up instructions executed once before the loop."""
        return []


class _FPLoopKernel(_KernelBase):
    """The two FP kernels: draw-free loops over strided streams.

    An iteration's row ids are a function of the rotation cursors and of
    two flags (the divide, the loop outcome), memoised per such shape.
    """

    #: FP registers reserved for loop-invariant coefficients.
    N_COEF = 0

    def __init__(self, params: KernelParams) -> None:
        super().__init__(params)
        p = params
        self.fp_rot = RegisterRotation(
            list(range(self.N_COEF, self.N_COEF + p.fp_window)))
        self.int_rot = RegisterRotation(list(range(1, 1 + p.int_window)))
        self.iteration = 0

    def _emit_rows(self, k: int, sink: TraceSink, int_dests: int,
                   fp_dests: int, div_interval: int) -> None:
        """Append ``k`` iterations' row ids; each hands out ``int_dests``
        integer and ``fp_dests`` (plus one per divide) FP registers."""
        memo = sink.memo(self)
        add_rows = sink.rows.extend
        int_rot, fp_rot, loop = self.int_rot, self.fp_rot, self.loop_branch
        iwn, fwn = len(int_rot.window), len(fp_rot.window)
        icur, fcur = int_rot.cursor, fp_rot.cursor
        count, iteration = loop.count, self.iteration
        for _ in range(k):
            div = bool(div_interval) and iteration % div_interval == 0
            count += 1
            taken = (count % loop.trip) != 0
            key = (icur % iwn, min(icur, 5), fcur % fwn, div, taken)
            rows = memo.get(key)
            if rows is None:
                rows = memo[key] = self._iteration_rows(
                    sink.intern, icur, fcur, div, taken)
            add_rows(rows)
            icur += int_dests
            fcur += fp_dests + div
            iteration += 1
        int_rot.cursor, fp_rot.cursor = icur, fcur
        loop.count, self.iteration = count, iteration


class StreamingFPKernel(_FPLoopKernel):
    """Unit-stride streaming FP loop (swim / mgrid style).

    Per iteration and per stream: one FP load, a short dependent FP chain
    against persistent coefficient registers, and one FP store.  Induction
    variables are updated with integer ALU operations and a single
    highly-predictable loop branch closes the iteration.
    """

    N_COEF = 4

    def __init__(self, params: KernelParams) -> None:
        super().__init__(params)
        p = params
        self.streams = [
            StridedStream(base=p.data_base + s * (p.mem_footprint + 4096),
                          stride=p.stream_stride, footprint=p.mem_footprint)
            for s in range(p.n_streams)
        ]
        self.out_stream = StridedStream(
            base=p.data_base + p.n_streams * (p.mem_footprint + 4096),
            stride=p.stream_stride, footprint=p.mem_footprint)
        body = p.n_streams * (4 + p.chain_len) + 3
        self.loop_branch = BranchSite(
            pc=p.pc_base + 4 * body, target=p.pc_base,
            kind="loop", trip=p.trip_count)

    def prologue(self) -> List[Instruction]:
        """Define the coefficient registers once, before the loop."""
        pc = self.params.pc_base - 4 * self.N_COEF
        return [Instruction(pc=pc + 4 * c, op=OpClass.FP_ADD, dest=(FP, c),
                            srcs=())
                for c in range(self.N_COEF)]

    def max_iteration_length(self) -> int:
        p = self.params
        return 3 + len(self.streams) * (4 + p.chain_len) + 1 + 8

    def emit_chunk(self, rng: np.random.Generator, k: int,
                   sink: TraceSink) -> None:
        """Draws nothing; a chunk's addresses are one numpy expression
        per stream (per iteration: each stream's load, then its store)."""
        p = self.params
        n_streams = len(self.streams)
        self._emit_rows(k, sink, int_dests=2 + 2 * n_streams,
                        fp_dests=n_streams * (1 + p.chain_len),
                        div_interval=p.div_interval if n_streams else 0)
        addrs = np.empty((k, 2 * n_streams), dtype=np.int64)
        for s, stream in enumerate(self.streams):
            addrs[:, 2 * s] = stream.take(k)
        addrs[:, 1::2] = self.out_stream.take(k * n_streams).reshape(
            k, n_streams)
        sink.addrs.extend(addrs.ravel().tolist())

    def _iteration_rows(self, intern, icur: int, fcur: int, div: bool,
                        taken: bool) -> List[int]:
        """Row ids of one iteration starting at cursors ``icur``/``fcur``
        (the memo-miss path of :meth:`emit_chunk`)."""
        p = self.params
        iwin, fwin = self.int_rot.window, self.fp_rot.window
        iwn, fwn = len(iwin), len(fwin)
        rows: List[int] = []
        pc = p.pc_base
        addr_reg = iwin[icur % iwn]
        icur += 1
        rows.append(intern(OpClass.INT_ALU, pc, (INT, addr_reg),
                           ((INT, _recent(iwin, icur, 2)),)))
        pc += 4
        last0 = -1
        for s in range(len(self.streams)):
            stream_addr = iwin[icur % iwn]
            rows.append(intern(OpClass.INT_ALU, pc, (INT, stream_addr),
                               ((INT, addr_reg),)))
            load_dest = fwin[fcur % fwn]
            rows.append(intern(OpClass.FP_LOAD, pc + 4, (FP, load_dest),
                               ((INT, stream_addr),)))
            icur, fcur, pc = icur + 1, fcur + 1, pc + 8
            prev = load_dest
            for c in range(p.chain_len):
                dest = fwin[fcur % fwn]
                op = OpClass.FP_MULT if c % 2 == 1 else OpClass.FP_ADD
                rows.append(intern(op, pc, (FP, dest),
                                   ((FP, prev), (FP, (s + c) % self.N_COEF))))
                fcur, pc, prev = fcur + 1, pc + 4, dest
            if s == 0:
                last0 = prev
            index_reg = iwin[icur % iwn]
            rows.append(intern(OpClass.INT_ALU, pc, (INT, index_reg),
                               ((INT, stream_addr),)))
            rows.append(intern(OpClass.FP_STORE, pc + 4, None,
                               ((FP, prev), (INT, index_reg))))
            icur, pc = icur + 1, pc + 8
        if div:
            rows.append(intern(OpClass.FP_DIV, pc, (FP, fwin[fcur % fwn]),
                               ((FP, last0), (FP, 0))))
        pc += 4
        idx_reg = iwin[icur % iwn]
        rows.append(intern(OpClass.INT_ALU, pc, (INT, idx_reg),
                           ((INT, addr_reg),)))
        loop = self.loop_branch
        rows.append(intern(OpClass.BRANCH, loop.pc, None, ((INT, idx_reg),),
                           taken, loop.target))
        return rows


class StencilFPKernel(_FPLoopKernel):
    """Neighbour-gather stencil loop (tomcatv / applu / hydro2d style).

    Each iteration loads several neighbouring points, combines them in a
    long cross-dependent FP chain, performs an occasional FP divide, and
    stores one or two results.  The long chains plus the divides keep many
    FP values live at once — this is the highest-register-pressure kernel.
    """

    N_COEF = 6

    def __init__(self, params: KernelParams) -> None:
        super().__init__(params)
        p = params
        self.streams = [
            StridedStream(base=p.data_base + s * (p.mem_footprint + 8192),
                          stride=p.stream_stride, footprint=p.mem_footprint)
            for s in range(p.n_streams)
        ]
        self.out_stream = StridedStream(
            base=p.data_base + (p.n_streams + 1) * (p.mem_footprint + 8192),
            stride=p.stream_stride, footprint=p.mem_footprint)
        body = 2 + 2 * p.n_streams + 2 * p.chain_len + 4
        self.loop_branch = BranchSite(pc=p.pc_base + 4 * body, target=p.pc_base,
                                      kind="loop", trip=p.trip_count)

    def prologue(self) -> List[Instruction]:
        """Define the stencil coefficient registers once."""
        pc = self.params.pc_base - 4 * self.N_COEF
        return [Instruction(pc=pc + 4 * c, op=OpClass.FP_MULT, dest=(FP, c),
                            srcs=())
                for c in range(self.N_COEF)]

    def max_iteration_length(self) -> int:
        p = self.params
        n = len(self.streams)
        return 2 + 2 * n + max(0, n - 1) + p.chain_len + 1 + 1 + 1 + 1 + 8

    def emit_chunk(self, rng: np.random.Generator, k: int,
                   sink: TraceSink) -> None:
        """Draws nothing (per iteration: one load per stream, then the
        store)."""
        p = self.params
        n_streams = len(self.streams)
        self._emit_rows(k, sink, int_dests=3 + n_streams,
                        fp_dests=2 * n_streams - 1 + p.chain_len,
                        div_interval=p.div_interval)
        addrs = np.empty((k, n_streams + 1), dtype=np.int64)
        for s, stream in enumerate(self.streams):
            addrs[:, s] = stream.take(k)
        addrs[:, n_streams] = self.out_stream.take(k)
        sink.addrs.extend(addrs.ravel().tolist())

    def _iteration_rows(self, intern, icur: int, fcur: int, div: bool,
                        taken: bool) -> List[int]:
        """Row ids of one iteration starting at cursors ``icur``/``fcur``
        (the memo-miss path of :meth:`emit_chunk`)."""
        p = self.params
        iwin, fwin = self.int_rot.window, self.fp_rot.window
        iwn, fwn = len(iwin), len(fwin)
        rows: List[int] = []
        pc = p.pc_base
        addr_reg, addr2_reg = iwin[icur % iwn], iwin[(icur + 1) % iwn]
        rows.append(intern(OpClass.INT_ALU, pc, (INT, addr_reg),
                           ((INT, _recent(iwin, icur + 1, 2)),)))
        rows.append(intern(OpClass.INT_ALU, pc + 4, (INT, addr2_reg),
                           ((INT, addr_reg),)))
        icur, pc = icur + 2, pc + 8
        loaded: List[int] = []
        for s in range(len(self.streams)):
            stream_addr = iwin[icur % iwn]
            base_reg = addr_reg if s % 2 == 0 else addr2_reg
            rows.append(intern(OpClass.INT_ALU, pc, (INT, stream_addr),
                               ((INT, base_reg),)))
            dest = fwin[fcur % fwn]
            rows.append(intern(OpClass.FP_LOAD, pc + 4, (FP, dest),
                               ((INT, stream_addr),)))
            icur, fcur, pc = icur + 1, fcur + 1, pc + 8
            loaded.append(dest)
        prev = loaded[0]
        for i, other in enumerate(loaded[1:]):
            dest = fwin[fcur % fwn]
            op = OpClass.FP_ADD if i % 2 == 0 else OpClass.FP_MULT
            rows.append(intern(op, pc, (FP, dest), ((FP, prev), (FP, other))))
            fcur, pc, prev = fcur + 1, pc + 4, dest
        for c in range(p.chain_len):
            dest = fwin[fcur % fwn]
            op = OpClass.FP_MULT if c % 2 == 0 else OpClass.FP_ADD
            rows.append(intern(op, pc, (FP, dest),
                               ((FP, prev), (FP, c % self.N_COEF))))
            fcur, pc, prev = fcur + 1, pc + 4, dest
        if div:
            dest = fwin[fcur % fwn]
            rows.append(intern(OpClass.FP_DIV, pc, (FP, dest),
                               ((FP, prev), (FP, 1))))
            prev = dest
        pc += 4
        rows.append(intern(OpClass.FP_STORE, pc, None,
                           ((FP, prev), (INT, addr_reg))))
        idx_reg = iwin[icur % iwn]
        rows.append(intern(OpClass.INT_ALU, pc + 4, (INT, idx_reg),
                           ((INT, addr_reg),)))
        loop = self.loop_branch
        rows.append(intern(OpClass.BRANCH, loop.pc, None, ((INT, idx_reg),),
                           taken, loop.target))
        return rows


class IntComputeKernel(_KernelBase):
    """Integer compute loop with a data-dependent hammock (compress style).

    Each iteration runs ``n_parallel_chains`` *independent* short work
    chains (load + a few dependent ALU operations each), combines one value
    into a running result, takes one data-dependent hammock branch, stores
    a result and closes with the loop branch.  The independent chains give
    the out-of-order core realistic integer ILP; the serial part of the
    iteration is only the induction variable and the combine step.
    """

    def __init__(self, params: KernelParams) -> None:
        super().__init__(params)
        p = params
        self.int_rot = RegisterRotation(list(range(1, 1 + p.int_window)))
        self.data = RandomStream(base=p.data_base, footprint=p.mem_footprint)
        self._span = random_stream_span(p)
        self.out = StridedStream(base=p.data_base + 2 * p.mem_footprint,
                                 stride=8, footprint=p.mem_footprint)
        chain_block = 1 + p.chain_len
        body = 1 + p.n_parallel_chains * chain_block + p.hammock_len + 4
        self.hammock_branch = BranchSite(
            pc=p.pc_base + 4 * (1 + p.n_parallel_chains * chain_block),
            target=p.pc_base + 4 * (1 + p.n_parallel_chains * chain_block
                                    + p.hammock_len + 1),
            kind="correlated", bias=p.branch_bias, noise=p.branch_noise)
        fill_context_tables([self.hammock_branch])
        self.loop_branch = BranchSite(pc=p.pc_base + 4 * body, target=p.pc_base,
                                      kind="loop", trip=p.trip_count)
        self.iteration = 0
        #: recent branch outcomes (LSB = most recent), read by the
        #: hammock's history-correlated outcome.
        self.ghist = 0

    def max_iteration_length(self) -> int:
        p = self.params
        return (1 + p.n_parallel_chains * (1 + p.chain_len) + 1 + 1
                + p.hammock_len + 1 + 1 + p.extra_stores + 1 + 8)

    def emit_chunk(self, rng: np.random.Generator, k: int,
                   sink: TraceSink) -> None:
        """Draws, per iteration: one address per work chain, the
        hammock's noise flip (when ``branch_noise > 0``), the store
        lottery — one template for the whole chunk.  An iteration's row
        ids are memoised per shape: rotation cursor, hammock outcome,
        multiply, store, loop outcome."""
        p = self.params
        n_chains = p.n_parallel_chains
        hammock, loop = self.hammock_branch, self.loop_branch
        noise = hammock.noise > 0.0
        template = ([self._span] * n_chains
                    + ([DOUBLE] if noise else []) + [DOUBLE])
        columns = draw_template(rng, template, k)
        stores = (columns[-1] < p.store_fraction).tolist()
        noise_flips = ((columns[n_chains] < hammock.noise).tolist() if noise
                       else [False] * k)

        memo = sink.memo(self)
        add_rows = sink.rows.extend
        iwn = len(self.int_rot.window)
        icur = self.int_rot.cursor
        chain_dests = 2 + n_chains * (1 + p.chain_len)
        trip, mult_interval = loop.trip, p.mult_interval
        loop_count, ghist, iteration = loop.count, self.ghist, self.iteration
        correlated_outcome = hammock.correlated_outcome
        for j in range(k):
            hammock_taken = correlated_outcome(ghist) != noise_flips[j]
            ghist = ((ghist << 1) | hammock_taken) & 0xFFFF
            mult = bool(mult_interval) and iteration % mult_interval == 0
            loop_count += 1
            taken = (loop_count % trip) != 0
            ghist = ((ghist << 1) | taken) & 0xFFFF
            key = (icur % iwn, min(icur, 5), hammock_taken, mult, stores[j],
                   taken)
            rows = memo.get(key)
            if rows is None:
                rows = memo[key] = self._iteration_rows(
                    sink.intern, icur, hammock_taken, mult, stores[j], taken)
            add_rows(rows)
            icur += (chain_dests + mult
                     + (0 if hammock_taken else p.hammock_len))
            iteration += 1
        self.int_rot.cursor = icur
        loop.count, self.ghist, self.iteration = loop_count, ghist, iteration
        # Memory ops per iteration: the chains' loads, the store when its
        # lottery hit, the extra stores; stores walk the output stream.
        per_iteration = n_chains + 1 + p.extra_stores
        addrs = np.zeros((k, per_iteration), dtype=np.int64)
        present = np.ones((k, per_iteration), dtype=bool)
        for chain in range(n_chains):
            addrs[:, chain] = self.data.addresses(columns[chain])
        present[:, n_chains] = stores
        store_slots = present[:, n_chains:]
        addrs[:, n_chains:][store_slots] = self.out.take(
            int(store_slots.sum()))
        sink.addrs.extend(addrs[present].tolist())

    def _iteration_rows(self, intern, icur: int, hammock_taken: bool,
                        mult: bool, store: bool, taken: bool) -> List[int]:
        """Row ids of one iteration starting at cursor ``icur`` (the
        memo-miss path of :meth:`emit_chunk`)."""
        p = self.params
        iwin = self.int_rot.window
        iwn = len(iwin)
        rows: List[int] = []
        pc = p.pc_base
        addr_reg = iwin[icur % iwn]
        icur += 1
        rows.append(intern(OpClass.INT_ALU, pc, (INT, addr_reg),
                           ((INT, _recent(iwin, icur, 2)),)))
        pc += 4
        heads: List[int] = []
        for _chain in range(p.n_parallel_chains):
            prev = iwin[icur % iwn]
            rows.append(intern(OpClass.LOAD, pc, (INT, prev),
                               ((INT, addr_reg),)))
            icur, pc = icur + 1, pc + 4
            for _ in range(p.chain_len):
                dest = iwin[icur % iwn]
                rows.append(intern(OpClass.INT_ALU, pc, (INT, dest),
                                   ((INT, prev),)))
                icur, pc, prev = icur + 1, pc + 4, dest
            heads.append(prev)
        combine = iwin[icur % iwn]
        rows.append(intern(OpClass.INT_ALU, pc, (INT, combine),
                           ((INT, heads[0]), (INT, heads[-1]))))
        icur += 1
        hammock = self.hammock_branch
        rows.append(intern(OpClass.BRANCH, hammock.pc, None,
                           ((INT, heads[0]),), hammock_taken, hammock.target))
        pc = hammock.pc + 4
        if not hammock_taken:
            prev = combine
            for _ in range(p.hammock_len):
                dest = iwin[icur % iwn]
                rows.append(intern(OpClass.INT_ALU, pc, (INT, dest),
                                   ((INT, prev),)))
                icur, pc, prev = icur + 1, pc + 4, dest
        else:
            pc = hammock.target
        if mult:
            rows.append(intern(OpClass.INT_MULT, pc, (INT, iwin[icur % iwn]),
                               ((INT, heads[-1]),)))
        pc += 4
        if store:
            rows.append(intern(OpClass.STORE, pc, None,
                               ((INT, combine), (INT, addr_reg))))
        pc += 4
        for extra in range(p.extra_stores):
            rows.append(intern(OpClass.STORE, pc, None,
                               ((INT, heads[extra % len(heads)]),
                                (INT, addr_reg))))
            pc += 4
        loop = self.loop_branch
        rows.append(intern(OpClass.BRANCH, loop.pc, None, ((INT, addr_reg),),
                           taken, loop.target))
        return rows


class BranchyKernel(_KernelBase):
    """Branch-dense control flow (gcc / go style).

    The static code consists of ``n_branch_sites`` short basic blocks, each
    ending in a data-dependent branch whose bias varies per site.  Every
    iteration walks all blocks, taking or skipping each block's hammock
    according to the branch outcome, and closes with a loop branch.
    """

    #: repeating outcome patterns assigned round-robin to "pattern" sites.
    _PATTERNS = (
        (True, True, False),
        (True, False, True, True),
        (True, True, True, False, True),
        (False, True, True),
        (True, True, True, True, False, True),
    )

    def __init__(self, params: KernelParams) -> None:
        super().__init__(params)
        p = params
        self.int_rot = RegisterRotation(list(range(1, 1 + p.int_window)))
        self.data = RandomStream(base=p.data_base, footprint=p.mem_footprint)
        span = random_stream_span(p)
        self.sites: List[BranchSite] = []
        # Deterministic per-site behaviour: the kind draw follows the draw
        # contract; the bias jitter is numpy's normal over the same words.
        site_bits = np.random.PCG64(p.pc_base)
        kind_draws = RawDraws(site_bits)
        normal = np.random.Generator(site_bits).normal
        block_span = 4 * (p.block_len + p.hammock_len + 1)
        for s in range(p.n_branch_sites):
            block_pc = p.pc_base + s * block_span
            branch_pc = block_pc + 4 * p.block_len
            target = block_pc + block_span
            if kind_draws.next_double() < p.pattern_fraction:
                pattern = self._PATTERNS[s % len(self._PATTERNS)]
                self.sites.append(BranchSite(pc=branch_pc, target=target,
                                             kind="pattern", pattern=pattern))
            else:
                bias = float(np.clip(p.branch_bias + normal(0.0, 0.08),
                                     0.60, 0.97))
                self.sites.append(BranchSite(pc=branch_pc, target=target,
                                             kind="correlated", bias=bias,
                                             noise=p.branch_noise))
        fill_context_tables(self.sites)
        self.loop_branch = BranchSite(
            pc=p.pc_base + p.n_branch_sites * block_span,
            target=p.pc_base, kind="loop", trip=p.trip_count)
        #: recent branch outcomes (LSB = most recent), read by the
        #: history-correlated sites.
        self.ghist = 0
        # The per-iteration draw template.  Walking the static site list
        # yields, in draw order: the block's load address (sites
        # ``s % 3 == 0``), the block's store address (sites ``s % 4 == 3``,
        # unless the single-block load took the slot), then the site's
        # noise flip (correlated sites with noise).  The addresses come in
        # the order the block emits its memory ops.
        self._template: List[int] = []
        #: per site, its noise flip's template slot (None: no flip).
        self._noise_slots: List[Optional[int]] = []
        for s, site in enumerate(self.sites):
            if p.block_len > 0 and s % 3 == 0:
                self._template.append(span)
            if (p.block_len > 0 and s % 4 == 3
                    and not (p.block_len == 1 and s % 3 == 0)):
                self._template.append(span)
            self._noise_slots.append(None)
            if site.kind == "correlated" and site.noise > 0.0:
                self._noise_slots[-1] = len(self._template)
                self._template.append(DOUBLE)
        self._address_slots = [i for i, slot in enumerate(self._template)
                               if slot != DOUBLE]

    def max_iteration_length(self) -> int:
        p = self.params
        return (len(self.sites) * (p.block_len + 1 + p.hammock_len)
                + 1 + 8)

    def emit_chunk(self, rng: np.random.Generator, k: int,
                   sink: TraceSink) -> None:
        """One template covers every site's load and store addresses and
        every noisy correlated site's flip for the whole chunk.  Each
        site's block (body, branch, hammock) is memoised as row ids per
        shape: rotation cursor and outcome."""
        columns = draw_template(rng, self._template, k)
        flips = [None if slot is None
                 else (columns[slot] < site.noise).tolist()
                 for site, slot in zip(self.sites, self._noise_slots,
                                       strict=True)]
        patterns = [site.pattern if site.kind == "pattern" else None
                    for site in self.sites]

        memo = sink.memo(self)
        add_rows = sink.rows.extend
        iwin = self.int_rot.window
        iwn = len(iwin)
        icur = self.int_rot.cursor
        loop = self.loop_branch
        loop_count, ghist = loop.count, self.ghist
        #: the pattern sites' instance counters (correlated sites' outcomes
        #: do not depend on theirs).
        site_counts = [site.count for site in self.sites]
        for j in range(k):
            for s, site in enumerate(self.sites):
                pattern = patterns[s]
                if pattern is not None:
                    taken = (bool(pattern[site_counts[s] % len(pattern)])
                             if pattern else False)
                    site_counts[s] += 1
                else:
                    taken = site.correlated_outcome(ghist)
                    if flips[s] is not None and flips[s][j]:
                        taken = not taken
                ghist = ((ghist << 1) | taken) & 0xFFFF
                key = (s, icur % iwn, min(icur, 5), taken)
                block = memo.get(key)
                if block is None:
                    block = memo[key] = self._block_rows(sink.intern, s, icur,
                                                         taken)
                add_rows(block[0])
                icur += block[1]
            loop_count += 1
            taken = (loop_count % loop.trip) != 0
            ghist = ((ghist << 1) | taken) & 0xFFFF
            key = ("loop", icur % iwn, min(icur, 5), taken)
            rows = memo.get(key)
            if rows is None:
                rows = memo[key] = [sink.intern(
                    OpClass.BRANCH, loop.pc, None,
                    ((INT, _recent(iwin, icur, 1)),), taken, loop.target)]
            add_rows(rows)
        self.int_rot.cursor = icur
        for site, count in zip(self.sites, site_counts, strict=True):
            site.count = count
        loop.count, self.ghist = loop_count, ghist
        if self._address_slots:
            sink.addrs.extend(np.stack(
                [self.data.addresses(columns[i]) for i in self._address_slots],
                axis=1).ravel().tolist())

    def _block_rows(self, intern, s: int, icur: int,
                    taken: bool) -> Tuple[List[int], int]:
        """Row ids of site ``s``'s block from cursor ``icur``, and the
        registers it hands out (the memo-miss path of :meth:`emit_chunk`)."""
        p = self.params
        site = self.sites[s]
        iwin = self.int_rot.window
        iwn = len(iwin)
        start = icur
        rows: List[int] = []
        pc = site.pc - 4 * p.block_len
        local = _recent(iwin, icur, 3)
        for i in range(p.block_len):
            is_load = i == 0 and s % 3 == 0
            if not is_load and i == p.block_len - 1 and s % 4 == 3:
                rows.append(intern(OpClass.STORE, pc, None,
                                   ((INT, local),
                                    (INT, _recent(iwin, icur, 4)))))
                pc += 4
                continue
            dest = iwin[icur % iwn]
            icur += 1
            if is_load:
                rows.append(intern(OpClass.LOAD, pc, (INT, dest),
                                   ((INT, local),)))
            else:
                rows.append(intern(OpClass.INT_ALU, pc, (INT, dest),
                                   ((INT, local),
                                    (INT, _recent(iwin, icur, 5)))))
            local, pc = dest, pc + 4
        rows.append(intern(OpClass.BRANCH, site.pc, None, ((INT, local),),
                           taken, site.target))
        if not taken:
            pc = site.pc + 4
            for _ in range(p.hammock_len):
                dest = iwin[icur % iwn]
                rows.append(intern(OpClass.INT_ALU, pc, (INT, dest),
                                   ((INT, local),)))
                icur, pc, local = icur + 1, pc + 4, dest
        return rows, icur - start


class PointerChaseKernel(_KernelBase):
    """Dependent-load pointer chasing with interpreted-code control flow (li / perl).

    Models an interpreter working over linked data: two *interleaved*
    pointer chases (the interpreter typically walks the expression and the
    environment at the same time, so the chases overlap in the machine),
    per-node integer work that does not feed back into the chase, a
    highly regular dispatch branch (pattern) plus one data-dependent
    branch, and an occasional store.
    """

    def __init__(self, params: KernelParams) -> None:
        super().__init__(params)
        p = params
        self.int_rot = RegisterRotation(list(range(1, 1 + p.int_window)))
        self.chases = [
            PointerChaseStream(base=p.data_base + i * (p.chase_nodes * 32 + 4096),
                               n_nodes=p.chase_nodes, seed=p.pc_base + i)
            for i in range(2)
        ]
        self.data = RandomStream(base=p.data_base + (1 << 20),
                                 footprint=p.mem_footprint)
        body = 2 * p.load_chain_len * 3 + 8
        self.pattern_branch = BranchSite(
            pc=p.pc_base + 4 * (2 * p.load_chain_len * 3),
            target=p.pc_base + 4 * (2 * p.load_chain_len * 3 + 3),
            kind="pattern", pattern=(True, False, True, True))
        self.cond_branch = BranchSite(
            pc=p.pc_base + 4 * (2 * p.load_chain_len * 3 + 4),
            target=p.pc_base + 4 * (2 * p.load_chain_len * 3 + 4 + p.hammock_len + 1),
            kind="correlated", bias=p.branch_bias, noise=p.branch_noise)
        fill_context_tables([self.cond_branch])
        self.loop_branch = BranchSite(pc=p.pc_base + 4 * body + 64, target=p.pc_base,
                                      kind="loop", trip=p.trip_count)
        #: dedicated pointer registers (outside the rotation window) so each
        #: chase is a true ``p = p->next`` chain across iterations.
        self._ptr_regs = [p.int_window + 1 + i for i in range(2)]
        #: recent branch outcomes (LSB = most recent), read by the
        #: conditional branch's history-correlated outcome.
        self.ghist = 0

    def prologue(self) -> List[Instruction]:
        """Initialise the two chase pointer registers."""
        pc = self.params.pc_base - 4 * len(self._ptr_regs)
        return [Instruction(pc=pc + 4 * i, op=OpClass.INT_ALU, dest=(INT, reg),
                            srcs=())
                for i, reg in enumerate(self._ptr_regs)]

    def max_iteration_length(self) -> int:
        p = self.params
        return (2 * p.load_chain_len * len(self.chases) + 1 + 2 + 1
                + p.hammock_len + 1 + 1 + 8)

    def emit_chunk(self, rng: np.random.Generator, k: int,
                   sink: TraceSink) -> None:
        """Draws, per iteration: the conditional branch's noise flip
        (when ``branch_noise > 0``), the store lottery, then the store
        address when the lottery hits.  The address draw makes the word
        count data-dependent, so the draws come from a
        :class:`~repro.trace.draws.RawCursor` rather than a template.
        An iteration's row ids are memoised per shape: rotation cursor
        and the pattern, conditional, store and loop outcomes.
        """
        p = self.params
        span = self.data.span
        threshold = bounded_threshold(span)
        cond, loop = self.cond_branch, self.loop_branch
        noise = cond.noise > 0.0
        # Worst case per iteration: noise flip + store lottery (one word
        # each) + store address (at most one word).
        cursor = RawCursor(rng, 3 * k + 2)
        memo = sink.memo(self)
        add_rows, add_addrs = sink.rows.extend, sink.addrs.extend
        iwn = len(self.int_rot.window)
        icur = self.int_rot.cursor
        # The chases' load addresses: per iteration, step-major, the two
        # chases interleaved.
        count = k * p.load_chain_len
        chase_addrs = np.empty((count, len(self.chases)), dtype=np.int64)
        for chase_id, chase in enumerate(self.chases):
            chase_addrs[:, chase_id] = chase.take(count)
        loads = chase_addrs.reshape(k, -1).tolist()
        pattern = self.pattern_branch.pattern
        pattern_count = self.pattern_branch.count
        trip = loop.trip
        loop_count, ghist = loop.count, self.ghist
        works = p.load_chain_len * len(self.chases)
        data = self.data
        next_double, next_bounded = cursor.next_double, cursor.next_bounded
        for j in range(k):
            pattern_count += 1
            pattern_taken = (bool(pattern[(pattern_count - 1) % len(pattern)])
                             if pattern else False)
            ghist = ((ghist << 1) | pattern_taken) & 0xFFFF
            cond_taken = cond.correlated_outcome(ghist)
            if noise and next_double() < cond.noise:
                cond_taken = not cond_taken
            ghist = ((ghist << 1) | cond_taken) & 0xFFFF
            add_addrs(loads[j])
            store = next_double() < p.store_fraction
            if store:
                add_addrs((data.base + next_bounded(span, threshold)
                           * data.align,))
            loop_count += 1
            taken = (loop_count % trip) != 0
            ghist = ((ghist << 1) | taken) & 0xFFFF
            key = (icur % iwn, min(icur, 5), pattern_taken, cond_taken,
                   store, taken)
            rows = memo.get(key)
            if rows is None:
                rows = memo[key] = self._iteration_rows(
                    sink.intern, icur, pattern_taken, cond_taken, store,
                    taken)
            add_rows(rows)
            icur += (works + (0 if pattern_taken else 2)
                     + (0 if cond_taken else p.hammock_len))
        cursor.finalize()
        self.int_rot.cursor = icur
        self.pattern_branch.count = pattern_count
        loop.count, self.ghist = loop_count, ghist

    def _iteration_rows(self, intern, icur: int, pattern_taken: bool,
                        cond_taken: bool, store: bool,
                        taken: bool) -> List[int]:
        """Row ids of one iteration starting at cursor ``icur`` (the
        memo-miss path of :meth:`emit_chunk`)."""
        p = self.params
        iwin = self.int_rot.window
        iwn = len(iwin)
        rows: List[int] = []
        pc = p.pc_base
        works: List[int] = []
        for _step in range(p.load_chain_len):
            for ptr_reg in self._ptr_regs:
                rows.append(intern(OpClass.LOAD, pc, (INT, ptr_reg),
                                   ((INT, ptr_reg),)))
                work = iwin[icur % iwn]
                rows.append(intern(OpClass.INT_ALU, pc + 4, (INT, work),
                                   ((INT, ptr_reg),)))
                icur, pc = icur + 1, pc + 8
                works.append(work)
        branch = self.pattern_branch
        rows.append(intern(OpClass.BRANCH, branch.pc, None, ((INT, works[0]),),
                           pattern_taken, branch.target))
        pc = branch.target if pattern_taken else branch.pc + 4
        if not pattern_taken:
            for _ in range(2):
                rows.append(intern(OpClass.INT_ALU, pc, (INT, iwin[icur % iwn]),
                                   ((INT, works[-1]),)))
                icur, pc = icur + 1, pc + 4
        branch = self.cond_branch
        rows.append(intern(OpClass.BRANCH, branch.pc, None,
                           ((INT, works[-1]),), cond_taken, branch.target))
        pc = branch.target if cond_taken else branch.pc + 4
        if not cond_taken:
            for _ in range(p.hammock_len):
                dest = iwin[icur % iwn]
                icur += 1
                rows.append(intern(OpClass.INT_ALU, pc, (INT, dest),
                                   ((INT, _recent(iwin, icur, 2)),)))
                pc += 4
        if store:
            rows.append(intern(OpClass.STORE, pc, None,
                               ((INT, works[-1]), (INT, self._ptr_regs[0]))))
        loop = self.loop_branch
        rows.append(intern(OpClass.BRANCH, loop.pc, None, ((INT, works[0]),),
                           taken, loop.target))
        return rows


# ----------------------------------------------------------------------
# Factory helpers (the names exported by :mod:`repro.trace`).
# ----------------------------------------------------------------------
def streaming_fp_kernel(params: Optional[KernelParams] = None) -> StreamingFPKernel:
    """Create a :class:`StreamingFPKernel` with the given (or default) parameters."""
    return StreamingFPKernel(params or KernelParams())


def stencil_fp_kernel(params: Optional[KernelParams] = None) -> StencilFPKernel:
    """Create a :class:`StencilFPKernel` with the given (or default) parameters."""
    return StencilFPKernel(params or KernelParams())


def int_compute_kernel(params: Optional[KernelParams] = None) -> IntComputeKernel:
    """Create an :class:`IntComputeKernel` with the given (or default) parameters."""
    return IntComputeKernel(params or KernelParams())


def branchy_kernel(params: Optional[KernelParams] = None) -> BranchyKernel:
    """Create a :class:`BranchyKernel` with the given (or default) parameters."""
    return BranchyKernel(params or KernelParams())


def pointer_chase_kernel(params: Optional[KernelParams] = None) -> PointerChaseKernel:
    """Create a :class:`PointerChaseKernel` with the given (or default) parameters."""
    return PointerChaseKernel(params or KernelParams())
