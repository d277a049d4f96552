"""Parameterised instruction-stream kernels.

Each kernel models one characteristic inner-loop shape of the SPEC95
programs the paper evaluates and emits concrete
:class:`~repro.isa.instructions.Instruction` records one *iteration* at a
time.  The workload profiles in :mod:`repro.trace.workloads` compose and
calibrate these kernels per benchmark.

All kernels share the same conventions:

* every static instruction of the loop body has a fixed pc, so the gshare
  predictor, BTB and instruction cache observe a realistic, repetitive
  static code footprint;
* destination registers are drawn from :class:`RegisterRotation` windows,
  so the def-to-redefine distance (register lifetime under conventional
  release) is controlled by the window size;
* data-dependent branches are modelled as *hammocks*: when the branch is
  taken the next few body instructions are skipped, exactly as the
  dynamic stream of a real if-then region would look.

The scalar :meth:`~_KernelBase.emit_iteration` returns ``Instruction``
lists and is the oracle.  The vectorised ``emit_chunk`` emitters write a
:class:`~repro.trace.records.TraceSink` directly: row ids and memory-op
addresses, no ``Instruction`` objects.  An iteration's row ids (a
branchy block's, for :class:`BranchyKernel`) are a function of its
*shape* — the rotation cursors modulo their windows, the branch outcomes
and the per-iteration flags — so each emitter memoises them per shape
(:meth:`TraceSink.memo`) and builds a sequence only on a miss.  A
kernel's static code is small and its rotations cycle, so misses are
rare; the addresses are computed in bulk, a chunk at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.isa import Instruction, OpClass, RegClass
from repro.trace.draws import (DOUBLE, RawCursor, bounded_threshold,
                               replay_template)
from repro.trace.records import TraceSink
from repro.trace.synthetic import (
    BranchSite,
    PointerChaseStream,
    RandomStream,
    RegisterRotation,
    StridedStream,
)

INT = RegClass.INT
FP = RegClass.FP


def _random_stream_span(stream: RandomStream) -> int:
    """The ``rng.integers`` span drawn per :meth:`RandomStream.next_address`."""
    return max(stream.footprint // stream.align, 1)


def _random_stream_addresses(stream: RandomStream, column) -> np.ndarray:
    """Map a replayed bounded-integer column to effective addresses."""
    return stream.base + column.astype(np.int64) * stream.align


def _strided_addresses(stream: StridedStream, offset: int,
                       count: int) -> np.ndarray:
    """The next ``count`` addresses of ``stream``, starting at ``offset``."""
    steps = np.arange(count, dtype=np.int64)
    return stream.base + (offset + stream.stride * steps) % stream.footprint


def _recent(window: Sequence[int], cursor: int, k: int) -> int:
    """``RegisterRotation.recent(k)`` after ``cursor`` registers were handed out.

    The rotation's history holds the handed-out registers in cursor
    order, so its ``k``-th most recent entry follows from the cursor.
    """
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
    #: memory footprint per stream, in bytes.
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


# ----------------------------------------------------------------------
# Declarative kernel-state descriptors.
#
# Every vectorised ``emit_chunk`` walks the same categories of mutable
# kernel state in local variables — register-rotation cursors and
# histories, stream offsets, pointer-chase positions, branch-site
# counters, the global branch history and the iteration counter — and
# writes the walked values back when the chunk is done.  The descriptors
# make that scaffolding declarative: a kernel lists *which* state its
# emitter touches (class attribute ``STATE``) and :class:`_KernelBase`
# provides uniform bind / snapshot / write-back over the list, so the
# bookkeeping exists in exactly one audited place instead of five
# hand-kept copies.
# ----------------------------------------------------------------------
class StateDescriptor:
    """One piece of mutable kernel state a chunk emitter binds.

    ``bind`` copies the current value(s) onto the view (plain attributes;
    lists are fresh copies, so binding never aliases state the scalar
    path would mutate), ``write_back`` stores the view's values back into
    the kernel.  The attribute naming is uniform: a descriptor for kernel
    attribute ``x`` exposes ``x_<suffix>`` on the view.
    """

    __slots__ = ("attr",)

    def __init__(self, attr: str) -> None:
        self.attr = attr

    def bind(self, kernel, view: SimpleNamespace) -> None:
        raise NotImplementedError

    def write_back(self, kernel, view: SimpleNamespace) -> None:
        raise NotImplementedError


class RotationState(StateDescriptor):
    """A :class:`RegisterRotation`: cursor plus a private history copy.

    Chunk emitters move only the view's cursor; write-back extends the
    history with the registers handed out in between.  Both bind and
    write-back truncate the history to the last ``2 * window`` entries —
    more than every ``recent(k)`` / tail read the kernels perform
    (k ≤ 5) — so snapshots are canonical regardless of whether the
    scalar path's laxer pruning (up to ``4 * window``) ran last.
    """

    def bind(self, kernel, view) -> None:
        rotation = getattr(kernel, self.attr)
        setattr(view, self.attr + "_cursor", rotation._cursor)
        setattr(view, self.attr + "_history",
                list(rotation._history[-2 * len(rotation.window):]))

    def write_back(self, kernel, view) -> None:
        # A rotation hands out its window in cursor order, so the history
        # follows from how far the view's cursor moved.
        rotation = getattr(kernel, self.attr)
        window, cursor = rotation.window, getattr(view, self.attr + "_cursor")
        n = len(window)
        first = max(rotation._cursor, cursor - 2 * n)
        history = rotation._history if first == rotation._cursor else []
        history = history + [window[c % n] for c in range(first, cursor)]
        rotation._history = history[-2 * n:]
        rotation._cursor = cursor


class StreamOffsetState(StateDescriptor):
    """The ``offset`` of one :class:`StridedStream` attribute."""

    def bind(self, kernel, view) -> None:
        setattr(view, self.attr + "_offset", getattr(kernel, self.attr).offset)

    def write_back(self, kernel, view) -> None:
        getattr(kernel, self.attr).offset = getattr(view, self.attr + "_offset")


class StreamOffsetsState(StateDescriptor):
    """The ``offset`` of every stream in a list-of-streams attribute."""

    def bind(self, kernel, view) -> None:
        setattr(view, self.attr + "_offsets",
                [stream.offset for stream in getattr(kernel, self.attr)])

    def write_back(self, kernel, view) -> None:
        offsets = getattr(view, self.attr + "_offsets")
        for stream, offset in zip(getattr(kernel, self.attr), offsets, strict=False):
            stream.offset = offset


class ChasePositionsState(StateDescriptor):
    """The walk position of every :class:`PointerChaseStream` in a list."""

    def bind(self, kernel, view) -> None:
        setattr(view, self.attr + "_positions",
                [chase._pos for chase in getattr(kernel, self.attr)])

    def write_back(self, kernel, view) -> None:
        positions = getattr(view, self.attr + "_positions")
        for chase, position in zip(getattr(kernel, self.attr), positions, strict=False):
            chase._pos = position


class SiteCountState(StateDescriptor):
    """The dynamic-instance counter of one :class:`BranchSite` attribute."""

    def bind(self, kernel, view) -> None:
        setattr(view, self.attr + "_count", getattr(kernel, self.attr)._count)

    def write_back(self, kernel, view) -> None:
        getattr(kernel, self.attr)._count = getattr(view, self.attr + "_count")


class SiteCountsState(StateDescriptor):
    """The counters of every :class:`BranchSite` in a list attribute."""

    def bind(self, kernel, view) -> None:
        setattr(view, self.attr + "_counts",
                [site._count for site in getattr(kernel, self.attr)])

    def write_back(self, kernel, view) -> None:
        counts = getattr(view, self.attr + "_counts")
        for site, count in zip(getattr(kernel, self.attr), counts, strict=False):
            site._count = count


class GhistState(StateDescriptor):
    """The kernel's global branch-outcome history register."""

    def __init__(self) -> None:
        super().__init__("ghist")

    def bind(self, kernel, view) -> None:
        view.ghist = kernel.ghist

    def write_back(self, kernel, view) -> None:
        kernel.ghist = view.ghist


class IterationState(StateDescriptor):
    """The kernel's loop-iteration counter."""

    def __init__(self) -> None:
        super().__init__("iteration")

    def bind(self, kernel, view) -> None:
        view.iteration = kernel.iteration

    def write_back(self, kernel, view) -> None:
        kernel.iteration = view.iteration


class _KernelBase:
    """Shared plumbing: pc bookkeeping, iteration counting, branch history."""

    #: State the vectorised ``emit_chunk`` binds and writes back, beyond
    #: the ghist/iteration pair every kernel shares (contributed by the
    #: base).  Subclasses overriding :meth:`emit_chunk` declare theirs.
    STATE: Tuple[StateDescriptor, ...] = ()

    #: Descriptors common to every kernel (bound first, written back first).
    _BASE_STATE: Tuple[StateDescriptor, ...] = (GhistState(), IterationState())

    def __init__(self, params: KernelParams) -> None:
        self.params = params
        self.iteration = 0
        #: recent branch outcomes of the whole kernel (LSB = most recent);
        #: consumed by history-correlated branch sites.
        self.ghist = 0

    def _branch_outcome(self, site: BranchSite, rng: np.random.Generator) -> bool:
        """Draw the site's next outcome and append it to the global history."""
        taken = site.next_outcome(rng, self.ghist)
        self.ghist = ((self.ghist << 1) | int(taken)) & 0xFFFF
        return taken

    # -- declarative chunk-state plumbing (see the descriptor classes) --
    def bind_chunk_state(self) -> SimpleNamespace:
        """Copy the declared mutable state into a fresh view.

        The view holds plain values and private list copies, so a chunk
        emitter that raises (:exc:`~repro.trace.draws.ReplayUnsupported`,
        before consuming RNG state) leaves the kernel untouched; only
        :meth:`write_back_chunk_state` publishes the walked values.
        """
        view = SimpleNamespace()
        for descriptor in self._BASE_STATE + self.STATE:
            descriptor.bind(self, view)
        return view

    def write_back_chunk_state(self, view: SimpleNamespace) -> None:
        """Store a view's (walked) values back into the kernel."""
        for descriptor in self._BASE_STATE + self.STATE:
            descriptor.write_back(self, view)

    def state_snapshot(self) -> dict:
        """Plain-dict snapshot of the declared state (tests, diagnostics).

        Two kernels that emitted the same stream — one through
        :meth:`emit_iteration`, one through :meth:`emit_chunk` — must
        produce equal snapshots; the equivalence suite relies on this.
        """
        snapshot = vars(self.bind_chunk_state())
        return {key: (list(value) if isinstance(value, list) else value)
                for key, value in snapshot.items()}

    # Subclasses implement this.
    def emit_iteration(self, rng: np.random.Generator) -> List[Instruction]:
        """Return the dynamic instructions of one loop iteration."""
        raise NotImplementedError

    def max_iteration_length(self) -> int:
        """A (generous) upper bound on one iteration's instruction count.

        The chunked generation loop sizes its chunks by this bound so a
        chunk can never overshoot the iteration boundary the scalar loop
        would stop at — a requirement for chaining phase segments over
        one shared ``Generator``.  Kernels overriding :meth:`emit_chunk`
        must override this too.
        """
        raise NotImplementedError

    def emit_chunk(self, rng: np.random.Generator, k: int,
                   sink: TraceSink) -> None:
        """Emit ``k`` iterations at once into ``sink``.

        The base implementation is the scalar oracle — a plain loop over
        :meth:`emit_iteration`.  Kernels override it with a vectorised
        emitter that pre-draws its RNG columns through
        :mod:`repro.trace.draws` and appends row ids and addresses
        straight to the sink, bit-identical to the oracle's stream; an
        override raises :exc:`~repro.trace.draws.ReplayUnsupported`
        *before consuming any state* when its draw schedule cannot be
        replayed (exotic spans, unsupported bit generator), and callers
        then fall back to this oracle.
        """
        for _ in range(k):
            sink.extend(self.emit_iteration(rng))

    def prologue(self, rng: np.random.Generator) -> List[Instruction]:
        """Return set-up instructions executed once before the loop."""
        return []


class StreamingFPKernel(_KernelBase):
    """Unit-stride streaming FP loop (swim / mgrid style).

    Per iteration and per stream: one FP load, a short dependent FP chain
    against persistent coefficient registers, and one FP store.  Induction
    variables are updated with integer ALU operations and a single
    highly-predictable loop branch closes the iteration.
    """

    #: FP registers reserved for loop-invariant coefficients.
    N_COEF = 4

    STATE = (RotationState("int_rot"), RotationState("fp_rot"),
             StreamOffsetsState("streams"), StreamOffsetState("out_stream"),
             SiteCountState("loop_branch"))

    def __init__(self, params: KernelParams) -> None:
        super().__init__(params)
        p = params
        value_regs = list(range(self.N_COEF, self.N_COEF + p.fp_window))
        self.fp_rot = RegisterRotation(value_regs)
        self.int_rot = RegisterRotation(list(range(1, 1 + p.int_window)))
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

    def prologue(self, rng: np.random.Generator) -> List[Instruction]:
        """Define the coefficient registers once, before the loop."""
        out = []
        pc = self.params.pc_base - 4 * self.N_COEF
        for c in range(self.N_COEF):
            out.append(Instruction(pc=pc, op=OpClass.FP_ADD, dest=(FP, c), srcs=()))
            pc += 4
        return out

    def emit_iteration(self, rng: np.random.Generator) -> List[Instruction]:
        p = self.params
        out: List[Instruction] = []
        pc = p.pc_base
        addr_reg = self.int_rot.next_dest()
        out.append(Instruction(pc=pc, op=OpClass.INT_ALU, dest=(INT, addr_reg),
                               srcs=((INT, self.int_rot.recent(2)),)))
        pc += 4
        last_values = []
        for s, stream in enumerate(self.streams):
            # Per-stream address arithmetic (integer overhead of compiled code).
            stream_addr = self.int_rot.next_dest()
            out.append(Instruction(pc=pc, op=OpClass.INT_ALU, dest=(INT, stream_addr),
                                   srcs=((INT, addr_reg),)))
            pc += 4
            load_dest = self.fp_rot.next_dest()
            out.append(Instruction(pc=pc, op=OpClass.FP_LOAD, dest=(FP, load_dest),
                                   srcs=((INT, stream_addr),),
                                   mem_addr=stream.next_address(rng)))
            pc += 4
            prev = load_dest
            for c in range(p.chain_len):
                dest = self.fp_rot.next_dest()
                coef = (s + c) % self.N_COEF
                op = OpClass.FP_MULT if (c % 2 == 1) else OpClass.FP_ADD
                out.append(Instruction(pc=pc, op=op, dest=(FP, dest),
                                       srcs=((FP, prev), (FP, coef))))
                pc += 4
                prev = dest
            last_values.append(prev)
            index_reg = self.int_rot.next_dest()
            out.append(Instruction(pc=pc, op=OpClass.INT_ALU, dest=(INT, index_reg),
                                   srcs=((INT, stream_addr),)))
            pc += 4
            out.append(Instruction(pc=pc, op=OpClass.FP_STORE,
                                   srcs=((FP, prev), (INT, index_reg)),
                                   mem_addr=self.out_stream.next_address(rng)))
            pc += 4
        if p.div_interval and self.iteration % p.div_interval == 0 and last_values:
            dest = self.fp_rot.next_dest()
            out.append(Instruction(pc=pc, op=OpClass.FP_DIV, dest=(FP, dest),
                                   srcs=((FP, last_values[0]), (FP, 0))))
        pc += 4
        idx_reg = self.int_rot.next_dest()
        out.append(Instruction(pc=pc, op=OpClass.INT_ALU, dest=(INT, idx_reg),
                               srcs=((INT, addr_reg),)))
        pc += 4
        out.append(Instruction(pc=self.loop_branch.pc, op=OpClass.BRANCH,
                               srcs=((INT, idx_reg),),
                               taken=self._branch_outcome(self.loop_branch, rng),
                               target=self.loop_branch.target))
        self.iteration += 1
        return out

    def max_iteration_length(self) -> int:
        p = self.params
        return 3 + len(self.streams) * (4 + p.chain_len) + 1 + 8

    def emit_chunk(self, rng: np.random.Generator, k: int,
                   sink: TraceSink) -> None:
        """Vectorised emitter.  This kernel draws nothing from ``rng``
        (strided streams, loop-only branches): an iteration's row ids
        are a function of the rotation cursors and of two flags (the
        divide, the loop outcome), memoised per such shape, and a
        chunk's addresses are one numpy expression per stream."""
        p = self.params
        st = self.bind_chunk_state()
        memo = sink.memo(self)
        add_rows = sink.rows.extend
        iwn, fwn = len(self.int_rot.window), len(self.fp_rot.window)
        icur, fcur = st.int_rot_cursor, st.fp_rot_cursor
        n_streams = len(self.streams)
        int_dests = 2 + 2 * n_streams
        fp_dests = n_streams * (1 + p.chain_len)
        div_interval = p.div_interval if n_streams else 0
        trip = self.loop_branch.trip
        loop_count, ghist, iteration = (st.loop_branch_count, st.ghist,
                                        st.iteration)
        for _ in range(k):
            div = bool(div_interval) and iteration % div_interval == 0
            loop_count += 1
            taken = (loop_count % trip) != 0
            ghist = ((ghist << 1) | taken) & 0xFFFF
            key = (icur % iwn, min(icur, 5), fcur % fwn, div, taken)
            rows = memo.get(key)
            if rows is None:
                rows = memo[key] = self._iteration_rows(
                    sink.intern, icur, fcur, div, taken)
            add_rows(rows)
            icur += int_dests
            fcur += fp_dests + div
            iteration += 1
        # Memory ops per iteration: each stream's load, then its store.
        addrs = np.empty((k, 2 * n_streams), dtype=np.int64)
        for s, stream in enumerate(self.streams):
            addrs[:, 2 * s] = _strided_addresses(stream,
                                                 st.streams_offsets[s], k)
            st.streams_offsets[s] += stream.stride * k
        out = self.out_stream
        addrs[:, 1::2] = _strided_addresses(
            out, st.out_stream_offset, k * n_streams).reshape(k, n_streams)
        st.out_stream_offset += out.stride * k * n_streams
        sink.addrs.extend(addrs.ravel().tolist())
        st.int_rot_cursor, st.fp_rot_cursor = icur, fcur
        st.loop_branch_count, st.ghist, st.iteration = (loop_count, ghist,
                                                        iteration)
        self.write_back_chunk_state(st)

    def _iteration_rows(self, intern, icur: int, fcur: int, div: bool,
                        taken: bool) -> List[int]:
        """Row ids of one iteration starting at cursors ``icur``/``fcur``
        (the memo-miss path of :meth:`emit_chunk`; mirrors
        :meth:`emit_iteration`)."""
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


class StencilFPKernel(_KernelBase):
    """Neighbour-gather stencil loop (tomcatv / applu / hydro2d style).

    Each iteration loads several neighbouring points, combines them in a
    long cross-dependent FP chain, performs an occasional FP divide, and
    stores one or two results.  The long chains plus the divides keep many
    FP values live at once — this is the highest-register-pressure kernel.
    """

    N_COEF = 6

    STATE = (RotationState("int_rot"), RotationState("fp_rot"),
             StreamOffsetsState("streams"), StreamOffsetState("out_stream"),
             SiteCountState("loop_branch"))

    def __init__(self, params: KernelParams) -> None:
        super().__init__(params)
        p = params
        value_regs = list(range(self.N_COEF, self.N_COEF + p.fp_window))
        self.fp_rot = RegisterRotation(value_regs)
        self.int_rot = RegisterRotation(list(range(1, 1 + p.int_window)))
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

    def prologue(self, rng: np.random.Generator) -> List[Instruction]:
        """Define the stencil coefficient registers once."""
        out = []
        pc = self.params.pc_base - 4 * self.N_COEF
        for c in range(self.N_COEF):
            out.append(Instruction(pc=pc, op=OpClass.FP_MULT, dest=(FP, c), srcs=()))
            pc += 4
        return out

    def emit_iteration(self, rng: np.random.Generator) -> List[Instruction]:
        p = self.params
        out: List[Instruction] = []
        pc = p.pc_base
        addr_reg = self.int_rot.next_dest()
        out.append(Instruction(pc=pc, op=OpClass.INT_ALU, dest=(INT, addr_reg),
                               srcs=((INT, self.int_rot.recent(2)),)))
        pc += 4
        addr2_reg = self.int_rot.next_dest()
        out.append(Instruction(pc=pc, op=OpClass.INT_ALU, dest=(INT, addr2_reg),
                               srcs=((INT, addr_reg),)))
        pc += 4
        loaded: List[int] = []
        for s, stream in enumerate(self.streams):
            stream_addr = self.int_rot.next_dest()
            out.append(Instruction(pc=pc, op=OpClass.INT_ALU, dest=(INT, stream_addr),
                                   srcs=((INT, addr_reg if s % 2 == 0 else addr2_reg),)))
            pc += 4
            dest = self.fp_rot.next_dest()
            out.append(Instruction(pc=pc, op=OpClass.FP_LOAD, dest=(FP, dest),
                                   srcs=((INT, stream_addr),),
                                   mem_addr=stream.next_address(rng)))
            pc += 4
            loaded.append(dest)
        # Cross-combine neighbours: a reduction tree followed by a chain.
        prev = loaded[0]
        for i, other in enumerate(loaded[1:]):
            dest = self.fp_rot.next_dest()
            op = OpClass.FP_ADD if i % 2 == 0 else OpClass.FP_MULT
            out.append(Instruction(pc=pc, op=op, dest=(FP, dest),
                                   srcs=((FP, prev), (FP, other))))
            pc += 4
            prev = dest
        for c in range(p.chain_len):
            dest = self.fp_rot.next_dest()
            coef = c % self.N_COEF
            op = OpClass.FP_MULT if c % 2 == 0 else OpClass.FP_ADD
            out.append(Instruction(pc=pc, op=op, dest=(FP, dest),
                                   srcs=((FP, prev), (FP, coef))))
            pc += 4
            prev = dest
        if p.div_interval and self.iteration % p.div_interval == 0:
            dest = self.fp_rot.next_dest()
            out.append(Instruction(pc=pc, op=OpClass.FP_DIV, dest=(FP, dest),
                                   srcs=((FP, prev), (FP, 1))))
            prev = dest
        pc += 4
        out.append(Instruction(pc=pc, op=OpClass.FP_STORE,
                               srcs=((FP, prev), (INT, addr_reg)),
                               mem_addr=self.out_stream.next_address(rng)))
        pc += 4
        idx_reg = self.int_rot.next_dest()
        out.append(Instruction(pc=pc, op=OpClass.INT_ALU, dest=(INT, idx_reg),
                               srcs=((INT, addr_reg),)))
        pc += 4
        out.append(Instruction(pc=self.loop_branch.pc, op=OpClass.BRANCH,
                               srcs=((INT, idx_reg),),
                               taken=self._branch_outcome(self.loop_branch, rng),
                               target=self.loop_branch.target))
        self.iteration += 1
        return out

    def max_iteration_length(self) -> int:
        p = self.params
        n = len(self.streams)
        return 2 + 2 * n + max(0, n - 1) + p.chain_len + 1 + 1 + 1 + 1 + 8

    def emit_chunk(self, rng: np.random.Generator, k: int,
                   sink: TraceSink) -> None:
        """Vectorised emitter (no RNG draws; see
        :meth:`StreamingFPKernel.emit_chunk`)."""
        p = self.params
        st = self.bind_chunk_state()
        memo = sink.memo(self)
        add_rows = sink.rows.extend
        iwn, fwn = len(self.int_rot.window), len(self.fp_rot.window)
        icur, fcur = st.int_rot_cursor, st.fp_rot_cursor
        n_streams = len(self.streams)
        int_dests = 3 + n_streams
        fp_dests = 2 * n_streams - 1 + p.chain_len
        div_interval = p.div_interval
        trip = self.loop_branch.trip
        loop_count, ghist, iteration = (st.loop_branch_count, st.ghist,
                                        st.iteration)
        for _ in range(k):
            div = bool(div_interval) and iteration % div_interval == 0
            loop_count += 1
            taken = (loop_count % trip) != 0
            ghist = ((ghist << 1) | taken) & 0xFFFF
            key = (icur % iwn, min(icur, 5), fcur % fwn, div, taken)
            rows = memo.get(key)
            if rows is None:
                rows = memo[key] = self._iteration_rows(
                    sink.intern, icur, fcur, div, taken)
            add_rows(rows)
            icur += int_dests
            fcur += fp_dests + div
            iteration += 1
        # Memory ops per iteration: one load per stream, then the store.
        addrs = np.empty((k, n_streams + 1), dtype=np.int64)
        for s, stream in enumerate(self.streams):
            addrs[:, s] = _strided_addresses(stream, st.streams_offsets[s], k)
            st.streams_offsets[s] += stream.stride * k
        out = self.out_stream
        addrs[:, n_streams] = _strided_addresses(out, st.out_stream_offset, k)
        st.out_stream_offset += out.stride * k
        sink.addrs.extend(addrs.ravel().tolist())
        st.int_rot_cursor, st.fp_rot_cursor = icur, fcur
        st.loop_branch_count, st.ghist, st.iteration = (loop_count, ghist,
                                                        iteration)
        self.write_back_chunk_state(st)

    def _iteration_rows(self, intern, icur: int, fcur: int, div: bool,
                        taken: bool) -> List[int]:
        """Row ids of one iteration starting at cursors ``icur``/``fcur``
        (the memo-miss path of :meth:`emit_chunk`; mirrors
        :meth:`emit_iteration`)."""
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

    STATE = (RotationState("int_rot"), StreamOffsetState("out"),
             SiteCountState("loop_branch"), SiteCountState("hammock_branch"))

    def __init__(self, params: KernelParams) -> None:
        super().__init__(params)
        p = params
        self.int_rot = RegisterRotation(list(range(1, 1 + p.int_window)))
        self.data = RandomStream(base=p.data_base, footprint=p.mem_footprint)
        self.out = StridedStream(base=p.data_base + 2 * p.mem_footprint,
                                 stride=8, footprint=p.mem_footprint)
        chain_block = 1 + p.chain_len
        body = 1 + p.n_parallel_chains * chain_block + p.hammock_len + 4
        self.hammock_branch = BranchSite(
            pc=p.pc_base + 4 * (1 + p.n_parallel_chains * chain_block),
            target=p.pc_base + 4 * (1 + p.n_parallel_chains * chain_block
                                    + p.hammock_len + 1),
            kind="correlated", bias=p.branch_bias, noise=p.branch_noise)
        self.loop_branch = BranchSite(pc=p.pc_base + 4 * body, target=p.pc_base,
                                      kind="loop", trip=p.trip_count)

    def emit_iteration(self, rng: np.random.Generator) -> List[Instruction]:
        p = self.params
        out: List[Instruction] = []
        pc = p.pc_base
        addr_reg = self.int_rot.next_dest()
        out.append(Instruction(pc=pc, op=OpClass.INT_ALU, dest=(INT, addr_reg),
                               srcs=((INT, self.int_rot.recent(2)),)))
        pc += 4
        chain_heads: List[int] = []
        for _chain in range(p.n_parallel_chains):
            load_dest = self.int_rot.next_dest()
            out.append(Instruction(pc=pc, op=OpClass.LOAD, dest=(INT, load_dest),
                                   srcs=((INT, addr_reg),),
                                   mem_addr=self.data.next_address(rng)))
            pc += 4
            prev = load_dest
            for _ in range(p.chain_len):
                dest = self.int_rot.next_dest()
                out.append(Instruction(pc=pc, op=OpClass.INT_ALU, dest=(INT, dest),
                                       srcs=((INT, prev),)))
                pc += 4
                prev = dest
            chain_heads.append(prev)
        combine = self.int_rot.next_dest()
        out.append(Instruction(pc=pc, op=OpClass.INT_ALU, dest=(INT, combine),
                               srcs=((INT, chain_heads[0]),
                                     (INT, chain_heads[-1]))))
        pc += 4
        taken = self._branch_outcome(self.hammock_branch, rng)
        out.append(Instruction(pc=self.hammock_branch.pc, op=OpClass.BRANCH,
                               srcs=((INT, chain_heads[0]),), taken=taken,
                               target=self.hammock_branch.target))
        pc = self.hammock_branch.pc + 4
        if not taken:
            prev = combine
            for _ in range(p.hammock_len):
                dest = self.int_rot.next_dest()
                out.append(Instruction(pc=pc, op=OpClass.INT_ALU, dest=(INT, dest),
                                       srcs=((INT, prev),)))
                pc += 4
                prev = dest
        else:
            pc = self.hammock_branch.target
        if p.mult_interval and self.iteration % p.mult_interval == 0:
            dest = self.int_rot.next_dest()
            out.append(Instruction(pc=pc, op=OpClass.INT_MULT, dest=(INT, dest),
                                   srcs=((INT, chain_heads[-1]),)))
        pc += 4
        if rng.random() < p.store_fraction:
            out.append(Instruction(pc=pc, op=OpClass.STORE,
                                   srcs=((INT, combine), (INT, addr_reg)),
                                   mem_addr=self.out.next_address(rng)))
        pc += 4
        for extra in range(p.extra_stores):
            out.append(Instruction(
                pc=pc, op=OpClass.STORE,
                srcs=((INT, chain_heads[extra % len(chain_heads)]),
                      (INT, addr_reg)),
                mem_addr=self.out.next_address(rng)))
            pc += 4
        out.append(Instruction(pc=self.loop_branch.pc, op=OpClass.BRANCH,
                               srcs=((INT, addr_reg),),
                               taken=self._branch_outcome(self.loop_branch, rng),
                               target=self.loop_branch.target))
        self.iteration += 1
        return out

    def max_iteration_length(self) -> int:
        p = self.params
        return (1 + p.n_parallel_chains * (1 + p.chain_len) + 1 + 1
                + p.hammock_len + 1 + 1 + p.extra_stores + 1 + 8)

    def emit_chunk(self, rng: np.random.Generator, k: int,
                   sink: TraceSink) -> None:
        """Vectorised emitter: pre-draws the load-address, branch-noise
        and store-lottery columns for ``k`` iterations in one bulk call
        (draw order per iteration: one address per work chain, the
        hammock's noise flip, the store lottery).  An iteration's row
        ids are memoised per shape: rotation cursor, hammock outcome,
        multiply, store, loop outcome."""
        p = self.params
        n_chains = p.n_parallel_chains
        hammock = self.hammock_branch
        noise = hammock.noise > 0.0
        template = ([_random_stream_span(self.data)] * n_chains
                    + ([DOUBLE] if noise else []) + [DOUBLE])
        columns = replay_template(rng, template, k)
        stores = (columns[-1] < p.store_fraction).tolist()
        noise_flips = ((columns[n_chains] < hammock.noise).tolist() if noise
                       else [False] * k)

        st = self.bind_chunk_state()
        memo = sink.memo(self)
        add_rows = sink.rows.extend
        iwn = len(self.int_rot.window)
        icur = st.int_rot_cursor
        chain_dests = 2 + n_chains * (1 + p.chain_len)
        trip, mult_interval = self.loop_branch.trip, p.mult_interval
        loop_count, ghist, iteration = (st.loop_branch_count, st.ghist,
                                        st.iteration)
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
        # Memory ops per iteration: the chains' loads, the store when its
        # lottery hit, the extra stores; stores walk the output stream.
        per_iteration = n_chains + 1 + p.extra_stores
        addrs = np.zeros((k, per_iteration), dtype=np.int64)
        present = np.ones((k, per_iteration), dtype=bool)
        for chain in range(n_chains):
            addrs[:, chain] = _random_stream_addresses(self.data,
                                                       columns[chain])
        present[:, n_chains] = stores
        store_slots = present[:, n_chains:]
        n_stores = int(store_slots.sum())
        addrs[:, n_chains:][store_slots] = _strided_addresses(
            self.out, st.out_offset, n_stores)
        st.out_offset += self.out.stride * n_stores
        sink.addrs.extend(addrs[present].tolist())
        st.int_rot_cursor = icur
        st.loop_branch_count, st.ghist, st.iteration = (loop_count, ghist,
                                                        iteration)
        st.hammock_branch_count += k
        self.write_back_chunk_state(st)

    def _iteration_rows(self, intern, icur: int, hammock_taken: bool,
                        mult: bool, store: bool, taken: bool) -> List[int]:
        """Row ids of one iteration starting at cursor ``icur`` (the
        memo-miss path of :meth:`emit_chunk`; mirrors
        :meth:`emit_iteration`)."""
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

    STATE = (RotationState("int_rot"), SiteCountState("loop_branch"),
             SiteCountsState("sites"))

    def __init__(self, params: KernelParams) -> None:
        super().__init__(params)
        p = params
        self.int_rot = RegisterRotation(list(range(1, 1 + p.int_window)))
        self.data = RandomStream(base=p.data_base, footprint=p.mem_footprint)
        self.sites: List[BranchSite] = []
        rng = np.random.default_rng(p.pc_base)  # deterministic per-site behaviour
        block_span = 4 * (p.block_len + p.hammock_len + 1)
        for s in range(p.n_branch_sites):
            block_pc = p.pc_base + s * block_span
            branch_pc = block_pc + 4 * p.block_len
            target = block_pc + block_span
            if rng.random() < p.pattern_fraction:
                pattern = self._PATTERNS[s % len(self._PATTERNS)]
                self.sites.append(BranchSite(pc=branch_pc, target=target,
                                             kind="pattern", pattern=pattern))
            else:
                bias = float(np.clip(p.branch_bias + rng.normal(0.0, 0.08),
                                     0.60, 0.97))
                self.sites.append(BranchSite(pc=branch_pc, target=target,
                                             kind="correlated", bias=bias,
                                             noise=p.branch_noise))
        self.loop_branch = BranchSite(
            pc=p.pc_base + p.n_branch_sites * block_span,
            target=p.pc_base, kind="loop", trip=p.trip_count)

    def emit_iteration(self, rng: np.random.Generator) -> List[Instruction]:
        p = self.params
        out: List[Instruction] = []
        for s, site in enumerate(self.sites):
            block_pc = site.pc - 4 * p.block_len
            pc = block_pc
            # Each block computes from registers defined a few blocks ago, so
            # consecutive blocks are (mostly) independent of each other.
            local = self.int_rot.recent(3)
            for i in range(p.block_len):
                is_load = i == 0 and s % 3 == 0
                if not is_load and i == p.block_len - 1 and s % 4 == 3:
                    out.append(Instruction(
                        pc=pc, op=OpClass.STORE,
                        srcs=((INT, local), (INT, self.int_rot.recent(4))),
                        mem_addr=self.data.next_address(rng)))
                    pc += 4
                    continue
                dest = self.int_rot.next_dest()
                if is_load:
                    out.append(Instruction(pc=pc, op=OpClass.LOAD, dest=(INT, dest),
                                           srcs=((INT, local),),
                                           mem_addr=self.data.next_address(rng)))
                else:
                    out.append(Instruction(
                        pc=pc, op=OpClass.INT_ALU, dest=(INT, dest),
                        srcs=((INT, local), (INT, self.int_rot.recent(5)))))
                local = dest
                pc += 4
            taken = self._branch_outcome(site, rng)
            out.append(Instruction(pc=site.pc, op=OpClass.BRANCH,
                                   srcs=((INT, local),), taken=taken,
                                   target=site.target))
            if not taken:
                pc = site.pc + 4
                for _ in range(p.hammock_len):
                    dest = self.int_rot.next_dest()
                    out.append(Instruction(pc=pc, op=OpClass.INT_ALU, dest=(INT, dest),
                                           srcs=((INT, local),)))
                    local = dest
                    pc += 4
        out.append(Instruction(pc=self.loop_branch.pc, op=OpClass.BRANCH,
                               srcs=((INT, self.int_rot.recent(1)),),
                               taken=self._branch_outcome(self.loop_branch, rng),
                               target=self.loop_branch.target))
        self.iteration += 1
        return out

    def max_iteration_length(self) -> int:
        p = self.params
        return (len(self.sites) * (p.block_len + 1 + p.hammock_len)
                + 1 + 8)

    def _chunk_schedule(self):
        """The per-iteration draw template, the per-site noise columns and
        the address columns in emission order.

        Walking the static site list yields, in draw order: the block's
        load address (sites ``s % 3 == 0``), the block's store address
        (sites ``s % 4 == 3``, unless the single-block load consumed the
        slot), then the site's noise flip (correlated sites only).  The
        addresses come in the order the block emits its memory ops.
        """
        if not hasattr(self, "_schedule"):
            p = self.params
            span = _random_stream_span(self.data)
            template: List[int] = []
            noise_columns: List[Optional[int]] = []
            for s, site in enumerate(self.sites):
                if p.block_len > 0 and s % 3 == 0:
                    template.append(span)
                if (p.block_len > 0 and s % 4 == 3
                        and not (p.block_len == 1 and s % 3 == 0)):
                    template.append(span)
                noise_columns.append(None)
                if site.kind == "correlated" and site.noise > 0.0:
                    noise_columns[-1] = len(template)
                    template.append(DOUBLE)
            addresses = [i for i, entry in enumerate(template)
                         if entry != DOUBLE]
            self._schedule = (template, noise_columns, addresses)
        return self._schedule

    def emit_chunk(self, rng: np.random.Generator, k: int,
                   sink: TraceSink) -> None:
        """Vectorised emitter: one bulk draw covers every site's load and
        store addresses and every correlated site's noise flip for ``k``
        iterations.  Each site's block (body, branch, hammock) is
        memoised as row ids per shape: rotation cursor and outcome."""
        template, noise_columns, addresses = self._chunk_schedule()
        columns = replay_template(rng, template, k)
        flips = [None if index is None
                 else (columns[index] < site.noise).tolist()
                 for site, index in zip(self.sites, noise_columns,
                                        strict=True)]
        patterns = [site.pattern if site.kind == "pattern" else None
                    for site in self.sites]

        st = self.bind_chunk_state()
        memo = sink.memo(self)
        add_rows = sink.rows.extend
        iwin = self.int_rot.window
        iwn = len(iwin)
        icur = st.int_rot_cursor
        loop = self.loop_branch
        loop_count, ghist, iteration = (st.loop_branch_count, st.ghist,
                                        st.iteration)
        #: per-site dynamic-instance counters: pattern sites walk theirs
        #: per iteration, correlated sites advance by ``k`` in bulk below.
        site_counts = st.sites_counts
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
            iteration += 1
        if addresses:
            sink.addrs.extend(np.stack(
                [_random_stream_addresses(self.data, columns[i])
                 for i in addresses], axis=1).ravel().tolist())
        st.int_rot_cursor = icur
        for s, pattern in enumerate(patterns):
            if pattern is None:
                site_counts[s] += k
        st.loop_branch_count, st.ghist, st.iteration = (loop_count, ghist,
                                                        iteration)
        self.write_back_chunk_state(st)

    def _block_rows(self, intern, s: int, icur: int,
                    taken: bool) -> Tuple[List[int], int]:
        """Row ids of site ``s``'s block from cursor ``icur``, and the
        registers it hands out (the memo-miss path of :meth:`emit_chunk`;
        mirrors :meth:`emit_iteration`)."""
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

    STATE = (RotationState("int_rot"), ChasePositionsState("chases"),
             SiteCountState("pattern_branch"), SiteCountState("cond_branch"),
             SiteCountState("loop_branch"))

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
        self.loop_branch = BranchSite(pc=p.pc_base + 4 * body + 64, target=p.pc_base,
                                      kind="loop", trip=p.trip_count)
        #: dedicated pointer registers (outside the rotation window) so each
        #: chase is a true ``p = p->next`` chain across iterations.
        self._ptr_regs = [p.int_window + 1 + i for i in range(2)]

    def prologue(self, rng: np.random.Generator) -> List[Instruction]:
        """Initialise the two chase pointer registers."""
        out = []
        pc = self.params.pc_base - 4 * len(self._ptr_regs)
        for reg in self._ptr_regs:
            out.append(Instruction(pc=pc, op=OpClass.INT_ALU, dest=(INT, reg), srcs=()))
            pc += 4
        return out

    def emit_iteration(self, rng: np.random.Generator) -> List[Instruction]:
        p = self.params
        out: List[Instruction] = []
        pc = p.pc_base
        work_values: List[int] = []
        for _step in range(p.load_chain_len):
            for chase_id, chase in enumerate(self.chases):
                ptr_reg = self._ptr_regs[chase_id]
                # p = p->next: the load reads and redefines the pointer register.
                out.append(Instruction(pc=pc, op=OpClass.LOAD, dest=(INT, ptr_reg),
                                       srcs=((INT, ptr_reg),),
                                       mem_addr=chase.next_address(rng)))
                pc += 4
                # Per-node work: depends on the loaded value but nothing else
                # depends on it, so it runs in parallel with the next hop.
                work = self.int_rot.next_dest()
                out.append(Instruction(pc=pc, op=OpClass.INT_ALU, dest=(INT, work),
                                       srcs=((INT, ptr_reg),)))
                pc += 4
                work_values.append(work)
        taken = self._branch_outcome(self.pattern_branch, rng)
        out.append(Instruction(pc=self.pattern_branch.pc, op=OpClass.BRANCH,
                               srcs=((INT, work_values[0]),), taken=taken,
                               target=self.pattern_branch.target))
        pc = self.pattern_branch.target if taken else self.pattern_branch.pc + 4
        if not taken:
            for _ in range(2):
                dest = self.int_rot.next_dest()
                out.append(Instruction(pc=pc, op=OpClass.INT_ALU, dest=(INT, dest),
                                       srcs=((INT, work_values[-1]),)))
                pc += 4
        taken = self._branch_outcome(self.cond_branch, rng)
        out.append(Instruction(pc=self.cond_branch.pc, op=OpClass.BRANCH,
                               srcs=((INT, work_values[-1]),), taken=taken,
                               target=self.cond_branch.target))
        pc = self.cond_branch.target if taken else self.cond_branch.pc + 4
        if not taken:
            for _ in range(p.hammock_len):
                dest = self.int_rot.next_dest()
                out.append(Instruction(pc=pc, op=OpClass.INT_ALU, dest=(INT, dest),
                                       srcs=((INT, self.int_rot.recent(2)),)))
                pc += 4
        if rng.random() < p.store_fraction:
            out.append(Instruction(
                pc=pc, op=OpClass.STORE,
                srcs=((INT, work_values[-1]), (INT, self._ptr_regs[0])),
                mem_addr=self.data.next_address(rng)))
        out.append(Instruction(pc=self.loop_branch.pc, op=OpClass.BRANCH,
                               srcs=((INT, work_values[0]),),
                               taken=self._branch_outcome(self.loop_branch, rng),
                               target=self.loop_branch.target))
        self.iteration += 1
        return out

    def max_iteration_length(self) -> int:
        p = self.params
        return (2 * p.load_chain_len * len(self.chases) + 1 + 2 + 1
                + p.hammock_len + 1 + 1 + 8)

    def emit_chunk(self, rng: np.random.Generator, k: int,
                   sink: TraceSink) -> None:
        """Vectorised emitter.

        The store-address draw is conditional on the store lottery, so
        the per-iteration raw consumption is data-dependent — this kernel
        replays through a :class:`~repro.trace.draws.RawCursor` scan
        (draw order per iteration: the conditional branch's noise flip,
        the store lottery, then the store address when the lottery hits)
        instead of a fixed column template.  An iteration's row ids are
        memoised per shape: rotation cursor and the pattern, conditional,
        store and loop outcomes.
        """
        p = self.params
        span = _random_stream_span(self.data)
        threshold = bounded_threshold(span)
        cond = self.cond_branch
        noise = cond.noise > 0.0
        # Worst case per iteration: noise flip + store lottery (one raw
        # each) + store address (at most one raw).
        cursor = RawCursor(rng, 3 * k + 2)
        st = self.bind_chunk_state()
        try:
            memo = sink.memo(self)
            add_rows, add_addrs = sink.rows.extend, sink.addrs.extend
            iwn = len(self.int_rot.window)
            icur = st.int_rot_cursor
            # The chases' load addresses: per iteration, step-major, the
            # two chases interleaved.
            count = k * p.load_chain_len
            chase_addrs = np.empty((count, len(self.chases)), dtype=np.int64)
            for chase_id, chase in enumerate(self.chases):
                chase._ensure_order()
                nodes = (st.chases_positions[chase_id]
                         + np.arange(count)) % chase.n_nodes
                chase_addrs[:, chase_id] = (chase.base + chase._order[nodes]
                                            * chase.node_size)
                st.chases_positions[chase_id] += count
            loads = chase_addrs.reshape(k, -1).tolist()
            pattern = self.pattern_branch.pattern
            pattern_count = st.pattern_branch_count
            trip = self.loop_branch.trip
            loop_count, ghist, iteration = (st.loop_branch_count, st.ghist,
                                            st.iteration)
            works = p.load_chain_len * len(self.chases)
            data = self.data
            next_double, next_bounded = cursor.next_double, cursor.next_bounded
            for j in range(k):
                pattern_count += 1
                pattern_taken = (bool(pattern[(pattern_count - 1)
                                              % len(pattern)])
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
                iteration += 1
        finally:
            cursor.finalize()
        st.int_rot_cursor = icur
        st.pattern_branch_count = pattern_count
        st.cond_branch_count += k
        st.loop_branch_count, st.ghist, st.iteration = (loop_count, ghist,
                                                        iteration)
        self.write_back_chunk_state(st)

    def _iteration_rows(self, intern, icur: int, pattern_taken: bool,
                        cond_taken: bool, store: bool,
                        taken: bool) -> List[int]:
        """Row ids of one iteration starting at cursor ``icur`` (the
        memo-miss path of :meth:`emit_chunk`; mirrors
        :meth:`emit_iteration`)."""
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
