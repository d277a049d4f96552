"""Drive one simulation through the compiled core, bit-identically.

:func:`run_compiled` fills a C ``Machine`` built by
:mod:`repro.engine.accel.loader`, lets ``sim_run`` execute the whole
pipeline, and assembles the resulting counters into the same
:class:`~repro.pipeline.stats.SimStats` the Python engine's
``collect_stats`` would produce.  It starts from one of two places:

* a **cold start** (:class:`ColdStart`): the trace and the config only,
  which is what ``SimulationEngine.run`` hands it for a run from reset.
  ``sim_new``'s machine is the cold machine (every gshare counter at 2,
  empty BTB and caches), the warm-up trace is exported and
  ``sim_run`` replays it through the C predictor/BTB/cache models
  before the first measured cycle — the exact port of
  ``MachineState._warm_state`` — and the wrong-path generator and
  exception RNG are created fresh for the run;
* a **warmed** :class:`~repro.engine.state.MachineState` at cycle 0,
  whose predictor, BTB and caches are exported as they are (the
  self-check compares this path too).

The core reads a trace the way :class:`~repro.trace.records.TraceColumns`
stores it: a row table with one entry per distinct static record, and a
row id and an address per instruction.  The export (counted by
:data:`~repro.engine.accel.artefacts.EXPORT_CACHE`) copies the small
table and those two per-instruction arrays into the ``Machine``; the
warm-up trace brings its own table.  Before its first cycle ``sim_run``
checks that every row id indexes its table and that every row's
registers fit the logical files, and escapes with ``RUN_INTERNAL``
otherwise.  All mutable machine state is allocated per run by
``sim_new``.

The only Python work during the run is *refilling draw buffers*: the C
core never calls back into Python, so the two stochastic inputs — the
wrong-path instruction stream and the per-rename exception lottery — are
fed through flat buffers.  ``sim_run`` escapes with
``RUN_NEED_WRONGPATH`` / ``RUN_NEED_EXC`` *before* starting any cycle
that could exhaust a buffer, Python tops the buffer up (from the cold
start's own generators, or from deep copies of a ``MachineState``'s, so
a later pure-Python fallback still observes untouched RNG streams), and
re-enters.

The wrong-path buffer holds raw 64-bit PCG64 words, not instructions:
the C core runs :class:`~repro.trace.wrongpath.WrongPathGenerator`'s
category cascade itself at each wrong-path fetch, turning words into
doubles and bounded integers by the draw contract of
:mod:`repro.trace.draws`, and keeps the generator's buffered 32-bit half
and register-window cursors.  Python only copies
``bit_generator.random_raw`` blocks in.

``run_compiled`` returns ``None`` whenever the run must be redone by the
Python engine: configurations the C core does not model, a deadlock
(so the Python engine raises its own ``DeadlockError``), or an internal
check failure inside the core — its input check or one of its
consistency checks (logged — this is the divergence fallback of the
accelerated backend's contract).
"""

from __future__ import annotations

import copy
import logging
from typing import NamedTuple, Optional, Union

import numpy as np

from repro.engine.accel import loader
from repro.engine.accel.artefacts import EXPORT_CACHE
from repro.engine.accel.loader import (A, CFG, F, NCFG, RF, RQ_LEVELS_MAX,
                                       RUN_DEADLOCK, RUN_FINISHED,
                                       RUN_INTERNAL, RUN_NEED_EXC,
                                       RUN_NEED_WRONGPATH, SC, ST, ST_N)
from repro.core.register_state import OccupancyTotals
from repro.engine import state as machine_state
from repro.isa import FUKind, OpClass
from repro.pipeline.config import ProcessorConfig
from repro.pipeline.stats import RegisterFileStats, SimStats
from repro.trace.draws import replay_supported
from repro.trace.records import (ROW_COLUMN_NAMES, WARMUP_ROW_COLUMN_NAMES,
                                 Trace, TraceColumns, column_width)

logger = logging.getLogger("repro.engine.accel")

#: Wrong-path raw-word buffer capacity.  A wrong-path fetch consumes one
#: to three words; a refill escape costs one ``sim_run`` re-entry and one
#: ``random_raw`` call.  Must cover three words per fetch slot.
WP_RAW_BUFFER = 4096

#: Exception-lottery buffer capacity (one double per renamed correct-path
#: instruction; refills are a single batched ``Generator.random`` call).
EXC_BUFFER = 4096

_POLICY_CODES = {"conv": 0, "conventional": 0, "basic": 1, "extended": 2}

_FU_KINDS = tuple(FUKind)          # 6 pools, enum order == C pool order
_OP_CLASSES = tuple(OpClass)       # 11 classes, enum order == C op order


class CompiledRun(NamedTuple):
    """Result of a successful compiled run."""

    stats: SimStats


# ----------------------------------------------------------------------
# Export-support probe
# ----------------------------------------------------------------------
def unsupported_reason(cfg: ProcessorConfig) -> Optional[str]:
    """Why this configuration cannot run on the compiled core (None = can).

    The C core sizes its Release Queue from the config but caps the
    depth at ``RQ_LEVELS_MAX``, and models exactly the paper's six-pool /
    eleven-class functional units; configurations outside that envelope
    quietly use the Python engine.  A run also checks that its wrong-path
    generator is replayable from raw words (see :func:`_wrongpath_reason`).
    """
    if (_POLICY_CODES.get(cfg.release_policy) == 2
            and cfg.max_pending_branches > RQ_LEVELS_MAX):
        return (f"extended policy needs max_pending_branches <= "
                f"{RQ_LEVELS_MAX} (got {cfg.max_pending_branches})")
    counts = cfg.functional_units.counts
    latencies = cfg.functional_units.latencies
    if any(kind not in _FU_KINDS for kind in counts):
        return "functional-unit pool outside the six-pool model"
    if any(op not in latencies for op in _OP_CLASSES):
        return "incomplete functional-unit latency table"
    return None


def _is_window(regs) -> bool:
    return bool(regs) and list(regs) == list(range(regs[0],
                                                   regs[0] + len(regs)))


def _wrongpath_reason(generator) -> Optional[str]:
    """Why the C cascade cannot replay ``generator`` (None = it can)."""
    if generator is None:
        return "wrong path enabled but no generator present"
    if not replay_supported() or not isinstance(
            generator._rng.bit_generator, np.random.PCG64):
        return "wrong-path bit generator is not a replayable PCG64"
    if generator._pending_head < len(generator._pending):
        return "wrong-path generator holds pre-drawn payloads"
    if not (_is_window(generator._int_regs)
            and _is_window(generator._fp_regs)):
        return "wrong-path register windows are not contiguous"
    return None


# ----------------------------------------------------------------------
# Config vector
# ----------------------------------------------------------------------
def _config_vector(cfg: ProcessorConfig, columns: TraceColumns,
                   warm_columns: Optional[TraceColumns]) -> "np.ndarray":
    mem = cfg.memory
    fus = cfg.functional_units
    vec = np.zeros(NCFG, dtype=np.int64)
    vec[CFG.TRACE_LEN] = len(columns)
    vec[CFG.TRACE_ROWS] = len(columns.records)
    vec[CFG.FETCH_W] = cfg.fetch_width
    vec[CFG.RENAME_W] = cfg.rename_width
    vec[CFG.ISSUE_W] = cfg.issue_width
    vec[CFG.COMMIT_W] = cfg.commit_width
    vec[CFG.MAX_TAKEN] = cfg.max_taken_branches_per_cycle
    vec[CFG.FRONTEND] = cfg.frontend_stages
    vec[CFG.ROS] = cfg.ros_size
    vec[CFG.LSQ] = cfg.lsq_size
    vec[CFG.CK_CAP] = cfg.max_pending_branches
    vec[CFG.NPHYS_INT] = cfg.num_physical_int
    vec[CFG.NPHYS_FP] = cfg.num_physical_fp
    vec[CFG.NLOG_INT] = cfg.num_logical_int
    vec[CFG.NLOG_FP] = cfg.num_logical_fp
    vec[CFG.GSHARE_BITS] = cfg.gshare_history_bits
    vec[CFG.BTB_SETS] = cfg.btb_entries // cfg.btb_associativity
    vec[CFG.BTB_ASSOC] = cfg.btb_associativity
    vec[CFG.POLICY] = _POLICY_CODES[cfg.release_policy]
    vec[CFG.REUSE] = int(cfg.reuse_on_committed_lu)
    vec[CFG.WP_ENABLED] = int(cfg.enable_wrong_path)
    vec[CFG.EXC_ENABLED] = int(cfg.exception_rate > 0.0)
    for base, level in ((CFG.L1I_SETS, mem.l1i), (CFG.L1D_SETS, mem.l1d),
                        (CFG.L2_SETS, mem.l2)):
        vec[base + 0] = level.n_sets
        vec[base + 1] = level.associativity
        vec[base + 2] = level.line_bytes.bit_length() - 1
        vec[base + 3] = level.hit_latency
    vec[CFG.MEM_LAT] = mem.main_memory_latency
    for k, kind in enumerate(_FU_KINDS):
        vec[CFG.FU + 2 * k] = fus.counts.get(kind, 0)
        vec[CFG.FU + 2 * k + 1] = int(kind in fus.unpipelined)
    for op in _OP_CLASSES:
        vec[CFG.OP_LAT + int(op)] = fus.latencies[op]
    vec[CFG.WP_CAP] = WP_RAW_BUFFER
    vec[CFG.EXC_CAP] = EXC_BUFFER
    if warm_columns is not None:
        vec[CFG.WARM_LEN] = len(warm_columns)
        vec[CFG.WARM_ROWS] = len(warm_columns.records)
    return vec


# ----------------------------------------------------------------------
# State export
# ----------------------------------------------------------------------
def _i64_view(ffi, lib, mach, which: int, length: int) -> "np.ndarray":
    ptr = lib.sim_i64(mach, which)
    return np.frombuffer(ffi.buffer(ptr, 8 * length), dtype=np.int64)


#: The C buffer of each row-table column the measured run reads, and of
#: each one the warm-up replay reads.
_TRACE_ROW_BUFFERS = dict(zip(ROW_COLUMN_NAMES, (
    A.T_OP, A.T_PC, A.T_DC, A.T_DEST, A.T_NSRC, A.T_SRC_CLASS, A.T_SRC_LOG,
    A.T_TAKEN, A.T_TARGET), strict=True))
_WARMUP_ROW_BUFFERS = dict(zip(WARMUP_ROW_COLUMN_NAMES, (
    A.WU_OP, A.WU_PC, A.WU_TAKEN, A.WU_TARGET), strict=True))


def _copy_columns(ffi, lib, mach, columns: TraceColumns, row_buffers,
                  rows_buffer: int, addr_buffer: int) -> None:
    """Copy the row table, the row ids and the addresses into the Machine
    (buffers sized by ``sim_new`` from the same row and instruction counts)."""
    n = len(columns)
    if n == 0:
        return
    n_rows = len(columns.records)
    for name, which in row_buffers.items():
        _i64_view(ffi, lib, mach, which, column_width(name) * n_rows)[:] = \
            columns.table[name].ravel()
    _i64_view(ffi, lib, mach, rows_buffer, n)[:] = columns.rows
    _i64_view(ffi, lib, mach, addr_buffer, n)[:] = columns.addr


def _export_trace(ffi, lib, mach, columns: TraceColumns) -> None:
    """Copy the measured trace into the Machine."""
    _copy_columns(ffi, lib, mach, columns, _TRACE_ROW_BUFFERS,
                  A.T_ROWS, A.T_ADDR)


def _export_warmup(ffi, lib, mach, columns: TraceColumns) -> None:
    """Copy the warm-up trace (its own row table) into the Machine."""
    _copy_columns(ffi, lib, mach, columns, _WARMUP_ROW_BUFFERS,
                  A.WU_ROWS, A.WU_ADDR)


def _export_predictor(ffi, lib, mach, predictor) -> None:
    table = np.frombuffer(ffi.buffer(lib.sim_i8(mach, 0),
                                     predictor.table_size), dtype=np.int8)
    table[:] = np.frombuffer(predictor.table, dtype=np.int8)
    lib.sim_set(mach, SC.GS_HISTORY, predictor.history)


def _export_btb(ffi, lib, mach, btb) -> None:
    assoc = btb.associativity
    n_sets = btb.n_sets
    tag = _i64_view(ffi, lib, mach, A.B_TAG, n_sets * assoc)
    target = _i64_view(ffi, lib, mach, A.B_TARGET, n_sets * assoc)
    nway = _i64_view(ffi, lib, mach, A.B_NWAY, n_sets)
    for index, ways in enumerate(btb._sets):
        if not ways:
            continue
        nway[index] = len(ways)
        base = index * assoc
        for pos, (entry_tag, entry_target) in enumerate(ways):
            tag[base + pos] = entry_tag
            target[base + pos] = entry_target


def _export_cache(ffi, lib, mach, cache, which_tag: int) -> None:
    assoc = cache.config.associativity
    n_sets = cache._n_sets
    tag = _i64_view(ffi, lib, mach, which_tag, n_sets * assoc)
    dirty = _i64_view(ffi, lib, mach, which_tag + 1, n_sets * assoc)
    nway = _i64_view(ffi, lib, mach, which_tag + 2, n_sets)
    for index, ways in cache._sets.items():
        if not ways:
            continue
        nway[index] = len(ways)
        base = index * assoc
        for pos, (entry_tag, entry_dirty) in enumerate(ways):
            tag[base + pos] = entry_tag
            dirty[base + pos] = entry_dirty


def _export_wrongpath(lib, mach, generator) -> None:
    """Hand the C cascade the generator's mix, windows and buffered half."""
    mix = generator.mix
    for which, value in ((F.WP_BRANCH, mix.branch), (F.WP_LOAD, mix.load),
                         (F.WP_STORE, mix.store), (F.WP_FP, mix.fp),
                         (F.WP_FP_SHARE, mix.fp_load_share)):
        lib.sim_setf(mach, which, value)
    rng_state = generator._rng.bit_generator.state
    int_regs, fp_regs = generator._int_regs, generator._fp_regs
    for which, value in (
            (SC.WP_HALF, rng_state["uinteger"]
             if rng_state["has_uint32"] else -1),
            (SC.WP_DATA_BASE, generator._data_base),
            (SC.WP_INT_BASE, int_regs[0]), (SC.WP_INT_N, len(int_regs)),
            (SC.WP_INT_CURSOR, generator._int_cursor),
            (SC.WP_FP_BASE, fp_regs[0]), (SC.WP_FP_N, len(fp_regs)),
            (SC.WP_FP_CURSOR, generator._fp_cursor)):
        lib.sim_set(mach, which, value)


# ----------------------------------------------------------------------
# Draw-buffer refills
# ----------------------------------------------------------------------
def _fill_wrongpath(raw, bit_generator, start: int, stop: int) -> None:
    """Write raw PCG64 words ``[start, stop)`` of the wrong-path buffer."""
    raw[start:stop] = bit_generator.random_raw(stop - start).view(np.int64)


def _refill_wrongpath(lib, mach, raw, bit_generator) -> None:
    # The core has already moved its unconsumed words to the front.
    _fill_wrongpath(raw, bit_generator, lib.sim_get(mach, SC.WP_COUNT),
                    len(raw))
    lib.sim_set(mach, SC.WP_COUNT, len(raw))


def _refill_exceptions(ffi, lib, mach, rng, cap: int) -> None:
    buf = np.frombuffer(ffi.buffer(lib.sim_f64(mach, 0), 8 * cap),
                        dtype=np.float64)
    head = lib.sim_get(mach, SC.EXC_HEAD)
    count = lib.sim_get(mach, SC.EXC_COUNT)
    remaining = count - head
    if remaining > 0 and head > 0:
        buf[:remaining] = buf[head:count].copy()
    buf[remaining:cap] = rng.random(cap - remaining)
    lib.sim_set(mach, SC.EXC_HEAD, 0)
    lib.sim_set(mach, SC.EXC_COUNT, cap)


# ----------------------------------------------------------------------
# Stats assembly
# ----------------------------------------------------------------------
def _hit_rate(hits: int, misses: int) -> float:
    total = hits + misses
    return 1.0 if total == 0 else hits / total


def _miss_rate(hits: int, misses: int) -> float:
    total = hits + misses
    return 0.0 if total == 0 else misses / total


def _register_file_stats(st: "np.ndarray", base: int, num_physical: int,
                         cycles: int) -> RegisterFileStats:
    rf = st[base:base + 11]
    totals = OccupancyTotals(cycles=cycles,
                             empty=float(rf[RF.OCC_EMPTY]),
                             ready=float(rf[RF.OCC_READY]),
                             idle=float(rf[RF.OCC_IDLE]))
    return RegisterFileStats(
        num_physical=num_physical,
        allocations=int(rf[RF.ALLOCS]),
        releases=int(rf[RF.RELEASES]),
        early_releases=int(rf[RF.EARLY]),
        register_reuses=int(rf[RF.REUSES]),
        immediate_releases=int(rf[RF.IMMEDIATE]),
        scheduled_early_releases=int(rf[RF.SCHED_EARLY]),
        conventional_releases=int(rf[RF.CONVENTIONAL]),
        conditional_schedulings=int(rf[RF.CONDITIONAL]),
        occupancy=totals.averages(),
    )


def _assemble_stats(state, st: "np.ndarray",
                    cycles: int) -> SimStats:
    cfg = state.config
    stats = SimStats(benchmark=state.trace.name,
                     release_policy=cfg.release_policy)
    stats.cycles = cycles
    stats.committed_instructions = int(st[ST.COMMITTED])
    stats.committed_by_class = {
        op.name: int(st[ST.BY_CLASS + int(op)])
        for op in _OP_CLASSES if st[ST.BY_CLASS + int(op)]
    }
    stats.fetched_instructions = int(st[ST.FETCHED])
    stats.fetched_wrong_path = int(st[ST.FETCHED_WP])
    stats.renamed_instructions = int(st[ST.RENAMED])
    stats.squashed_instructions = int(st[ST.SQUASHED])
    stats.exceptions_taken = int(st[ST.EXCEPTIONS])
    stats.branches_resolved = int(st[ST.BR_RESOLVED])
    stats.branch_mispredictions = int(st[ST.BR_MISPRED])
    stats.btb_hit_rate = _hit_rate(int(st[ST.BTB_HITS]),
                                   int(st[ST.BTB_MISSES]))
    stats.l1i_miss_rate = _miss_rate(int(st[ST.L1I_HITS]),
                                     int(st[ST.L1I_MISSES]))
    stats.l1d_miss_rate = _miss_rate(int(st[ST.L1D_HITS]),
                                     int(st[ST.L1D_MISSES]))
    stats.l2_miss_rate = _miss_rate(int(st[ST.L2_HITS]),
                                    int(st[ST.L2_MISSES]))
    stats.forwarded_loads = int(st[ST.FORWARDED])
    stats.dispatch_stalls = {
        "ros_full": int(st[ST.STALL_ROS]),
        "lsq_full": int(st[ST.STALL_LSQ]),
        "checkpoints_full": int(st[ST.STALL_CK]),
        "no_free_int_register": int(st[ST.STALL_INT]),
        "no_free_fp_register": int(st[ST.STALL_FP]),
    }
    stats.structural_stalls = int(st[ST.STRUCTURAL])
    stats.int_registers = _register_file_stats(st, ST.RF_INT,
                                               cfg.num_physical_int, cycles)
    stats.fp_registers = _register_file_stats(st, ST.RF_FP,
                                              cfg.num_physical_fp, cycles)
    return stats


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
class ColdStart(NamedTuple):
    """A run from reset: the trace and the config, and nothing built.

    The core's own reset state is the cold machine (every gshare counter
    at 2, empty BTB and caches), and the run creates its wrong-path
    generator and exception RNG afresh, from the same seeding helpers a
    ``MachineState`` uses (:func:`~repro.engine.state.wrongpath_generator`,
    :func:`~repro.engine.state.exception_rng`).
    """

    trace: Trace
    config: ProcessorConfig


def run_compiled(start: Union[ColdStart, machine_state.MachineState], *,
                 max_instructions: Optional[int] = None,
                 max_cycles: Optional[int] = None,
                 deadlock_threshold: int = 50_000) -> Optional[CompiledRun]:
    """Run one simulation on the compiled core.

    ``start`` is a :class:`ColdStart` (the core warms up itself, from the
    exported warm-up trace) or a ``MachineState`` at cycle 0, whose
    already-warm predictor, BTB and caches are exported.  Returns a
    :class:`CompiledRun`, or ``None`` when the run must be (re)done by
    the Python engine.  A ``MachineState`` is never mutated: its RNGs
    are deep-copied, so a fallback run starts from pristine state.

    Raises :class:`~repro.engine.accel.loader.ToolchainError` when the
    core cannot be built/loaded (callers resolve that once per process).
    """
    cfg = start.config
    cold = isinstance(start, ColdStart)
    wrongpath = (machine_state.wrongpath_generator(start.trace, cfg) if cold
                 else start.fetch_unit.wrongpath)
    reason = unsupported_reason(cfg)
    if reason is None and cfg.enable_wrong_path:
        reason = _wrongpath_reason(wrongpath)
    if reason is not None:
        logger.debug("compiled backend unavailable for this run: %s", reason)
        return None

    ffi, lib = loader.load_core()
    columns = EXPORT_CACHE.trace_columns(start.trace)
    warm_columns = (
        EXPORT_CACHE.trace_columns(machine_state.build_warmup_trace(
            start.trace)) if cold and cfg.warmup else None)
    vec = _config_vector(cfg, columns, warm_columns)
    mach = lib.sim_new(ffi.cast("long long *", ffi.from_buffer(vec)), NCFG)
    if mach == ffi.NULL:
        logger.warning("compiled core rejected the configuration vector; "
                       "falling back to the Python engine")
        return None
    mach = ffi.gc(mach, lib.sim_free)

    _export_trace(ffi, lib, mach, columns)
    if warm_columns is not None:
        _export_warmup(ffi, lib, mach, warm_columns)
    if not cold:
        _export_predictor(ffi, lib, mach, start.predictor)
        _export_btb(ffi, lib, mach, start.btb)
        memory = start.memory
        _export_cache(ffi, lib, mach, memory.l1i, A.L1I_TAG)
        _export_cache(ffi, lib, mach, memory.l1d, A.L1D_TAG)
        _export_cache(ffi, lib, mach, memory.l2, A.L2_TAG)

    limit = (max_instructions if max_instructions is not None
             else len(columns))
    lib.sim_set(mach, SC.COMMIT_LIMIT, limit)
    lib.sim_set(mach, SC.MAX_CYCLES, -1 if max_cycles is None else max_cycles)
    lib.sim_set(mach, SC.DEADLOCK, deadlock_threshold)
    lib.sim_setf(mach, F.EXC_RATE, cfg.exception_rate)

    # The run consumes these streams.  A cold start owns fresh ones; a
    # MachineState's are copied, so a Python fallback sees them untouched.
    exc_rng = None
    if cfg.exception_rate > 0.0:
        exc_rng = (machine_state.exception_rng(cfg) if cold
                   else copy.deepcopy(start.exception_rng))
    if wrongpath is not None:
        _export_wrongpath(lib, mach, wrongpath)
        wp_bits = wrongpath._rng.bit_generator
        if not cold:
            wp_bits = copy.deepcopy(wp_bits)
        wp_raw = _i64_view(ffi, lib, mach, A.W_RAW, WP_RAW_BUFFER)

    status = lib.sim_run(mach)
    while status in (RUN_NEED_WRONGPATH, RUN_NEED_EXC):
        if status == RUN_NEED_WRONGPATH:
            _refill_wrongpath(lib, mach, wp_raw, wp_bits)
        else:
            _refill_exceptions(ffi, lib, mach, exc_rng, EXC_BUFFER)
        status = lib.sim_run(mach)

    if status == RUN_DEADLOCK:
        # Let the Python engine reproduce its own DeadlockError (message
        # includes live pipeline details only it can render).
        logger.debug("compiled core hit the deadlock threshold; deferring "
                     "to the Python engine")
        return None
    if status != RUN_FINISHED:
        logger.warning(
            "compiled core failed internal check %d; falling back to the "
            "Python engine",
            lib.sim_get(mach, SC.ERROR) if status == RUN_INTERNAL else status)
        return None

    st = _i64_view(ffi, lib, mach, A.STATS, ST_N).copy()
    cycles = int(lib.sim_get(mach, SC.CYCLE))
    return CompiledRun(stats=_assemble_stats(start, st, cycles))
