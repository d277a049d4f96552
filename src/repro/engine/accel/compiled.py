"""Drive one simulation through the compiled core, bit-identically.

:func:`run_compiled` builds a C ``Machine`` with
:mod:`repro.engine.accel.loader`, points it at the trace, lets one
``sim_run`` execute the whole point, and assembles the resulting
counters into the same :class:`~repro.pipeline.stats.SimStats` the
Python engine's ``collect_stats`` would produce.  It starts from one of
two places:

* a **cold start** (:class:`ColdStart`): the trace and the config only,
  which is what ``SimulationEngine.run`` hands it for a run from reset.
  ``sim_new``'s machine is the cold machine (every gshare counter at 2,
  empty BTB and caches), the warm-up trace is bound too and ``sim_run``
  replays it through the C predictor/BTB/cache models before the first
  measured cycle — the exact port of ``MachineState._warm_state`` — and
  the run's streams start where freshly seeded generators start (the
  pristine ones shared per seed, whose state the core only reads);
* a **warmed** :class:`~repro.engine.state.MachineState` at cycle 0,
  whose predictor, BTB and caches are exported as they are (the
  self-check compares this path too).

The core reads a trace where :class:`~repro.trace.records.TraceColumns`
stores it: ``sim_bind`` points the ``Machine`` at the row table (one
entry per distinct static record), the ``int32`` row ids and the
addresses, and at the warm-up trace's own three (each export is counted
by :data:`~repro.engine.accel.artefacts.EXPORT_CACHE`).  Nothing is
copied; the bound buffers stay referenced until ``sim_run`` returns.
Before its first cycle ``sim_run`` checks that every array is bound,
that every row id indexes its table and that every row's registers fit
the logical files, and escapes with ``RUN_INTERNAL`` otherwise.
``sim_new`` places all config-sized machine state in one arena, reused
from the calling thread's previous machine when it is large enough and
zeroed first; ``sim_free`` parks the arena for that thread's next run.

The core draws every random word itself.  Both stochastic inputs — the
wrong-path instruction stream and the per-rename exception lottery — are
numpy ``PCG64`` streams, and the core ports PCG64's step and output, so
Python hands over only each stream's 128-bit state and increment
(``sim_seed``).  Reading a generator's state does not advance it: a
``MachineState``'s generators are left as they were, and a later
pure-Python fallback observes untouched streams.  At each wrong-path
fetch the core runs
:class:`~repro.trace.wrongpath.WrongPathGenerator`'s category cascade,
turning words into doubles and bounded integers by the draw contract of
:mod:`repro.trace.draws`, and continues from the generator's pending
32-bit half and register-window cursors; the lottery's double is
``Generator.random()``'s, one word each.

``run_compiled`` returns ``None`` whenever the run must be redone by the
Python engine: configurations the C core does not model, a deadlock
(so the Python engine raises its own ``DeadlockError``), or an internal
check failure inside the core — its input check or one of its
consistency checks (logged — this is the divergence fallback of the
accelerated backend's contract).
"""

from __future__ import annotations

import logging
from typing import NamedTuple, Optional, Union

import numpy as np

from repro.engine.accel import loader
from repro.engine.accel.artefacts import EXPORT_CACHE
from repro.engine.accel.loader import (A, CFG, F, NCFG, NF, RF, RNG_EXC,
                                       RNG_WRONGPATH, RQ_LEVELS_MAX,
                                       RUN_DEADLOCK, RUN_FINISHED,
                                       RUN_INTERNAL, SC, ST, ST_N)
from repro.core.register_state import OccupancyTotals
from repro.engine import state as machine_state
from repro.isa import FUKind, OpClass
from repro.pipeline.config import ProcessorConfig
from repro.pipeline.stats import RegisterFileStats, SimStats
from repro.trace.records import (ROW_COLUMN_NAMES, WARMUP_ROW_COLUMN_NAMES,
                                 Trace, TraceColumns)

logger = logging.getLogger("repro.engine.accel")

_LOW64 = (1 << 64) - 1

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
    quietly use the Python engine.  A run also checks that the C cascade
    can continue its wrong-path generator (see :func:`_wrongpath_reason`).
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
    """Why the C cascade cannot continue ``generator`` (None = it can)."""
    if generator is None:
        return "wrong path enabled but no generator present"
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


#: The ``sim_bind`` id of each row-table column the measured run reads,
#: and of each one the warm-up replay reads.
_TRACE_ROW_ARRAYS = dict(zip(ROW_COLUMN_NAMES, (
    A.T_OP, A.T_PC, A.T_DC, A.T_DEST, A.T_NSRC, A.T_SRC_CLASS, A.T_SRC_LOG,
    A.T_TAKEN, A.T_TARGET), strict=True))
_WARMUP_ROW_ARRAYS = dict(zip(WARMUP_ROW_COLUMN_NAMES, (
    A.WU_OP, A.WU_PC, A.WU_TAKEN, A.WU_TARGET), strict=True))


def _bind_columns(ffi, lib, mach, columns: TraceColumns, row_arrays,
                  rows_array: int, addr_array: int) -> list:
    """Point the Machine at the row table, the row ids and the addresses
    in place; returns their cffi buffers, which must outlive ``sim_run``."""
    arrays = [(which, columns.table[name])
              for name, which in row_arrays.items()]
    arrays += [(rows_array, columns.rows), (addr_array, columns.addr)]
    buffers = []
    for which, array in arrays:
        buffer = ffi.from_buffer(array)
        lib.sim_bind(mach, which, buffer)
        buffers.append(buffer)
    return buffers


def _export_trace(ffi, lib, mach, columns: TraceColumns) -> list:
    """Bind the measured trace (see :func:`_bind_columns`)."""
    return _bind_columns(ffi, lib, mach, columns, _TRACE_ROW_ARRAYS,
                         A.T_ROWS, A.T_ADDR)


def _export_warmup(ffi, lib, mach, columns: TraceColumns) -> list:
    """Bind the warm-up trace (its own row table)."""
    return _bind_columns(ffi, lib, mach, columns, _WARMUP_ROW_ARRAYS,
                         A.WU_ROWS, A.WU_ADDR)


def _export_predictor(ffi, lib, mach, predictor) -> None:
    table = np.frombuffer(ffi.buffer(lib.sim_i8(mach, 0),
                                     predictor.table_size), dtype=np.int8)
    table[:] = np.frombuffer(predictor.table, dtype=np.int8)


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


def _seed(lib, mach, stream: int, bit_generator) -> None:
    """Hand the core a PCG64's 128-bit state and increment (reading the
    state does not advance the generator)."""
    state = bit_generator.state["state"]
    lib.sim_seed(mach, stream, state["state"] >> 64, state["state"] & _LOW64,
                 state["inc"] >> 64, state["inc"] & _LOW64)


def _wrongpath_config(vec: "np.ndarray", rates: "np.ndarray",
                      generator) -> None:
    """Write where the C cascade starts into the config and rates
    vectors: the generator's mix, windows, cursors and pending half (its
    stream goes through :func:`_seed`)."""
    mix = generator.mix
    rates[F.WP_BRANCH:F.WP_FP_SHARE + 1] = (
        mix.branch, mix.load, mix.store, mix.fp, mix.fp_load_share)
    pending = generator.draws.pending
    int_regs, fp_regs = generator._int_regs, generator._fp_regs
    vec[CFG.WP_HALF:CFG.WP_FP_CURSOR + 1] = (
        -1 if pending is None else pending, generator._data_base,
        int_regs[0], len(int_regs), generator._int_cursor,
        fp_regs[0], len(fp_regs), generator._fp_cursor)


# perfbench/layers.py times these two names as the draw feed's layers.
# The core draws its own words, so nothing calls them; they go with the
# benchmark's next revision.
def _fill_wrongpath(*_args) -> None:
    """Unused: the core draws its own wrong-path words."""


def _refill_exceptions(*_args) -> None:
    """Unused: the core draws its own exception-lottery words."""


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
    at 2, empty BTB and caches), and the run's streams start from the
    same seeding helpers a ``MachineState`` uses
    (:func:`~repro.engine.state.wrongpath_generator`,
    :func:`~repro.engine.state.exception_rng`), as shared pristine
    generators: the core reads their states and never advances them.
    """

    trace: Trace
    config: ProcessorConfig


def run_compiled(start: Union[ColdStart, machine_state.MachineState], *,
                 max_instructions: Optional[int] = None,
                 max_cycles: Optional[int] = None,
                 deadlock_threshold: int = 50_000) -> Optional[CompiledRun]:
    """Run one simulation on the compiled core.

    ``start`` is a :class:`ColdStart` (the core warms up itself, from the
    bound warm-up trace) or a ``MachineState`` at cycle 0, whose
    already-warm predictor, BTB and caches are exported.  Returns a
    :class:`CompiledRun`, or ``None`` when the run must be (re)done by
    the Python engine.  A ``MachineState`` is never mutated: the core
    continues copies of its random streams.

    Raises :class:`~repro.engine.accel.loader.ToolchainError` when the
    core cannot be built/loaded (callers resolve that once per process).
    """
    cfg = start.config
    cold = isinstance(start, ColdStart)
    wrongpath = (machine_state.wrongpath_generator(start.trace, cfg,
                                                   shared=True) if cold
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
    vec[CFG.COMMIT_LIMIT] = (max_instructions if max_instructions is not None
                             else len(columns))
    vec[CFG.MAX_CYCLES] = -1 if max_cycles is None else max_cycles
    vec[CFG.DEADLOCK] = deadlock_threshold
    rates = np.zeros(NF)
    rates[F.EXC_RATE] = cfg.exception_rate
    if not cold:
        vec[CFG.GS_HISTORY] = start.predictor.history
    if wrongpath is not None:
        _wrongpath_config(vec, rates, wrongpath)
    mach = lib.sim_new(ffi.cast("long long *", ffi.from_buffer(vec)), NCFG,
                       ffi.cast("double *", ffi.from_buffer(rates)), NF)
    if mach == ffi.NULL:
        logger.warning("compiled core could not build a machine (a config "
                       "vector it does not accept, or no memory); falling "
                       "back to the Python engine")
        return None
    mach = ffi.gc(mach, lib.sim_free)

    # The core reads the traces in place: ``bound`` keeps the buffers
    # alive until sim_run has returned.
    bound = [_export_trace(ffi, lib, mach, columns)]
    if warm_columns is not None:
        bound.append(_export_warmup(ffi, lib, mach, warm_columns))
    if not cold:
        _export_predictor(ffi, lib, mach, start.predictor)
        _export_btb(ffi, lib, mach, start.btb)
        memory = start.memory
        _export_cache(ffi, lib, mach, memory.l1i, A.L1I_TAG)
        _export_cache(ffi, lib, mach, memory.l1d, A.L1D_TAG)
        _export_cache(ffi, lib, mach, memory.l2, A.L2_TAG)

    if cfg.exception_rate > 0.0:
        exc_rng = (machine_state.exception_rng(cfg, shared=True) if cold
                   else start.exception_rng)
        _seed(lib, mach, RNG_EXC, exc_rng.bit_generator)
    if wrongpath is not None:
        _seed(lib, mach, RNG_WRONGPATH, wrongpath.draws.bit_generator)

    status = lib.sim_run(mach)
    del bound
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
