"""Trace containers and summary statistics.

A :class:`Trace` is an ordered sequence of dynamic instructions together
with the metadata the experiment harness needs (benchmark name, which
register file the paper's figures measure for this program, the
generator seed).  Its storage is columnar (:class:`TraceColumns`):

* a small **row table**, one row per distinct static record: op, pc,
  destination class and index, source count, source classes and indices,
  branch outcome and target (:data:`ROW_COLUMN_NAMES`);
* an ``int32`` **row id** per dynamic instruction;
* an ``int64`` **address** per dynamic instruction (the effective
  address of a memory op, 0 otherwise).

The compiled core reads exactly these arrays, in place: the row table (a
few hundred to about a thousand rows for a generated workload), the row
ids and the addresses; it indexes the table by row id as it fetches.

A generated trace's row table is shared: every trace of one workload
profile (its seeds, lengths and warm-up segments) is row ids over the
profile's :class:`RowBook`, which interns records, keeps the kernels'
shape→row memos and extends one numpy table as rows are added.  Rows
are only ever appended, so each trace reads the prefix that existed
when it was frozen.  A trace's row ids depend on what its book held
before it; what a trace *is* is its gathered columns
(:meth:`TraceColumns.gather`), which do not.

:class:`~repro.isa.instructions.Instruction` objects exist only on
demand (the Python engine, tests): one shared object per non-memory row
and a fresh one per memory op.  A trace built by hand from an
instruction list keeps that list and derives its columns once, over a
private book, on first use.

The :class:`TraceSummary` gives the aggregate properties that the workload
calibration tests assert on (instruction mix, branch density, register
working sets).
"""

from __future__ import annotations

from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.isa import Instruction, OpClass, RegClass, is_memory_op
from repro.isa.instructions import RegRef

#: The row-table columns: one value per row, three per row for the two
#: source columns.  The compiled core receives all of them.
ROW_COLUMN_NAMES = ("op", "pc", "dc", "dest", "nsrc", "src_class",
                    "src_log", "taken", "target")

#: The row-table columns the warm-up replay reads (predictor, BTB and
#: caches); it also reads the row ids and addresses.
WARMUP_ROW_COLUMN_NAMES = ("op", "pc", "taken", "target")

#: The trace's per-instruction columns, as :meth:`TraceColumns.gather`
#: expands them: every row-table column indexed by row id, and ``addr``.
TRACE_COLUMN_NAMES = ROW_COLUMN_NAMES + ("addr",)

#: Source slots per instruction in the source columns.
MAX_SRCS = 3

#: The (class, index) pairs of unused source slots, flattened.
_NO_SOURCES = (0, 0) * MAX_SRCS


def column_width(name: str) -> int:
    """Values per instruction (or per row) in trace column ``name``."""
    return MAX_SRCS if name in ("src_class", "src_log") else 1


#: One static record: ``(op, pc, dest, srcs, taken, target)``.
Record = Tuple[OpClass, int, Optional[RegRef], Tuple[RegRef, ...], bool, int]


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


def _row_table(records: Sequence[Record]) -> Dict[str, np.ndarray]:
    """The numpy row table of ``records``: every column but ``addr``."""
    # One flat list of the rows' values, read by np.fromiter: np.array
    # would probe every IntEnum member for the array protocols.
    flat: List[int] = []
    add = flat.extend
    for op, pc, dest, srcs, taken, target in records:
        add((op, pc))
        add(dest if dest is not None else (-1, 0))
        add((len(srcs), taken, target))
        for ref in srcs:
            add(ref)
        add(_NO_SOURCES[2 * len(srcs):])
    rows = np.fromiter(flat, dtype=np.int64, count=len(flat)).reshape(
        len(records), 7 + 2 * MAX_SRCS)
    table = {name: np.ascontiguousarray(rows[:, column])
             for column, name in enumerate(("op", "pc", "dc", "dest", "nsrc",
                                            "taken", "target"))}
    sources = rows[:, 7:].reshape(len(records), MAX_SRCS, 2)
    table["src_class"] = np.ascontiguousarray(sources[:, :, 0])
    table["src_log"] = np.ascontiguousarray(sources[:, :, 1])
    return table


class RowBook:
    """The static rows that every trace drawn over it shares.

    It holds the interned records (:meth:`intern`, one row per distinct
    record, by content), the chunk emitters' shape→row memos
    (:meth:`memo`), and the numpy row table of those records
    (:meth:`freeze`).  Rows are only ever appended, so a trace frozen
    over the first ``n`` rows reads a prefix that later traces never
    change; the table is extended by the rows added since the last
    freeze, not rebuilt.  Not thread-safe: a caller shares one book
    between threads under its own lock.
    """

    def __init__(self) -> None:
        self.records: List[Record] = []
        self._ids: Dict[Record, int] = {}
        self._memos: Dict[object, dict] = {}
        self._table: Dict[str, np.ndarray] = _row_table(())
        self._is_mem = np.zeros(0, dtype=bool)

    def intern(self, op: OpClass, pc: int, dest: Optional[RegRef] = None,
               srcs: Tuple[RegRef, ...] = (), taken: bool = False,
               target: int = 0) -> int:
        """The row id of this static record."""
        record = (op, pc, dest, srcs, taken, target)
        row = self._ids.get(record)
        if row is None:
            row = self._ids[record] = len(self.records)
            self.records.append(record)
        return row

    def memo(self, key) -> dict:
        """The chunk-emitter memo of static code ``key``: its shape keys
        → row ids in this book."""
        return self._memos.setdefault(key, {})

    def freeze(self) -> Tuple[Tuple[Record, ...], Dict[str, np.ndarray],
                              np.ndarray]:
        """The records so far, their (read-only) row table and which
        rows are memory ops."""
        built = len(self._is_mem)
        if len(self.records) > built:
            fresh = self.records[built:]
            self._table = {
                name: np.concatenate([column, added])
                for (name, column), added in zip(
                    self._table.items(), _row_table(fresh).values(),
                    strict=True)}
            for column in self._table.values():
                column.setflags(write=False)
            self._is_mem = np.concatenate([
                self._is_mem,
                np.array([is_memory_op(op) for op, *_ in fresh], dtype=bool)])
        return tuple(self.records), self._table, self._is_mem


class TraceColumns:
    """A trace's storage: row table, row ids and addresses (read-only).

    ``records`` holds the distinct static records as tuples and
    ``table`` the same rows as numpy columns; ``rows`` maps each dynamic
    instruction to its row and ``addr`` carries its address.  A column of
    :data:`TRACE_COLUMN_NAMES` is a gather of its table column by
    ``rows`` (:meth:`gather`); the compiled core does that indexing
    itself, reading the table, ``rows`` and ``addr`` in place.  So every
    array is made C-contiguous once, here: ``int64`` table columns and
    addresses, ``int32`` row ids.
    """

    __slots__ = ("records", "table", "rows", "addr")

    def __init__(self, records: Sequence[Record], rows: np.ndarray,
                 addr: np.ndarray,
                 table: Optional[Dict[str, np.ndarray]] = None) -> None:
        self.records = tuple(records)
        if table is None:
            table = _row_table(self.records)
        elif not all(column.dtype == np.int64 and column.flags.c_contiguous
                     for column in table.values()):
            table = {name: np.ascontiguousarray(column, dtype=np.int64)
                     for name, column in table.items()}
        self.table = table      # shared as it is by truncated()
        self.rows = np.ascontiguousarray(rows, dtype=np.int32)
        self.addr = np.ascontiguousarray(addr, dtype=np.int64)
        for array in (*self.table.values(), self.rows, self.addr):
            array.setflags(write=False)

    def __len__(self) -> int:
        return len(self.rows)

    def gather(self, name: str) -> np.ndarray:
        """Column ``name`` of :data:`TRACE_COLUMN_NAMES`, per instruction:
        one ``int64`` per instruction (three for ``src_class`` and
        ``src_log``, flattened)."""
        if name == "addr":
            return self.addr.copy()
        return self.table[name][self.rows].reshape(-1)

    def first_difference(self, other: "TraceColumns"
                         ) -> Optional[Tuple[str, int]]:
        """The first column (in :data:`TRACE_COLUMN_NAMES` order) and
        instruction at which ``other`` differs, or None if all ten agree."""
        if len(self) != len(other):
            return "length", min(len(self), len(other))
        for name in TRACE_COLUMN_NAMES:
            mine = self.gather(name)
            diverged = np.flatnonzero(mine != other.gather(name))
            if len(diverged):
                return name, int(diverged[0]) // column_width(name)
        return None

    def truncated(self, length: int) -> "TraceColumns":
        """The first ``length`` instructions (shares the row table)."""
        return TraceColumns(self.records, self.rows[:length],
                            self.addr[:length], self.table)

    def instructions(self) -> List[Instruction]:
        """Build the instruction list: one shared object per non-memory
        row, a fresh object per memory op (it carries its own address)."""
        records = self.records
        shared = [None if is_memory_op(op) else
                  Instruction(pc=pc, op=op, dest=dest, srcs=srcs, taken=taken,
                              target=target)
                  for op, pc, dest, srcs, taken, target in records]
        rows = self.rows.tolist()
        out = [shared[row] for row in rows]
        is_mem = np.array([inst is None for inst in shared], dtype=bool)
        if len(rows) and is_mem.any():
            mem = np.flatnonzero(is_mem[self.rows])
            for i, addr in zip(mem.tolist(), self.addr[mem].tolist(),
                               strict=True):
                op, pc, dest, srcs, taken, target = records[rows[i]]
                out[i] = Instruction(pc=pc, op=op, dest=dest, srcs=srcs,
                                     taken=taken, target=target,
                                     mem_addr=addr)
        return out


class TraceSink:
    """Collects a trace as row ids and addresses while it is generated.

    ``rows`` gets one row id per instruction and ``addrs`` one address
    per *memory* op; the row ids index ``book``, a :class:`RowBook` that
    the trace may share with other traces of its profile (a private one
    by default).  The chunk emitters of :mod:`repro.trace.kernels`
    append to both directly, with a memo per kernel (:meth:`memo`);
    ``Instruction`` lists (prologues, hand-built traces) go through
    :meth:`extend`.
    """

    def __init__(self, book: Optional[RowBook] = None) -> None:
        self.book = book if book is not None else RowBook()
        #: the row id of a record (:meth:`RowBook.intern`).
        self.intern = self.book.intern
        self.rows: List[int] = []
        self.addrs: List[int] = []

    def __len__(self) -> int:
        return len(self.rows)

    def memo(self, kernel) -> dict:
        """``kernel``'s chunk-emitter memo: its shape keys → row ids."""
        return self.book.memo(kernel.code_key)

    def extend(self, instructions: Iterable[Instruction]) -> None:
        """Append instruction records (prologues, hand-built traces)."""
        intern, rows, addrs = self.intern, self.rows, self.addrs
        for inst in instructions:
            rows.append(intern(inst.op, inst.pc, inst.dest, inst.srcs,
                               inst.taken, inst.target))
            if inst.is_mem:
                addrs.append(inst.mem_addr)

    def columns(self) -> TraceColumns:
        """Freeze what was collected into :class:`TraceColumns` over the
        book's table as it stands."""
        records, table, is_mem = self.book.freeze()
        rows = np.array(self.rows, dtype=np.int32)
        addr = np.zeros(len(rows), dtype=np.int64)
        if len(rows):
            addr[is_mem[rows]] = self.addrs
        return TraceColumns(records, rows, addr, table)


class InstructionSequence(SequenceABC):
    """A trace's instructions as a sequence.

    ``len()`` reads the columns; indexing, iteration and comparison
    materialise the trace's instruction list (once per trace).
    """

    __slots__ = ("_trace",)

    def __init__(self, trace: "Trace") -> None:
        self._trace = trace

    def __len__(self) -> int:
        return len(self._trace)

    def __getitem__(self, index):
        return self._trace.instruction_list()[index]

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self._trace.instruction_list())

    def __eq__(self, other) -> bool:
        if isinstance(other, InstructionSequence):
            other = other._trace.instruction_list()
        return self._trace.instruction_list() == other


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
        The dynamic instruction sequence (:class:`InstructionSequence`).
    seed:
        RNG seed used to generate the trace (for reproducibility).

    Generated traces are built from ``columns``; hand-built ones from an
    ``instructions`` list.  Both are treated as immutable.
    """

    def __init__(self, name: str, focus_class: RegClass,
                 instructions: Optional[Iterable[Instruction]] = None,
                 seed: int = 0, *,
                 columns: Optional[TraceColumns] = None) -> None:
        if instructions is None and columns is None:
            raise TypeError("a Trace needs instructions or columns")
        self.name = name
        self.focus_class = focus_class
        self.seed = seed
        self._instructions = (None if instructions is None
                              else list(instructions))
        self._columns = columns
        #: memoised :meth:`summary` result (traces are cached and shared
        #: across whole sweeps).
        self._summary: Optional[TraceSummary] = None
        #: memoised wrong-path mix, owned by
        #: :meth:`repro.trace.wrongpath.WrongPathGenerator.for_trace`.
        self.wrongpath_mix = None

    def __repr__(self) -> str:
        return (f"Trace(name={self.name!r}, focus_class={self.focus_class!r}, "
                f"length={len(self)}, seed={self.seed})")

    def __len__(self) -> int:
        if self._columns is not None:
            return len(self._columns)
        return len(self._instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instruction_list())

    def __getitem__(self, index: int) -> Instruction:
        return self.instruction_list()[index]

    @property
    def instructions(self) -> InstructionSequence:
        """The instructions; ``len()`` of it materialises nothing."""
        return InstructionSequence(self)

    def instruction_list(self) -> List[Instruction]:
        """The instruction list, built from the columns on first use."""
        if self._instructions is None:
            self._instructions = self._columns.instructions()
        return self._instructions

    @property
    def materialised(self) -> bool:
        """True once the instruction list exists."""
        return self._instructions is not None

    @property
    def has_columns(self) -> bool:
        """True once the columns exist (always, for generated traces)."""
        return self._columns is not None

    @property
    def columns(self) -> TraceColumns:
        """The columnar storage, derived once from a hand-built list."""
        if self._columns is None:
            sink = TraceSink()
            sink.extend(self._instructions)
            self._columns = sink.columns()
        return self._columns

    # ------------------------------------------------------------------
    def summary(self) -> TraceSummary:
        """Aggregate statistics used by calibration tests and reports.

        Computed from the columns (no instruction is materialised), once
        per trace and memoised: the trace is treated as immutable after
        construction.
        """
        if self._summary is None:
            self._summary = self._compute_summary()
        return self._summary

    def _compute_summary(self) -> TraceSummary:
        columns = self.columns
        n = len(columns)
        if n == 0:
            return TraceSummary(
                length=0, mix={}, branch_fraction=0.0, load_fraction=0.0,
                store_fraction=0.0, int_regs_written=0, fp_regs_written=0,
                avg_def_use_distance=0.0, avg_def_redefine_distance=0.0,
            )
        table, rows = columns.table, columns.rows

        # Op counts: instructions per row, summed per row op.
        per_row = np.bincount(rows, minlength=len(columns.records))
        counts = np.zeros(len(OpClass), dtype=np.int64)
        np.add.at(counts, table["op"], per_row)
        mix = {op.name: int(counts[op]) / n for op in OpClass if counts[op]}
        loads = int(counts[OpClass.LOAD] + counts[OpClass.FP_LOAD])
        stores = int(counts[OpClass.STORE] + counts[OpClass.FP_STORE])

        # Each logical register as one integer; -1 for "no register".
        span = int(max(table["dest"].max(), table["src_log"].max())) + 1
        row_dest = np.where(table["dc"] >= 0,
                            table["dc"] * span + table["dest"], -1)
        row_srcs = np.where(np.arange(MAX_SRCS) < table["nsrc"][:, None],
                            table["src_class"] * span + table["src_log"], -1)
        dests = row_dest[rows]
        def_pos = np.flatnonzero(dests >= 0)
        def_reg = dests[def_pos]
        written = np.unique(def_reg)
        int_written = int(np.count_nonzero(written // span == RegClass.INT))

        # Consecutive definitions of one register, in program order.
        order = np.argsort(def_reg, kind="stable")
        def_reg, def_pos = def_reg[order], def_pos[order]
        redefined = def_reg[1:] == def_reg[:-1]
        reg = def_reg[:-1][redefined]
        start = def_pos[:-1][redefined]
        stop = def_pos[1:][redefined]
        # A definition's last read is its register's last read in
        # (def, redefinition]: a source is read before the destination is
        # written, so the redefining instruction still reads the old value.
        srcs = row_srcs[rows]
        read_pos, slot = np.nonzero(srcs >= 0)
        stride = n + 1
        reads = np.sort(srcs[read_pos, slot] * stride + read_pos)
        low, high = reg * stride + start, reg * stride + stop
        last = np.searchsorted(reads, high, side="right") - 1
        last_read = reads[np.maximum(last, 0)] if len(reads) else high
        uses = np.where((last >= 0) & (last_read > low), last_read - low, 0)

        redefinitions = len(reg)
        return TraceSummary(
            length=n,
            mix=mix,
            branch_fraction=int(counts[OpClass.BRANCH]) / n,
            load_fraction=loads / n,
            store_fraction=stores / n,
            int_regs_written=int_written,
            fp_regs_written=len(written) - int_written,
            avg_def_use_distance=(int(uses.sum()) / redefinitions
                                  if redefinitions else 0.0),
            avg_def_redefine_distance=(int((stop - start).sum()) / redefinitions
                                       if redefinitions else 0.0),
        )

    # ------------------------------------------------------------------
    def truncated(self, max_instructions: int) -> "Trace":
        """Return a copy limited to the first ``max_instructions`` records."""
        if max_instructions >= len(self):
            return self
        return Trace(
            name=self.name,
            focus_class=self.focus_class,
            instructions=(self._instructions[:max_instructions]
                          if self._instructions is not None else None),
            seed=self.seed,
            columns=(self._columns.truncated(max_instructions)
                     if self._columns is not None else None),
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
