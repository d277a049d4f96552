"""Stream-preserving bulk replay of ``np.random.Generator`` draws.

The scalar trace generators consume their ``Generator`` one draw at a
time — ``rng.random()`` per branch-noise flip and store lottery,
``rng.integers(0, span)`` per random memory address — which makes the
generator front-end a visible fraction of every sweep point.  This module
removes the per-draw overhead *without changing a single produced value*:
it pulls raw 64-bit outputs from the underlying bit generator in one bulk
call and reconstructs, with vectorised numpy arithmetic, exactly the
values the equivalent sequence of scalar ``Generator`` calls would have
returned, leaving the bit generator in exactly the state those scalar
calls would have left it.

Draw-order contract (documented for consumers in ``docs/workloads.md``)
-----------------------------------------------------------------------
The replay relies on the observable consumption semantics of numpy's
``Generator`` over PCG64, pinned by :func:`replay_supported`'s runtime
probe and by the equivalence test suites:

* ``rng.random()`` consumes one fresh 64-bit output ``x`` and returns
  ``(x >> 11) * 2**-53``.  It neither consumes nor clears the bit
  generator's buffered 32-bit half.
* ``rng.integers(low, high)`` with ``high - low <= 2**32`` consumes one
  *32-bit half*: the buffered half if one is pending, else the **low**
  half of a fresh 64-bit output (whose high half becomes the new buffered
  half).  The half ``y`` maps to a value via 32-bit Lemire multiply:
  ``low + ((y * span) >> 32)`` with ``span = high - low``, redrawing
  another half while ``(y * span) & 0xFFFFFFFF < (2**32 % span)`` (never,
  when ``span`` is a power of two).
* Vectorised calls (``rng.random(n)``, ``rng.integers(low, high, n)``)
  produce element-for-element the same stream as ``n`` scalar calls.

Two replay styles are provided:

:func:`replay_template`
    For generators whose per-iteration draw schedule is a *fixed*
    sequence of slots (doubles and power-of-two-span bounded integers):
    compiles the schedule's raw-consumption pattern once, bulk-draws the
    raws for ``k`` iterations, and gathers one numpy column per slot.
:class:`RawCursor`
    For data-dependent schedules (the store lottery of the pointer-chase
    kernel): overdraws a bounded block of raws, lets the caller consume
    them draw-by-draw through cheap Python arithmetic, then rewinds the
    bit generator by the unconsumed raws and restores the buffered-half
    state exactly.

If the probe ever detects different semantics (a future numpy release, an
exotic bit generator), every entry point raises
:class:`ReplayUnsupported` and the trace generators transparently fall
back to the scalar oracle path — correctness never depends on the replay.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Slot marker for one ``rng.random()`` draw.
DOUBLE = 0

_TWO53_INV = 2.0 ** -53
_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT11 = np.uint64(11)
_SHIFT32 = np.uint64(32)


class ReplayUnsupported(Exception):
    """The draw schedule or bit generator cannot be replayed bit-exactly."""


def _is_pow2(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


def _check_bit_generator(rng: np.random.Generator) -> np.random.PCG64:
    bit_generator = rng.bit_generator
    if not isinstance(bit_generator, np.random.PCG64):
        raise ReplayUnsupported(
            f"raw replay is only pinned for PCG64, got "
            f"{type(bit_generator).__name__}")
    if not replay_supported():
        raise ReplayUnsupported("runtime probe failed: this numpy build does "
                                "not match the pinned draw semantics")
    return bit_generator


def _buffer_state(bit_generator: np.random.PCG64) -> Tuple[Optional[int], int]:
    """The pending 32-bit half (or ``None``) and the raw ``uinteger`` field.

    numpy leaves the consumed half in ``uinteger`` with ``has_uint32``
    cleared; the replay replicates that stale value too, so the *entire*
    bit-generator state stays equal to the scalar path's — a property the
    equivalence suites assert directly.
    """
    state = bit_generator.state
    stale = int(state["uinteger"])
    return (stale if state["has_uint32"] else None), stale


def _set_buffer_state(bit_generator: np.random.PCG64,
                      pending: Optional[int], stale: int) -> None:
    state = bit_generator.state
    state["has_uint32"] = 1 if pending is not None else 0
    state["uinteger"] = int(pending) if pending is not None else int(stale)
    bit_generator.state = state


# ======================================================================
# Template replay: fixed per-iteration slot schedules.
# ======================================================================
class _CompiledIteration:
    """Raw-consumption pattern of one template iteration.

    ``sources[j]`` describes where slot ``j``'s value comes from:
    ``("d", r)`` — the double of raw ``r``; ``("lo", r)`` / ``("hi", r)``
    — the Lemire product of raw ``r``'s low/high half; ``("ebuf", None)``
    — the half buffered *before* the iteration (the previous iteration's
    surplus, or the bit generator's entry buffer for iteration 0).  Raw
    indices are relative to the iteration's first raw.
    """

    __slots__ = ("sources", "n_raws", "exit_rel", "has_ebuf", "last_lo_rel")

    def __init__(self, template: Sequence[int], entry_buffered: bool) -> None:
        sources: List[Tuple[str, Optional[int]]] = []
        raw = 0
        # None: no pending half; "entry": the pre-iteration buffer is
        # still pending; int r: the high half of raw r is pending.
        pending: object = "entry" if entry_buffered else None
        for slot in template:
            if slot == DOUBLE:
                sources.append(("d", raw))
                raw += 1
            else:
                if not _is_pow2(slot) or slot > (1 << 31):
                    raise ReplayUnsupported(
                        f"bounded-integer span {slot} is not a power of two "
                        f"<= 2**31: the Lemire rejection path would make raw "
                        f"consumption data-dependent")
                if pending is None:
                    sources.append(("lo", raw))
                    pending = raw
                    raw += 1
                elif pending == "entry":
                    sources.append(("ebuf", None))
                    pending = None
                else:
                    sources.append(("hi", pending))
                    pending = None
        self.sources = sources
        self.n_raws = raw
        self.has_ebuf = any(kind == "ebuf" for kind, _rel in sources)
        #: high half of this relative raw is pending at exit; "entry"
        #: means the pre-iteration buffer passed through untouched.
        self.exit_rel: object = pending
        #: relative raw of the last fresh low-half consumption — its high
        #: half is the last value written to the ``uinteger`` field.
        self.last_lo_rel: Optional[int] = None
        for kind, rel in reversed(sources):
            if kind == "lo":
                self.last_lo_rel = rel
                break


def replay_template(rng: np.random.Generator, template: Sequence[int],
                    k: int) -> List[np.ndarray]:
    """Replay ``k`` iterations of ``template`` as one bulk raw draw.

    ``template`` is the per-iteration draw schedule: a sequence of slots,
    each either :data:`DOUBLE` (one ``rng.random()``) or a positive
    power-of-two span (one ``rng.integers(0, span)``).  Returns one numpy
    column per slot, each of length ``k`` — ``float64`` for doubles,
    ``uint64`` for bounded integers — containing exactly the values the
    scalar call sequence would have produced, and leaves ``rng`` in
    exactly the state those scalar calls would have left it.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    if k == 0 or not template:
        return [np.empty(0) for _ in template]
    bit_generator = _check_bit_generator(rng)
    entry_pending, entry_stale = _buffer_state(bit_generator)

    compiled: Dict[bool, _CompiledIteration] = {}

    def form(buffered: bool) -> _CompiledIteration:
        if buffered not in compiled:
            compiled[buffered] = _CompiledIteration(template, buffered)
        return compiled[buffered]

    # Walk the chunk iteration-by-iteration (cheap: a handful of integer
    # operations each) recording which compiled form applies, its raw
    # base, and — where the form consumes a pre-iteration buffered half —
    # the absolute raw that half came from (-1: the rng's entry buffer).
    iter_form = np.empty(k, dtype=np.int8)
    iter_base = np.empty(k, dtype=np.int64)
    ebuf_abs = np.full(k, -1, dtype=np.int64)
    base = 0
    pending_abs: object = "entry" if entry_pending is not None else None
    last_lo_abs: Optional[int] = None
    for i in range(k):
        buffered = pending_abs is not None
        this = form(buffered)
        iter_form[i] = buffered
        iter_base[i] = base
        if buffered and this.has_ebuf:
            ebuf_abs[i] = -1 if pending_abs == "entry" else pending_abs
        exit_rel = this.exit_rel
        if exit_rel is None:
            pending_abs = None
        elif exit_rel != "entry":
            pending_abs = base + exit_rel
        if this.last_lo_rel is not None:
            last_lo_abs = base + this.last_lo_rel
        base += this.n_raws

    total = base
    raws = (bit_generator.random_raw(total) if total
            else np.empty(0, dtype=np.uint64))
    raws = np.asarray(raws, dtype=np.uint64)

    # Value tables, computed lazily per kind/span.
    doubles: Optional[np.ndarray] = None
    lo_halves: Optional[np.ndarray] = None
    hi_halves: Optional[np.ndarray] = None

    def halves() -> Tuple[np.ndarray, np.ndarray]:
        nonlocal lo_halves, hi_halves
        if lo_halves is None:
            lo_halves = raws & _LOW32
            hi_halves = raws >> _SHIFT32
        return lo_halves, hi_halves

    columns: List[np.ndarray] = []
    for j, slot in enumerate(template):
        if slot == DOUBLE:
            if doubles is None:
                doubles = (raws >> _SHIFT11).astype(np.float64) * _TWO53_INV
            out = np.empty(k, dtype=np.float64)
            span = None
        else:
            out = np.empty(k, dtype=np.uint64)
            span = np.uint64(slot)
        for buffered, this in compiled.items():
            sel = iter_form == int(buffered)
            if not sel.any():
                continue
            kind, rel = this.sources[j]
            if kind == "d":
                out[sel] = doubles[iter_base[sel] + rel]
            elif kind == "lo":
                lo, _hi = halves()
                out[sel] = (lo[iter_base[sel] + rel] * span) >> _SHIFT32
            elif kind == "hi":
                _lo, hi = halves()
                out[sel] = (hi[iter_base[sel] + rel] * span) >> _SHIFT32
            else:  # "ebuf": the half pending before the iteration
                # idx == -1 (the rng's entry buffer) can only occur at
                # iteration 0; gather the in-block halves, then patch it.
                # A chunk can consume zero fresh raws (k=1, single
                # bounded slot, entry buffer pending) — then the only
                # source is the entry buffer and there is nothing to
                # gather.
                if raws.size:
                    _lo, hi = halves()
                    idx = ebuf_abs[sel]
                    out[sel] = (hi[np.maximum(idx, 0)] * span) >> _SHIFT32
                if ebuf_abs[0] < 0 and bool(iter_form[0]) == buffered:
                    out[0] = (entry_pending * int(slot)) >> 32
        columns.append(out)

    # Leave the bit generator exactly where the scalar calls would have:
    # the 128-bit state advanced by ``total`` raws (random_raw did that),
    # plus the pending buffered half and the stale ``uinteger`` value.
    stale = (int(raws[last_lo_abs] >> _SHIFT32) if last_lo_abs is not None
             else entry_stale)
    if pending_abs is None:
        _set_buffer_state(bit_generator, None, stale)
    elif pending_abs == "entry":
        _set_buffer_state(bit_generator, entry_pending, stale)
    else:
        _set_buffer_state(bit_generator, int(raws[pending_abs] >> _SHIFT32),
                          stale)
    return columns


# ======================================================================
# Cursor replay: data-dependent draw schedules.
# ======================================================================
class RawCursor:
    """Draw-by-draw consumer over a bulk-drawn block of raws.

    Overdraws ``n_raws`` 64-bit outputs up front; the caller consumes
    them through :meth:`next_double` / :meth:`next_bounded` (each a few
    Python integer operations — no ``Generator`` calls), then
    :meth:`finalize` rewinds the bit generator by the unconsumed raws and
    restores the buffered-half state, so the generator ends up exactly
    where the equivalent scalar calls would have left it.
    """

    __slots__ = ("_bit_generator", "_raws", "_raw_ints", "_pos", "_pending",
                 "_stale", "_n_raws", "_finalized")

    def __init__(self, rng: np.random.Generator, n_raws: int) -> None:
        bit_generator = _check_bit_generator(rng)
        self._bit_generator = bit_generator
        self._pending, self._stale = _buffer_state(bit_generator)
        raws = (bit_generator.random_raw(n_raws) if n_raws
                else np.empty(0, dtype=np.uint64))
        self._raws = np.asarray(raws, dtype=np.uint64)
        #: plain Python ints: attribute/index access in the hot loop is
        #: several times cheaper than numpy scalar extraction.
        self._raw_ints = self._raws.tolist()
        self._n_raws = n_raws
        self._pos = 0
        self._finalized = False

    # ------------------------------------------------------------------
    def next_double(self) -> float:
        """Exactly ``rng.random()``: one fresh 64-bit output."""
        raw = self._raw_ints[self._pos]
        self._pos += 1
        return (raw >> 11) * _TWO53_INV

    def next_bounded(self, span: int, threshold: int) -> int:
        """Exactly ``rng.integers(0, span)`` for ``span <= 2**32``.

        ``threshold`` must be ``(1 << 32) % span`` (0 for a power of two,
        in which case the Lemire multiply never rejects).
        """
        while True:
            half = self._pending
            if half is not None:
                self._pending = None
            else:
                raw = self._raw_ints[self._pos]
                self._pos += 1
                half = raw & 0xFFFFFFFF
                self._pending = self._stale = raw >> 32
            product = half * span
            if (product & 0xFFFFFFFF) >= threshold:
                return product >> 32

    # ------------------------------------------------------------------
    def finalize(self) -> None:
        """Rewind the overdraw and restore the buffered-half state."""
        if self._finalized:
            return
        self._finalized = True
        unused = self._n_raws - self._pos
        if unused:
            self._bit_generator.advance(-unused)
        _set_buffer_state(self._bit_generator, self._pending, self._stale)


def bounded_threshold(span: int) -> int:
    """The Lemire rejection threshold for :meth:`RawCursor.next_bounded`."""
    return (1 << 32) % span


# ======================================================================
# Runtime probe.
# ======================================================================
_SUPPORTED: Optional[bool] = None


def _probe() -> bool:
    """Compare the replay against real scalar draws on a tricky schedule."""
    global _SUPPORTED
    _SUPPORTED = True  # allow the probe itself to use the entry points
    try:
        seed = 0x5EED
        # Odd bounded-int count per iteration → the buffered-half parity
        # alternates; mixed spans; doubles interleaved.
        template = [DOUBLE, 1024, DOUBLE, 4096, 64]
        k = 9
        oracle = np.random.Generator(np.random.PCG64(seed))
        expected: List[List[float]] = [[] for _ in template]
        for _ in range(k):
            for j, slot in enumerate(template):
                if slot == DOUBLE:
                    expected[j].append(oracle.random())
                else:
                    expected[j].append(int(oracle.integers(0, slot)))
        replayed_rng = np.random.Generator(np.random.PCG64(seed))
        columns = replay_template(replayed_rng, template, k)
        for j, column in enumerate(columns):
            if list(column) != expected[j]:
                return False
        if replayed_rng.bit_generator.state != oracle.bit_generator.state:
            return False

        # Cursor path, including a rejection-capable span and the rewind.
        oracle = np.random.Generator(np.random.PCG64(seed + 1))
        expected_mixed = []
        for _ in range(6):
            expected_mixed.append(oracle.random())
            expected_mixed.append(int(oracle.integers(8, 256)))
            expected_mixed.append(int(oracle.integers(0, 2048)))
        tail = oracle.random()
        cursor_rng = np.random.Generator(np.random.PCG64(seed + 1))
        cursor = RawCursor(cursor_rng, 24)
        got = []
        threshold_248 = bounded_threshold(248)
        for _ in range(6):
            got.append(cursor.next_double())
            got.append(8 + cursor.next_bounded(248, threshold_248))
            got.append(cursor.next_bounded(2048, 0))
        cursor.finalize()
        if got != expected_mixed:
            return False
        if cursor_rng.random() != tail:
            return False
        return True
    except Exception:  # repro-lint: disable=except-swallow -- any divergence in this probe, whatever the cause, must read as "numpy build unsupported" so callers fall back to the scalar path
        return False


def replay_supported() -> bool:
    """True when this numpy build matches the pinned draw semantics.

    Probed once per process; a failed probe makes every replay entry
    point raise :class:`ReplayUnsupported`, which the trace generators
    catch to fall back to the scalar oracle path.
    """
    global _SUPPORTED
    if _SUPPORTED is None:
        _SUPPORTED = _probe()
    return _SUPPORTED
