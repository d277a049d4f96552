"""Random draws as functions of raw PCG64 words.

Every random value a trace kernel draws per iteration, and every value
of the wrong-path stream, is defined here as a function of raw 64-bit
outputs of a PCG64 bit generator (``bit_generator.random_raw``), not
through the ``numpy.random.Generator`` methods, whose streams NEP 19
lets numpy change between releases; the raw stream, ``advance`` and
the ``has_uint32`` / ``uinteger`` state fields are the bit generator's
own, stable layer.  The C core (``engine/accel/core.c``) applies the
same two transforms to the same words for the wrong-path cascade.

Draw contract (documented for consumers in ``docs/workloads.md``)
-----------------------------------------------------------------
* A **double** consumes one fresh word ``x`` and is
  ``(x >> 11) * 2**-53``.  It neither consumes nor clears the pending
  half.
* A **bounded integer** in ``[0, span)``, ``span <= 2**32``, consumes
  one 32-bit *half*: the pending half if there is one, else the **low**
  half of a fresh word, whose high half becomes the pending half.  A half
  ``y`` maps to ``(y * span) >> 32``; while
  ``(y * span) & 0xFFFFFFFF < 2**32 % span`` the half is rejected and
  another is consumed (never, for a power-of-two span).

The trace kernels keep the pending half in the bit generator's own
state (``has_uint32`` / ``uinteger``), so a trace's generator carries
everything the next segment needs; ``uinteger`` also keeps the last
high half after it was consumed, and the emitters keep it too, so the
whole state is a function of the draws.  The wrong-path generator keeps
its pending half in its :class:`RawDraws` and never writes it back.

Three ways to draw:

:func:`draw_template`
    A fixed per-iteration schedule of slots (doubles and power-of-two
    bounded integers) for ``k`` iterations: one bulk ``random_raw`` and
    one numpy column per slot.
:class:`RawCursor`
    A data-dependent schedule (the pointer-chase store lottery): a
    bounded block of words drawn up front and consumed draw by draw,
    then the unconsumed words handed back with ``advance``.
:class:`RawDraws`
    One draw at a time, straight from the bit generator (the wrong-path
    generator); :class:`RawCursor` shares its transforms.
"""

from __future__ import annotations

from operator import length_hint
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Slot marker for one double in a :func:`draw_template` schedule.
DOUBLE = 0

_TWO53_INV = 2.0 ** -53
_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT11 = np.uint64(11)
_SHIFT32 = np.uint64(32)


def _is_pow2(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


def _buffer_state(bit_generator) -> Tuple[Optional[int], int]:
    """The pending 32-bit half (or ``None``) and the raw ``uinteger`` field."""
    state = bit_generator.state
    stale = int(state["uinteger"])
    return (stale if state["has_uint32"] else None), stale


def _set_buffer_state(bit_generator, pending: Optional[int],
                      stale: int) -> None:
    state = bit_generator.state
    state["has_uint32"] = 1 if pending is not None else 0
    state["uinteger"] = int(pending) if pending is not None else int(stale)
    bit_generator.state = state


# ======================================================================
# Template draws: fixed per-iteration slot schedules.
# ======================================================================
class _CompiledIteration:
    """Word-consumption pattern of one template iteration.

    ``sources[j]`` describes where slot ``j``'s value comes from:
    ``("d", r)`` — the double of word ``r``; ``("lo", r)`` / ``("hi", r)``
    — the Lemire product of word ``r``'s low/high half; ``("ebuf", None)``
    — the half pending *before* the iteration (the previous iteration's
    surplus, or the bit generator's pending half for iteration 0).  Word
    indices are relative to the iteration's first word.
    """

    __slots__ = ("sources", "n_raws", "exit_rel", "has_ebuf", "last_lo_rel")

    def __init__(self, template: Sequence[int], entry_buffered: bool) -> None:
        sources: List[Tuple[str, Optional[int]]] = []
        raw = 0
        # None: no pending half; "entry": the pre-iteration half is
        # still pending; int r: the high half of word r is pending.
        pending: object = "entry" if entry_buffered else None
        for slot in template:
            if slot == DOUBLE:
                sources.append(("d", raw))
                raw += 1
            else:
                if not _is_pow2(slot) or slot > (1 << 31):
                    raise ValueError(
                        f"bounded-integer span {slot} is not a power of two "
                        f"<= 2**31: a Lemire rejection would make the word "
                        f"count data-dependent")
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
        #: high half of this relative word is pending at exit; "entry"
        #: means the pre-iteration half passed through untouched.
        self.exit_rel: object = pending
        #: relative word of the last fresh low-half consumption — its high
        #: half is the last value written to the ``uinteger`` field.
        self.last_lo_rel: Optional[int] = None
        for kind, rel in reversed(sources):
            if kind == "lo":
                self.last_lo_rel = rel
                break


def draw_template(rng: np.random.Generator, template: Sequence[int],
                  k: int) -> List[np.ndarray]:
    """Draw ``k`` iterations of ``template`` from one bulk ``random_raw``.

    ``template`` is the per-iteration draw schedule: a sequence of slots,
    each either :data:`DOUBLE` or a positive power-of-two span ``<= 2**31``
    (one bounded integer in ``[0, span)``).  Returns one numpy column per
    slot, each of length ``k`` — ``float64`` for doubles, ``uint64`` for
    bounded integers — and leaves ``rng``'s bit generator, pending half
    included, where the same draws made one at a time would.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    if k == 0 or not template:
        return [np.empty(0) for _ in template]
    bit_generator = rng.bit_generator
    entry_pending, entry_stale = _buffer_state(bit_generator)

    compiled: Dict[bool, _CompiledIteration] = {}

    def form(buffered: bool) -> _CompiledIteration:
        if buffered not in compiled:
            compiled[buffered] = _CompiledIteration(template, buffered)
        return compiled[buffered]

    # Walk the chunk iteration by iteration (cheap: a handful of integer
    # operations each) recording which compiled form applies, its word
    # base, and — where the form consumes a pre-iteration pending half —
    # the absolute word that half came from (-1: the entry half).
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
                # idx == -1 (the entry half) can only occur at iteration
                # 0; gather the in-block halves, then patch it.  A chunk
                # can consume zero fresh words (k=1, a single bounded
                # slot, a pending entry half) — then the entry half is
                # the only source and there is nothing to gather.
                if raws.size:
                    _lo, hi = halves()
                    idx = ebuf_abs[sel]
                    out[sel] = (hi[np.maximum(idx, 0)] * span) >> _SHIFT32
                if ebuf_abs[0] < 0 and bool(iter_form[0]) == buffered:
                    out[0] = (entry_pending * int(slot)) >> 32
        columns.append(out)

    # random_raw advanced the 128-bit state by ``total`` words; store the
    # pending half and the last high half drawn.
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
# One draw at a time.
# ======================================================================
class RawDraws:
    """Doubles and bounded integers drawn one at a time by the contract.

    Words come straight from ``bit_generator.random_raw()``; ``pending``
    is the pending 32-bit half (``None`` when there is none) and
    ``stale`` the last high half drawn, whether or not it was consumed.
    """

    __slots__ = ("bit_generator", "pending", "stale")

    def __init__(self, bit_generator, pending: Optional[int] = None,
                 stale: int = 0) -> None:
        self.bit_generator = bit_generator
        self.pending = pending
        self.stale = stale

    def raw(self) -> int:
        """The next raw 64-bit word."""
        return self.bit_generator.random_raw()

    def next_double(self) -> float:
        """One double in ``[0, 1)``: one fresh word."""
        return (self.raw() >> 11) * _TWO53_INV

    def next_bounded(self, span: int, threshold: int = 0) -> int:
        """One integer in ``[0, span)``, ``span <= 2**32``.

        ``threshold`` must be :func:`bounded_threshold` of ``span`` (0 for
        a power of two, which never rejects).
        """
        while True:
            half = self.pending
            if half is not None:
                self.pending = None
            else:
                raw = self.raw()
                half = raw & 0xFFFFFFFF
                self.pending = self.stale = raw >> 32
            product = half * span
            if (product & 0xFFFFFFFF) >= threshold:
                return product >> 32


class RawCursor(RawDraws):
    """A chunk's data-dependent draws from one bulk block of words.

    Draws ``n_raws`` words up front (an upper bound on what the chunk can
    consume) and serves them as :class:`RawDraws` does; :meth:`finalize`
    hands the unconsumed words back (``advance``) and stores the pending
    half, so the bit generator ends where one-at-a-time draws leave it.
    """

    __slots__ = ("_words",)

    def __init__(self, rng: np.random.Generator, n_raws: int) -> None:
        bit_generator = rng.bit_generator
        super().__init__(bit_generator, *_buffer_state(bit_generator))
        words = (bit_generator.random_raw(n_raws) if n_raws
                 else np.empty(0, dtype=np.uint64))
        # Plain Python ints: far cheaper per draw than numpy scalars.
        self._words = iter(words.tolist())

    def raw(self) -> int:
        return next(self._words)

    def finalize(self) -> None:
        """Hand back the unconsumed words and store the pending half."""
        unused = length_hint(self._words)
        if unused:
            self.bit_generator.advance(-unused)
        self._words = iter(())
        _set_buffer_state(self.bit_generator, self.pending, self.stale)


def bounded_threshold(span: int) -> int:
    """The Lemire rejection threshold of ``span`` (:meth:`RawDraws.next_bounded`)."""
    return (1 << 32) % span
