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

:class:`DrawTemplate`
    A fixed per-iteration schedule of slots (doubles and power-of-two
    bounded integers), compiled once (a kernel keeps its own, as static
    code): ``k`` iterations are one bulk ``random_raw`` and a fixed
    number of array operations that give one numpy column per slot.
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
from typing import List, Optional, Sequence, Tuple

import numpy as np

#: Slot marker for one double in a :class:`DrawTemplate` schedule.
DOUBLE = 0

_TWO53_INV = 2.0 ** -53
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
class _Period:
    """Where every slot of two iterations takes its word, for one entry
    state (a half pending before the first iteration, or none).

    Two iterations make a period: each bounded slot flips whether a half
    is pending, so after two iterations the entry state is back.  A
    chunk's words sit behind a prefix one period long, so ``rel`` holds,
    for the doubles and then for the bounded slots, each slot's word
    index in each iteration of the period plus ``words``.  A slot that
    takes the half pending before the period reads the previous period's
    last low-half word; in period 0 that is the prefix word ``entry``,
    which holds the entry half.  ``shift`` (per bounded slot and
    iteration) is 32 for a low half, 0 for a high one.
    """

    __slots__ = ("rel", "shift", "first_words", "words", "entry", "last_lo")

    def __init__(self, template: Sequence[int], entry_pending: bool) -> None:
        rel: List[List[int]] = [[], []]
        shift: List[List[int]] = [[], []]
        entry_slots = []
        last_lo = [-1, -1]
        word = 0
        # None: no pending half; -1: the half pending before the period;
        # r >= 0: the high half of word r.
        pending: Optional[int] = -1 if entry_pending else None
        for half in (0, 1):
            if half:
                self.first_words = word
            for slot in template:
                if slot == DOUBLE:
                    rel[half].append(word)
                    word += 1
                elif pending is None:
                    rel[half].append(word)
                    shift[half].append(32)
                    pending = last_lo[half] = word
                    word += 1
                else:
                    if pending < 0:
                        entry_slots.append(len(rel[half]))
                    rel[half].append(pending)
                    shift[half].append(0)
                    pending = None
        self.words = word
        # The half pending at a period's end is the next one's entry half.
        self.entry = pending if entry_slots else 0
        for index in entry_slots:
            rel[0][index] = pending - word
        rel_array = np.array(rel, dtype=np.int64).T + word
        self.rel = (rel_array[[j for j, slot in enumerate(template)
                               if slot == DOUBLE]],
                    rel_array[[j for j, slot in enumerate(template)
                               if slot != DOUBLE]])
        self.shift = np.array(shift, dtype=np.uint64).reshape(2, -1).T[
            :, None, :]
        self.last_lo = last_lo


class DrawTemplate:
    """A fixed per-iteration slot schedule, compiled for bulk draws.

    ``template`` is a sequence of slots, each either :data:`DOUBLE` or a
    positive power-of-two span ``<= 2**31`` (one bounded integer in
    ``[0, span)``; a power of two never rejects, so the word count of an
    iteration does not depend on the data).  Compiling walks two
    iterations once per entry state; :meth:`draw` then turns one bulk
    ``random_raw`` into every slot's column with a fixed number of array
    operations, whatever the template's length or ``k``.
    """

    __slots__ = ("slots", "_doubles", "_bounded", "_spans", "_periods")

    def __init__(self, template: Sequence[int]) -> None:
        self.slots = tuple(template)
        for slot in self.slots:
            if slot != DOUBLE and (not _is_pow2(slot) or slot > (1 << 31)):
                raise ValueError(
                    f"bounded-integer span {slot} is not a power of two "
                    f"<= 2**31: a Lemire rejection would make the word "
                    f"count data-dependent")
        self._doubles = [j for j, slot in enumerate(self.slots)
                         if slot == DOUBLE]
        self._bounded = [j for j, slot in enumerate(self.slots)
                         if slot != DOUBLE]
        self._spans = np.array([self.slots[j] for j in self._bounded],
                               dtype=np.uint64).reshape(-1, 1, 1)
        self._periods = tuple(_Period(self.slots, entry)
                              for entry in (False, True))

    def draw(self, rng: np.random.Generator, k: int) -> List[np.ndarray]:
        """Draw ``k`` iterations: one column per slot, each of length
        ``k`` (``float64`` for doubles, ``uint64`` for bounded integers).

        Leaves ``rng``'s bit generator, pending half included, where the
        same draws made one at a time would.
        """
        if k < 0:
            raise ValueError("k must be non-negative")
        if k == 0 or not self.slots:
            return [np.empty(0) for _ in self.slots]
        bit_generator = rng.bit_generator
        entry_pending, entry_stale = _buffer_state(bit_generator)
        period = self._periods[entry_pending is not None]
        width = period.words
        periods = (k + 1) >> 1
        total = (k >> 1) * width + (k & 1) * period.first_words
        # A period-long prefix (the entry half), the chunk's fresh words,
        # and zeros for the second half of a last, odd period.
        words = np.zeros((periods + 1) * width, dtype=np.uint64)
        words[period.entry] = (entry_pending or 0) << 32
        if total:
            words[width:width + total] = bit_generator.random_raw(total)
        offsets = np.arange(periods) * width

        def gather(rel: np.ndarray) -> np.ndarray:
            """The words of ``rel``'s slots: slot x period x iteration."""
            index = np.empty((len(rel), periods, 2), dtype=np.int64)
            for half in (0, 1):
                np.add(rel[:, half, None], offsets, out=index[:, :, half])
            return words[index]

        rel_doubles, rel_bounded = period.rel
        columns: List[Optional[np.ndarray]] = [None] * len(self.slots)
        if self._doubles:
            raw = gather(rel_doubles).reshape(len(self._doubles), -1)
            doubles = (raw >> _SHIFT11).astype(np.float64) * _TWO53_INV
            for row, j in enumerate(self._doubles):
                columns[j] = doubles[row, :k]
        if self._bounded:
            halves = (gather(rel_bounded) << period.shift) >> _SHIFT32
            bounded = ((halves * self._spans) >> _SHIFT32).reshape(
                len(self._bounded), -1)
            for row, j in enumerate(self._bounded):
                columns[j] = bounded[row, :k]

        # The last fresh low half is in one of the last two iterations;
        # its high half is what the ``uinteger`` field keeps.
        last_word = None
        for i in (k - 1, k - 2):
            if i >= 0 and period.last_lo[i & 1] >= 0:
                last_word = int(words[width + (i >> 1) * width
                                      + period.last_lo[i & 1]] >> _SHIFT32)
                break
        stale = last_word if last_word is not None else entry_stale
        if (entry_pending is not None) == (k * len(self._bounded) % 2 == 0):
            # A half is pending: the last bounded slot took a fresh word's
            # low half, or there is no bounded slot and the entry half
            # passes through.
            pending = last_word if self._bounded else entry_pending
        else:
            pending = None
        _set_buffer_state(bit_generator, pending, stale)
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
