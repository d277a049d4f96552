"""Low-level building blocks for synthetic trace generation.

Three properties of the dynamic instruction stream drive everything the
paper measures, and each has a dedicated helper here:

* **register lifetime structure** — :class:`RegisterRotation` controls how
  far apart definitions of the same logical register are (the
  def-to-redefine distance is what the conventional release policy pays
  for) and is shared by all kernels;
* **branch behaviour** — :class:`BranchSite` describes outcome streams
  with a controlled amount of learnable structure (loop trip counts,
  repeating patterns, history-correlated outcomes with noise) so the
  simulated gshare predictor reaches realistic accuracy on each
  benchmark class;
* **memory locality** — :class:`StridedStream`, :class:`RandomStream`
  and :class:`PointerChaseStream` produce address streams whose
  footprint relative to the cache sizes in Table 2 yields the intended
  hit rates.

The kernels' chunk emitters (:mod:`repro.trace.kernels`) drive these
helpers a chunk at a time; random values come from
:mod:`repro.trace.draws`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.trace.draws import RawDraws


@dataclass
class StridedStream:
    """Sequential array walk: ``base + (i * stride) mod footprint``.

    Models the unit- or small-stride array traversals of the SPEC95 FP
    codes (swim, mgrid, ...).  ``footprint`` bounds the touched region so
    the L1/L2 behaviour can be dialled in: a footprint larger than the
    32 KB L1 but smaller than the 1 MB L2 gives the "misses L1, hits L2"
    regime typical of these programs.
    """

    base: int
    stride: int = 8
    footprint: int = 1 << 18
    offset: int = 0

    def take(self, count: int) -> np.ndarray:
        """The next ``count`` addresses of the walk (and advance it)."""
        steps = np.arange(count, dtype=np.int64)
        addresses = self.base + (self.offset + self.stride * steps) % self.footprint
        self.offset += self.stride * count
        return addresses


@dataclass
class RandomStream:
    """Uniformly random addresses over a working set.

    Models the irregular heap/pointer accesses of the integer codes.  A
    working set comparable to (or somewhat larger than) the L1 data cache
    produces the moderate L1 miss rates typical of gcc/go/li.  Each
    address is one bounded draw over :attr:`span` aligned slots.
    """

    base: int
    footprint: int = 1 << 15
    align: int = 8

    @property
    def span(self) -> int:
        """The number of aligned slots an address is drawn from."""
        return max(self.footprint // self.align, 1)

    def addresses(self, slots: np.ndarray) -> np.ndarray:
        """Map drawn slot indices to effective addresses."""
        return self.base + slots.astype(np.int64) * self.align


@dataclass
class PointerChaseStream:
    """Pseudo pointer-chasing: the next address depends on the previous one.

    A fixed random permutation over ``n_nodes`` "nodes" is walked one node
    per access, reproducing the dependent-load behaviour of linked-list
    and tree traversals (li, perl) without simulating data values.  The
    permutation is a function of ``seed`` and ``n_nodes``, so a stream
    restarted with ``dataclasses.replace(stream, _pos=0)`` shares it.
    """

    base: int
    n_nodes: int = 4096
    node_size: int = 32
    seed: int = 1234
    _order: Optional[np.ndarray] = field(default=None, repr=False)
    _pos: int = 0

    def __post_init__(self) -> None:
        if self._order is None:
            self._order = np.random.default_rng(self.seed).permutation(
                self.n_nodes)

    def take(self, count: int) -> np.ndarray:
        """The addresses of the next ``count`` nodes in the chase order."""
        nodes = (self._pos + np.arange(count)) % self.n_nodes
        self._pos += count
        return self.base + self._order[nodes] * self.node_size


@dataclass
class RegisterRotation:
    """Round-robin allocator over a window of logical register indices.

    The destination handed out at ``cursor`` is
    ``window[cursor % len(window)]``, so the same register comes back
    only ``len(window)`` destinations later: the def-to-redefine distance
    (and with it the register lifetime seen by the release policies) is
    proportional to the window size times the instructions emitted
    between destination writes.  Kernels read sources from the few most
    recent destinations, which keeps the def-to-last-use distance short
    relative to the redefine distance — the gap between the two is
    exactly the Idle interval the paper's early-release schemes reclaim.
    """

    window: Sequence[int]
    cursor: int = 0


@dataclass
class BranchSite:
    """A static branch with a parameterised outcome model.

    ``kind`` selects the outcome model:

    ``"loop"``
        Taken ``trip - 1`` consecutive times, then not taken once
        (classic backward loop branch).  Almost perfectly predictable by
        gshare once warmed up, provided the trip count is not tiny.
    ``"pattern"``
        A repeating fixed pattern of outcomes (e.g. "TTNT"), learnable by
        a history-based predictor; used for well-structured but non-loop
        control flow.  An empty pattern is never taken.
    ``"correlated"``
        The outcome is a fixed (per-site, pseudo-random) boolean function
        of the recent *global* branch history
        (:meth:`correlated_outcome`), flipped by a noise draw with
        probability ``noise``.  This reproduces what makes real integer
        branches predictable: they correlate with the outcomes of
        preceding branches, so a global-history predictor learns them,
        while the ``noise`` term sets the floor on the achievable
        misprediction rate.

    A site is static code: the instance counters that loop and pattern
    outcomes follow are the emitting kernel's per-trace cursors.
    """

    pc: int
    target: int
    kind: str = "loop"
    trip: int = 64
    bias: float = 0.5
    pattern: Sequence[bool] = ()
    #: probability of flipping the history-determined outcome ("correlated").
    noise: float = 0.05
    #: number of global-history bits the correlated outcome depends on.
    context_bits: int = 8
    _context_table: dict = field(default_factory=dict, repr=False)

    def correlated_outcome(self, global_history: int) -> bool:
        """The history-determined outcome of a ``"correlated"`` site,
        *before* the noise flip.

        The kernels fill the table for every context up front
        (:func:`fill_context_tables`, the same draws in one vectorised
        pass); the draw below covers the contexts it leaves out.
        """
        context = global_history & ((1 << self.context_bits) - 1)
        outcome = self._context_table.get(context)
        if outcome is None:
            # The per-context outcome is a fixed property of the site,
            # drawn once with a deterministic per-site generator so the
            # warm-up and measured segments see the same function.
            site_bits = np.random.PCG64((self.pc << 10) ^ context)
            outcome = bool(RawDraws(site_bits).next_double() < self.bias)
            self._context_table[context] = outcome
        return outcome


# ----------------------------------------------------------------------
# Vectorised context outcomes: NumPy's seeding, replayed on arrays
# ----------------------------------------------------------------------
_M32 = 0xFFFFFFFF


def _hash_constants(init: int, mult: int, count: int) -> list:
    """The ``(xor, multiplier)`` pair of each of ``count`` successive
    ``SeedSequence`` hash steps (the hash constant advances per step,
    whatever the data)."""
    pairs, constant = [], init
    for _ in range(count):
        following = constant * mult & _M32
        pairs.append((np.uint32(constant), np.uint32(following)))
        constant = following
    return pairs


#: SeedSequence's pool mixing (``INIT_A``/``MULT_A``): 4 + 12 steps for a
#: one-word entropy and a pool of four.
_MIX_HASH = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
#: SeedSequence's ``generate_state`` (``INIT_B``/``MULT_B``): 8 words.
_STATE_HASH = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
#: PCG64's 128-bit LCG multiplier, as 64-bit halves and the low half's
#: 32-bit halves.
_PCG_HI = np.uint64(0x2360ED051FC65DA4)
_PCG_LO = np.uint64(0x4385DF649FCCF645)
_PCG_LO_HI, _PCG_LO_LO = np.uint64(0x4385DF64), np.uint64(0x9FCCF645)
_U1, _U11, _U32, _U58 = np.uint64(1), np.uint64(11), np.uint64(32), np.uint64(58)
_LOW32 = np.uint64(_M32)


def _hashmix(values: np.ndarray, step: int) -> np.ndarray:
    xor, mult = _MIX_HASH[step]
    values = (values ^ xor) * mult
    return values ^ (values >> np.uint32(16))


def _pcg_step(hi: np.ndarray, lo: np.ndarray, inc_hi: np.ndarray,
              inc_lo: np.ndarray):
    """One PCG64 LCG step, ``state * multiplier + inc`` mod 2**128, on
    lanes held as uint64 halves."""
    # The high half of lo * _PCG_LO, from its four 32-bit partial products.
    lo1, lo0 = lo >> _U32, lo & _LOW32
    p00, p01 = lo0 * _PCG_LO_LO, lo0 * _PCG_LO_HI
    p10, p11 = lo1 * _PCG_LO_LO, lo1 * _PCG_LO_HI
    mid = (p00 >> _U32) + (p01 & _LOW32) + (p10 & _LOW32)
    lo_product_hi = p11 + (p01 >> _U32) + (p10 >> _U32) + (mid >> _U32)
    hi = lo_product_hi + hi * _PCG_LO + lo * _PCG_HI
    product = lo * _PCG_LO
    lo = product + inc_lo
    return hi + inc_hi + (lo < product).astype(np.uint64), lo


def seed_uniforms(seeds: np.ndarray) -> np.ndarray:
    """``np.random.default_rng(int(s)).random()`` for every uint32 seed
    ``s``, bit for bit, in one pass over arrays.

    ``default_rng`` costs ~20-30 µs per seed, most of it building the
    ``SeedSequence``.  Here the same steps run on all seeds at once:
    the sequence's mixing of a one-word entropy into a pool of four and
    its eight-word ``generate_state``, then PCG64's seeding (two LCG
    steps from state 0) and its first draw (XSL-RR output, top 53 bits).
    ``tests/trace/test_context_tables.py`` pins the equality.
    """
    pool = [_hashmix(np.asarray(seeds, dtype=np.uint32), 0)]
    zeros = np.zeros_like(pool[0])
    pool += [_hashmix(zeros, step) for step in (1, 2, 3)]
    step = 4
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = _MIX_L * pool[dst] - _MIX_R * _hashmix(pool[src], step)
                pool[dst] = mixed ^ (mixed >> np.uint32(16))
                step += 1
    state = []
    for index, (xor, mult) in enumerate(_STATE_HASH):
        word = (pool[index % 4] ^ xor) * mult
        state.append((word ^ (word >> np.uint32(16))).astype(np.uint64))
    words = [state[2 * k] | (state[2 * k + 1] << _U32) for k in range(4)]
    inc_hi = (words[2] << _U1) | (words[3] >> np.uint64(63))
    inc_lo = (words[3] << _U1) | _U1
    lo = inc_lo + words[1]
    hi = inc_hi + words[0] + (lo < inc_lo).astype(np.uint64)
    hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
    hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
    mixed = hi ^ lo
    rotation = hi >> _U58
    out = (mixed >> rotation) | (mixed << ((np.uint64(64) - rotation)
                                            & np.uint64(63)))
    return (out >> _U11) * (1.0 / 9007199254740992.0)


def fill_context_tables(sites: Sequence[BranchSite]) -> None:
    """Draw every context outcome of the ``"correlated"`` ``sites`` at once.

    The outcomes are exactly those :meth:`BranchSite.correlated_outcome`
    would draw one context at a time; drawing them for all contexts of
    all sites in one :func:`seed_uniforms` pass costs a few µs per site
    instead of ~30 µs per context visited.  Sites whose seeds need more
    than 32 bits keep the per-context draw.
    """
    eligible = [site for site in sites if site.kind == "correlated"
                and ((site.pc << 10) | ((1 << site.context_bits) - 1)) <= _M32]
    if not eligible:
        return
    uniforms = seed_uniforms(np.concatenate([
        np.uint32(site.pc << 10)
        ^ np.arange(1 << site.context_bits, dtype=np.uint32)
        for site in eligible]))
    start = 0
    for site in eligible:
        count = 1 << site.context_bits
        site._context_table.update(enumerate(
            (uniforms[start:start + count] < site.bias).tolist()))
        start += count
