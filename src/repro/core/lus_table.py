"""Last-Uses Table (LUs Table) — paper Section 3.1.

For every logical register the table records which in-flight (or already
committed) instruction used it last, and in which operand role
(src1/src2/dst).  When a next-version (NV) instruction is renamed, the
table is looked up with the NV's destination logical register to find the
last-use (LU) instruction of the *previous* version, so the previous
version's release can be tied to the LU's commit instead of the NV's.

The paper's entry holds three fields: ``ROSid`` (the LU instruction),
``Kind`` (src1/src2/dst) and a commit bit ``C``.  This implementation
stores ``(seq, slot)`` and *derives* the commit bit from the in-order
commit watermark (``seq <= last committed seq``), which is exactly
equivalent to the paper's scheme of setting C at commit and propagating it
into every checkpointed copy — with the advantage that consistency across
copies holds by construction.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

#: Slot identifier for a destination ("Kind = dst" in the paper).
DST_SLOT = 3


class LastUse(NamedTuple):
    """One LUs Table entry: the last user of a logical register.

    ``slot`` is 0..2 for source operand positions and :data:`DST_SLOT` for
    the destination (the "Kind" field of the paper).  A ``NamedTuple``
    rather than a dataclass: one entry is built per renamed source
    operand, so construction cost is on the rename hot path.
    """

    seq: int
    slot: int

    @property
    def is_dest_use(self) -> bool:
        """True when the last use is the defining instruction itself."""
        return self.slot == DST_SLOT


class LastUsesTable:
    """Last-use tracking for one register class (one table per register file)."""

    def __init__(self, num_logical: int) -> None:
        self.num_logical = num_logical
        self._entries: List[Optional[LastUse]] = [None] * num_logical

    # ------------------------------------------------------------------
    def record_use(self, logical: int, seq: int, slot: int) -> None:
        """Record that instruction ``seq`` uses ``logical`` in operand ``slot``.

        Calls must be made in rename (program) order so the entry always
        holds the youngest use.
        """
        self._entries[logical] = LastUse(seq, slot)

    def lookup(self, logical: int) -> Optional[LastUse]:
        """Return the recorded last use of ``logical`` (None if unknown)."""
        return self._entries[logical]

    def clear(self, logical: int) -> None:
        """Forget the last use of ``logical``."""
        self._entries[logical] = None

    def reset(self) -> None:
        """Forget everything (used on an exception flush: nothing is in flight)."""
        self._entries[:] = [None] * self.num_logical

    # ------------------------------------------------------------------
    def snapshot(self) -> Tuple[Optional[LastUse], ...]:
        """Copy of the table taken at each branch prediction (paper Section 3.1)."""
        return tuple(self._entries)

    def restore(self, snapshot: Tuple[Optional[LastUse], ...]) -> None:
        """Restore the copy belonging to a mispredicted branch (in place)."""
        if len(snapshot) != self.num_logical:
            raise ValueError("LUs table snapshot size mismatch")
        self._entries[:] = snapshot

    def entries(self) -> Dict[int, LastUse]:
        """Mapping of logical register → last use, for inspection/tests."""
        return {logical: entry for logical, entry in enumerate(self._entries)
                if entry is not None}
