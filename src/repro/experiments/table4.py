"""Table 4 — register file sizes giving equal IPC.

The paper uses the Figure 11 curves the other way round: instead of asking
"how much faster is early release at a fixed size", it asks "how much
smaller can the register file be at a fixed performance level".  Its
published rows:

=========  ===========  =========  =========  ===========  =========
FP codes                            int codes
-------------------------------    -------------------------------
conv        extended     saved %    conv        extended     saved %
=========  ===========  =========  =========  ===========  =========
69          64           7.2 %      64          56           12.5 %
79          72           8.9 %      72          64           11.1 %
=========  ===========  =========  =========  ===========  =========

This module reproduces the construction: for each conventional-release
reference size, find (by interpolating the extended-release curve) the
smallest size that achieves the same harmonic-mean IPC, and report the
saving.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.metrics import iso_ipc_register_requirement
from repro.analysis.reporting import format_table
from repro.experiments.figure11 import Figure11Result, run as run_figure11

#: The rows published in the paper, as (suite, conv size, extended size, saved %).
PAPER_ROWS = (
    ("fp", 69, 64, 7.2),
    ("fp", 79, 72, 8.9),
    ("int", 64, 56, 12.5),
    ("int", 72, 64, 11.1),
)


@dataclass(frozen=True)
class IsoIPCRow:
    """One row of Table 4."""

    suite: str
    conv_size: float
    target_ipc: float
    extended_size: Optional[float]

    @property
    def saved_percent(self) -> Optional[float]:
        """Register savings of extended release at equal IPC."""
        if self.extended_size is None or self.conv_size <= 0:
            return None
        return 100.0 * (self.conv_size - self.extended_size) / self.conv_size


@dataclass
class Table4Result:
    """Iso-IPC register savings derived from the Figure 11 sweep."""

    figure11: Figure11Result
    conv_reference_sizes: Dict[str, Tuple[int, ...]]
    rows: List[IsoIPCRow] = field(default_factory=list)

    def rows_for(self, suite: str) -> List[IsoIPCRow]:
        """Rows of one suite."""
        return [row for row in self.rows if row.suite == suite]

    def format(self) -> str:
        """Render the regenerated table plus the paper's rows."""
        table_rows: List[List[object]] = []
        for row in self.rows:
            table_rows.append([
                row.suite, f"{row.conv_size:.0f}", f"{row.target_ipc:.3f}",
                "-" if row.extended_size is None else f"{row.extended_size:.1f}",
                "-" if row.saved_percent is None else f"{row.saved_percent:.1f}%",
            ])
        measured = format_table(
            ["suite", "conv size", "IPC target", "extended size", "saved"],
            table_rows, title="Table 4 (measured): register file sizes giving equal IPC")
        paper_rows = [[suite, conv, extended, f"{saved:.1f}%"]
                      for suite, conv, extended, saved in PAPER_ROWS]
        paper = format_table(["suite", "conv", "extended", "saved"], paper_rows,
                             title="Table 4 (paper)")
        return measured + "\n\n" + paper


def derive(figure11: Figure11Result,
           conv_reference_sizes: Optional[Dict[str, Sequence[int]]] = None,
           ) -> Table4Result:
    """Derive Table 4 from an existing Figure 11 sweep result.

    The conventional-release IPC at each reference size is obtained by
    linear interpolation of the Figure 11 curve, so reference sizes need
    not coincide with the sweep grid (the paper's own reference points,
    69 and 79 FP registers, do not).
    """
    import numpy as np

    if conv_reference_sizes is None:
        conv_reference_sizes = {"fp": (69, 79), "int": (64, 72)}
    result = Table4Result(
        figure11=figure11,
        conv_reference_sizes={suite: tuple(sizes)
                              for suite, sizes in conv_reference_sizes.items()})
    for suite, sizes in conv_reference_sizes.items():
        conv_curve = figure11.curve(suite, "conv")
        extended_curve = figure11.curve(suite, "extended")
        conv_sizes = [size for size, _ in conv_curve]
        conv_ipcs = [ipc for _, ipc in conv_curve]
        extended_sizes = [size for size, _ in extended_curve]
        extended_ipcs = [ipc for _, ipc in extended_curve]
        for size in sizes:
            target = float(np.interp(size, conv_sizes, conv_ipcs))
            needed = iso_ipc_register_requirement(extended_sizes, extended_ipcs,
                                                  target)
            result.rows.append(IsoIPCRow(suite=suite, conv_size=float(size),
                                         target_ipc=target, extended_size=needed))
    return result


def run(trace_length: int = 20_000, sizes: Optional[Sequence[int]] = None,
        conv_reference_sizes: Optional[Dict[str, Sequence[int]]] = None,
        figure11_result: Optional[Figure11Result] = None,
        cache=None) -> Table4Result:
    """Regenerate Table 4 (running the Figure 11 sweep unless one is supplied).

    ``cache`` is forwarded to the Figure 11 sweep, so a Table 4 run after
    a Figure 11 run performs zero additional simulations.
    """
    if figure11_result is None:
        kwargs = {} if sizes is None else {"sizes": sizes}
        figure11_result = run_figure11(trace_length=trace_length, cache=cache,
                                       **kwargs)
    return derive(figure11_result, conv_reference_sizes)
