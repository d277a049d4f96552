"""Figure 3 — allocated registers split into Empty / Ready / Idle.

Conventional renaming, 96 physical registers per file, all ten
benchmarks.  The integer programs report the integer file, the FP
programs the FP file.  The paper's headline numbers from this figure are
the suite-level *idle overheads*: the late release of conventional
renaming inflates the number of used registers by **45.8 %** for the
integer programs and **16.8 %** for the FP programs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.analysis.occupancy import OccupancyRow, idle_overhead_percent, mean_row, \
    occupancy_breakdown
from repro.analysis.reporting import ascii_bar_chart, format_table
from repro.analysis.sweep import SweepConfig, SweepResult, run_sweep
from repro.pipeline.config import ProcessorConfig
from repro.trace.workloads import fp_workloads, integer_workloads

#: Idle overhead percentages reported in the paper (Section 2).
PAPER_IDLE_OVERHEAD_PERCENT = {"int": 45.8, "fp": 16.8}


@dataclass
class Figure3Result:
    """Occupancy rows per benchmark plus suite means and idle overheads."""

    num_registers: int
    rows: Dict[str, List[OccupancyRow]] = field(default_factory=dict)
    #: the sweep the rows were derived from.
    sweep: Optional[SweepResult] = field(default=None, compare=False,
                                         repr=False)

    def suite_mean(self, suite: str) -> OccupancyRow:
        """The "Amean" bar of one panel ("int" or "fp")."""
        return mean_row(self.rows[suite])

    def idle_overhead(self, suite: str) -> float:
        """Idle registers as a percentage of used registers for one suite."""
        return idle_overhead_percent(self.rows[suite])

    def format(self) -> str:
        """Render both panels plus the paper comparison."""
        sections: List[str] = []
        for suite, label in (("int", "integer"), ("fp", "floating point")):
            rows = self.rows[suite] + [self.suite_mean(suite)]
            table_rows = [[row.benchmark, row.empty, row.ready, row.idle,
                           row.allocated, f"{row.idle_overhead_percent:.1f}%"]
                          for row in rows]
            sections.append(format_table(
                ["benchmark", "empty", "ready", "idle", "allocated", "idle/used"],
                table_rows,
                title=(f"Figure 3 ({label}): allocated registers by state, "
                       f"conventional renaming, {self.num_registers} regs"),
                float_digits=2))
            bars = {row.benchmark: row.allocated for row in rows}
            sections.append(ascii_bar_chart(bars, title="allocated registers"))
            sections.append(
                f"idle overhead (measured): {self.idle_overhead(suite):.1f}%   "
                f"(paper: {PAPER_IDLE_OVERHEAD_PERCENT[suite]:.1f}%)")
            sections.append("")
        return "\n".join(sections)


def run(trace_length: int = 20_000, num_registers: int = 96,
        benchmarks: Optional[List[str]] = None,
        base_config: Optional[ProcessorConfig] = None,
        cache=None) -> Figure3Result:
    """Regenerate Figure 3 by simulating every benchmark under conventional release.

    ``cache`` is forwarded to :func:`repro.analysis.sweep.run_sweep`.
    """
    int_names = [name for name in integer_workloads()
                 if benchmarks is None or name in benchmarks]
    fp_names = [name for name in fp_workloads()
                if benchmarks is None or name in benchmarks]
    sweep = run_sweep(SweepConfig(
        benchmarks=tuple(int_names + fp_names),
        policies=("conv",),
        register_sizes=(num_registers,),
        trace_length=trace_length,
        base_config=base_config or ProcessorConfig()),
        cache=cache)

    result = Figure3Result(num_registers=num_registers, sweep=sweep)
    result.rows["int"] = [occupancy_breakdown(sweep.stats(name, "conv", num_registers),
                                              "int") for name in int_names]
    result.rows["fp"] = [occupancy_breakdown(sweep.stats(name, "conv", num_registers),
                                             "fp") for name in fp_names]
    return result
