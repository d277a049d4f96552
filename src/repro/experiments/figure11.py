"""Figure 11 — harmonic-mean IPC vs physical register file size.

Two panels (integer suite and FP suite), three curves each (conventional,
basic, extended), register file sizes from 40 to 160.  The paper's
headline observations, all of which the reproduction should show:

* with a loose file (P ≥ L + N) the three policies coincide;
* for tight files early release always wins, with gains growing as the
  file shrinks;
* FP codes benefit over a wide size range (≈40–104 registers), integer
  codes only for very tight files (≈40–64);
* the extended mechanism is clearly better than the basic one on integer
  codes, while the two are close on FP codes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.analysis.metrics import percentage_speedup
from repro.analysis.reporting import format_series
from repro.analysis.sweep import SweepConfig, SweepResult, run_sweep
from repro.pipeline.config import ProcessorConfig
from repro.trace.workloads import fp_workloads, integer_workloads

POLICIES = ("conv", "basic", "extended")

#: Register-file sizes of the published figure.
PAPER_SIZES = (40, 48, 56, 64, 72, 80, 88, 96, 104, 112, 120, 128, 160)

#: Default (coarser) grid used by the experiment harness; covers the same
#: range with fewer cycle-level simulations.
DEFAULT_SIZES = (40, 48, 56, 64, 72, 80, 96, 112, 128, 160)


@dataclass
class Figure11Result:
    """Harmonic-mean IPC curves per suite and policy."""

    sizes: Tuple[int, ...]
    sweep: SweepResult
    int_benchmarks: List[str] = field(default_factory=list)
    fp_benchmarks: List[str] = field(default_factory=list)

    # ------------------------------------------------------------------
    def curve(self, suite: str, policy: str) -> List[Tuple[int, float]]:
        """(register size, harmonic-mean IPC) curve of one suite and policy."""
        benchmarks = self.int_benchmarks if suite == "int" else self.fp_benchmarks
        return [(size, self.sweep.harmonic_mean_ipc(benchmarks, policy, size))
                for size in self.sizes]

    def speedup_percent(self, suite: str, policy: str, size: int) -> float:
        """Suite speedup of ``policy`` over conventional at one size."""
        benchmarks = self.int_benchmarks if suite == "int" else self.fp_benchmarks
        return percentage_speedup(
            self.sweep.harmonic_mean_ipc(benchmarks, policy, size),
            self.sweep.harmonic_mean_ipc(benchmarks, "conv", size))

    def speedup_curve(self, suite: str, policy: str) -> List[Tuple[int, float]]:
        """Speedup-over-conventional as a function of register file size."""
        return [(size, self.speedup_percent(suite, policy, size))
                for size in self.sizes]

    # ------------------------------------------------------------------
    def format(self) -> str:
        """Render both panels plus the speedup summaries."""
        sections: List[str] = []
        for suite, label in (("int", "Integer"), ("fp", "FP")):
            series = {policy: [(float(size), ipc) for size, ipc in
                               self.curve(suite, policy)]
                      for policy in POLICIES}
            sections.append(format_series(
                series, "registers", "IPC",
                title=f"Figure 11 ({label}): harmonic-mean IPC vs register file size"))
            speedups = {policy: [(float(size), pct) for size, pct in
                                 self.speedup_curve(suite, policy)]
                        for policy in ("basic", "extended")}
            sections.append(format_series(
                speedups, "registers", "speedup %",
                title=f"{label}: speedup over conventional (%)", float_digits=1))
            sections.append("")
        return "\n".join(sections)


def run(trace_length: int = 20_000, sizes: Sequence[int] = DEFAULT_SIZES,
        benchmarks: Optional[List[str]] = None,
        base_config: Optional[ProcessorConfig] = None,
        cache=None) -> Figure11Result:
    """Regenerate Figure 11 (the full benchmark × policy × size sweep).

    ``cache`` is forwarded to :func:`repro.analysis.sweep.run_sweep`:
    already-simulated points are served from the on-disk result cache, so
    regenerating the figure after a partial sweep (or with a finer size
    grid) only simulates the missing points.
    """
    int_names = [name for name in integer_workloads()
                 if benchmarks is None or name in benchmarks]
    fp_names = [name for name in fp_workloads()
                if benchmarks is None or name in benchmarks]
    sweep = run_sweep(SweepConfig(
        benchmarks=tuple(int_names + fp_names),
        policies=POLICIES,
        register_sizes=tuple(sizes),
        trace_length=trace_length,
        base_config=base_config or ProcessorConfig()),
        cache=cache)
    return Figure11Result(sizes=tuple(sizes), sweep=sweep,
                          int_benchmarks=int_names, fp_benchmarks=fp_names)
