"""Section 3.3 — performance of the *basic* mechanism alone.

The paper quotes, for the basic mechanism vs conventional release:

* 64int + 64FP registers: ≈3 % average speedup for the FP programs,
  negligible for the integer programs;
* 48int + 48FP: ≈6 % (FP), negligible (integer);
* 40int + 40FP: ≈9 % (FP) and ≈5 % (integer) — with files this tight even
  the integer codes benefit.

This experiment reruns that comparison at the same three sizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.analysis.metrics import percentage_speedup
from repro.analysis.reporting import format_table
from repro.analysis.sweep import SweepConfig, SweepResult, run_sweep
from repro.pipeline.config import ProcessorConfig
from repro.trace.workloads import fp_workloads, integer_workloads

#: (register size → suite → paper speedup %) quoted in Section 3.3.
PAPER_BASIC_SPEEDUPS = {
    64: {"fp": 3.0, "int": 0.0},
    48: {"fp": 6.0, "int": 0.0},
    40: {"fp": 9.0, "int": 5.0},
}

DEFAULT_SIZES = (64, 48, 40)


@dataclass
class Section33Result:
    """Basic-vs-conventional suite speedups at several register sizes."""

    sizes: Tuple[int, ...]
    sweep: SweepResult
    int_benchmarks: List[str] = field(default_factory=list)
    fp_benchmarks: List[str] = field(default_factory=list)

    def speedup_percent(self, suite: str, size: int) -> float:
        """Suite harmonic-mean speedup of the basic mechanism at ``size``."""
        benchmarks = self.int_benchmarks if suite == "int" else self.fp_benchmarks
        return percentage_speedup(
            self.sweep.harmonic_mean_ipc(benchmarks, "basic", size),
            self.sweep.harmonic_mean_ipc(benchmarks, "conv", size))

    def format(self) -> str:
        """Render measured-vs-paper speedups."""
        rows: List[List[object]] = []
        for size in self.sizes:
            for suite in ("fp", "int"):
                paper = PAPER_BASIC_SPEEDUPS.get(size, {}).get(suite)
                rows.append([
                    f"{size}int+{size}FP", suite,
                    f"{self.speedup_percent(suite, size):+.1f}%",
                    "-" if paper is None else f"{paper:+.1f}%",
                ])
        return format_table(
            ["configuration", "suite", "basic speedup (measured)",
             "basic speedup (paper)"],
            rows, title="Section 3.3: basic mechanism vs conventional release")


def run(trace_length: int = 20_000, sizes: Sequence[int] = DEFAULT_SIZES,
        benchmarks: Optional[List[str]] = None,
        base_config: Optional[ProcessorConfig] = None,
        cache=None) -> Section33Result:
    """Regenerate the Section 3.3 comparison.

    ``cache`` is forwarded to :func:`repro.analysis.sweep.run_sweep`.
    """
    int_names = [name for name in integer_workloads()
                 if benchmarks is None or name in benchmarks]
    fp_names = [name for name in fp_workloads()
                if benchmarks is None or name in benchmarks]
    sweep = run_sweep(SweepConfig(
        benchmarks=tuple(int_names + fp_names),
        policies=("conv", "basic"),
        register_sizes=tuple(sizes),
        trace_length=trace_length,
        base_config=base_config or ProcessorConfig()),
        cache=cache)
    return Section33Result(sizes=tuple(sizes), sweep=sweep,
                           int_benchmarks=int_names, fp_benchmarks=fp_names)
