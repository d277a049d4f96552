"""Figure 10 — per-benchmark IPC with a very tight 48int + 48FP register file.

Conventional release vs the basic and extended mechanisms, for all ten
benchmarks plus the harmonic mean of each suite.  The paper's headline:
with 48+48 registers, *basic* gives about +6 % (FP) and ~0 % (integer)
over conventional, *extended* about +8 % (FP) and +5 % (integer).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.analysis.metrics import percentage_speedup
from repro.analysis.reporting import format_table
from repro.analysis.sweep import SweepConfig, SweepResult, run_sweep
from repro.pipeline.config import ProcessorConfig
from repro.trace.workloads import fp_workloads, integer_workloads

#: Suite-level speedups over conventional quoted in Section 5.1 (percent).
PAPER_SPEEDUPS_PERCENT = {
    ("fp", "basic"): 6.0,
    ("fp", "extended"): 8.0,
    ("int", "basic"): 0.0,
    ("int", "extended"): 5.0,
}

POLICIES = ("conv", "basic", "extended")


@dataclass
class Figure10Result:
    """IPC per benchmark and policy at one register-file size."""

    num_registers: int
    sweep: SweepResult
    int_benchmarks: List[str] = field(default_factory=list)
    fp_benchmarks: List[str] = field(default_factory=list)

    # ------------------------------------------------------------------
    def ipc(self, benchmark: str, policy: str) -> float:
        """IPC of one benchmark under one policy."""
        return self.sweep.ipc(benchmark, policy, self.num_registers)

    def harmonic_mean(self, suite: str, policy: str) -> float:
        """Harmonic-mean IPC of one suite under one policy."""
        benchmarks = self.int_benchmarks if suite == "int" else self.fp_benchmarks
        return self.sweep.harmonic_mean_ipc(benchmarks, policy, self.num_registers)

    def suite_speedup_percent(self, suite: str, policy: str) -> float:
        """Suite harmonic-mean speedup of ``policy`` over conventional."""
        return percentage_speedup(self.harmonic_mean(suite, policy),
                                  self.harmonic_mean(suite, "conv"))

    # ------------------------------------------------------------------
    def format(self) -> str:
        """Render both panels of the figure plus the paper comparison."""
        sections: List[str] = []
        for suite, label, benchmarks in (
                ("int", "Integer", self.int_benchmarks),
                ("fp", "FP", self.fp_benchmarks)):
            rows = []
            for benchmark in benchmarks:
                rows.append([benchmark] + [self.ipc(benchmark, policy)
                                           for policy in POLICIES])
            rows.append(["Hm"] + [self.harmonic_mean(suite, policy)
                                  for policy in POLICIES])
            sections.append(format_table(
                ["benchmark", "conv", "basic", "extended"], rows,
                title=(f"Figure 10 ({label}): IPC with {self.num_registers}int+"
                       f"{self.num_registers}FP registers")))
            for policy in ("basic", "extended"):
                measured = self.suite_speedup_percent(suite, policy)
                paper = PAPER_SPEEDUPS_PERCENT[(suite, policy)]
                sections.append(f"  {policy:<9s} speedup over conv: "
                                f"{measured:+.1f}%  (paper: {paper:+.1f}%)")
            sections.append("")
        return "\n".join(sections)


def run(trace_length: int = 20_000, num_registers: int = 48,
        benchmarks: Optional[List[str]] = None,
        base_config: Optional[ProcessorConfig] = None,
        cache=None) -> Figure10Result:
    """Regenerate Figure 10 (all benchmarks × three policies at one size).

    ``cache`` is forwarded to :func:`repro.analysis.sweep.run_sweep`:
    already-simulated points are served from the on-disk result cache.
    """
    int_names = [name for name in integer_workloads()
                 if benchmarks is None or name in benchmarks]
    fp_names = [name for name in fp_workloads()
                if benchmarks is None or name in benchmarks]
    sweep = run_sweep(SweepConfig(
        benchmarks=tuple(int_names + fp_names),
        policies=POLICIES,
        register_sizes=(num_registers,),
        trace_length=trace_length,
        base_config=base_config or ProcessorConfig()),
        cache=cache)
    return Figure10Result(num_registers=num_registers, sweep=sweep,
                          int_benchmarks=int_names, fp_benchmarks=fp_names)
