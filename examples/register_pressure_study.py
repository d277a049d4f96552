#!/usr/bin/env python
"""Register-pressure study: how IPC and register occupancy react to file size.

Sweeps the physical register file size for one benchmark under the three
release policies (a single-benchmark slice of the paper's Figure 11) and
prints, for each size, the IPC plus the Empty/Ready/Idle occupancy of the
benchmark's focus register file — making it visible *why* early release
helps: the Idle bar of conventional release turns into free registers.

Usage::

    python examples/register_pressure_study.py [benchmark] [instructions]
"""

import sys

from repro.analysis.reporting import format_table
from repro.analysis.sweep import SweepConfig, run_sweep
from repro.pipeline.config import ProcessorConfig
from repro.trace import get_profile

SIZES = (40, 48, 64, 80, 96, 128, 160)
POLICIES = ("conv", "basic", "extended")


def main() -> int:
    benchmark = sys.argv[1] if len(sys.argv) > 1 else "tomcatv"
    instructions = int(sys.argv[2]) if len(sys.argv) > 2 else 8_000
    focus = get_profile(benchmark).focus_class.short_name

    sweep = run_sweep(SweepConfig(benchmarks=(benchmark,), policies=POLICIES,
                                  register_sizes=SIZES,
                                  trace_length=instructions,
                                  base_config=ProcessorConfig()))

    rows = []
    for size in SIZES:
        row = [size]
        for policy in POLICIES:
            row.append(sweep.ipc(benchmark, policy, size))
        conv_occupancy = sweep.stats(benchmark, "conv", size).register_stats(
            focus).occupancy
        extended_occupancy = sweep.stats(benchmark, "extended", size).register_stats(
            focus).occupancy
        row.append(conv_occupancy.idle)
        row.append(extended_occupancy.idle)
        rows.append(row)

    print(format_table(
        ["P", "IPC conv", "IPC basic", "IPC extended",
         f"idle {focus} regs (conv)", f"idle {focus} regs (extended)"],
        rows,
        title=f"{benchmark}: IPC and idle-register occupancy vs register file size",
        float_digits=2))

    tightest, loosest = SIZES[0], SIZES[-1]
    gain_tight = 100 * (sweep.ipc(benchmark, "extended", tightest)
                        / sweep.ipc(benchmark, "conv", tightest) - 1)
    gain_loose = 100 * (sweep.ipc(benchmark, "extended", loosest)
                        / sweep.ipc(benchmark, "conv", loosest) - 1)
    print(f"\nextended-release gain: {gain_tight:+.1f}% at P={tightest}, "
          f"{gain_loose:+.1f}% at P={loosest} "
          "(the paper's Figure 11 shape: large when tight, none when loose)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
