#!/usr/bin/env python
"""Design-space exploration: shrink the register file without losing IPC.

This is the paper's Table 4 / Section 4.4 use-case as a workflow: given a
performance target (the IPC of a conventional-release design with a
reference register file), find the smallest register file each release
policy needs to reach that target, and translate the saving into access
time and energy with the Rixner-style model.

Usage::

    python examples/design_space_exploration.py [suite] [reference_size] [instructions]

``suite`` is "fp" (default) or "int".
"""

import sys

from repro.analysis.reporting import format_table
from repro.analysis.sweep import SweepConfig, run_sweep
from repro.pipeline.config import ProcessorConfig
from repro.power.rixner_model import RixnerModel
from repro.trace import fp_workloads, integer_workloads

SIZES = (40, 48, 56, 64, 72, 80, 96, 112)
POLICIES = ("conv", "basic", "extended")


def main() -> int:
    suite = sys.argv[1] if len(sys.argv) > 1 else "fp"
    reference_size = int(sys.argv[2]) if len(sys.argv) > 2 else 80
    instructions = int(sys.argv[3]) if len(sys.argv) > 3 else 6_000
    benchmarks = fp_workloads() if suite == "fp" else integer_workloads()

    print(f"suite={suite}  reference design: conventional release with "
          f"{reference_size} registers\n")
    sweep = run_sweep(SweepConfig(benchmarks=tuple(benchmarks), policies=POLICIES,
                                  register_sizes=SIZES,
                                  trace_length=instructions,
                                  base_config=ProcessorConfig()))

    target_ipc = sweep.harmonic_mean_ipc(benchmarks, "conv", reference_size)
    model = RixnerModel()
    geometry = (model.fp_register_file if suite == "fp"
                else model.int_register_file)

    rows = []
    for policy in POLICIES:
        needed = sweep.iso_ipc_size(benchmarks, policy, target_ipc)
        if needed is None:
            rows.append([policy, "-", "-", "-", "-"])
            continue
        saving = 100.0 * (reference_size - needed) / reference_size
        access_time = model.access_time_ns(geometry(int(round(needed))))
        energy = model.energy_pj(geometry(int(round(needed))))
        rows.append([policy, f"{needed:.1f}", f"{saving:+.1f}%",
                     f"{access_time:.2f} ns", f"{energy:.0f} pJ"])

    print(format_table(
        ["policy", "registers needed", "saving vs reference",
         "register file access time", "energy / access"],
        rows,
        title=f"Registers needed to reach harmonic-mean IPC = {target_ipc:.3f}"))
    reference_time = model.access_time_ns(geometry(reference_size))
    print(f"\nreference file access time: {reference_time:.2f} ns — shrinking the "
          "file with early release buys access-time headroom (paper Section 7).")
    return 0


if __name__ == "__main__":
    sys.exit(main())
