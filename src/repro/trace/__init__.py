"""Synthetic workload (dynamic trace) generation.

The paper evaluates ten SPEC95 programs (five integer, five floating point)
run to completion under SimpleScalar.  SPEC95 binaries, their reference
inputs and the Alpha compilers are not available here, so this package
builds *synthetic equivalents*: parameterised trace generators whose
dynamic properties — instruction mix, branch density and predictability,
register lifetime structure (and therefore physical-register pressure),
and memory locality — are chosen per benchmark to land in the regime the
paper describes:

* floating-point codes: few and highly predictable branches, long value
  lifetimes, long-latency operations that keep the out-of-order window
  full, hence *high* register pressure;
* integer codes: branch dense, hard-to-predict control flow, short value
  lifetimes, hence *low* register pressure.

See DESIGN.md ("Reproduction substitutions") for the argument why this
substitution preserves the behaviour the paper measures.

Public entry points
-------------------
:func:`get_workload`   — build the dynamic trace of one named benchmark.
:data:`WORKLOADS`      — the ten benchmark profiles (name → profile).
:func:`integer_workloads` / :func:`fp_workloads` — the two suites.
"""

from repro.trace.records import Trace, TraceSummary
from repro.trace.synthetic import (
    BranchSite,
    RegisterRotation,
    StridedStream,
    RandomStream,
)
from repro.trace.kernels import (
    KernelParams,
    streaming_fp_kernel,
    stencil_fp_kernel,
    int_compute_kernel,
    branchy_kernel,
    pointer_chase_kernel,
)
from repro.trace.workloads import (
    BenchmarkProfile,
    SCENARIOS,
    ScenarioPhase,
    ScenarioProfile,
    WORKLOADS,
    get_workload,
    get_profile,
    get_scenario,
    generate_trace,
    generate_scenario_trace,
    has_workload,
    integer_workloads,
    fp_workloads,
    load_scenario_file,
    profile_digest,
    register_scenario,
    register_scenario_file,
    scenario_workloads,
    unregister_scenario,
    workload_digest,
)
from repro.trace.wrongpath import WrongPathGenerator

__all__ = [
    "Trace",
    "TraceSummary",
    "BranchSite",
    "RegisterRotation",
    "StridedStream",
    "RandomStream",
    "KernelParams",
    "streaming_fp_kernel",
    "stencil_fp_kernel",
    "int_compute_kernel",
    "branchy_kernel",
    "pointer_chase_kernel",
    "BenchmarkProfile",
    "SCENARIOS",
    "ScenarioPhase",
    "ScenarioProfile",
    "WORKLOADS",
    "get_workload",
    "get_profile",
    "get_scenario",
    "generate_trace",
    "generate_scenario_trace",
    "has_workload",
    "integer_workloads",
    "fp_workloads",
    "load_scenario_file",
    "profile_digest",
    "register_scenario",
    "register_scenario_file",
    "scenario_workloads",
    "unregister_scenario",
    "workload_digest",
    "WrongPathGenerator",
]
