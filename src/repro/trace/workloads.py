"""SPEC95-like benchmark profiles (the paper's Table 3 workload).

The paper simulates five SPECint95 programs (compress, gcc, go, li, perl)
and five SPECfp95 programs (mgrid, tomcatv, applu, swim, hydro2d).  Each
profile below pairs one of the :mod:`repro.trace.kernels` generators with
parameters chosen so the synthetic trace lands in the dynamic regime
published for that program:

* branch density and predictability (integer codes are branch-dense and
  comparatively hard to predict; FP codes have few, highly regular
  branches),
* register lifetime structure (FP codes carry many long-lived values →
  high register pressure; integer codes recycle a handful of registers
  quickly → low pressure but proportionally large *Idle* time),
* memory locality relative to the Table 2 cache sizes.

Absolute dynamic instruction counts are scaled down from the paper's
47M–472M to the tens of thousands so that a pure-Python cycle-level
simulation completes in seconds; see DESIGN.md for the substitution
rationale.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import re
import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.isa import RegClass
from repro.trace.kernels import (
    BranchyKernel,
    IntComputeKernel,
    KernelParams,
    PointerChaseKernel,
    StencilFPKernel,
    StreamingFPKernel,
    _KernelBase,
    random_stream_span,
)
from repro.trace.records import RowBook, Trace, TraceSink

#: Default trace length (dynamic instructions) used by the experiment
#: harness when the caller does not override it.
DEFAULT_TRACE_LENGTH = 30_000


@dataclass(frozen=True)
class BenchmarkProfile:
    """Description of one synthetic benchmark.

    Attributes
    ----------
    name:
        SPEC95 program name this profile stands in for.
    suite:
        ``"int"`` or ``"fp"`` — which half of Table 3 the program belongs
        to, and therefore which physical register file the paper's figures
        measure for it.
    kernel:
        Name of the kernel generator class used ("streaming", "stencil",
        "int_compute", "branchy", "pointer_chase").
    params:
        Kernel parameters (see :class:`repro.trace.kernels.KernelParams`).
    paper_instructions_m:
        Dynamic instruction count (millions) the paper reports in Table 3,
        kept for documentation purposes.
    paper_input:
        The input set listed in Table 3.
    description:
        One-line characterisation of the dynamic behaviour being modelled.
    """

    name: str
    suite: str
    kernel: str
    params: KernelParams
    paper_instructions_m: int = 0
    paper_input: str = ""
    description: str = ""

    @property
    def focus_class(self) -> RegClass:
        """Register class whose file the paper measures for this program."""
        return RegClass.INT if self.suite == "int" else RegClass.FP


_KERNEL_FACTORIES: Dict[str, Callable[[KernelParams], _KernelBase]] = {
    "streaming": StreamingFPKernel,
    "stencil": StencilFPKernel,
    "int_compute": IntComputeKernel,
    "branchy": BranchyKernel,
    "pointer_chase": PointerChaseKernel,
}


def _profile(name: str, suite: str, kernel: str, paper_m: int, paper_input: str,
             description: str, **param_overrides) -> BenchmarkProfile:
    params = KernelParams(**param_overrides)
    return BenchmarkProfile(
        name=name, suite=suite, kernel=kernel, params=params,
        paper_instructions_m=paper_m, paper_input=paper_input,
        description=description,
    )


#: The ten benchmark profiles, keyed by program name (paper Table 3).
WORKLOADS: Dict[str, BenchmarkProfile] = {
    # ------------------------------------------------------------- integer
    "compress": _profile(
        "compress", "int", "int_compute", 170, "40000 e 2231",
        "dictionary compression: integer hash/shift chains, one "
        "data-dependent branch per element, moderate locality",
        pc_base=0x10000, data_base=0x1_00000,
        chain_len=3, int_window=8, branch_bias=0.88, hammock_len=3,
        n_parallel_chains=4, branch_noise=0.06, trip_count=64,
        mem_footprint=1 << 14, mult_interval=6,
    ),
    "gcc": _profile(
        "gcc", "int", "branchy", 145, "genrecog.i",
        "compiler passes: short basic blocks, dense mixed-bias branches, "
        "pointer-rich data structures",
        pc_base=0x20000, data_base=0x2_00000,
        n_branch_sites=24, block_len=4, hammock_len=2, int_window=10,
        branch_bias=0.88, pattern_fraction=0.45, branch_noise=0.04,
        trip_count=48, mem_footprint=1 << 13,
    ),
    "go": _profile(
        "go", "int", "branchy", 146, "9 9",
        "game tree search: very branch dense and hard to predict",
        pc_base=0x30000, data_base=0x3_00000,
        n_branch_sites=32, block_len=3, hammock_len=2, int_window=10,
        branch_bias=0.80, pattern_fraction=0.30, branch_noise=0.06,
        trip_count=40, mem_footprint=1 << 13,
    ),
    "li": _profile(
        "li", "int", "pointer_chase", 243, "7 queens",
        "lisp interpreter: dependent load chains through cons cells, "
        "regular dispatch branches",
        pc_base=0x40000, data_base=0x4_00000,
        load_chain_len=3, int_window=9, branch_bias=0.92, hammock_len=2,
        branch_noise=0.04, trip_count=32, chase_nodes=224,
        mem_footprint=1 << 13,
        store_fraction=0.6,
    ),
    "perl": _profile(
        "perl", "int", "pointer_chase", 47, "scrabbl.in",
        "interpreter dispatch: pointer chasing plus hash probing, "
        "moderately predictable branches",
        pc_base=0x50000, data_base=0x5_00000,
        load_chain_len=2, int_window=9, branch_bias=0.91, hammock_len=3,
        branch_noise=0.04, trip_count=48, chase_nodes=256,
        mem_footprint=1 << 13,
        store_fraction=0.8,
    ),
    # ------------------------------------------------------------- floating point
    "mgrid": _profile(
        "mgrid", "fp", "streaming", 169, "test (5/18 grid)",
        "multigrid relaxation: unit-stride sweeps, long FP chains, "
        "almost no data-dependent branches",
        pc_base=0x60000, data_base=0x6_00000,
        n_streams=3, chain_len=3, fp_window=18, int_window=8,
        trip_count=256, mem_footprint=1 << 15, stream_stride=8,
        div_interval=0,
    ),
    "tomcatv": _profile(
        "tomcatv", "fp", "stencil", 191, "test",
        "mesh generation: wide stencils, divides, the highest FP register "
        "pressure of the suite",
        pc_base=0x70000, data_base=0x7_00000,
        n_streams=5, chain_len=4, fp_window=24, int_window=8,
        trip_count=200, mem_footprint=1 << 15, stream_stride=8,
        div_interval=4,
    ),
    "applu": _profile(
        "applu", "fp", "stencil", 398, "train (dt=1.5e-03, 13^3)",
        "implicit CFD solver: blocked stencils with periodic divides",
        pc_base=0x80000, data_base=0x8_00000,
        n_streams=4, chain_len=3, fp_window=20, int_window=8,
        trip_count=100, mem_footprint=1 << 15, stream_stride=8,
        div_interval=6,
    ),
    "swim": _profile(
        "swim", "fp", "streaming", 431, "train",
        "shallow-water model: pure streaming sweeps over large arrays",
        pc_base=0x90000, data_base=0x9_00000,
        n_streams=4, chain_len=2, fp_window=20, int_window=8,
        trip_count=512, mem_footprint=1 << 15, stream_stride=8,
        div_interval=0,
    ),
    "hydro2d": _profile(
        "hydro2d", "fp", "stencil", 472, "test (ISTEP=1)",
        "hydrodynamics: stencil sweeps with long chains and divides",
        pc_base=0xA0000, data_base=0xA_00000,
        n_streams=4, chain_len=4, fp_window=22, int_window=8,
        trip_count=150, mem_footprint=1 << 15, stream_stride=8,
        div_interval=8,
    ),
}


def integer_workloads() -> List[str]:
    """Names of the five SPECint95-like benchmarks, in the paper's order."""
    return ["compress", "gcc", "go", "li", "perl"]


def fp_workloads() -> List[str]:
    """Names of the five SPECfp95-like benchmarks, in the paper's order."""
    return ["mgrid", "tomcatv", "applu", "swim", "hydro2d"]


def all_workloads() -> List[str]:
    """All ten benchmark names, integer suite first (paper Table 3 order)."""
    return integer_workloads() + fp_workloads()


def get_profile(name: str) -> BenchmarkProfile:
    """Return the profile for benchmark ``name`` (raises ``KeyError`` if unknown)."""
    try:
        return WORKLOADS[name]
    except KeyError:
        known = ", ".join(sorted(WORKLOADS))
        raise KeyError(f"unknown benchmark {name!r}; known benchmarks: {known}") from None


def make_kernel(profile: BenchmarkProfile) -> _KernelBase:
    """Instantiate the kernel generator described by ``profile``."""
    factory = _KERNEL_FACTORIES[profile.kernel]
    return factory(profile.params)


def _emit_until(kernel: _KernelBase, rng: np.random.Generator,
                sink: TraceSink, target: int,
                chunk_iterations: Optional[int] = None) -> None:
    """Append iterations of ``kernel`` to ``sink`` until the first
    iteration boundary at or after ``target`` instructions.

    Chunks are sized by the kernel's *maximum* iteration length, so none
    runs past that boundary; the segment's tail goes one iteration per
    chunk.  The stream and the generator's state do not depend on the
    chunk sizes, so callers may chain further segments over the same
    generator (the phased scenario families do).  ``chunk_iterations``
    caps the chunk size (the fuzzer's chunk-size oracle sets it to 1).
    """
    if chunk_iterations is not None and chunk_iterations < 1:
        raise ValueError("chunk_iterations must be positive")
    max_length = kernel.max_iteration_length()
    while len(sink) < target:
        k = min(4096, max(1, (target - len(sink)) // max_length))
        if chunk_iterations is not None:
            k = min(k, chunk_iterations)
        kernel.emit_chunk(rng, k, sink)


def generate_trace(profile: BenchmarkProfile,
                   n_instructions: int = DEFAULT_TRACE_LENGTH,
                   seed: int = 0,
                   chunk_iterations: Optional[int] = None,
                   rng: Optional[np.random.Generator] = None,
                   book: Optional["CodeBook"] = None) -> Trace:
    """Generate a dynamic trace of roughly ``n_instructions`` for ``profile``.

    Generation is iteration-granular: the trace ends at the first loop
    iteration boundary at or after ``n_instructions``, so traces are a few
    instructions longer than requested rather than cut mid-iteration.

    ``chunk_iterations`` caps the chunk size; the trace does not depend
    on it.  ``rng`` overrides the seed-derived generator — callers that
    need to inspect the bit-generator state after generation (the
    differential fuzzer's generation oracle) pass their own from
    :func:`trace_rng`.  ``book`` overrides the profile's shared
    :class:`CodeBook` (the same oracle compares a fresh one with one
    that generated other traces first); the trace does not depend on it.

    The kernels write the trace's columns directly (a
    :class:`~repro.trace.records.TraceSink` over the book's rows); no
    ``Instruction`` object survives generation.
    """
    if n_instructions <= 0:
        raise ValueError("n_instructions must be positive")
    if rng is None:
        rng = trace_rng(profile, seed)
    if book is None:
        book = _cached_trace.book(profile)
    with book.lock:
        kernel = book.kernels[0].start()
        sink = TraceSink(book.rows)
        sink.extend(kernel.prologue())
        _emit_until(kernel, rng, sink, n_instructions, chunk_iterations)
        columns = sink.columns()
    return Trace(name=profile.name, focus_class=profile.focus_class,
                 seed=seed, columns=columns)


# ======================================================================
# Workload scenario library (beyond the paper's SPEC-like mixes).
# ======================================================================
@dataclass(frozen=True)
class ScenarioPhase:
    """One phase of a scenario: a kernel family plus its parameters."""

    kernel: str
    params: KernelParams


@dataclass(frozen=True)
class ScenarioProfile:
    """A workload scenario: one or more phases cycled over the trace.

    Single-phase scenarios are plain kernels pushed into regimes the
    SPEC-like profiles do not reach; multi-phase scenarios alternate
    kernels every ``phase_length`` instructions, each phase's kernel
    *resuming* where it left off (its streams, rotations and branch
    sites persist across returns, like a real program's phases).
    """

    name: str
    suite: str
    phases: Tuple[ScenarioPhase, ...]
    phase_length: int = 2_500
    description: str = ""

    @property
    def focus_class(self) -> RegClass:
        """Register class reported for this scenario (suite convention)."""
        return RegClass.INT if self.suite == "int" else RegClass.FP


def _phase(kernel: str, **param_overrides) -> ScenarioPhase:
    return ScenarioPhase(kernel=kernel, params=KernelParams(**param_overrides))


#: The scenario families, keyed by scenario name.  Each opens a dynamic
#: regime the Table 3 profiles do not cover; all are sweep-able through
#: the same ``get_workload`` / ``run_sweep`` stack as the SPEC-like
#: benchmarks (see ``docs/workloads.md``).
SCENARIOS: Dict[str, ScenarioProfile] = {
    "phased": ScenarioProfile(
        name="phased", suite="fp",
        description="alternating compute/memory phases: an integer "
                    "hash/shift phase and a cache-line-stride FP "
                    "streaming phase, switching every phase_length "
                    "instructions",
        phase_length=2_500,
        phases=(
            _phase("int_compute",
                   pc_base=0x100000, data_base=0x10_00000,
                   chain_len=3, int_window=8, n_parallel_chains=3,
                   branch_bias=0.85, branch_noise=0.05, hammock_len=3,
                   trip_count=64, mem_footprint=1 << 13, store_fraction=0.5),
            _phase("streaming",
                   pc_base=0x110000, data_base=0x11_00000,
                   n_streams=4, chain_len=2, fp_window=20, int_window=8,
                   trip_count=256, mem_footprint=1 << 17, stream_stride=64),
        )),
    "pointer_hop": ScenarioProfile(
        name="pointer_hop", suite="int",
        description="deep dependent-load pointer chasing: six-hop "
                    "chases over a large node pool with sparse stores "
                    "(worst-case load-to-use serialisation)",
        phases=(
            _phase("pointer_chase",
                   pc_base=0x120000, data_base=0x12_00000,
                   load_chain_len=6, int_window=10, branch_bias=0.90,
                   branch_noise=0.05, hammock_len=2, trip_count=48,
                   chase_nodes=4096, mem_footprint=1 << 14,
                   store_fraction=0.3),
        )),
    "branch_storm": ScenarioProfile(
        name="branch_storm", suite="int",
        description="high-branch-entropy control flow: 48 short blocks "
                    "with near-coin-flip noisy branches and no "
                    "learnable patterns (misprediction-recovery "
                    "stress; wrong-path generator hot)",
        phases=(
            _phase("branchy",
                   pc_base=0x130000, data_base=0x13_00000,
                   n_branch_sites=48, block_len=3, hammock_len=2,
                   int_window=10, branch_bias=0.62, pattern_fraction=0.0,
                   branch_noise=0.30, trip_count=32,
                   mem_footprint=1 << 13),
        )),
    "store_wave": ScenarioProfile(
        name="store_wave", suite="int",
        description="store-heavy streaming writes: short work chains "
                    "with one lottery store plus three unconditional "
                    "stores per iteration (LSQ/commit-bandwidth "
                    "pressure)",
        phases=(
            _phase("int_compute",
                   pc_base=0x140000, data_base=0x14_00000,
                   chain_len=1, int_window=8, n_parallel_chains=2,
                   branch_bias=0.90, branch_noise=0.04, hammock_len=1,
                   trip_count=96, mem_footprint=1 << 14,
                   store_fraction=1.0, extra_stores=3),
        )),
    "regpressure_ramp": ScenarioProfile(
        name="regpressure_ramp", suite="fp",
        description="register-pressure ramp: stencil phases whose FP "
                    "rotation window widens 8 -> 14 -> 20 -> 26, "
                    "sweeping the register lifetime structure within "
                    "one trace",
        phase_length=2_500,
        phases=tuple(
            _phase("stencil",
                   pc_base=0x150000 + i * 0x4000,
                   data_base=0x15_00000 + i * 0x8_0000,
                   n_streams=4, chain_len=3, fp_window=window,
                   int_window=8, trip_count=128, mem_footprint=1 << 15,
                   stream_stride=8, div_interval=6)
            for i, window in enumerate((8, 14, 20, 26))),
        ),
}


#: Scenario names shipped with the library (never replaceable by user
#: registrations — a config that shadowed ``branch_storm`` would silently
#: change what every other consumer of the grid means by it).
_BUILTIN_SCENARIO_NAMES = frozenset(SCENARIOS)

#: Accepted scenario names: identifier-like, plus ``.`` and ``-``.
_SCENARIO_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_.\-]*$")


def scenario_workloads() -> List[str]:
    """Names of the scenario-library workloads (sweep-able grid order).

    Built-in scenarios first, then user-registered ones in registration
    order.
    """
    return list(SCENARIOS)


def get_scenario(name: str) -> ScenarioProfile:
    """Return the scenario profile for ``name`` (``KeyError`` if unknown)."""
    try:
        return SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(SCENARIOS))
        raise KeyError(f"unknown scenario {name!r}; known scenarios: {known}") from None


#: Process-local profiles installed by the sweep layer.  Derived profiles
#: (e.g. per-phase ones) live in no registry, so ``run_simulation_point``
#: installs the sweep's profiles here before simulating — then *every*
#: name lookup inside the point (the trace itself, but also the
#: simulator's warm-up trace, which re-resolves ``trace.name`` with a
#: different seed) sees exactly the profiles the sweep config carries.
#: Never listed by :func:`scenario_workloads`; entries are refreshed per
#: sweep point.
_EPHEMERAL_PROFILES: Dict[str, ScenarioProfile] = {}


def install_ephemeral_profiles(profiles: Sequence[ScenarioProfile]) -> None:
    """Make a sweep's scenario profiles resolvable by name in this process.

    Called by the sweep layer with the
    ``SweepConfig.scenario_profiles`` of the sweep being executed;
    same-name entries are overwritten so lookups always reflect the
    current sweep's content.
    """
    for profile in profiles:
        _EPHEMERAL_PROFILES[profile.name] = profile


def uninstall_ephemeral_profiles(names: Sequence[str]) -> None:
    """Drop installed ephemeral profiles again (unknown names are ignored).

    The sweep layer never bothers — its entries are simply refreshed per
    point — but the scenario fuzzer, which installs thousands of
    one-shot sampled profiles per run, removes each one after its sample
    so the process-local table cannot grow without bound.
    """
    for name in names:
        _EPHEMERAL_PROFILES.pop(name, None)


def has_workload(name: str) -> bool:
    """True when ``name`` is a known benchmark or scenario (including
    profiles shipped by the currently executing sweep)."""
    return (name in WORKLOADS or name in SCENARIOS
            or name in _EPHEMERAL_PROFILES)


# ----------------------------------------------------------------------
# User-defined scenarios: validation, registration, config loading.
# ----------------------------------------------------------------------
def validate_scenario_profile(profile: ScenarioProfile) -> None:
    """Validate a scenario profile, raising :class:`ValueError` on problems.

    Checks the name shape, the suite, the phase list (non-empty, known
    kernel families, a random-stream footprint the ``int_compute`` and
    ``branchy`` kernels can draw from) and the phase length — everything
    the generator and the sweep stack assume without re-checking.
    """
    if not isinstance(profile, ScenarioProfile):
        raise ValueError(f"expected a ScenarioProfile, got {type(profile).__name__}")
    if not isinstance(profile.name, str) or not _SCENARIO_NAME_RE.match(profile.name):
        raise ValueError(
            f"invalid scenario name {profile.name!r}: must start with a letter "
            f"or underscore and contain only letters, digits, '_', '.', '-'")
    if profile.suite not in ("int", "fp"):
        raise ValueError(f"scenario {profile.name!r}: suite must be 'int' or "
                         f"'fp', got {profile.suite!r}")
    if not profile.phases:
        raise ValueError(f"scenario {profile.name!r}: needs at least one phase")
    for index, phase in enumerate(profile.phases):
        if phase.kernel not in _KERNEL_FACTORIES:
            known = ", ".join(sorted(_KERNEL_FACTORIES))
            raise ValueError(
                f"scenario {profile.name!r} phase {index}: unknown kernel "
                f"{phase.kernel!r}; known kernels: {known}")
        if not isinstance(phase.params, KernelParams):
            raise ValueError(
                f"scenario {profile.name!r} phase {index}: params must be a "
                f"KernelParams, got {type(phase.params).__name__}")
        if phase.kernel in ("int_compute", "branchy"):
            try:
                random_stream_span(phase.params)
            except ValueError as exc:
                raise ValueError(f"scenario {profile.name!r} phase {index}: "
                                 f"{exc}") from None
    if not isinstance(profile.phase_length, int) or profile.phase_length <= 0:
        raise ValueError(f"scenario {profile.name!r}: phase_length must be a "
                         f"positive integer, got {profile.phase_length!r}")


def register_scenario(profile: ScenarioProfile,
                      replace: bool = False) -> ScenarioProfile:
    """Register a user-defined scenario in :data:`SCENARIOS`.

    After registration the scenario resolves through every layer that
    accepts a workload name — :func:`get_workload`, ``run_sweep``, the
    on-disk sweep cache, the experiment CLI.  Trace identity is keyed by
    the profile's *content* (see :func:`profile_digest`), so re-registering
    a changed profile under the same name can never serve a stale trace
    or a stale cached sweep point.

    Registering the same content twice is a no-op.  Re-registering a
    *different* profile under an existing user-registered name requires
    ``replace=True``; built-in scenario and benchmark names can never be
    taken over.
    """
    validate_scenario_profile(profile)
    name = profile.name
    if name in WORKLOADS:
        raise ValueError(f"scenario name {name!r} collides with a built-in "
                         f"benchmark profile")
    if name in _BUILTIN_SCENARIO_NAMES:
        raise ValueError(f"scenario name {name!r} collides with a built-in "
                         f"scenario")
    existing = SCENARIOS.get(name)
    if existing is not None and existing != profile and not replace:
        raise ValueError(
            f"scenario {name!r} is already registered with different "
            f"content; pass replace=True to re-register")
    SCENARIOS[name] = profile
    return profile


def unregister_scenario(name: str) -> None:
    """Remove a user-registered scenario (built-ins cannot be removed)."""
    if name in _BUILTIN_SCENARIO_NAMES:
        raise ValueError(f"cannot unregister built-in scenario {name!r}")
    if name not in SCENARIOS:
        raise KeyError(f"no registered scenario {name!r}")
    del SCENARIOS[name]


def _phase_from_config(entry: Mapping, scenario: str, index: int) -> ScenarioPhase:
    if not isinstance(entry, Mapping):
        raise ValueError(f"scenario {scenario!r} phase {index}: expected a "
                         f"mapping, got {type(entry).__name__}")
    unknown = set(entry) - {"kernel", "params"}
    if unknown:
        raise ValueError(f"scenario {scenario!r} phase {index}: unknown keys "
                         f"{sorted(unknown)} (expected 'kernel' and 'params')")
    kernel = entry.get("kernel")
    if not isinstance(kernel, str):
        raise ValueError(f"scenario {scenario!r} phase {index}: 'kernel' is "
                         f"required and must be a string")
    params = entry.get("params", {})
    if not isinstance(params, Mapping):
        raise ValueError(f"scenario {scenario!r} phase {index}: 'params' must "
                         f"be a mapping of KernelParams fields")
    valid = {field.name: field.type for field in dataclasses.fields(KernelParams)}
    bad = set(params) - set(valid)
    if bad:
        raise ValueError(
            f"scenario {scenario!r} phase {index}: unknown kernel parameters "
            f"{sorted(bad)}; valid parameters: {', '.join(sorted(valid))}")
    for key, value in params.items():
        # Annotations are strings ("int"/"float") under
        # `from __future__ import annotations`; reject wrong-typed values
        # here, at load time, instead of as an opaque TypeError deep
        # inside trace generation.
        expected = valid[key]
        if expected == "int":
            type_ok = isinstance(value, int) and not isinstance(value, bool)
        elif expected == "float":
            type_ok = (isinstance(value, (int, float))
                       and not isinstance(value, bool))
        else:  # future non-numeric knob: defer to KernelParams itself
            type_ok = True
        if not type_ok:
            raise ValueError(
                f"scenario {scenario!r} phase {index}: parameter {key!r} "
                f"must be {'an int' if expected == 'int' else 'a number'}, "
                f"got {value!r}")
    return ScenarioPhase(kernel=kernel, params=KernelParams(**params))


_SCENARIO_CONFIG_KEYS = {"name", "suite", "description", "phase_length", "phases"}


def _scenario_from_config(entry: Mapping, source: str) -> ScenarioProfile:
    if not isinstance(entry, Mapping):
        raise ValueError(f"{source}: each scenario must be a mapping, got "
                         f"{type(entry).__name__}")
    unknown = set(entry) - _SCENARIO_CONFIG_KEYS
    if unknown:
        raise ValueError(f"{source}: unknown scenario keys {sorted(unknown)}; "
                         f"expected {sorted(_SCENARIO_CONFIG_KEYS)}")
    name = entry.get("name")
    if not isinstance(name, str):
        raise ValueError(f"{source}: scenario 'name' is required and must be "
                         f"a string")
    phases_cfg = entry.get("phases")
    if not isinstance(phases_cfg, Sequence) or isinstance(phases_cfg, (str, bytes)):
        raise ValueError(f"{source}: scenario {name!r} needs a 'phases' list")
    phase_length = entry.get("phase_length", 2_500)
    profile = ScenarioProfile(
        name=name,
        suite=entry.get("suite", ""),
        description=entry.get("description", ""),
        phase_length=phase_length,
        phases=tuple(_phase_from_config(phase, name, index)
                     for index, phase in enumerate(phases_cfg)),
    )
    validate_scenario_profile(profile)
    return profile


def parse_scenario_config(data: Mapping,
                          source: str = "<scenario config>") -> List[ScenarioProfile]:
    """Build (validated) scenario profiles from a parsed config mapping.

    Two shapes are accepted: a mapping with a ``scenarios`` list, or a
    single scenario mapping (one with a ``name`` key).  See
    ``docs/workloads.md`` ("User-defined scenarios") for the format.
    """
    if not isinstance(data, Mapping):
        raise ValueError(f"{source}: top level must be a mapping")
    if "scenarios" in data:
        entries = data["scenarios"]
        extra = set(data) - {"scenarios"}
        if extra:
            raise ValueError(f"{source}: unknown top-level keys {sorted(extra)}")
        if not isinstance(entries, Sequence) or isinstance(entries, (str, bytes)):
            raise ValueError(f"{source}: 'scenarios' must be a list")
    elif "name" in data:
        entries = [data]
    else:
        raise ValueError(f"{source}: expected a 'scenarios' list or a single "
                         f"scenario mapping with a 'name'")
    profiles = [_scenario_from_config(entry, source) for entry in entries]
    if not profiles:
        raise ValueError(f"{source}: no scenarios defined")
    names = [profile.name for profile in profiles]
    if len(set(names)) != len(names):
        raise ValueError(f"{source}: duplicate scenario names in one config")
    return profiles


def load_scenario_file(path: Union[str, Path]) -> List[ScenarioProfile]:
    """Load scenario profiles from a TOML (``.toml``) or JSON config file.

    TOML needs Python 3.11+ (:mod:`tomllib`); JSON works everywhere.
    """
    path = Path(path)
    if path.suffix.lower() == ".toml":
        try:
            import tomllib
        except ImportError:
            raise ValueError(
                f"{path}: TOML scenario configs need Python 3.11+ "
                f"(tomllib); use the JSON form on older interpreters") from None
        with path.open("rb") as handle:
            data = tomllib.load(handle)
    else:
        with path.open("r", encoding="utf-8") as handle:
            try:
                data = json.load(handle)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}: not valid JSON ({exc})") from None
    return parse_scenario_config(data, source=str(path))


def register_scenario_file(path: Union[str, Path],
                           replace: bool = False) -> List[str]:
    """Load a scenario config file and register every profile in it.

    Returns the registered names (config order).
    """
    profiles = load_scenario_file(path)
    return [register_scenario(profile, replace=replace).name
            for profile in profiles]


# ----------------------------------------------------------------------
# Trace identity: content digests and the in-memory trace cache.
# ----------------------------------------------------------------------
def profile_digest(profile: Union[BenchmarkProfile, ScenarioProfile]) -> str:
    """Stable content digest of a benchmark or scenario profile.

    Profiles are frozen dataclasses of primitives, so their ``repr`` is a
    deterministic, content-bearing serialisation; hashing it gives the
    identity that keys both the in-memory trace cache and the on-disk
    sweep cache.  Re-registering a changed scenario under the same name
    therefore changes every cache key it participates in.
    """
    payload = f"{type(profile).__name__}:{profile!r}".encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


def resolve_workload_profile(
        name: str,
        scenario_profiles: Sequence[ScenarioProfile] = (),
) -> Union[BenchmarkProfile, ScenarioProfile]:
    """Resolve a workload name to its profile.

    ``scenario_profiles`` are ephemeral overrides searched first — the
    sweep layer passes the profiles its config carries, derived ones
    included, which no registry holds.  The registries come next (an explicit
    ``register_scenario`` must always win for names they hold), and
    profiles installed by the executing sweep
    (:func:`install_ephemeral_profiles`) resolve last — they exist for
    names the process's registry does not know.
    """
    for profile in scenario_profiles:
        if profile.name == name:
            return profile
    if name in SCENARIOS:
        return SCENARIOS[name]
    if name in WORKLOADS:
        return WORKLOADS[name]
    if name in _EPHEMERAL_PROFILES:
        return _EPHEMERAL_PROFILES[name]
    known = ", ".join(sorted(WORKLOADS) + sorted(SCENARIOS))
    raise KeyError(f"unknown workload {name!r}; known workloads: {known}")


def workload_digest(name: str,
                    scenario_profiles: Sequence[ScenarioProfile] = ()) -> str:
    """Content digest of the named workload (see :func:`profile_digest`)."""
    return profile_digest(resolve_workload_profile(name, scenario_profiles))


def _scenario_stream_seed(name: str) -> int:
    """Stable 64-bit name digest mixed into a scenario's RNG seed.

    The pre-PR-5 ad-hoc digest (``sum((i + 1) * ord(c))``, folded mod
    2**16) collides easily across names ("bc" vs "db"), which handed two
    distinct scenarios identical RNG streams; a cryptographic digest
    makes that practically impossible.  Switching was a one-time
    re-baseline of the built-in scenario traces (documented in
    ``docs/workloads.md``); their new identity is pinned by
    ``tests/trace/test_scenario_config.py``.
    """
    return int.from_bytes(hashlib.sha256(name.encode("utf-8")).digest()[:8],
                          "big")


def trace_rng(profile: Union[BenchmarkProfile, ScenarioProfile],
              seed: int = 0) -> np.random.Generator:
    """The generator the trace of ``(profile, seed)`` is drawn from.

    :func:`generate_trace` and :func:`generate_scenario_trace` build it
    when no ``rng`` is passed; callers that inspect the bit-generator
    state after generation (the generation oracles) pass one from here.
    """
    if isinstance(profile, ScenarioProfile):
        return np.random.default_rng(np.random.SeedSequence(
            (seed, _scenario_stream_seed(profile.name))))
    # Derive a per-benchmark stream from a *stable* digest of the name
    # (the built-in str hash is salted per interpreter run, which would
    # make traces irreproducible across sessions).  The ten benchmark
    # names are a fixed, collision-free set, so this legacy digest is
    # kept to preserve the identity of every paper-artefact trace;
    # scenarios (arbitrary user names) mix in a cryptographic digest
    # instead — see :func:`_scenario_stream_seed`.
    name_digest = sum((index + 1) * ord(char)
                      for index, char in enumerate(profile.name))
    return np.random.default_rng(seed + name_digest % (1 << 16))


def generate_scenario_trace(profile: ScenarioProfile,
                            n_instructions: int = DEFAULT_TRACE_LENGTH,
                            seed: int = 0,
                            chunk_iterations: Optional[int] = None,
                            rng: Optional[np.random.Generator] = None,
                            book: Optional["CodeBook"] = None) -> Trace:
    """Generate the (possibly phased) trace of a scenario.

    All phases share one ``Generator``; each phase's kernel is
    instantiated once and resumes where it left off when its phase comes
    around again.  A phase segment ends at the first kernel iteration
    boundary at or after ``phase_length`` appended instructions (the
    final segment at ``n_instructions``), so segment boundaries — like
    trace ends — never cut an iteration.  ``chunk_iterations``, ``rng``
    and ``book`` work exactly as in :func:`generate_trace` (the fuzzer's
    generation oracle compares final bit-generator states through
    ``rng``).
    """
    if n_instructions <= 0:
        raise ValueError("n_instructions must be positive")
    if rng is None:
        rng = trace_rng(profile, seed)
    if book is None:
        book = _cached_trace.book(profile)
    with book.lock:
        kernels = [kernel.start() for kernel in book.kernels]
        started = [False] * len(kernels)
        sink = TraceSink(book.rows)
        index = 0
        while len(sink) < n_instructions:
            kernel = kernels[index % len(kernels)]
            if not started[index % len(kernels)]:
                sink.extend(kernel.prologue())
                started[index % len(kernels)] = True
            target = min(len(sink) + profile.phase_length, n_instructions)
            _emit_until(kernel, rng, sink, target, chunk_iterations)
            index += 1
        columns = sink.columns()
    return Trace(name=profile.name, focus_class=profile.focus_class,
                 seed=seed, columns=columns)


class CodeBook:
    """The static code of one workload profile, shared by its traces.

    One kernel per phase (a benchmark has one), built once: its branch
    sites and their context tables and its compiled draw template
    (:class:`~repro.trace.kernels._KernelBase`); a generation runs a
    :meth:`~repro.trace.kernels._KernelBase.start` copy of each with
    fresh cursors.  ``rows`` is the :class:`~repro.trace.records.RowBook`
    every trace of the profile is row ids over: the shape→row memos and
    the row table.  A generation holds ``lock`` (the sweep service
    generates from several threads).
    """

    __slots__ = ("kernels", "rows", "lock")

    def __init__(self, profile: Union[BenchmarkProfile, ScenarioProfile]) -> None:
        phases = (profile.phases if isinstance(profile, ScenarioProfile)
                  else (profile,))
        self.kernels = tuple(_KERNEL_FACTORIES[phase.kernel](phase.params)
                             for phase in phases)
        self.rows = RowBook()
        self.lock = threading.Lock()


class _TraceMemo:
    """Memoised trace generation, keyed by profile *content*, and the
    code books of the profiles it generates.

    Profiles are frozen (hashable) dataclasses, so the key is the full
    content: re-registering a changed scenario under the same name misses
    this cache instead of serving the stale trace (and gets its own code
    book), while re-registering identical content still hits.  Both
    memos are least-recently-used and bounded; :meth:`cache_clear` drops
    both, so the next generation of any profile rebuilds its book.
    """

    def __init__(self, max_traces: int, max_books: int) -> None:
        self._max_traces, self._max_books = max_traces, max_books
        self._traces: "OrderedDict[tuple, Trace]" = OrderedDict()
        self._books: "OrderedDict[object, CodeBook]" = OrderedDict()
        self._lock = threading.Lock()

    def __call__(self, profile: Union[BenchmarkProfile, ScenarioProfile],
                 n_instructions: int, seed: int) -> Trace:
        key = (profile, n_instructions, seed)
        with self._lock:
            trace = self._traces.get(key)
            if trace is not None:
                self._traces.move_to_end(key)
                return trace
        if isinstance(profile, ScenarioProfile):
            trace = generate_scenario_trace(profile, n_instructions, seed)
        else:
            trace = generate_trace(profile, n_instructions, seed)
        with self._lock:
            self._remember(self._traces, key, trace, self._max_traces)
        return trace

    def book(self, profile: Union[BenchmarkProfile, ScenarioProfile]
             ) -> CodeBook:
        """The shared code book of ``profile`` (built on first use)."""
        with self._lock:
            book = self._books.get(profile)
            if book is not None:
                self._books.move_to_end(profile)
                return book
        book = CodeBook(profile)
        with self._lock:
            # Another thread may have built one meanwhile: keep the first.
            book = self._books.setdefault(profile, book)
            self._remember(self._books, profile, book, self._max_books)
        return book

    @staticmethod
    def _remember(memo: OrderedDict, key, value, limit: int) -> None:
        memo[key] = value
        memo.move_to_end(key)
        while len(memo) > limit:
            memo.popitem(last=False)

    def cache_clear(self) -> None:
        """Drop every memoised trace and every code book."""
        with self._lock:
            self._traces.clear()
            self._books.clear()


#: The process's trace memo (64 traces) and code books (32 profiles).
_cached_trace = _TraceMemo(max_traces=64, max_books=32)


def get_workload(name: str, n_instructions: int = DEFAULT_TRACE_LENGTH,
                 seed: int = 0,
                 scenario_profiles: Sequence[ScenarioProfile] = ()) -> Trace:
    """Return (and cache) the synthetic trace for benchmark or scenario
    ``name``.

    Traces are deterministic functions of ``(profile content,
    n_instructions, seed)``, so repeated calls — e.g. the same benchmark
    simulated under the three release policies — reuse the cached object.
    Scenario names (built-in, user-:func:`register_scenario`-ed, or
    supplied ephemerally through ``scenario_profiles``) resolve exactly
    like the paper's benchmarks, so the whole sweep/cache stack works on
    them unchanged.
    """
    profile = resolve_workload_profile(name, scenario_profiles)
    return _cached_trace(profile, n_instructions, seed)
