"""The fuzzer's differential oracles.

Each oracle takes one :class:`~repro.fuzz.sampling.FuzzSample` plus a
shared per-sample :class:`SampleContext` and returns an
:class:`OracleOutcome` — ``pass``, ``fail`` (with a detail string) or
``skip`` (with the reason).  Skips are first-class: a missing C
toolchain or a config outside the compiled envelope must surface as a
*counted skip* in the fuzz report, never as a silent pass.

Oracles:

``generation``
    Chunk-size and code-book invariance: generating the trace one
    iteration per chunk (``chunk_iterations=1``), and through a code
    book that generated another seed of the scenario first, must each
    produce the instructions of a default-chunked generation over a
    fresh book — all ten ``TRACE_COLUMN_NAMES``, each row-table column
    expanded per instruction, so two traces whose row tables list the
    same records in a different order still agree (the compiled core
    receives the table, the row ids and the addresses, and reads them
    the same way) — **and** leave the bit generator in the identical
    state (so all consumed exactly the same draws).
``backend``
    The compiled C core vs the Python engine must produce
    field-identical ``SimStats`` — honouring ``unsupported_reason()``
    and every fallback layer as skips.
``conservation``
    A Python-engine run with an :class:`InvariantProbe` attached:
    free-list accounting, structural occupancy bounds, Release-Queue
    liveness and the final stat identities; any engine exception
    (``FreeListError``, ``DeadlockError``, …) is a failure too.
"""

from __future__ import annotations

import contextlib
import dataclasses
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, Optional, Tuple

from repro.engine.engine import SimulationEngine
from repro.fuzz.invariants import InvariantProbe, InvariantViolation
from repro.fuzz.sampling import FuzzSample
from repro.pipeline.stats import SimStats
from repro.trace.records import Trace
from repro.trace.workloads import (CodeBook, generate_scenario_trace,
                                   get_workload, install_ephemeral_profiles,
                                   trace_rng, uninstall_ephemeral_profiles)

#: Default oracle set, in execution order (cheap generation check first,
#: conservation last so its probe run reuses the generated trace).
DEFAULT_ORACLES: Tuple[str, ...] = ("generation", "backend", "conservation")


@dataclass(frozen=True)
class OracleOutcome:
    """Result of one oracle on one sample."""

    status: str                 # "pass" | "fail" | "skip"
    detail: str = ""

    @property
    def failed(self) -> bool:
        return self.status == "fail"


def _passed() -> OracleOutcome:
    return OracleOutcome("pass")


def _failed(detail: str) -> OracleOutcome:
    return OracleOutcome("fail", detail)


def _skipped(reason: str) -> OracleOutcome:
    return OracleOutcome("skip", reason)


@contextlib.contextmanager
def ephemeral_scenario(profile) -> Iterator[None]:
    """Make a sampled profile name-resolvable for the duration of a block.

    Uses the sweep layer's ephemeral-profile machinery (the same path
    that makes derived profiles resolvable by name), so the
    simulator's warm-up pass — which re-resolves ``trace.name`` through
    ``get_workload`` — sees the sampled scenario exactly like a
    registered one, without ever entering the user-visible registry.
    """
    install_ephemeral_profiles([profile])
    try:
        yield
    finally:
        uninstall_ephemeral_profiles([profile.name])


class SampleContext:
    """Shared per-sample state: the generated trace and the Python stats.

    The backend oracle compares against the Python reference run,
    computed once per sample and memoised here.
    """

    def __init__(self, sample: FuzzSample) -> None:
        self.sample = sample
        self._trace: Optional[Trace] = None
        self._python_stats: Optional[SimStats] = None

    # ------------------------------------------------------------------
    def trace(self) -> Trace:
        """The sample's trace (memoised content-keyed via get_workload)."""
        if self._trace is None:
            sample = self.sample
            self._trace = get_workload(
                sample.scenario.name, sample.trace_length, sample.trace_seed,
                scenario_profiles=(sample.scenario,))
        return self._trace

    def python_stats(self) -> SimStats:
        """Reference Python-engine stats, computed once."""
        if self._python_stats is None:
            sample = self.sample
            config = dataclasses.replace(sample.config, engine="python")
            with ephemeral_scenario(sample.scenario):
                engine = SimulationEngine(self.trace(), config)
                self._python_stats = engine.run()
        return self._python_stats


def _stats_diff(left: SimStats, right: SimStats,
                left_label: str, right_label: str) -> Optional[str]:
    """Human-readable field diff of two stats objects (None when equal)."""
    left_dict = dataclasses.asdict(left)
    right_dict = dataclasses.asdict(right)
    if left_dict == right_dict:
        return None
    fields = [name for name in left_dict
              if left_dict[name] != right_dict[name]]
    parts = [f"{name}: {left_label}={left_dict[name]!r} "
             f"{right_label}={right_dict[name]!r}" for name in fields[:6]]
    if len(fields) > 6:
        parts.append(f"... and {len(fields) - 6} more fields")
    return "; ".join(parts)


# ----------------------------------------------------------------------
# Oracles
# ----------------------------------------------------------------------
def check_generation(sample: FuzzSample, ctx: SampleContext) -> OracleOutcome:
    """The default chunking over a fresh code book vs one iteration per
    chunk, and vs a warm book: identical columns and bit-generator
    state."""
    scenario, seed = sample.scenario, sample.trace_seed
    traces, rngs = {}, {}
    try:
        warm_book = CodeBook(scenario)
        generate_scenario_trace(scenario, sample.trace_length, seed + 1,
                                book=warm_book)
        for label, chunk, book in (("chunked", None, CodeBook(scenario)),
                                   ("per-iteration", 1, CodeBook(scenario)),
                                   ("warm-book", None, warm_book)):
            rngs[label] = trace_rng(scenario, seed)
            traces[label] = generate_scenario_trace(
                scenario, sample.trace_length, seed, chunk_iterations=chunk,
                rng=rngs[label], book=book)
    except Exception as exc:  # a generation crash is a finding, not noise
        return _failed(f"trace generation raised {type(exc).__name__}: {exc}")
    chunked = traces["chunked"]
    chunked_state = rngs["chunked"].bit_generator.state
    for label in ("per-iteration", "warm-book"):
        other = traces[label]
        difference = chunked.columns.first_difference(other.columns)
        if difference is not None:
            name, index = difference
            if name == "length":
                return _failed(
                    f"chunked trace has {len(chunked)} instructions, "
                    f"{label} {len(other)}")
            return _failed(
                f"column {name!r} diverges at instruction {index}: "
                f"chunked {chunked.instructions[index]!r} vs "
                f"{label} {other.instructions[index]!r}")
        other_state = rngs[label].bit_generator.state
        if other_state != chunked_state:
            return _failed(
                f"bit-generator state diverges after generation (chunked "
                f"and {label} consumed different draws): "
                f"chunked={chunked_state!r} {label}={other_state!r}")
    return _passed()


def check_backend(sample: FuzzSample, ctx: SampleContext) -> OracleOutcome:
    """Compiled C core vs Python engine bit-identical ``SimStats``."""
    from repro.engine import accel
    from repro.engine.accel.compiled import unsupported_reason

    reason = unsupported_reason(sample.config)
    if reason is not None:
        return _skipped(f"config outside the compiled envelope: {reason}")
    compiled_config = dataclasses.replace(sample.config, engine="compiled")
    if accel.resolve_engine_backend(compiled_config) != "compiled":
        fallback = accel.backend_fallback_reason() or "availability probe failed"
        return _skipped(f"compiled backend unavailable: {fallback}")
    try:
        python_stats = ctx.python_stats()
        with ephemeral_scenario(sample.scenario):
            engine = SimulationEngine(ctx.trace(), compiled_config)
            compiled_stats = engine.run()
    except Exception as exc:
        return _failed(f"simulation raised {type(exc).__name__}: {exc}")
    if engine.backend_used != "compiled":
        return _skipped("per-run fallback to the Python engine "
                        "(core escape or partially modelled state)")
    diff = _stats_diff(compiled_stats, python_stats, "compiled", "python")
    if diff:
        return _failed(f"backend divergence: {diff}")
    return _passed()


def check_conservation(sample: FuzzSample, ctx: SampleContext) -> OracleOutcome:
    """Engine-internal invariants under a per-cycle probe."""
    config = dataclasses.replace(sample.config, engine="python")
    probe = InvariantProbe()
    try:
        with ephemeral_scenario(sample.scenario):
            engine = SimulationEngine(ctx.trace(), config, probe=probe)
            stats = engine.run()
            probe.final_check(engine.state, stats)
    except InvariantViolation as exc:
        return _failed(f"invariant violated: {exc}")
    except Exception as exc:
        return _failed(f"engine raised {type(exc).__name__}: {exc}")
    return _passed()


#: Oracle registry: name -> callable(sample, ctx) -> OracleOutcome.
ORACLES: Dict[str, Callable[[FuzzSample, SampleContext], OracleOutcome]] = {
    "generation": check_generation,
    "backend": check_backend,
    "conservation": check_conservation,
}


def resolve_oracle_names(names: Optional[Tuple[str, ...]]) -> Tuple[str, ...]:
    """Validate an oracle selection (None = the default set, in order)."""
    if names is None:
        return DEFAULT_ORACLES
    unknown = [name for name in names if name not in ORACLES]
    if unknown:
        raise ValueError(
            f"unknown oracles: {', '.join(sorted(unknown))}; known oracles: "
            f"{', '.join(sorted(ORACLES))}")
    if not names:
        raise ValueError(
            f"empty oracle selection; known oracles: "
            f"{', '.join(sorted(ORACLES))}")
    return tuple(names)


def run_oracle(name: str, sample: FuzzSample,
               ctx: Optional[SampleContext] = None) -> OracleOutcome:
    """Run one oracle by name on one sample (fresh context by default)."""
    if ctx is None:
        ctx = SampleContext(sample)
    return ORACLES[name](sample, ctx)


# Imported for the docstring contract; re-exported for probe-equipped
# callers (the mutation smoke test builds its own engines).
__all__ = ["DEFAULT_ORACLES", "ORACLES", "OracleOutcome", "SampleContext",
           "check_backend", "check_conservation",
           "check_generation", "ephemeral_scenario", "resolve_oracle_names",
           "run_oracle"]
