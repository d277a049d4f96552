"""Property suite: the vectorised generators reproduce the scalar oracle.

The draw-order contract (``docs/workloads.md``) promises that the chunked
bulk-draw emitters produce **field-for-field identical** output to the
scalar oracle path, for
every kernel family, seed and chunk size.  For traces that means all ten
columns the compiled core reads and the final bit-generator state;
Hypothesis drives those axes.  A deterministic end-to-end check pins the
resulting ``SimStats`` equality, and one test checks the materialised
``Instruction`` objects against the oracle's own.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trace.kernels import KernelParams
from repro.trace.workloads import (SCENARIOS, WORKLOADS,
                                   generate_scenario_trace, generate_trace,
                                   get_profile, make_kernel, trace_rng)

ALL_BENCHMARKS = sorted(WORKLOADS)
ALL_SCENARIOS = sorted(SCENARIOS)


def assert_traces_equal(generate, profile, length, seed, chunk, label):
    """Scalar oracle vs vectorised: ten columns and the bit generator."""
    __tracebackhide__ = True
    rng_scalar = trace_rng(profile, seed)
    scalar = generate(profile, length, seed=seed, vectorized=False,
                      rng=rng_scalar)
    rng_vector = trace_rng(profile, seed)
    vectorised = generate(profile, length, seed=seed, vectorized=True,
                          chunk_iterations=chunk, rng=rng_vector)
    difference = vectorised.columns.first_difference(scalar.columns)
    if difference is not None:
        name, position = difference
        pytest.fail(f"{label}: column {name!r} diverges at instruction "
                    f"{position}:\n"
                    f"  scalar:     {scalar.instructions[position]}\n"
                    f"  vectorised: {vectorised.instructions[position]}")
    assert rng_vector.bit_generator.state == rng_scalar.bit_generator.state, (
        f"{label}: bit-generator state diverges after generation")


@settings(max_examples=30, deadline=None)
@given(
    name=st.sampled_from(ALL_BENCHMARKS),
    seed=st.integers(min_value=0, max_value=2**16),
    length=st.integers(min_value=200, max_value=2_500),
    chunk=st.one_of(st.none(), st.integers(min_value=1, max_value=64)),
)
def test_benchmark_generators_match_scalar_oracle(name, seed, length, chunk):
    assert_traces_equal(generate_trace, get_profile(name), length, seed,
                        chunk, f"{name} seed={seed} n={length} chunk={chunk}")


@settings(max_examples=15, deadline=None)
@given(
    name=st.sampled_from(ALL_SCENARIOS),
    seed=st.integers(min_value=0, max_value=2**16),
    length=st.integers(min_value=500, max_value=4_000),
    chunk=st.one_of(st.none(), st.integers(min_value=1, max_value=32)),
)
def test_scenario_generators_match_scalar_oracle(name, seed, length, chunk):
    assert_traces_equal(generate_scenario_trace, SCENARIOS[name], length,
                        seed, chunk,
                        f"scenario {name} seed={seed} n={length} chunk={chunk}")


@pytest.mark.parametrize("kernel", ["streaming", "stencil",
                                    "int_compute", "branchy",
                                    "pointer_chase"])
def test_two_register_windows_match_the_oracle(kernel):
    """The chunk emitters read registers from the rotation cursor, the
    oracle from the rotation's pruned history: they agree even when a
    five-back read exceeds twice the window."""
    from repro.trace.workloads import ScenarioPhase, ScenarioProfile

    profile = ScenarioProfile(
        name=f"tiny_{kernel}", suite="int", phase_length=400,
        phases=(ScenarioPhase(kernel, KernelParams(int_window=2,
                                                   fp_window=2)),))
    assert_traces_equal(generate_scenario_trace, profile, 1_200, 1, None,
                        f"{kernel} with two-register windows")


@pytest.mark.parametrize("name", ALL_BENCHMARKS)
def test_materialised_instructions_equal_the_oracles(name):
    """The instructions a trace materialises from its columns are the
    very records the scalar ``emit_iteration`` oracle returns."""
    profile = get_profile(name)
    trace = generate_trace(profile, 1_500, seed=3)
    kernel = make_kernel(profile)
    rng = trace_rng(profile, 3)
    oracle = list(kernel.prologue(rng))
    while len(oracle) < 1_500:
        oracle.extend(kernel.emit_iteration(rng))
    assert list(trace.instructions) == oracle


@pytest.mark.parametrize("name,policy", [
    ("gcc", "extended"),     # branch-dense: wrong-path generator hot
    ("li", "basic"),         # pointer chase: cursor-replayed kernel
    ("swim", "conv"),        # FP streaming: draw-free chunk path
    ("branch_storm", "extended"),   # scenario: noisy branches
])
def test_simulation_stats_identical_across_generation_modes(name, policy):
    """End to end: every SimStats field the sweeps record is identical
    whether the trace comes from the scalar or the vectorised
    generators."""
    from repro.engine import simulate
    from repro.pipeline.config import ProcessorConfig
    from repro.trace.workloads import SCENARIOS, generate_scenario_trace

    def build(vectorized):
        if name in SCENARIOS:
            return generate_scenario_trace(SCENARIOS[name], 3_000, seed=0,
                                           vectorized=vectorized)
        return generate_trace(get_profile(name), 3_000, seed=0,
                              vectorized=vectorized)

    def run(trace):
        config = ProcessorConfig(release_policy=policy,
                                 num_physical_int=56, num_physical_fp=56)
        return simulate(trace, config)

    scalar_stats = run(build(False))
    vector_stats = run(build(True))
    assert scalar_stats.cycles == vector_stats.cycles
    assert (scalar_stats.committed_instructions
            == vector_stats.committed_instructions)
    assert (scalar_stats.squashed_instructions
            == vector_stats.squashed_instructions)
    assert scalar_stats.ipc == vector_stats.ipc
    for label in ("int_registers", "fp_registers"):
        want, got = getattr(scalar_stats, label), getattr(vector_stats, label)
        assert want.releases == got.releases
        assert want.early_releases == got.early_releases
        assert want.allocations == got.allocations
