"""Shared fixtures for the test suite.

The fixtures provide small, fast building blocks: hand-written traces, a
tiny benchmark trace from the workload registry, and processor
configurations that keep cycle-level tests quick (no warm-up, no wrong
path unless a test asks for it).  One autouse fixture keeps the compiled
backend's per-process verdict from leaking between tests.
"""

from __future__ import annotations

import pytest

from repro.engine import accel
from repro.engine.accel.loader import reset_loader_cache
from repro.isa import Instruction, InstructionBuilder, OpClass, RegClass
from repro.pipeline.config import ProcessorConfig
from repro.trace.records import Trace
from repro.trace.workloads import get_workload


@pytest.fixture(autouse=True)
def _restore_backend_verdict():
    """Hand every test the compiled-backend verdict as the previous one had it.

    Tests that flip ``$REPRO_ACCEL_CC`` end with
    ``accel.reset_backend_cache()``, which leaves the per-process
    self-check pending: the next test's first compiled run would probe
    through whatever that test has monkeypatched.  So the verdict is
    settled before each test, outside its patches, and put back after it
    (autouse, so after its monkeypatches are undone); the loaded core is
    dropped too when the test changed the verdict.
    """
    accel.resolve_engine_backend(ProcessorConfig(engine="compiled"))
    verdict = (accel._COMPILED_OK, accel._FALLBACK_REASON)
    yield
    if (accel._COMPILED_OK, accel._FALLBACK_REASON) != verdict:
        accel._COMPILED_OK, accel._FALLBACK_REASON = verdict
        reset_loader_cache()


@pytest.fixture
def builder() -> InstructionBuilder:
    """A fresh instruction builder starting at pc 0x1000."""
    return InstructionBuilder(pc=0x1000)


@pytest.fixture
def straightline_trace(builder) -> Trace:
    """A short dependence chain with no branches or memory operations."""
    builder.alu(dest=1, srcs=(2, 3))
    builder.alu(dest=4, srcs=(1,))
    builder.alu(dest=5, srcs=(4, 1))
    builder.alu(dest=1, srcs=(5,))
    builder.alu(dest=6, srcs=(1,))
    return Trace(name="straightline", focus_class=RegClass.INT,
                 instructions=builder.trace())


@pytest.fixture
def mixed_trace(builder) -> Trace:
    """A trace exercising loads, stores, FP operations and a branch."""
    builder.alu(dest=1, srcs=(2,))
    builder.load(dest=3, addr_reg=1, mem_addr=0x2000)
    builder.alu(dest=4, srcs=(3, 1))
    builder.alu(dest=0, srcs=(4,), fp=True)
    builder.alu(dest=1, srcs=(0,), fp=True, op=OpClass.FP_MULT)
    builder.store(value_reg=4, addr_reg=1, mem_addr=0x2040)
    builder.branch(taken=False, target=0x1100, srcs=(4,))
    builder.alu(dest=5, srcs=(4,))
    builder.alu(dest=3, srcs=(5,))
    return Trace(name="mixed", focus_class=RegClass.INT,
                 instructions=builder.trace())


@pytest.fixture
def quick_config() -> ProcessorConfig:
    """Processor configuration for fast unit-level pipeline tests."""
    return ProcessorConfig(warmup=False, enable_wrong_path=False)


@pytest.fixture
def tight_config() -> ProcessorConfig:
    """A configuration with very tight register files (40int + 40FP)."""
    return ProcessorConfig(num_physical_int=40, num_physical_fp=40,
                           warmup=False, enable_wrong_path=False)


@pytest.fixture(scope="session")
def small_swim_trace() -> Trace:
    """A small FP benchmark trace shared by integration tests."""
    return get_workload("swim", 2000)


@pytest.fixture(scope="session")
def small_gcc_trace() -> Trace:
    """A small integer benchmark trace shared by integration tests."""
    return get_workload("gcc", 2000)
