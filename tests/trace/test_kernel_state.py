"""Tests for the declarative kernel-state descriptor layer.

The five chunk emitters used to hand-copy their kernel-state
bind/write-back scaffolding; `_KernelBase` now provides it from each
kernel's declarative ``STATE`` tuple.  These tests pin the mechanism
itself — the stream-level bit-identity is pinned separately by
``test_vector_equivalence.py``.
"""

import numpy as np
import pytest

from repro.trace.kernels import (
    BranchyKernel,
    IntComputeKernel,
    KernelParams,
    PointerChaseKernel,
    StencilFPKernel,
    StreamingFPKernel,
)
from repro.trace.records import TraceSink

ALL_KERNELS = [StreamingFPKernel, StencilFPKernel, IntComputeKernel,
               BranchyKernel, PointerChaseKernel]


def make(kernel_cls):
    return kernel_cls(KernelParams())


class TestDeclarations:
    @pytest.mark.parametrize("kernel_cls", ALL_KERNELS)
    def test_every_chunk_kernel_declares_state(self, kernel_cls):
        # A kernel overriding emit_chunk without declaring its walked
        # state would silently stop writing it back.
        assert kernel_cls.emit_chunk is not None
        assert kernel_cls.STATE, f"{kernel_cls.__name__} declares no STATE"

    @pytest.mark.parametrize("kernel_cls", ALL_KERNELS)
    def test_declared_attributes_exist(self, kernel_cls):
        kernel = make(kernel_cls)
        for descriptor in kernel.STATE:
            assert hasattr(kernel, descriptor.attr), (
                f"{kernel_cls.__name__}.STATE names missing attribute "
                f"{descriptor.attr!r}")


class TestBindWriteBack:
    @pytest.mark.parametrize("kernel_cls", ALL_KERNELS)
    def test_bind_does_not_alias_kernel_state(self, kernel_cls):
        """Mutating a bound view must not touch the kernel until write-back."""
        kernel = make(kernel_cls)
        rng = np.random.default_rng(3)
        for _ in range(5):
            kernel.emit_iteration(rng)
        before = kernel.state_snapshot()
        view = kernel.bind_chunk_state()
        view.ghist = 0x1234
        view.iteration += 100
        for _name, value in vars(view).items():
            if isinstance(value, list):
                value.append(-1)
        assert kernel.state_snapshot() == before
        kernel.write_back_chunk_state(view)
        assert kernel.ghist == 0x1234
        assert kernel.iteration == before["iteration"] + 100

    @pytest.mark.parametrize("kernel_cls", ALL_KERNELS)
    def test_snapshot_round_trips(self, kernel_cls):
        """bind → write_back with no edits is a no-op on the snapshot."""
        kernel = make(kernel_cls)
        rng = np.random.default_rng(7)
        for _ in range(3):
            kernel.emit_iteration(rng)
        before = kernel.state_snapshot()
        kernel.write_back_chunk_state(kernel.bind_chunk_state())
        assert kernel.state_snapshot() == before


class TestScalarChunkStateEquivalence:
    """After emitting the same iterations, the scalar loop and the chunk
    emitter must leave the kernel in the same declared state (the
    stream-level equality is covered by test_vector_equivalence)."""

    @pytest.mark.parametrize("kernel_cls", ALL_KERNELS)
    @pytest.mark.parametrize("k", [1, 7, 30])
    def test_state_snapshots_match(self, kernel_cls, k):
        pytest.importorskip("numpy")
        from repro.trace.draws import replay_supported

        if not replay_supported():
            pytest.skip("vectorised replay unsupported on this numpy")
        scalar = make(kernel_cls)
        chunked = make(kernel_cls)
        rng_scalar = np.random.default_rng(11)
        rng_chunk = np.random.default_rng(11)
        stream_scalar = []
        for _ in range(k):
            stream_scalar.extend(scalar.emit_iteration(rng_scalar))
        sink = TraceSink()
        chunked.emit_chunk(rng_chunk, k, sink)
        assert sink.columns().instructions() == stream_scalar
        assert scalar.state_snapshot() == chunked.state_snapshot()
        # And the generators ended in the same state, so the two kernels
        # stay interchangeable for subsequent segments.
        assert (rng_scalar.bit_generator.state
                == rng_chunk.bit_generator.state)
