"""Tests for the low-level trace generation building blocks."""

import numpy as np

from repro.trace.synthetic import (BranchSite, PointerChaseStream, RandomStream,
                                   StridedStream)


class TestStridedStream:
    def test_advances_by_stride(self):
        stream = StridedStream(base=0x1000, stride=8, footprint=64)
        assert stream.take(4).tolist() == [0x1000, 0x1008, 0x1010, 0x1018]
        assert stream.offset == 32

    def test_wraps_at_footprint(self):
        stream = StridedStream(base=0x1000, stride=8, footprint=16)
        assert stream.take(4).tolist() == [0x1000, 0x1008, 0x1000, 0x1008]

    def test_takes_compose(self):
        whole = StridedStream(base=0, stride=24, footprint=100)
        split = StridedStream(base=0, stride=24, footprint=100)
        parts = [split.take(n).tolist() for n in (1, 0, 4, 2)]
        assert sum(parts, []) == whole.take(7).tolist()


class TestRandomStream:
    def test_span_counts_aligned_slots(self):
        assert RandomStream(base=0, footprint=256, align=8).span == 32
        assert RandomStream(base=0, footprint=4, align=8).span == 1

    def test_within_working_set(self):
        stream = RandomStream(base=0x4000, footprint=256, align=8)
        addresses = stream.addresses(np.arange(stream.span, dtype=np.uint64))
        assert addresses.tolist() == list(range(0x4000, 0x4100, 8))


class TestPointerChaseStream:
    def test_deterministic_order(self):
        a = PointerChaseStream(base=0, n_nodes=16, seed=7)
        b = PointerChaseStream(base=0, n_nodes=16, seed=7)
        assert a.take(8).tolist() == b.take(8).tolist()

    def test_visits_every_node_once_per_lap(self):
        stream = PointerChaseStream(base=0, n_nodes=8, node_size=32, seed=1)
        first_lap, second_lap = stream.take(8).tolist(), stream.take(8).tolist()
        assert len(set(first_lap)) == 8
        assert all(address % 32 == 0 for address in first_lap)
        assert second_lap == first_lap


class TestBranchSite:
    def test_correlated_is_deterministic_given_history(self):
        site = BranchSite(pc=0x100, target=0, kind="correlated", noise=0.0,
                          bias=0.7, context_bits=4)
        outcomes = {site.correlated_outcome(0b1010) for _ in range(10)}
        assert len(outcomes) == 1          # same context → same outcome

    def test_correlated_same_function_across_instances(self):
        a = BranchSite(pc=0x200, target=0, kind="correlated", noise=0.0)
        b = BranchSite(pc=0x200, target=0, kind="correlated", noise=0.0)
        for history in range(16):
            assert a.correlated_outcome(history) == b.correlated_outcome(history)

    def test_correlated_reads_only_the_context_bits(self):
        site = BranchSite(pc=0x300, target=0, kind="correlated", context_bits=4)
        for history in range(16):
            assert (site.correlated_outcome(history)
                    == site.correlated_outcome(history | 0xFF0))

    def test_correlated_bias_sets_the_taken_share(self):
        site = BranchSite(pc=0x400, target=0, kind="correlated", bias=0.8,
                          context_bits=10)
        share = np.mean([site.correlated_outcome(h) for h in range(1 << 10)])
        assert 0.74 < share < 0.86
