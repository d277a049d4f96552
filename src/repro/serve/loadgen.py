"""The zipf request mix of a sweep service's clients.

Models the access pattern a shared sweep service actually sees: many
clients whose scenario popularity is zipf-skewed — a few hot
(benchmark, policy, register-size) points dominate, with a long tail of
rare ones.  The skew is what makes the cache + single-flight layer
earn its keep.  The benchmark's ``serve-zipf`` workload
(``perfbench/serving.py``) drives ``repro-serve`` with this mix.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence

__all__ = ["ZipfSampler", "build_request_pool"]

#: Policies cycled through the request pool.
_POOL_POLICIES = ("conv", "basic", "extended")

#: Register-file sizes cycled through the request pool (all large enough
#: to never deadlock rename against the logical register count).
_POOL_SIZES = (48, 64, 96)


class ZipfSampler:
    """Sample ranks ``0..n-1`` with probability proportional to
    ``1 / (rank + 1) ** skew`` (rank 0 the most popular).

    ``skew`` around 1.0 gives the classic few-hot/long-tail popularity;
    0.0 degenerates to uniform.  Deterministic for a given seed.
    """

    def __init__(self, n: int, skew: float = 1.1, seed: int = 0) -> None:
        if n <= 0:
            raise ValueError("n must be positive")
        if skew < 0.0:
            raise ValueError("skew must be non-negative")
        self.n = n
        self.skew = skew
        self._random = random.Random(seed)
        weights = [1.0 / float(rank + 1) ** skew for rank in range(n)]
        total = sum(weights)
        cumulative, acc = [], 0.0
        for weight in weights:
            acc += weight / total
            cumulative.append(acc)
        cumulative[-1] = 1.0    # guard against float round-down
        self._cumulative = cumulative

    def sample(self) -> int:
        import bisect

        return bisect.bisect_left(self._cumulative, self._random.random())


def build_request_pool(pool_size: int, trace_length: int = 2_000,
                       seed: int = 0,
                       workloads: Optional[Sequence[str]] = None,
                       ) -> List[dict]:
    """Distinct sweep-point request bodies, popularity-rank ordered.

    The pool cycles workloads fastest (so the hot head of the zipf
    distribution spans several benchmarks, not one benchmark's policy
    grid), then policies, then register sizes.
    """
    if workloads is None:
        from repro.trace.workloads import integer_workloads, fp_workloads

        workloads = tuple(integer_workloads() + fp_workloads())
    if pool_size <= 0:
        raise ValueError("pool_size must be positive")
    pool = []
    index = 0
    while len(pool) < pool_size:
        benchmark = workloads[index % len(workloads)]
        policy = _POOL_POLICIES[(index // len(workloads)) % len(_POOL_POLICIES)]
        size = _POOL_SIZES[(index // (len(workloads) * len(_POOL_POLICIES)))
                           % len(_POOL_SIZES)]
        pool.append({"benchmark": benchmark, "policy": policy,
                     "num_registers": size, "trace_length": trace_length,
                     "seed": seed})
        index += 1
    return pool
