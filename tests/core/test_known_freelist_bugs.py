"""Regression tests for the (fixed) seed-era ``FreeListError`` crashes.

The seed processor carried three related holes in the basic mechanism's
squash/release bookkeeping, all of which corrupted the free list under
non-default configurations:

1. ``on_commit`` updated the architectural-liveness flag *after* the
   early-release mask fired, so a destination-slot self-release lost its
   ``arch_version_released`` mark and a later exception flush rebuilt a
   live-looking mapping to a freed (and re-allocated) register — the
   "double release" crash.
2. Early-release bits scheduled *on a branch entry* by younger
   next-version instructions survived that branch's own misprediction,
   releasing a register the restored map table still named.
3. ``may_avoid_allocation`` probed the LUs table before rename recorded
   the instruction's own source reads, so a self-referencing definition
   (``LOAD r11 <- [r11]``) was waved past a dry free list and crashed in
   ``allocate()`` instead of stalling.

The *extended* policy carried a fourth hole, fixed in PR 4 (these tests
were strict-xfail until then and now pin the fix): a next-version
instruction reading its own destination register is its own last use,
but its ROS entry is unpublished while it renames, so the Release
Queue's "unknown LU" fallback scheduled an RwNS release of a register
whose in-flight definer an exception flush would release again.  Such
self-LU schedulings are now RwC entries tied to the NV's own entry, and
every scheduling carries the NV's sequence number so squashes cancel it
wherever confirmation merges moved it.

These tests pin the fixed behaviour on the exact configurations that used
to crash.
"""

import pytest

from repro.engine import simulate
from repro.pipeline.config import ProcessorConfig
from repro.trace.workloads import get_workload

TRACE_LENGTH = 2_000  # shortest length reproducing the seed-era crashes (seed 0)


def test_basic_policy_exception_squash_double_release_fixed():
    """Seed-era crash 1: basic policy + exceptions on compress now completes."""
    trace = get_workload("compress", TRACE_LENGTH, seed=0)
    config = ProcessorConfig(release_policy="basic", exception_rate=0.003)
    stats = simulate(trace, config)
    assert stats.committed_instructions > 0
    assert stats.exceptions_taken > 0  # the crashing path is actually exercised


def test_basic_policy_tight_file_empty_free_list_fixed():
    """Seed-era crash 3: basic policy with a 34-register file on li completes."""
    trace = get_workload("li", TRACE_LENGTH, seed=0)
    config = ProcessorConfig(release_policy="basic",
                             num_physical_int=34, num_physical_fp=34)
    stats = simulate(trace, config)
    assert stats.committed_instructions > 0
    # The fix converts the crash into honest register-shortage stalls.
    assert stats.dispatch_stalls["no_free_int_register"] > 0


@pytest.mark.parametrize("workload", ["compress", "li"])
def test_basic_policy_exceptions_and_tight_file_combined(workload):
    """The fixed paths compose: tight file *and* exception flushes together."""
    trace = get_workload(workload, TRACE_LENGTH, seed=0)
    config = ProcessorConfig(release_policy="basic", exception_rate=0.003,
                             num_physical_int=34, num_physical_fp=34)
    stats = simulate(trace, config)
    assert stats.committed_instructions > 0


@pytest.mark.parametrize("workload", ["li", "perl"])
def test_extended_policy_exception_stale_release_queue_fixed(workload):
    """Seed-era crash 4: extended policy + exceptions on the pointer chasers.

    The self-LU ``p = p->next`` redefinitions used to schedule premature
    RwNS releases (see module docstring); the run now completes with the
    crashing path exercised.
    """
    trace = get_workload(workload, 1_500, seed=0)
    config = ProcessorConfig(release_policy="extended", exception_rate=0.003)
    stats = simulate(trace, config)
    assert stats.committed_instructions > 0
    assert stats.exceptions_taken > 0


def test_extended_policy_exceptions_and_tight_file_combined():
    """The fix composes with a tight register file (stall, not crash)."""
    trace = get_workload("li", 2_000, seed=0)
    config = ProcessorConfig(release_policy="extended", exception_rate=0.003,
                             num_physical_int=40, num_physical_fp=40)
    stats = simulate(trace, config)
    assert stats.committed_instructions > 0
