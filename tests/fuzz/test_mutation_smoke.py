"""Mutation smoke test: the fuzzer must catch a reintroduced known bug.

The PR-4 extended-policy fix added a special case to
``ExtendedEarlyRelease.rename_destination`` for instructions that are the
last use of their *own* destination register (the ``p = p->next`` load of
a pointer chase): without it, the self-LU misses the seq index (its ROS
entry is published only after rename) and the defensive "treat an unknown
LU as committed" fallback schedules an RwNS release of a register whose
definer is still in flight — an exception flush then double-releases it
(``FreeListError``).

This test monkeypatches the pre-fix body back in and asserts the
conservation oracle finds the bug within a fixed seeded budget, that the
shrinker reduces the trigger, and that the shrunk trigger passes again on
the real (fixed) code.  If this test ever fails, the fuzzing harness has
lost its teeth — that is a bigger problem than any single oracle bug.
"""

import pytest

from repro.core.extended import ExtendedEarlyRelease, _slot_bit
from repro.core.release_policy import DestRenameOutcome
from repro.fuzz.runner import run_fuzz
from repro.fuzz.sampling import MIN_TRACE_LENGTH

#: Seed found to trigger the reintroduced bug within a handful of
#: samples (first failure at sample index 4; six failures in the first
#: thirty samples).  Sampling is a pure function of (seed, index), so
#: this stays stable unless the sampler itself changes.
TRIGGER_SEED = 1
SAMPLE_BUDGET = 5


def buggy_rename_destination(self, entry, logical, old_pd):
    """The pre-PR-4 body: no self-last-use special case."""
    if self.map_table.is_stale(logical):
        return DestRenameOutcome(release_previous_at_commit=False)
    lu = self.lus_table.lookup(logical)
    pending = self.view.count_pending_branches()
    lu_committed = lu is None or lu.seq <= self.view.committed_watermark
    if lu_committed:
        if pending == 0:
            if self.options.reuse_on_committed_lu:
                self.register_reuses += 1
                return DestRenameOutcome(reuse_previous=True,
                                         release_previous_at_commit=False)
            self._release_physical(old_pd, logical,
                                   self.view.current_cycle(), early=True)
            self.immediate_releases += 1
            return DestRenameOutcome(released_immediately=True,
                                     release_previous_at_commit=False)
        self.release_queue.schedule_committed_lu(old_pd, logical)
        self.conditional_schedulings += 1
        return DestRenameOutcome(scheduled_early=True,
                                 release_previous_at_commit=False)
    # BUG under test: a self-LU (lu.seq == entry.seq) is not yet in the
    # seq index, so it falls into the unknown-LU fallback below.
    lu_entry = self.view.ros_entry(lu.seq)
    if lu_entry is None:
        if pending == 0:
            self._release_physical(old_pd, logical,
                                   self.view.current_cycle(), early=True)
            self.immediate_releases += 1
            return DestRenameOutcome(released_immediately=True,
                                     release_previous_at_commit=False)
        self.release_queue.schedule_committed_lu(old_pd, logical)
        self.conditional_schedulings += 1
        return DestRenameOutcome(scheduled_early=True,
                                 release_previous_at_commit=False)
    bit = _slot_bit(lu.slot)
    _cls, physical, _logical = lu_entry.physical_of_slot(bit)
    assert physical == old_pd
    if pending == 0:
        lu_entry.early_release_mask |= bit
        self.early_releases_scheduled += 1
        return DestRenameOutcome(scheduled_early=True,
                                 release_previous_at_commit=False)
    self.release_queue.schedule_inflight_lu(lu.seq, bit)
    self.conditional_schedulings += 1
    return DestRenameOutcome(scheduled_early=True,
                             release_previous_at_commit=False)


@pytest.fixture
def reintroduced_bug(monkeypatch):
    monkeypatch.setattr(ExtendedEarlyRelease, "rename_destination",
                        buggy_rename_destination)


class TestMutationSmoke:
    def test_conservation_oracle_finds_the_bug(self, reintroduced_bug):
        report = run_fuzz(TRIGGER_SEED, samples=SAMPLE_BUDGET,
                          oracles=("conservation",), shrink_failures=False)
        assert report.failed, (
            "the conservation oracle missed the reintroduced self-LU "
            "double-release bug — the fuzzing harness has lost its teeth")
        failure = report.failures[0]
        assert "FreeListError" in failure.detail
        assert "double release" in failure.detail

    def test_failure_shrinks(self, reintroduced_bug):
        report = run_fuzz(TRIGGER_SEED, samples=SAMPLE_BUDGET,
                          oracles=("conservation",), shrink_failures=True,
                          shrink_budget=40)
        failure = report.failures[0]
        # The original trigger is a 3-phase, >1600-instruction sample;
        # the shrinker must make real progress on it.
        assert failure.shrunk.trace_length < failure.sample.trace_length
        assert failure.shrunk.trace_length == MIN_TRACE_LENGTH
        assert len(failure.shrunk.scenario.phases) < \
            len(failure.sample.scenario.phases)
        # The shrunk sample still fails, for the same reason family.
        assert "double release" in failure.shrunk_detail
        assert failure.shrink_notes != ["already minimal"]

    def test_failure_report_carries_repro_artifacts(self, reintroduced_bug):
        report = run_fuzz(TRIGGER_SEED, samples=SAMPLE_BUDGET,
                          oracles=("conservation",), shrink_failures=True,
                          shrink_budget=40)
        failure = report.failures[0]
        entry = failure.corpus_entry()
        assert entry["format"] == 1
        assert entry["oracles"] == ["conservation"]
        assert "fuzz seed=1" in entry["comment"]
        assert "--replay" in failure.repro_command("entry.json")
        assert "--oracles conservation" in failure.repro_command()

    def test_fixed_code_passes_the_same_samples(self):
        # Without the monkeypatch the identical seeded run is clean —
        # i.e. the detection above is the mutation, not sampler noise.
        report = run_fuzz(TRIGGER_SEED, samples=SAMPLE_BUDGET,
                          oracles=("conservation",), shrink_failures=False)
        assert not report.failed, report.failures[0].detail
        assert report.outcomes["conservation"]["pass"] == SAMPLE_BUDGET
