"""A profile's code book is shared, and sharing it changes no trace.

Every trace of a profile is row ids and addresses over that profile's
:class:`~repro.trace.workloads.CodeBook` (its static kernels, shape→row
memos and row table), kept by the trace memo.  A trace generated after
other seeds and lengths of the same profile must gather the same ten
columns, and leave the same bit-generator state, as one generated over a
fresh book; and ``_cached_trace.cache_clear()`` must drop every book.
"""

import numpy as np
import pytest

from repro.trace import workloads
from repro.trace.records import TRACE_COLUMN_NAMES
from repro.trace.workloads import (CodeBook, all_workloads,
                                   generate_scenario_trace, generate_trace,
                                   get_profile, get_scenario, get_workload,
                                   trace_rng)


def _generate(profile, length, seed, book):
    rng = trace_rng(profile, seed)
    generate = (generate_trace if profile in map(get_profile, all_workloads())
                else generate_scenario_trace)
    trace = generate(profile, length, seed, rng=rng, book=book)
    return trace, rng.bit_generator.state


def _gathered(trace):
    return {name: trace.columns.gather(name) for name in TRACE_COLUMN_NAMES}


PROFILES = ([pytest.param(get_profile(name), id=name)
             for name in all_workloads()]
            + [pytest.param(get_scenario("phased"), id="phased")])


@pytest.mark.parametrize("profile", PROFILES)
def test_generation_order_does_not_change_a_trace(profile):
    cold, cold_state = _generate(profile, 3000, 1, CodeBook(profile))

    book = CodeBook(profile)
    earlier = [_generate(profile, length, seed, book)[0]
               for length, seed in ((1200, 4), (5000, 9), (300, 1))]
    before = [_gathered(trace) for trace in earlier]
    warm, warm_state = _generate(profile, 3000, 1, book)

    assert cold.columns.first_difference(warm.columns) is None
    assert warm_state == cold_state
    # The later traces added rows to the shared table; the earlier
    # traces read a prefix of it that did not change.
    assert len(warm.columns.records) >= len(earlier[0].columns.records)
    for trace, columns in zip(earlier, before, strict=True):
        for name, column in _gathered(trace).items():
            assert np.array_equal(column, columns[name]), name


def test_a_profiles_traces_share_one_row_table():
    workloads._cached_trace.cache_clear()
    trace = get_workload("go", 2000, seed=3)
    warm = get_workload("go", 2000, seed=3 + 7919)
    book = workloads._cached_trace.book(get_profile("go"))
    table = book.rows.freeze()[1]
    for name, column in warm.columns.table.items():
        assert np.shares_memory(column, table[name])
    # A warm-up segment of the same profile adds few rows, if any.
    assert len(warm.columns.records) < 1.2 * len(trace.columns.records)


def test_cache_clear_drops_every_code_book(monkeypatch):
    profile = get_profile("gcc")
    get_workload("gcc", 1000, seed=0)
    first = workloads._cached_trace.book(profile)
    assert workloads._cached_trace.book(profile) is first

    built = []
    real_init = CodeBook.__init__

    def counting_init(self, profile):
        built.append(profile.name)
        real_init(self, profile)

    monkeypatch.setattr(CodeBook, "__init__", counting_init)
    workloads._cached_trace.cache_clear()
    trace = get_workload("gcc", 1000, seed=0)
    assert built == ["gcc"]
    assert workloads._cached_trace.book(profile) is not first
    get_workload("gcc", 1000, seed=1)
    assert built == ["gcc"]
    assert len(trace) >= 1000
