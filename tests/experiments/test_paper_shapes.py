"""The paper's headline shapes, checked on every regenerated artefact.

One test per table or figure, at a larger scale than the per-experiment
tests (4,000-instruction traces, all ten benchmarks, an eight-point
register-size grid): the qualitative claims of the paper must hold there
too. Timing the regenerations is ``perfbench``'s job, not this module's.
"""

import pytest

from repro.analysis.cache import SweepCache
from repro.core.register_state import RegState
from repro.experiments import (figure2, figure3, figure9, figure10, figure11,
                               section44, table1, table4)

TRACE_LENGTH = 4_000
SIZES = (40, 48, 56, 64, 80, 96, 128, 160)


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    """One sweep store for the module: Figures 3 and 10 simulate no point
    the Figure 11 grid has already simulated."""
    return SweepCache(tmp_path_factory.mktemp("sweeps"))


@pytest.fixture(scope="module")
def figure11_sweep(store):
    """One Figure 11 sweep shared by the Figure 11 and Table 4 checks."""
    return figure11.run(trace_length=TRACE_LENGTH, sizes=SIZES, cache=store)


def test_table1():
    assert len(table1.run().rows()) == 4


@pytest.mark.parametrize("policy", ["conv", "basic", "extended"])
def test_figure2(policy):
    durations = figure2.run(policy).state_durations()
    assert RegState.READY in durations
    # The paper's point: the early-release schemes remove the Idle interval.
    if policy != "conv":
        conv_idle = figure2.run("conv").state_durations().get(RegState.IDLE, 0)
        assert durations.get(RegState.IDLE, 0) <= conv_idle


def test_figure3(store, figure11_sweep):
    result = figure3.run(trace_length=TRACE_LENGTH, cache=store)
    int_overhead = result.idle_overhead("int")
    fp_overhead = result.idle_overhead("fp")
    # Paper: 45.8 % int vs 16.8 % fp; both positive, int larger.
    assert int_overhead > 0 and fp_overhead > 0
    assert int_overhead > fp_overhead


def test_figure9():
    result = figure9.run()
    assert result.access_time_ns["LUsT"][0] == pytest.approx(0.98, abs=1e-6)
    assert result.lus_delay_margin_vs_smallest_int() == pytest.approx(0.26,
                                                                      abs=0.01)


def test_figure10(store, figure11_sweep):
    result = figure10.run(trace_length=TRACE_LENGTH, cache=store)
    fp_basic = result.suite_speedup_percent("fp", "basic")
    fp_extended = result.suite_speedup_percent("fp", "extended")
    int_extended = result.suite_speedup_percent("int", "extended")
    # Paper: +6 % basic / +8 % extended on FP, +5 % extended on int. Early
    # release must clearly help the FP suite, and help it more than the
    # integer suite, at this very tight size.
    assert fp_basic > 0
    assert fp_extended > 0
    assert fp_extended > int_extended


def test_figure11(figure11_sweep):
    fp_speedups = dict(figure11_sweep.speedup_curve("fp", "extended"))
    # Gains shrink as the file grows and essentially vanish at the loose end.
    assert fp_speedups[min(SIZES)] > fp_speedups[max(SIZES)] - 1.0
    assert abs(fp_speedups[max(SIZES)]) < 6.0
    # IPC is (weakly) increasing in the register count on both suites.
    for suite in ("int", "fp"):
        curve = dict(figure11_sweep.curve(suite, "conv"))
        assert curve[160] >= curve[40] - 0.05


def test_table4(figure11_sweep):
    fp_rows = table4.derive(figure11_sweep).rows_for("fp")
    assert fp_rows
    # The paper's qualitative claim: the FP file can shrink at equal IPC.
    savings = [row.saved_percent for row in fp_rows
               if row.saved_percent is not None]
    assert savings and max(savings) > 0


def test_section44():
    result = section44.run()
    assert result.energy_ratio == pytest.approx(1.0, abs=0.05)
    assert result.extended_storage_bytes == pytest.approx(1.22 * 1024, rel=0.01)
