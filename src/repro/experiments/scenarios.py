"""Scenario grid — the workload scenario library under all three policies.

Not a paper artefact: the scenario families (``repro.trace.workloads
.SCENARIOS``) push the synthetic workload generator into dynamic regimes
the SPEC95-like profiles do not reach — phased compute/memory behaviour,
deep pointer chasing, near-coin-flip branch entropy, store-bandwidth
pressure and a register-pressure ramp — and this experiment sweeps them
across the release policies and two register-file sizes, reporting IPC
and the early-release activity of each point.  See ``docs/workloads.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.metrics import percentage_speedup
from repro.analysis.reporting import format_table
from repro.analysis.sweep import SweepConfig, SweepResult, run_sweep
from repro.pipeline.config import ProcessorConfig
from repro.trace.workloads import get_scenario, scenario_workloads

POLICIES = ("conv", "basic", "extended")

#: Tight and roomy register files (the scenario grid's two columns).
DEFAULT_SIZES = (48, 96)


def resolve_scenario_names(scenarios: Optional[List[str]]) -> List[str]:
    """Resolve a scenario filter against the registry, in grid order.

    ``None`` selects every scenario.  An unknown name raises
    :class:`ValueError` listing the known scenarios in sorted order —
    silently dropping it (the pre-PR-5 behaviour) turned a typo into a
    sweep that was quietly missing points, or an empty grid.  This is the
    single name-validation path shared by the scenario-grid experiments
    and the ``repro-experiments fuzz`` CLI.
    """
    known = scenario_workloads()
    if scenarios is None:
        return known
    if not scenarios:
        raise ValueError(
            f"empty scenario selection (an empty or all-separator "
            f"--scenarios value selects nothing); known scenarios: "
            f"{', '.join(sorted(known))}")
    unknown = [name for name in scenarios if name not in known]
    if unknown:
        raise ValueError(
            f"unknown scenarios: {', '.join(sorted(unknown))}; known "
            f"scenarios: {', '.join(sorted(known))} (user-defined scenarios "
            f"must be registered first — see register_scenario / "
            f"--scenario-file)")
    requested = set(scenarios)
    return [name for name in known if name in requested]


@dataclass
class ScenarioGridResult:
    """IPC and release activity for every scenario grid point."""

    sweep: SweepResult
    scenarios: List[str] = field(default_factory=list)
    sizes: Tuple[int, ...] = DEFAULT_SIZES
    #: scenario name -> suite ("int"/"fp"), captured at sweep time so the
    #: result stays self-contained: reporting must not re-derive the focus
    #: file from the registry (a user-defined scenario may have been
    #: re-registered or unregistered since the sweep ran).
    suites: Dict[str, str] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def ipc(self, scenario: str, policy: str, size: int) -> float:
        """IPC of one scenario under one policy at one file size."""
        return self.sweep.ipc(scenario, policy, size)

    def speedup_percent(self, scenario: str, policy: str, size: int) -> float:
        """IPC gain of ``policy`` over conventional release."""
        return percentage_speedup(self.ipc(scenario, policy, size),
                                  self.ipc(scenario, "conv", size))

    def _suite(self, scenario: str) -> str:
        suite = self.suites.get(scenario)
        if suite is None:
            # Results built by hand (tests, pre-PR-5 pickles): fall back
            # to the registry, which raises a helpful KeyError if the
            # scenario is genuinely unknown.
            suite = get_scenario(scenario).suite
        return suite

    def early_release_fraction(self, scenario: str, policy: str,
                               size: int) -> float:
        """Early releases as a fraction of all releases (focus file)."""
        stats = self.sweep.stats(scenario, policy, size)
        focus = (stats.int_registers
                 if self._suite(scenario) == "int" else stats.fp_registers)
        total = focus.releases
        return focus.early_releases / total if total else 0.0

    # ------------------------------------------------------------------
    def format(self) -> str:
        """Render one IPC panel per register-file size."""
        sections: List[str] = []
        for size in self.sizes:
            rows = []
            for scenario in self.scenarios:
                row: List[object] = [scenario]
                for policy in POLICIES:
                    row.append(self.ipc(scenario, policy, size))
                row.append(f"{self.speedup_percent(scenario, 'extended', size):+.1f}%")
                row.append(f"{self.early_release_fraction(scenario, 'extended', size):.0%}")
                rows.append(row)
            sections.append(format_table(
                ["scenario", "conv", "basic", "extended", "ext gain",
                 "ext early"],
                rows,
                title=(f"Scenario grid: IPC with {size}int+{size}FP "
                       f"registers")))
            sections.append("")
        return "\n".join(sections)


def run(trace_length: int = 20_000,
        sizes: Tuple[int, ...] = DEFAULT_SIZES,
        scenarios: Optional[List[str]] = None,
        base_config: Optional[ProcessorConfig] = None,
        cache=None) -> ScenarioGridResult:
    """Sweep the scenario library (scenarios × policies × sizes).

    Cached exactly like the paper artefacts:
    scenario names (built-in and registered) resolve through the same
    ``get_workload`` registry.  Unknown names in ``scenarios`` raise
    :class:`ValueError` instead of being silently dropped.
    """
    names = resolve_scenario_names(scenarios)
    suites = {name: get_scenario(name).suite for name in names}
    sweep = run_sweep(SweepConfig(
        benchmarks=tuple(names),
        policies=POLICIES,
        register_sizes=tuple(sizes),
        trace_length=trace_length,
        base_config=base_config or ProcessorConfig()),
        cache=cache)
    return ScenarioGridResult(sweep=sweep, scenarios=names,
                              sizes=tuple(sizes), suites=suites)
