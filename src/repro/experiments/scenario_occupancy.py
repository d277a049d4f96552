"""Scenario occupancy — per-phase Empty/Ready/Idle splits (Figure 3 style).

Not a paper artefact: the scenario library's profiles change character
*within* one trace (compute ⇄ memory phases, a widening register-pressure
ramp), so a whole-trace occupancy average blurs exactly the structure the
scenarios were built to exhibit.  This experiment renders the paper's
Figure 3 split — allocated registers divided into Empty, Ready and Idle
under conventional renaming — **per phase**: each phase of each scenario
is simulated as a single-phase workload (same kernel family and
parameters, run standalone), giving one occupancy row per phase plus the
idle-overhead percentage the early-release schemes could reclaim there.

Works for built-in and user-defined scenarios alike; the derived
per-phase workloads flow through the ordinary ``run_sweep`` stack (disk
cache included) as ephemeral profiles — they are never registered, so
the scenario registry and grid stay untouched.  See
``docs/experiments.md`` and ``docs/workloads.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.occupancy import OccupancyRow, idle_overhead_percent, \
    mean_row, occupancy_breakdown
from repro.analysis.reporting import ascii_bar_chart, format_table
from repro.analysis.sweep import SweepConfig, SweepResult, run_sweep
from repro.experiments.scenarios import resolve_scenario_names
from repro.pipeline.config import ProcessorConfig
from repro.trace.workloads import ScenarioProfile, get_scenario

#: Register-file size of the occupancy runs (the paper's Figure 3 uses 96).
DEFAULT_NUM_REGISTERS = 96


def phase_profiles(profile: ScenarioProfile) -> List[Tuple[str, ScenarioProfile]]:
    """Derive one standalone single-phase profile per phase of a scenario.

    Returns ``(phase label, derived profile)`` pairs.  The derived
    workload names (``<scenario>@phase<i>``) are internal: they key the
    sweep/cache plumbing but never enter the scenario registry.
    """
    derived: List[Tuple[str, ScenarioProfile]] = []
    for index, phase in enumerate(profile.phases):
        label = f"phase {index} ({phase.kernel})"
        derived.append((label, ScenarioProfile(
            name=f"{profile.name}@phase{index}",
            suite=profile.suite,
            phases=(phase,),
            phase_length=profile.phase_length,
            description=f"phase {index} of scenario {profile.name!r}, "
                        f"run standalone for the occupancy split")))
    return derived


@dataclass
class ScenarioOccupancyResult:
    """Per-phase occupancy rows for each scenario, plus suite context."""

    num_registers: int
    scenarios: List[str] = field(default_factory=list)
    #: scenario name -> one OccupancyRow per phase (label = phase).
    rows: Dict[str, List[OccupancyRow]] = field(default_factory=dict)
    #: scenario name -> suite ("int"/"fp"), captured at sweep time.
    suites: Dict[str, str] = field(default_factory=dict)
    #: the sweep the rows were derived from.
    sweep: Optional[SweepResult] = field(default=None, compare=False,
                                         repr=False)

    def phase_rows(self, scenario: str) -> List[OccupancyRow]:
        """The per-phase occupancy rows of one scenario."""
        return self.rows[scenario]

    def scenario_mean(self, scenario: str) -> OccupancyRow:
        """Mean row over a scenario's phases (its whole-trace analogue)."""
        return mean_row(self.rows[scenario], label="mean")

    def idle_overhead(self, scenario: str) -> float:
        """Idle registers as a percentage of used, averaged over phases."""
        return idle_overhead_percent(self.rows[scenario])

    def format(self) -> str:
        """Render one Figure 3-style panel per scenario."""
        sections: List[str] = []
        for scenario in self.scenarios:
            rows = list(self.rows[scenario])
            multi_phase = len(rows) > 1
            if multi_phase:
                rows.append(self.scenario_mean(scenario))
            table_rows = [[row.benchmark, row.empty, row.ready, row.idle,
                           row.allocated, f"{row.idle_overhead_percent:.1f}%"]
                          for row in rows]
            suite = self.suites.get(scenario, "?")
            sections.append(format_table(
                ["phase", "empty", "ready", "idle", "allocated", "idle/used"],
                table_rows,
                title=(f"Scenario occupancy: {scenario} ({suite} file), "
                       f"conventional renaming, {self.num_registers} regs"),
                float_digits=2))
            bars = {row.benchmark: row.idle for row in rows}
            sections.append(ascii_bar_chart(
                bars, title="idle (reclaimable) registers per phase"))
            sections.append(
                f"idle overhead across phases: "
                f"{self.idle_overhead(scenario):.1f}%")
            sections.append("")
        return "\n".join(sections)


def run(trace_length: int = 20_000,
        num_registers: int = DEFAULT_NUM_REGISTERS,
        scenarios: Optional[List[str]] = None,
        base_config: Optional[ProcessorConfig] = None,
        cache=None) -> ScenarioOccupancyResult:
    """Simulate every phase of every (selected) scenario standalone.

    One conventional-release simulation per phase at ``num_registers``
    registers per file — cached like every other sweep.  Unknown names in ``scenarios`` raise
    :class:`ValueError` (mirroring the scenario grid).
    """
    names = resolve_scenario_names(scenarios)
    labels: Dict[str, List[Tuple[str, str]]] = {}
    profiles: List[ScenarioProfile] = []
    suites: Dict[str, str] = {}
    for name in names:
        profile = get_scenario(name)
        suites[name] = profile.suite
        labels[name] = []
        for label, derived in phase_profiles(profile):
            labels[name].append((label, derived.name))
            profiles.append(derived)

    sweep = run_sweep(SweepConfig(
        benchmarks=tuple(profile.name for profile in profiles),
        policies=("conv",),
        register_sizes=(num_registers,),
        trace_length=trace_length,
        base_config=base_config or ProcessorConfig(),
        scenario_profiles=tuple(profiles)),
        cache=cache)

    result = ScenarioOccupancyResult(num_registers=num_registers,
                                     scenarios=names, suites=suites,
                                     sweep=sweep)
    for name in names:
        result.rows[name] = [
            occupancy_breakdown(sweep.stats(derived_name, "conv", num_registers),
                                suites[name], label=label)
            for label, derived_name in labels[name]
        ]
    return result
