"""Analysis layer: metrics, sweeps, the result cache and reporting.

This package turns raw :class:`repro.pipeline.stats.SimStats` objects into
the quantities the paper reports (harmonic-mean IPC, speedups, iso-IPC
register savings, Empty/Ready/Idle occupancy breakdowns) and provides the
sweep driver used by the Figure 10/11 and Table 4 experiments, which runs
the (benchmark, policy, register-file size) simulation points in the
calling process, and a persistent on-disk result cache (one local
directory; copy it to share results) so repeated sweeps only simulate
points never simulated before.
"""

from repro.analysis.cache import SweepCache, config_digest, point_key

from repro.analysis.metrics import (
    harmonic_mean,
    geometric_mean,
    speedup,
    percentage_speedup,
    iso_ipc_register_requirement,
)
from repro.analysis.sweep import (
    SweepPoint,
    SweepResult,
    SweepConfig,
    run_sweep,
    run_simulation_point,
)
from repro.analysis.occupancy import occupancy_breakdown, OccupancyRow
from repro.analysis.reporting import (
    format_table,
    format_series,
    ascii_bar_chart,
    format_percent,
)

__all__ = [
    "SweepCache",
    "config_digest",
    "point_key",
    "harmonic_mean",
    "geometric_mean",
    "speedup",
    "percentage_speedup",
    "iso_ipc_register_requirement",
    "SweepPoint",
    "SweepResult",
    "SweepConfig",
    "run_sweep",
    "run_simulation_point",
    "occupancy_breakdown",
    "OccupancyRow",
    "format_table",
    "format_series",
    "ascii_bar_chart",
    "format_percent",
]
