"""The paper's headline numbers as data, and their gap to ours.

``claims.csv`` lifts every ``paper_*`` value the artefact benches in
``benchmarks/`` record.  A row is evaluable from a workload when the
workload produced every sweep point the claim needs; the gap of a row is
``measured - paper`` in percentage points.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.analysis.metrics import harmonic_mean, percentage_speedup
from repro.trace.workloads import fp_workloads, integer_workloads

CLAIMS_PATH = Path(__file__).with_name("claims.csv")

#: ``lookup(benchmark, policy, registers)`` -> SimStats, or None if absent.
Lookup = Callable[[str, str, int], Optional[object]]


def load_claims() -> List[dict]:
    with CLAIMS_PATH.open(newline="") as handle:
        rows = list(csv.DictReader(handle))
    for row in rows:
        row["registers"] = int(row["registers"])
        row["paper_value"] = float(row["paper_value"])
    return rows


def _suite(suite: str) -> List[str]:
    return integer_workloads() if suite == "int" else fp_workloads()


def _measure(row: dict, lookup: Optional[Lookup], artefacts: dict,
             ) -> Optional[float]:
    suite, registers = row["suite"], row["registers"]
    if row["claim"] == "saved_pct":
        for iso_row in artefacts["table4"].rows_for(suite):
            if iso_row.conv_size == registers:
                # An unreachable iso-IPC size saves nothing.
                return iso_row.saved_percent or 0.0
        return None
    if row["claim"] == "idle_overhead_pct":
        return artefacts["figure3"].idle_overhead(suite)
    ipcs = {}
    for policy in ("conv", row["policy"]):
        stats = [lookup(name, policy, registers) for name in _suite(suite)]
        if any(s is None for s in stats):
            return None
        ipcs[policy] = harmonic_mean(s.ipc for s in stats)
    return percentage_speedup(ipcs[row["policy"]], ipcs["conv"])


def gaps(sources: Dict[str, Lookup], **artefacts) -> Dict[str, float]:
    """Signed gap (pp) of every claim evaluable from the given results.

    ``sources`` maps an artefact name to the lookup over that artefact's
    own sweep.  Figure 3 and Table 4 keep derived rows rather than a
    sweep, so their results are passed whole as ``figure3=``/``table4=``.
    Rows of artefacts given neither way are skipped.
    """
    result = {}
    for row in load_claims():
        lookup = sources.get(row["artefact"])
        if lookup is None and row["artefact"] not in artefacts:
            continue
        measured = _measure(row, lookup, artefacts)
        if measured is not None:
            result[row["id"]] = measured - row["paper_value"]
    return result


def mean_abs_gap(signed: Dict[str, float]) -> float:
    return sum(abs(gap) for gap in signed.values()) / len(signed)


def sweep_lookup(sweep) -> Lookup:
    """Lookup over a :class:`~repro.analysis.sweep.SweepResult`."""
    def lookup(benchmark: str, policy: str, registers: int):
        if (benchmark, policy, registers) not in sweep:
            return None
        return sweep.stats(benchmark, policy, registers)
    return lookup
