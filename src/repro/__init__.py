"""repro — reproduction of "Hardware Schemes for Early Register Release".

This package reimplements, in Python, the system evaluated in

    T. Monreal, V. Viñals, A. González, M. Valero,
    "Hardware Schemes for Early Register Release",
    Proceedings of the International Conference on Parallel Processing
    (ICPP 2002).

It contains a cycle-level out-of-order superscalar processor simulator
(the substrate the paper built on top of SimpleScalar v3.0), three
physical-register release policies (the paper's contribution):

* :class:`repro.core.ConventionalRelease` — the baseline: the previous
  version of a logical register is released when the redefining (NV)
  instruction commits.
* :class:`repro.core.BasicEarlyRelease`    — Section 3: releases tied to
  the commit of the last-use (LU) instruction when no branches are
  pending between LU and NV.
* :class:`repro.core.ExtendedEarlyRelease` — Section 4: conditional
  releases tracked in a Release Queue so speculative NV instructions can
  also schedule early releases.

plus synthetic SPEC95-like workload generators, a Rixner-style register
file delay/energy model, and an experiment harness that regenerates every
table and figure of the paper's evaluation section.

Quickstart
----------

>>> from repro import simulate, ProcessorConfig
>>> from repro.trace import get_workload
>>> cfg = ProcessorConfig(num_physical_int=48 + 32, num_physical_fp=48 + 32,
...                       release_policy="extended")
>>> result = simulate(get_workload("swim"), cfg, max_instructions=5000)
>>> result.ipc > 0
True
"""

from __future__ import annotations

from repro.pipeline.config import ProcessorConfig
from repro.engine import simulate
from repro.pipeline.stats import SimStats
from repro.core import (
    ConventionalRelease,
    BasicEarlyRelease,
    ExtendedEarlyRelease,
    make_release_policy,
)

__version__ = "1.0.0"

__all__ = [
    "ProcessorConfig",
    "simulate",
    "SimStats",
    "ConventionalRelease",
    "BasicEarlyRelease",
    "ExtendedEarlyRelease",
    "make_release_policy",
    "__version__",
]
