"""Processor configuration and simulation statistics.

:class:`~repro.pipeline.config.ProcessorConfig` carries the paper's
Table 2 parameters (all overridable) and
:class:`~repro.pipeline.stats.SimStats` the results of one run.  The
simulator itself is :mod:`repro.engine`.
"""

from repro.pipeline.config import ProcessorConfig
from repro.pipeline.stats import SimStats

__all__ = ["ProcessorConfig", "SimStats"]
