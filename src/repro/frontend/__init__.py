"""Front-end models: branch prediction and instruction fetch.

The processor of Table 2 fetches 8 instructions per cycle (at most two
taken branches), predicts branches with an 18-bit gshare predictor updated
speculatively, and supports up to 20 branches pending verification.  The
fetch unit here is trace driven; after a misprediction it switches to a
:class:`repro.trace.WrongPathGenerator` until the mispredicted branch
resolves (see DESIGN.md).
"""

from repro.frontend.gshare import GsharePredictor
from repro.frontend.btb import BranchTargetBuffer
from repro.frontend.fetch import FetchUnit, FetchedOp

__all__ = [
    "GsharePredictor",
    "BranchTargetBuffer",
    "FetchUnit",
    "FetchedOp",
]
