"""The early-release policies stop on a last use that has drifted from the ROS.

An uncommitted last use (LU) other than the renaming instruction is always
in flight, and its recorded slot names the previous version.  A policy
that finds otherwise has a corrupted LUs table: both policies fail loudly
instead of releasing around it.
"""

import pytest

from tests.core.helpers import PolicyHarness


@pytest.fixture(params=["basic", "extended"])
def harness(request):
    return PolicyHarness(request.param, num_physical=40)


def test_lu_missing_from_the_ros(harness):
    harness.rename(dest=1)
    lu = harness.rename(dest=3, srcs=(1,))
    del harness.view.entries[lu.seq]
    with pytest.raises(AssertionError, match="not in the ROS"):
        harness.rename(dest=1)


def test_lu_slot_naming_another_register(harness):
    harness.rename(dest=1)
    lu = harness.rename(dest=3, srcs=(1,))
    reg_class, logical, physical = lu.src_regs[0]
    lu.src_regs[0] = (reg_class, logical, physical + 1)
    with pytest.raises(AssertionError, match="does not name the previous"):
        harness.rename(dest=1)
