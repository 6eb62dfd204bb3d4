"""Guards of the named checks that do not need a full sweep."""

import pytest

from csforms import checks


def test_sweep_over_zero_points_is_rejected():
    # a sweep over no points would report a passing worst residual of 0
    with pytest.raises(ValueError, match="at least one point"):
        checks.heterotic_sweep("ut_s2", points=0)
    with pytest.raises(ValueError, match="at least one point"):
        checks.closedness_checks(points=0)
