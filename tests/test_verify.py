import pytest

from fourspace.catalog import EnumerationBounds, InvalidParams
from fourspace.exactmat import PrimeField
from fourspace.verify import run_sweep

BOUNDS = EnumerationBounds(1, 1, ())


def test_run_sweep_rejects_negative_trials():
    # a negative count would check nothing and return [], "all agree"
    with pytest.raises(InvalidParams, match="trials must be >= 0"):
        run_sweep(PrimeField(7), BOUNDS, -3, 0)
    assert run_sweep(PrimeField(7), BOUNDS, 0, 0) == []
