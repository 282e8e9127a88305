"""The fixed-seed sweeps of ``sweeps.py`` at a few hundred cases each; CI
runs them at 20,000."""

import pytest

from sweeps import SWEEPS


@pytest.mark.parametrize("name", list(SWEEPS))
def test_sweep(name):
    SWEEPS[name](300)
