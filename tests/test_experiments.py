"""Campaign normalizations: the regime decides the scales, through one function."""

import math

import pytest

from gwalk.experiments import Constants, _kappa_n
from gwalk.law import regime_of

PLUG_IN = {"C_inf": 0.1, "c_inf_bold": 0.2, "c_kappa": 1.5}


@pytest.mark.parametrize("kappa", [2.0 - 1e-12, 2.0, 2.0 + 1e-12])
def test_near_critical_kappa_takes_the_critical_scales(kappa):
    """Within regime_of's tolerance of 2, kappa gets the sqrt(n log n) scales,
    not the subdiffusive formula (|Gamma(1 - kappa)| blows up there) nor the
    diffusive one (no c0 exists there)."""
    near = Constants(kappa=kappa, **PLUG_IN)
    crit = Constants(kappa=2.0, **PLUG_IN)
    assert regime_of(kappa) == near.regime == "CRITICAL"
    assert near.gamma == 2.0
    for n in (10, 1000, 10**6):
        scales = (near.local_time_scale(n), near.return_time_scale(n), _kappa_n(kappa, n))
        assert all(math.isfinite(s) and s > 0 for s in scales)
        assert scales == (crit.local_time_scale(n), crit.return_time_scale(n), _kappa_n(2.0, n))


def test_scales_off_critical():
    sub = Constants(kappa=1.5, **PLUG_IN)
    assert sub.regime == "SUBDIFFUSIVE" and sub.gamma == 1.5
    assert _kappa_n(1.5, 100) == 100**1.5
    diff = Constants(kappa=3.0, c0=0.4)
    assert diff.regime == "DIFFUSIVE" and diff.gamma == 2.0
    assert diff.local_time_scale(100) == math.sqrt(0.4 * 100)
    assert diff.return_time_scale(100) == 100**2 / 0.4
    assert _kappa_n(3.0, 100) == 100.0**2
