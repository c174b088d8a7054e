"""Tests of the conversion from laboratory inputs."""

import math

import pytest

from procasphere.units import HBAR_C_EV_M, convert_units, energy_scale_joules


def test_convert_units_values():
    ratio, mu = convert_units(0.01, 0.011, 1e-5)
    assert ratio == 0.011 / 0.01
    assert mu == 1e-5 * 0.01 / HBAR_C_EV_M
    assert convert_units(1, 2) == (2.0, 0.0)


def test_convert_units_validation():
    # Every argument follows the package's real-number rule: a string, a
    # bool, None or a list raises ValueError, as out-of-range values do.
    bad = [("0.01", 0.011, 1e-5), (0.01, "0.011", 1e-5), (0.01, 0.011, "0"),
           (True, 2.0, 0.0), (None, 0.011, 0.0), ([0.01], 0.011, 0.0),
           (0.0, 0.011, 0.0), (0.01, 0.01, 0.0), (0.01, math.inf, 0.0),
           (0.01, 0.011, -1.0), (0.01, 0.011, math.nan)]
    for args in bad:
        with pytest.raises(ValueError):
            convert_units(*args)


def test_energy_scale_joules():
    assert energy_scale_joules(0.01) == pytest.approx(5.0318e-25, rel=1e-4)
    for a1 in (0.0, -1.0, math.inf, True, "0.01", None):
        with pytest.raises(ValueError):
            energy_scale_joules(a1)
