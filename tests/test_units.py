"""Tests of the conversion from laboratory inputs."""

import math
import re

import pytest

from procasphere.units import HBAR_C_EV_M, convert_units, energy_scale_joules

NON_FINITE = (math.nan, math.inf, -math.inf)
TINY = math.nextafter(0.0, math.inf)


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
    # The rule at its bounds: a1_m finite and > 0, a2_m finite and > a1_m,
    # mass_ev finite and >= 0; the next double past each bound passes, and
    # so does a mass of -0.0.
    def at(i, v):
        args = [0.01, 1.0, 0.0]
        args[i] = v
        return convert_units(*args)

    above = math.nextafter(0.01, math.inf)
    for i, rule, refused, passed in (
            (0, "a1_m must be finite and > 0", (0.0, -0.0) + NON_FINITE,
             (TINY,)),
            (1, "a2_m must be finite and > 0.01", (0.01,) + NON_FINITE,
             (above,)),
            (2, "mass_ev must be finite and >= 0", (-TINY,) + NON_FINITE,
             (0.0, -0.0, TINY))):
        for v in refused:
            with pytest.raises(ValueError,
                               match=re.escape(f"{rule}, got {v!r}")):
                at(i, v)
        for v in passed:
            at(i, v)


def test_energy_scale_joules():
    assert energy_scale_joules(0.01) == pytest.approx(5.0318e-25, rel=1e-4)
    for a1 in (0.0, -1.0, math.inf, True, "0.01", None):
        with pytest.raises(ValueError):
            energy_scale_joules(a1)
    for a1 in (0.0, -0.0) + NON_FINITE:
        with pytest.raises(ValueError, match=re.escape(
                f"a1_m must be finite and > 0, got {a1!r}")):
            energy_scale_joules(a1)
    assert energy_scale_joules(TINY) > 0.0
