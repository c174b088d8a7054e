"""Conversion between laboratory inputs and the dimensionless problem.

All physical constants live in this module and nowhere else. The library
proper works in units of the inner radius a1: the outer radius becomes
ratio = a2/a1 and a field mass m becomes mu = m*c*a1/hbar. Energies come
out in units of E0 = hbar*c/(2*pi*a1).
"""

from __future__ import annotations

import math

from .spectrum import _real

# hbar*c in eV*m and in J*m (2018 CODATA).
HBAR_C_EV_M = 1.973269804e-7
HBAR_C_J_M = 3.1615267734966903e-26


def convert_units(a1_m: float, a2_m: float, mass_ev: float = 0.0
                  ) -> tuple[float, float]:
    """(ratio, mu) from shell radii in meters and a field mass in eV."""
    a1 = _real("a1_m", a1_m, 0, strict=True)
    a2 = _real("a2_m", a2_m, a1, strict=True)
    mass = _real("mass_ev", mass_ev, 0)
    return a2 / a1, mass * a1 / HBAR_C_EV_M


def energy_scale_joules(a1_m: float) -> float:
    """E0 = hbar*c/(2*pi*a1) in joules; multiplies dimensionless energies."""
    a1 = _real("a1_m", a1_m, 0, strict=True)
    return HBAR_C_J_M / (2.0 * math.pi * a1)
