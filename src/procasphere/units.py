"""Conversion between laboratory inputs and the dimensionless problem.

All physical constants live in this module and nowhere else. The library
proper works in units of the inner radius a1: the outer radius becomes
ratio = a2/a1 and a field mass m becomes mu = m*c*a1/hbar. Energies come
out in units of E0 = hbar*c/(2*pi*a1).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

# hbar*c in eV*m and in J*m (2018 CODATA).
HBAR_C_EV_M = 1.973269804e-7
HBAR_C_J_M = 3.1615267734966903e-26


@dataclass(frozen=True)
class PhysicalInput:
    """Shell radii in meters and the field mass in eV."""

    a1_m: float
    a2_m: float
    mass_ev: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "a1_m", float(self.a1_m))
        object.__setattr__(self, "a2_m", float(self.a2_m))
        object.__setattr__(self, "mass_ev", float(self.mass_ev))
        if not (math.isfinite(self.a1_m) and self.a1_m > 0.0):
            raise ValueError(f"a1_m must be finite and > 0, got {self.a1_m!r}")
        if not (math.isfinite(self.a2_m) and self.a2_m > self.a1_m):
            raise ValueError(
                f"a2_m must be finite and larger than a1_m, got {self.a2_m!r}")
        if not (math.isfinite(self.mass_ev) and self.mass_ev >= 0.0):
            raise ValueError(
                f"mass_ev must be finite and >= 0, got {self.mass_ev!r}")

    def dimensionless(self) -> tuple[float, float]:
        """(ratio, mu) for the library and CLI."""
        return self.a2_m / self.a1_m, self.mass_ev * self.a1_m / HBAR_C_EV_M


def convert_units(a1_m: float, a2_m: float, mass_ev: float = 0.0
                  ) -> tuple[float, float]:
    """(ratio, mu) from radii in meters and a mass in eV."""
    return PhysicalInput(a1_m=a1_m, a2_m=a2_m, mass_ev=mass_ev).dimensionless()


def energy_scale_joules(a1_m: float) -> float:
    """E0 = hbar*c/(2*pi*a1) in joules; multiplies dimensionless energies."""
    if isinstance(a1_m, bool) or not isinstance(a1_m, numbers.Real):
        raise ValueError(f"a1_m must be a real number, got {a1_m!r}")
    a1 = float(a1_m)
    if not (math.isfinite(a1) and a1 > 0.0):
        raise ValueError(f"a1_m must be finite and > 0, got {a1_m!r}")
    return HBAR_C_J_M / (2.0 * math.pi * a1)
