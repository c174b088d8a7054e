"""Inputs of the benchmark's workloads, its reference table, and the checks
every run applies to the program's outputs.

The inputs are fixed: the seed of a run only orders the solves within a
round and draws the per-layer samples. Checks come in two kinds.
Accuracy checks compare one operation with the reference table; an
operation that misses one counts as failed. Property checks (signs,
trends, plate limits, the oracle waves, CLI consistency) must all hold for
the run to report ``correct``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_DIR = BENCH_DIR.parent
SRC_DIR = REPO_DIR / "src"
REFERENCE_PATH = BENCH_DIR / "reference.json"
OUT_DIR = BENCH_DIR / "out"

# The reference table solves every input this much tighter than the
# workload asks for.
REF_ENERGY_FACTOR = 1e-4
REF_FORCE_FACTOR = 1e-3


@dataclass(frozen=True)
class Batch:
    """A workload's fixed set of library solves: energies or forces."""

    kind: str
    problems: tuple[tuple[float, float], ...]
    rel_tol: float
    threads: int


BATCHES = {
    "figure-grid": Batch(
        "energy",
        tuple((r, m) for r in (1.15, 1.3, 1.5, 2.0) for m in (0.0, 0.5, 5.0)),
        1e-7, 1),
    "small-gap": Batch(
        "energy", ((1.03, 0.5), (1.05, 0.0), (1.05, 2.0)), 1e-5, 2),
    "force-cli": Batch(
        "force", ((1.1, 0.0), (1.3, 0.5), (1.5, 5.0), (2.0, 0.0)), 1e-4, 1),
}
WORKLOADS = tuple(BATCHES)

# force-cli's subprocess part: one energy plus the replay of its JSON, and
# one mass sweep. The energy input is also a figure-grid input, so one
# reference serves both.
CLI_ENERGY = (1.5, 0.5, 1e-7)
SWEEP_RATIO = 1.1
SWEEP_MUS = (0.0, 2.0, 8.0, 50.0)
SWEEP_TOL = 1e-5

# One partial wave per workload, (ratio, mu, l, rel_tol), audited against
# the mpmath oracle, which shares no code with the fast kernel.
ORACLE_WAVES = {
    "figure-grid": (1.5, 0.5, 3, 1e-7),
    "small-gap": (1.05, 2.0, 12, 1e-5),
    "force-cli": (1.1, 8.0, 6, 1e-5),
}

PLATE_ENERGY = math.pi ** 4 / 90.0
PLATE_FORCE = math.pi ** 4 / 30.0


def energy_inputs():
    """Every (mode, ratio, mu, rel_tol) the workloads solve as an energy."""
    out = []
    for batch in BATCHES.values():
        if batch.kind == "energy":
            out += [("total", r, m, batch.rel_tol) for r, m in batch.problems]
    for mode in ("te", "tm"):
        out += [(mode, SWEEP_RATIO, m, SWEEP_TOL) for m in SWEEP_MUS]
    return out


def force_inputs():
    """Every (ratio, mu, rel_tol) the workloads solve as a force."""
    batch = BATCHES["force-cli"]
    return [(r, m, batch.rel_tol) for r, m in batch.problems]


def plate_suppression(x: float) -> float:
    """S(x) = (180/pi^4) x^2 sum_n K_2(2nx)/n^2: E(m)/E(0) of one Dirichlet
    polarization between plates, x = mass * gap."""
    import mpmath

    x = mpmath.mpf(x)
    tail = mpmath.mpf(0)
    n = 1
    while True:
        term = mpmath.besselk(2, 2 * n * x) / n ** 2
        tail += term
        if term <= tail * mpmath.mpf(10) ** -20:
            break
        n += 1
    return float(180 / mpmath.pi ** 4 * x ** 2 * tail)


class Reference:
    """The committed reference table, indexed by input."""

    def __init__(self, doc: dict):
        self.doc = doc
        self.energies = {(e["mode"], e["ratio"], e["mu"]): e
                         for e in doc["energies"]}
        self.forces = {(f["ratio"], f["mu"]): f for f in doc["forces"]}
        self.waves = {w["workload"]: w for w in doc["oracle_waves"]}

    @classmethod
    def load(cls, path: Path = REFERENCE_PATH) -> "Reference":
        with open(path, encoding="utf-8") as fh:
            return cls(json.load(fh))

    def energy(self, mode: str, ratio: float, mu: float) -> float:
        return self.energies[(mode, ratio, mu)]["value"]

    def force(self, ratio: float, mu: float) -> float:
        return self.forces[(ratio, mu)]["value"]


# -- accuracy checks: one operation against the reference --------------------

def energy_accurate(value: float, abs_err: float, ref: float,
                    rel_tol: float) -> bool:
    """The error estimate bounds the actual error, and the actual error is
    within the requested relative tolerance."""
    d = abs(value - ref)
    return d <= abs_err and d <= rel_tol * abs(ref)


def force_accurate(value: float, ref: float, rel_tol: float) -> bool:
    return abs(value - ref) <= rel_tol * abs(ref)


# -- property checks: each returns a list of violations ----------------------

def negative(label: str, values) -> list[str]:
    return [f"{label} {v!r} is not negative" for v in values if not v < 0.0]


def decreasing_magnitude(label: str, points) -> list[str]:
    """|value| strictly decreases whenever ratio and mu both do not
    decrease; points are (ratio, mu, value)."""
    out = []
    for ra, ma, va in points:
        for rb, mb, vb in points:
            if (ra, ma) != (rb, mb) and ra <= rb and ma <= mb \
                    and not abs(vb) < abs(va):
                out.append(f"{label}: |{vb!r}| at ({rb}, {mb}) not below "
                           f"|{va!r}| at ({ra}, {ma})")
    return out


def plate_limit(label: str, value: float, ratio: float, power: int,
                coeff: float) -> list[str]:
    """A massless value within the (ratio - 1) curvature allowance of the
    parallel-plate limit -coeff/(ratio - 1)^power."""
    q = value / (-coeff / (ratio - 1.0) ** power)
    if abs(q - 1.0) <= ratio - 1.0:
        return []
    return [f"{label} at ratio {ratio}: plate-limit quotient {q:.4f} "
            f"outside 1 +- {ratio - 1.0:g}"]


def mass_suppression(rows, ratio: float, s: float) -> list[str]:
    """rows: (mu, e_te, e_total) in ascending mu, first at mu = 0, last at
    the heaviest mass; s is S(x) at that mass. TE(heavy)/TE(0) within
    ratio - 1 of S, and the total between (2 - ratio) S and 1.5 ratio S."""
    out = []
    _mu0, te0, tot0 = rows[0]
    _mu1, te1, tot1 = rows[-1]
    q_te = te1 / te0 / s
    if not abs(q_te - 1.0) <= ratio - 1.0:
        out.append(f"TE suppression r_TE/S {q_te:.4f} outside "
                   f"1 +- {ratio - 1.0:g}")
    q_tot = tot1 / tot0 / s
    lo, hi = 2.0 - ratio, 1.5 * ratio
    if not lo <= q_tot <= hi:
        out.append(f"total suppression r_total/S {q_tot:.4f} outside "
                   f"[{lo:g}, {hi:g}]")
    return out


def oracle_wave(label: str, te: float, tm: float, wave: dict,
                rel_tol: float) -> list[str]:
    out = []
    for mode, v in (("te", te), ("tm", tm)):
        ref = wave[mode]
        if not abs(v - ref) <= rel_tol * abs(ref):
            out.append(f"{label} l={wave['l']} {mode}: {v!r} vs oracle "
                       f"{ref!r}")
    return out
