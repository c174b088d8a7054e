"""Energy tables over a grid of radius ratios or of field masses.

The package and spectrum serve these names on first use (PEP 562), so a
process that runs no sweep never compiles this module. Each row is one
spectrum.energy call, looked up on the module at every row, so a wrapper
installed on spectrum.energy sees every row.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, replace

from . import spectrum
from .spectrum import ConvergenceError, ProblemSpec, _integer, _real


@dataclass(frozen=True)
class SweepRow:
    """One sweep point; a row that failed to converge holds NaN energies."""

    param: float
    e_te: float
    e_tm: float
    e_total: float
    abs_err: float
    l_used: int


@dataclass(frozen=True)
class SweepTable:
    """Sweep results plus the manifest of fixed parameters that made them."""

    param_name: str
    manifest: tuple[tuple[str, str], ...]
    rows: tuple[SweepRow, ...]

    def to_csv(self) -> str:
        lines = [f"# {k}={v}" for k, v in self.manifest]
        lines.append("param,e_te,e_tm,e_total,abs_err,l_used")
        for r in self.rows:
            lines.append(",".join((
                repr(r.param), repr(r.e_te), repr(r.e_tm), repr(r.e_total),
                repr(r.abs_err), str(r.l_used))))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps({
            "sweep": self.param_name,
            "manifest": dict(self.manifest),
            "rows": [
                {"param": r.param, "e_te": r.e_te, "e_tm": r.e_tm,
                 "e_total": r.e_total, "abs_err": r.abs_err,
                 "l_used": r.l_used}
                for r in self.rows
            ],
        }, indent=2) + "\n"


def _sweep_row(spec: ProblemSpec, param_value: float, threads: int) -> SweepRow:
    try:
        r = spectrum.energy(replace(spec, mode="total"), threads=threads)
    except ConvergenceError:
        nan = float("nan")
        return SweepRow(param=param_value, e_te=nan, e_tm=nan, e_total=nan,
                        abs_err=nan, l_used=0)
    return SweepRow(param=param_value, e_te=r.te, e_tm=r.tm,
                    e_total=r.te + r.tm, abs_err=r.abs_error_estimate,
                    l_used=r.l_used)


def sweep_ratio(template: ProblemSpec, ratio_from: float, ratio_to: float,
                steps: int, threads: int = 1) -> SweepTable:
    """Energy table over an inclusive linear grid of radius ratios.

    threads is passed to each energy() call, which runs its waves on up to
    that many processes and changes no bit of a row.
    """
    _integer("steps", steps, 2)
    ratio_from = _real("ratio_from", ratio_from, 1, strict=True)
    ratio_to = _real("ratio_to", ratio_to, 1, strict=True)
    manifest = (("sweep", "ratio"), ("mu", repr(template.mu)),
                ("rel_tol", repr(template.rel_tol)),
                ("l_cap", str(template.l_cap)))
    span = ratio_to - ratio_from
    rows = []
    for i in range(steps):
        rv = ratio_to if i == steps - 1 else ratio_from + span * (i / (steps - 1.0))
        rows.append(_sweep_row(replace(template, ratio=rv), rv, threads))
    return SweepTable(param_name="ratio", manifest=manifest, rows=tuple(rows))


def sweep_mass(template: ProblemSpec, mu_values: Sequence[float],
               threads: int = 1) -> SweepTable:
    """Energy table over a strictly ascending list of field masses.

    threads is passed to each energy() call, as in sweep_ratio().
    """
    if not isinstance(mu_values, Iterable):
        raise ValueError(
            f"mu_values must be a list of numbers, got {mu_values!r}")
    mus = [_real("mass value", m, 0) for m in mu_values]
    if not mus:
        raise ValueError("mu_values must be non-empty")
    if any(b <= a for a, b in zip(mus, mus[1:])):
        raise ValueError("mu_values must be strictly ascending")
    manifest = (("sweep", "mu"), ("ratio", repr(template.ratio)),
                ("rel_tol", repr(template.rel_tol)),
                ("l_cap", str(template.l_cap)))
    rows = [_sweep_row(replace(template, mu=m), m, threads) for m in mus]
    return SweepTable(param_name="mu", manifest=manifest, rows=tuple(rows))
