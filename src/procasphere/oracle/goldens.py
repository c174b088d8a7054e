"""Frozen reference values and the machinery to regenerate and check them.

The golden file is plain text, one row per value:

    op<TAB>key=value;key=value<TAB>decimal value (30 digits)

Rows are byte-sorted, so regeneration from the same grid is byte-identical
and any drift in the oracle shows up as a diff. Checking compares the fast
library's result against the stored decimal at 1e-12 relative.
"""

from __future__ import annotations

from pathlib import Path

from mpmath import mp, mpf, workdps

from ..bessel import eval_family
from ..determinants import SpectralPoint, log_delta_te, log_delta_tm, \
    log_delta_tm_massless
from ..spectrum import ProblemSpec, l_term
from .highprec import mp_e, mp_family, mp_s, oracle_l_term, \
    oracle_log_delta

GOLDEN_DIGITS = 30


def golden_path() -> Path:
    """Location of the committed golden file."""
    return Path(__file__).resolve().parent / "data" / "goldens.txt"


def _default_grid():
    grid = []
    ls = (0, 1, 2, 5, 10, 40, 100, 400, 1000)
    zs = (0.001, 0.03, 0.5, 3.0, 12.0, 60.0, 300.0, 1500.0, 20000.0)
    for l in ls:
        for z in zs:
            # The frozen grid has no s rows in the large-order, tiny-argument
            # corner, where a Miller chain runs all l + 26 steps and its
            # rounding grows with l; test_oracle.py checks that corner down
            # to z = 2**-64 and up to l = 5000.
            if not (l >= 400 and z <= 0.03):
                grid.append(("s", (("l", l), ("z", z))))
            grid.append(("e", (("l", l), ("z", z))))
    for op in ("sp", "ep", "st", "et"):
        for l in (1, 5, 40, 400):
            for z in (0.03, 3.0, 60.0, 1500.0):
                grid.append((op, (("l", l), ("z", z))))
    pts = []
    for l in (1, 3, 10):
        for xi in (0.05, 1.0, 8.0):
            for mu in (0.0, 0.7, 3.0):
                for ratio in (1.3, 2.2):
                    pts.append((l, xi, mu, ratio))
    pts.append((25, 20.0, 0.0, 1.15))
    pts.append((60, 1.0, 0.1, 1.5))
    for l, xi, mu, ratio in pts:
        key = (("l", l), ("xi", xi), ("mu", mu), ("ratio", ratio))
        grid.append(("log_delta_te", key))
        grid.append(("log_delta_tm", key))
    for l in (1, 2, 5, 12, 30):
        for xi in (0.3, 4.0):
            for ratio in (1.3, 2.0):
                grid.append(("log_delta_tm_massless",
                             (("l", l), ("xi", xi), ("ratio", ratio))))
    for l in (1, 2):
        for mode in ("te", "tm"):
            for mu, ratio in ((0.0, 1.6), (0.8, 2.0)):
                grid.append(("l_term", (("l", l), ("mode", mode),
                                        ("mu", mu), ("ratio", ratio))))
    return grid


def _fmt(v) -> str:
    if isinstance(v, bool):
        raise TypeError(f"bad golden parameter {v!r}")
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _oracle_value(op: str, params: dict):
    if op == "s":
        return mp_s(params["l"], params["z"])
    if op == "e":
        return mp_e(params["l"], params["z"])
    if op in ("sp", "ep", "st", "et"):
        fam = mp_family(params["l"], params["z"])
        return fam[("sp", "ep", "st", "et").index(op) + 2]
    if op == "log_delta_te":
        return oracle_log_delta(params["l"], params["xi"], params["mu"],
                                params["ratio"], "te")
    if op == "log_delta_tm":
        return oracle_log_delta(params["l"], params["xi"], params["mu"],
                                params["ratio"], "tm")
    if op == "log_delta_tm_massless":
        return oracle_log_delta(params["l"], params["xi"], 0.0,
                                params["ratio"], "tm")
    if op == "l_term":
        return oracle_l_term(params["l"], params["mu"], params["ratio"],
                             params["mode"])
    raise ValueError(f"unknown golden op {op!r}")


def generate_goldens() -> str:
    """Full golden file contents, regenerated from scratch."""
    rows = []
    for op, key in _default_grid():
        value = _oracle_value(op, dict(key))
        body = ";".join(f"{k}={_fmt(v)}" for k, v in key)
        rows.append(f"{op}\t{body}\t{mp.nstr(value, GOLDEN_DIGITS)}")
    rows.sort()
    return "\n".join(rows) + "\n"


def write_goldens(path: Path | None = None) -> Path:
    """Regenerate and write the golden file; returns its path."""
    path = golden_path() if path is None else Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(generate_goldens(), encoding="utf-8")
    return path


def _parse_param(tok: str):
    try:
        return int(tok)
    except ValueError:
        pass
    try:
        return float(tok)
    except ValueError:
        return tok


def load_goldens(path: Path | None = None):
    """Rows as (op, params dict, decimal string)."""
    path = golden_path() if path is None else Path(path)
    rows = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        op, body, value = line.split("\t")
        params = {}
        for pair in body.split(";"):
            k, _, v = pair.partition("=")
            params[k] = _parse_param(v)
        rows.append((op, params, value))
    if not rows:
        raise ValueError(f"golden file {path} is empty")
    return rows


def _fast_value(op: str, params: dict):
    # The fast library's answer for one golden row, lifted to mpmath.
    if op in ("s", "e", "sp", "ep", "st", "et"):
        fam = eval_family(params["l"], params["z"])
        field = {"s": fam.s, "e": fam.e, "sp": fam.s_prime,
                 "ep": fam.e_prime, "st": fam.s_tilde,
                 "et": fam.e_tilde}[op]
        return mp.ldexp(mpf(field.mantissa), int(field.log2_scale))
    if op == "log_delta_te":
        return mpf(log_delta_te(SpectralPoint(
            l=params["l"], xi_hat=params["xi"], mu=params["mu"],
            ratio=params["ratio"])))
    if op == "log_delta_tm":
        return mpf(log_delta_tm(SpectralPoint(
            l=params["l"], xi_hat=params["xi"], mu=params["mu"],
            ratio=params["ratio"])))
    if op == "log_delta_tm_massless":
        return mpf(log_delta_tm_massless(params["l"], params["xi"],
                                         params["ratio"]))
    if op == "l_term":
        spec = ProblemSpec(ratio=params["ratio"], mu=params["mu"],
                           rel_tol=1e-12, mode=params["mode"])
        return mpf(l_term(spec, params["l"]))
    raise ValueError(f"unknown golden op {op!r}")


def check_goldens(path: Path | None = None):
    """Compare the fast library against every stored row.

    Returns (rows checked, worst relative error, failures) where failures
    is a list of (op, params, relative error) above 1e-12.
    """
    rows = load_goldens(path)
    failures = []
    worst = 0.0
    with workdps(GOLDEN_DIGITS + 20):
        for op, params, value in rows:
            ref = mpf(value)
            got = _fast_value(op, params)
            if ref == 0:
                rel = float(abs(got - ref))
            else:
                rel = float(abs(got - ref) / abs(ref))
            if rel > worst:
                worst = rel
            if rel > 1e-12:
                failures.append((op, params, rel))
    return len(rows), worst, failures
