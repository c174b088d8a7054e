"""Acceptance gate: the eight shipping criteria, one test and one line each.

The per-criterion PASS/FAIL lines print outside pytest's capture, so they
show in any run; each test also fails loudly through its assertion. Every
line names the active backend and the elapsed time. The wall-clock budgets
of criteria 1-6 are sized for the compiled kernel, so they are asserted only
when that backend is active; on the pure twin the line reports the budget
as met or exceeded without failing on it. The physics assertions run on
every backend. Each criterion runs a second time on the session's compiled
build (tests/conftest.py), which then serves as the active kernel, so
every run prints a compiled line and asserts its budget; without a C
compiler those runs are skipped.
"""

import math
import time

import mpmath
import pytest

from procasphere import active_backend
from procasphere.backend import kernel
from procasphere.bessel import eval_family
from procasphere.determinants import (
    SpectralPoint,
    det_q0_expansion,
    det_q0_factored,
    det_q_direct,
    det_q_expansion,
    expansion_coefficients,
    log_delta_tm,
    log_delta_tm_massless,
    reference_expansion_coefficients,
)
from procasphere.oracle import check_goldens
from procasphere.spectrum import ProblemSpec, energy, force


_CAPSYS = None


@pytest.fixture(autouse=True)
def _live_lines(capsys):
    # Stash the capture handle so _report can print through it even for
    # passing tests, where pytest would otherwise swallow stdout.
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def _report(num: int, name: str, ok: bool, detail: str, dt: float,
            budget: float | None = None):
    backend = active_backend()
    timing = f"{dt:.2f}s on {backend} backend"
    if budget is not None:
        met = dt < budget
        timing += f", budget {budget:g}s {'met' if met else 'exceeded'}"
        if backend == "compiled":
            ok = ok and met
        else:
            timing += " (not asserted)"
    detail = f"{detail}; {timing}"
    status = "PASS" if ok else "FAIL"
    line = f"criterion {num} ({name}): {status} [{detail}]"
    if _CAPSYS is not None:
        with _CAPSYS.disabled():
            print(line)
    else:
        print(line)
    assert ok, f"criterion {num} ({name}): {detail}"


def _logspace(lo: float, hi: float, n: int):
    la, lb = math.log(lo), math.log(hi)
    return [math.exp(la + (lb - la) * i / (n - 1)) for i in range(n)]


def _plate_suppression(x: float) -> float:
    """E(m)/E(0) of one Dirichlet polarization between plates; x = mass*gap.

    S(x) = (180/pi^4) x^2 sum_n K_2(2nx)/n^2, which tends to 1 as x -> 0
    (Bordag, Mohideen & Mostepanenko, Phys. Rep. 353 (2001) 1).
    """
    x = mpmath.mpf(x)
    tail = mpmath.nsum(lambda n: mpmath.besselk(2, 2 * n * x) / n ** 2,
                       [1, mpmath.inf])
    return float(180 / mpmath.pi ** 4 * x ** 2 * tail)


def test_criterion_01_wronskian():
    t0 = time.perf_counter()
    worst = 0.0
    points = 0
    for l in range(0, 61, 4):
        for z in _logspace(1e-3, 50.0, 16):
            f = eval_family(l, z)
            w = f.s * f.e_prime - f.s_prime * f.e
            worst = max(worst, abs(w.to_float() + 1.0))
            points += 1
    dt = time.perf_counter() - t0
    ok = points >= 200 and worst <= 1e-12
    _report(1, "wronskian", ok,
            f"{points} points, worst residual {worst:.3e}", dt, 1.0)


def test_criterion_02_golden_equivalence():
    t0 = time.perf_counter()
    n, worst, failures = check_goldens()
    dt = time.perf_counter() - t0
    ok = n >= 200 and not failures and worst <= 1e-12
    _report(2, "golden file", ok,
            f"{n} rows, worst rel {worst:.3e}, {len(failures)} failures",
            dt, 5.0)


def test_criterion_03_determinant_routes():
    t0 = time.perf_counter()
    worst = 0.0
    positive = True
    points = 0
    for l in (1, 2, 3, 5, 8, 12, 20, 40):
        for xi in (1e-4, 0.03, 0.3, 1.0, 3.0, 8.0):
            for mu in (0.0, 0.3, 2.0):
                for ratio in (1.1, 1.6, 2.5, 4.0):
                    p = SpectralPoint(l=l, xi_hat=xi, mu=mu, ratio=ratio)
                    rel = abs(
                        (det_q_expansion(p) / det_q_direct(p)).to_float() - 1.0)
                    rel0 = abs(
                        (det_q0_expansion(p) / det_q0_factored(p)).to_float()
                        - 1.0)
                    worst = max(worst, rel, rel0)
                    for orders in (expansion_coefficients(p),
                                   reference_expansion_coefficients(p)):
                        positive &= all(o.sign() == 1.0 for o in orders)
                    points += 1
    dt = time.perf_counter() - t0
    ok = points >= 500 and worst <= 1e-9 and positive
    _report(3, "determinant routes", ok,
            f"{points} points, worst rel {worst:.3e}, "
            f"coefficients positive: {positive}", dt, 10.0)


def test_criterion_04_massless_tm_reduction():
    t0 = time.perf_counter()
    worst = 0.0
    for l in (1, 2, 3, 5, 8, 12, 20, 40):
        for xi in (1e-4, 0.03, 0.3, 1.0, 3.0, 8.0):
            for ratio in (1.1, 1.6, 2.5, 4.0):
                a = log_delta_tm(
                    SpectralPoint(l=l, xi_hat=xi, mu=0.0, ratio=ratio))
                b = log_delta_tm_massless(l, xi, ratio)
                worst = max(worst, abs(a - b))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-10
    _report(4, "massless TM reduction", ok,
            f"worst abs diff {worst:.3e}", dt, 5.0)


def test_criterion_05_proximity_force_limit():
    t0 = time.perf_counter()
    ratio = 1.01
    res = energy(ProblemSpec(ratio=ratio, mu=0.0, rel_tol=1e-5, mode="total"))
    pfa = -(math.pi ** 4 / 90.0) / (ratio - 1.0) ** 3
    q = res.value / pfa
    dt = time.perf_counter() - t0
    ok = abs(q - 1.0) <= 0.10
    _report(5, "small-gap limit", ok,
            f"E/E0 = {res.value:.6g}, plate-limit quotient {q:.4f}, "
            f"l_used {res.l_used}", dt, 60.0)


def test_criterion_06_figure_trends():
    t0 = time.perf_counter()
    ratios = (1.05, 1.15, 1.3, 1.5, 1.75, 2.0)
    masses = (0.0, 0.506773, 5.06773)
    problems = []

    # (a) all three energy flavors negative and rising toward zero in ratio.
    for mu in masses:
        prev = None
        for ratio in ratios:
            te = energy(ProblemSpec(ratio=ratio, mu=mu, rel_tol=1e-5,
                                    mode="te")).value
            tm = energy(ProblemSpec(ratio=ratio, mu=mu, rel_tol=1e-5,
                                    mode="tm")).value
            tot = te + tm
            if not (te < 0.0 and tm < 0.0 and tot < 0.0):
                problems.append(f"sign at ratio={ratio}, mu={mu}")
            if prev is not None and not (te > prev[0] and tm > prev[1]
                                         and tot > prev[2]):
                problems.append(f"ratio trend at ratio={ratio}, mu={mu}")
            prev = (te, tm, tot)

    # (b) mass suppression at fixed ratio: |E| strictly decreasing in mu,
    # and the mu = 50 suppression set by the plate limit S(x), x = mu*(ratio-1)
    # the mass times the gap. The TE factor is the massive Dirichlet problem,
    # so r_TE = TE(50)/TE(0) must match S(x) up to the first-order
    # proximity-force curvature allowance, ratio - 1. PAPER.md does not give
    # the plate limit of the massive TM sector (a transverse plus a
    # longitudinal mode), so the bracket on r_total rests on the polarization
    # count alone: between two and three polarizations, each suppressed like
    # S, with the same (ratio - 1) allowance.
    mass_grid = (0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 12.0, 20.0, 30.0, 50.0)
    suppression = []
    for ratio in (1.1, 1.5):
        vals = [abs(energy(ProblemSpec(ratio=ratio, mu=mu, rel_tol=1e-5,
                                       mode="total")).value)
                for mu in mass_grid]
        if not all(b < a for a, b in zip(vals, vals[1:])):
            problems.append(f"mass trend at ratio={ratio}")
        te0, te_max = (abs(energy(ProblemSpec(ratio=ratio, mu=mu,
                                              rel_tol=1e-5, mode="te")).value)
                       for mu in (mass_grid[0], mass_grid[-1]))
        s = _plate_suppression(mass_grid[-1] * (ratio - 1.0))
        q_te = te_max / te0 / s
        q_tot = vals[-1] / vals[0] / s
        suppression.append(
            f"ratio {ratio}: r_TE/S {q_te:.4f}, r_total/S {q_tot:.4f}")
        if not abs(q_te - 1.0) <= ratio - 1.0:
            problems.append(f"TE plate suppression at ratio={ratio}: "
                            f"r_TE/S {q_te:.4f} outside 1 +- {ratio - 1.0:g}")
        lo, hi = 2.0 - ratio, 1.5 * ratio
        if not lo <= q_tot <= hi:
            problems.append(f"total plate suppression at ratio={ratio}: "
                            f"r_total/S {q_tot:.4f} outside "
                            f"[{lo:g}, {hi:g}]")
        # At ratio 1.5, S(25) ~ 4e-20: far more than three decades down.
        if ratio == 1.5 and not vals[-1] < 1e-3 * vals[0]:
            problems.append(f"mass suppression at ratio={ratio}: "
                            f"{vals[-1]:.3e} vs {vals[0]:.3e}")

    # (c) attraction everywhere: force negative across both grids.
    for mu in masses:
        for ratio in ratios:
            f = force(ProblemSpec(ratio=ratio, mu=mu, rel_tol=1e-4,
                                  mode="total"))
            if not f < 0.0:
                problems.append(f"force sign at ratio={ratio}, mu={mu}")
    for ratio in (1.1, 1.5):
        for mu in mass_grid:
            f = force(ProblemSpec(ratio=ratio, mu=mu, rel_tol=1e-4,
                                  mode="total"))
            if not f < 0.0:
                problems.append(f"force sign at ratio={ratio}, mu={mu}")

    dt = time.perf_counter() - t0
    ok = not problems
    _report(6, "figure trends", ok,
            f"{'; '.join(suppression)}; {len(problems)} violations"
            f"{': ' if problems else ''}{'; '.join(problems[:3])}", dt, 300.0)


def test_criterion_07_te_tm_comparability():
    t0 = time.perf_counter()
    worst_lo, worst_hi = 1.0, 1.0
    for ratio in (1.05, 1.1, 1.2, 1.35, 1.5):
        te = energy(ProblemSpec(ratio=ratio, mu=0.0, rel_tol=1e-5,
                                mode="te")).value
        tm = energy(ProblemSpec(ratio=ratio, mu=0.0, rel_tol=1e-5,
                                mode="tm")).value
        q = te / tm
        worst_lo = min(worst_lo, q)
        worst_hi = max(worst_hi, q)
    dt = time.perf_counter() - t0
    ok = worst_lo >= 1.0 / 3.0 and worst_hi <= 3.0
    _report(7, "TE/TM comparability", ok,
            f"ratio range [{worst_lo:.3f}, {worst_hi:.3f}]", dt)


def test_criterion_08_determinism_and_error_honesty():
    t0 = time.perf_counter()
    problems = []

    for spec in (ProblemSpec(ratio=1.3, mu=0.5, rel_tol=1e-6, mode="total"),
                 ProblemSpec(ratio=1.8, mu=0.0, rel_tol=1e-6, mode="tm")):
        r1 = energy(spec, threads=1)
        r4 = energy(spec, threads=4)
        r8 = energy(spec, threads=8)
        if not (r1 == r4 == r8):
            problems.append(f"thread mismatch at {spec.ratio}, {spec.mu}")

    checked = 0
    for ratio in (1.15, 1.4, 1.8, 2.5, 3.5):
        for mu in (0.0, 0.5, 2.0, 6.0):
            loose = energy(ProblemSpec(ratio=ratio, mu=mu, rel_tol=1e-5,
                                       mode="total"))
            tight = energy(ProblemSpec(ratio=ratio, mu=mu, rel_tol=1e-9,
                                       mode="total"))
            drift = abs(loose.value - tight.value)
            if drift > 5.0 * loose.abs_error_estimate:
                problems.append(
                    f"error estimate dishonest at ratio={ratio}, mu={mu}: "
                    f"drift {drift:.3e} vs estimate "
                    f"{loose.abs_error_estimate:.3e}")
            checked += 1
    dt = time.perf_counter() - t0
    ok = not problems and checked == 20
    _report(8, "determinism and error honesty", ok,
            f"{checked} specs, {len(problems)} violations"
            f"{': ' + '; '.join(problems[:2]) if problems else ''}", dt)


@pytest.mark.parametrize("criterion", [
    test_criterion_01_wronskian, test_criterion_02_golden_equivalence,
    test_criterion_03_determinant_routes,
    test_criterion_04_massless_tm_reduction,
    test_criterion_05_proximity_force_limit, test_criterion_06_figure_trends,
    test_criterion_07_te_tm_comparability,
    test_criterion_08_determinism_and_error_honesty],
    ids=lambda criterion: criterion.__name__[5:17])
def test_criterion_on_the_compiled_build(compiled, monkeypatch, criterion):
    # The one kernel object every module reads holds the compiled entries
    # for the run, as the kernel stubs of the other tests do.
    for name in ("BACKEND", "log_delta_nodes", "dlog_delta_nodes"):
        monkeypatch.setattr(kernel, name, getattr(compiled, name))
    criterion()
