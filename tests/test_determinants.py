"""Tests of the TE and TM mode factors and their determinant routes."""

import math
import re

import mpmath
import pytest

from procasphere import (
    ProblemSpec,
    _core_py,
    _rules,
    determinants,
    energy,
    force,
)
from procasphere.backend import kernel
from procasphere.determinants import (
    DivergenceError,
    SpectralPoint,
    build_q_blocks,
    det_q0_expansion,
    det_q0_factored,
    det_q_direct,
    det_q_expansion,
    expansion_coefficients,
    log_delta_te,
    log_delta_tm,
    log_delta_tm_massless,
    reference_expansion_coefficients,
)
from procasphere.oracle import check_goldens, golden_path, oracle_dlog_delta

# The doubles next to the bounds 0 and 1 of the real rule, and a valid point.
TINY = math.nextafter(0.0, math.inf)
ABOVE_ONE = math.nextafter(1.0, math.inf)
NON_FINITE = (math.nan, math.inf, -math.inf)
POINT = dict(l=1, xi_hat=1.0, mu=0.5, ratio=1.5)

# A broad but quick grid reused by several tests below.
GRID = [
    SpectralPoint(l=l, xi_hat=xi, mu=mu, ratio=ratio)
    for l in (1, 2, 5, 12, 40)
    for xi in (1e-3, 0.3, 2.0, 15.0)
    for mu in (0.0, 0.4, 3.0)
    for ratio in (1.1, 1.7, 3.0)
]


def test_spectral_point_validation():
    with pytest.raises(ValueError):
        SpectralPoint(l=0, xi_hat=1.0, mu=0.0, ratio=1.5)
    with pytest.raises(ValueError):
        SpectralPoint(l=True, xi_hat=1.0, mu=0.0, ratio=1.5)
    with pytest.raises(ValueError):
        SpectralPoint(l=1, xi_hat=-1.0, mu=0.0, ratio=1.5)
    with pytest.raises(ValueError):
        SpectralPoint(l=1, xi_hat=1.0, mu=-0.1, ratio=1.5)
    with pytest.raises(ValueError):
        SpectralPoint(l=1, xi_hat=1.0, mu=0.0, ratio=1.0)
    with pytest.raises(ValueError):
        SpectralPoint(l=1, xi_hat=math.inf, mu=0.0, ratio=1.5)
    # A bool or a string is not a real number, even where it would pass as
    # one: xi_hat=True would run at xi_hat = 1.0.
    for xi_hat, mu in ((True, 0.0), (1.0, False), ("1.0", 0.0), (None, 0.0)):
        with pytest.raises(ValueError):
            SpectralPoint(l=2, xi_hat=xi_hat, mu=mu, ratio=1.5)
    # The real rule at its bounds: xi_hat and mu finite and >= 0, ratio
    # finite and > 1. The bound of xi_hat and mu, -0.0 and the next double
    # past each bound pass.
    for name, rule, refused, passed in (
            ("xi_hat", ">= 0", (-TINY,) + NON_FINITE, (0.0, -0.0, TINY)),
            ("mu", ">= 0", (-TINY,) + NON_FINITE, (0.0, -0.0, TINY)),
            ("ratio", "> 1", (1.0,) + NON_FINITE, (ABOVE_ONE,))):
        for v in refused:
            with pytest.raises(ValueError, match=re.escape(
                    f"{name} must be finite and {rule}, got {v!r}")):
                SpectralPoint(**{**POINT, name: v})
        for v in passed:
            assert repr(getattr(SpectralPoint(**{**POINT, name: v}), name)) \
                == repr(v)


def test_gamma_hat():
    p = SpectralPoint(l=1, xi_hat=3.0, mu=4.0, ratio=1.5)
    assert p.gamma_hat == pytest.approx(5.0, rel=1e-15)
    q = SpectralPoint(l=1, xi_hat=2.0, mu=0.0, ratio=1.5)
    assert q.gamma_hat == 2.0  # massless case must be exact, not a sqrt trip


def test_block_structure_massless():
    # With mu = 0 the mass rows vanish identically and gamma == xi collapses
    # the bracket rows to x^3 [[0, -1], [r, 0]] by the Wronskian.
    p = SpectralPoint(l=2, xi_hat=1.3, mu=0.0, ratio=1.4)
    q = build_q_blocks(p)
    for row in q.w2:
        for entry in row:
            assert entry.is_zero
    x3 = p.xi_hat ** 3
    assert q.w4[0][0].is_zero
    assert q.w4[0][1].to_float() == pytest.approx(-x3, rel=1e-13)
    assert q.w4[1][0].to_float() == pytest.approx(x3 * p.ratio, rel=1e-13)
    assert q.w4[1][1].is_zero


def test_as_matrix_layout():
    p = SpectralPoint(l=1, xi_hat=0.8, mu=0.5, ratio=1.6)
    q = build_q_blocks(p)
    m = q.as_matrix()
    assert len(m) == 4 and all(len(row) == 4 for row in m)
    assert m[0][0] is q.w1[0][0]
    assert m[0][2] is q.w2[0][0]
    assert m[2][0] is q.w3[0][0]
    assert m[3][3] is q.w4[1][1]


def test_expansion_matches_direct_determinant():
    """Two independent routes to det Q agree to 1e-9 everywhere."""
    worst = 0.0
    for p in GRID:
        d_exp = det_q_expansion(p)
        d_dir = det_q_direct(p)
        rel = abs((d_exp / d_dir).to_float() - 1.0)
        worst = max(worst, rel)
    assert worst <= 1e-9


def test_reference_expansion_matches_factored():
    worst = 0.0
    for p in GRID:
        d_exp = det_q0_expansion(p)
        d_fac = det_q0_factored(p)
        rel = abs((d_exp / d_fac).to_float() - 1.0)
        worst = max(worst, rel)
    assert worst <= 1e-10


def test_mass_order_coefficients_positive():
    # The whole point of the expansion route: every coefficient is a sum of
    # positive pieces, so the evaluation is cancellation-free.
    for p in GRID:
        for orders in (expansion_coefficients(p),
                       reference_expansion_coefficients(p)):
            assert orders.order0.sign() == 1.0, p
            assert orders.order1.sign() == 1.0, p
            assert orders.order2.sign() == 1.0, p


def test_massless_expansion_orders_collapse():
    # At mu = 0 the c1 weight vanishes, so order0 alone is the determinant.
    p = SpectralPoint(l=3, xi_hat=1.0, mu=0.0, ratio=1.5)
    orders = expansion_coefficients(p)
    assert (det_q_expansion(p) / orders.order0).to_float() == pytest.approx(
        1.0, rel=1e-15)


def test_log_delta_bounds_and_sign():
    # 0 < det Q / det Q0 < 1 always; the log factor is finite and negative.
    for p in GRID:
        if p.xi_hat <= 0.0:
            continue
        for f in (log_delta_te, log_delta_tm):
            v = f(p)
            assert math.isfinite(v)
            assert v < 0.0, (f.__name__, p)


def test_log_delta_monotone_in_ratio():
    # Wider gap, weaker interaction: |ln Delta| decreases as ratio grows.
    for l, xi, mu in ((1, 0.5, 0.0), (4, 2.0, 1.0)):
        prev_te = prev_tm = None
        for ratio in (1.1, 1.3, 1.7, 2.5, 4.0):
            p = SpectralPoint(l=l, xi_hat=xi, mu=mu, ratio=ratio)
            te, tm = log_delta_te(p), log_delta_tm(p)
            if prev_te is not None:
                assert abs(te) < abs(prev_te)
                assert abs(tm) < abs(prev_tm)
            prev_te, prev_tm = te, tm


def test_log_delta_decays_with_l_and_xi():
    base = dict(mu=0.3, ratio=1.5)
    seq_l = [abs(log_delta_tm(SpectralPoint(l=l, xi_hat=1.0, **base)))
             for l in (1, 3, 8, 20)]
    assert all(b < a for a, b in zip(seq_l, seq_l[1:]))
    seq_xi = [abs(log_delta_te(SpectralPoint(l=2, xi_hat=xi, **base)))
              for xi in (0.5, 2.0, 8.0, 30.0)]
    assert all(b < a for a, b in zip(seq_xi, seq_xi[1:]))


def test_massless_tm_reduction():
    """The general TM route at mu = 0 lands on the closed-form code path."""
    worst = 0.0
    for l in (1, 2, 5, 12, 30):
        for xi in (0.05, 0.7, 3.0, 20.0):
            for ratio in (1.2, 1.8, 3.5):
                a = log_delta_tm(SpectralPoint(l=l, xi_hat=xi, mu=0.0,
                                               ratio=ratio))
                b = log_delta_tm_massless(l, xi, ratio)
                worst = max(worst, abs(a - b) / abs(b))
    assert worst <= 1e-10


def test_te_zero_frequency_massive_is_finite():
    # A massive field still propagates at xi = 0 through gamma = mu.
    p = SpectralPoint(l=1, xi_hat=0.0, mu=1.0, ratio=1.5)
    v = log_delta_te(p)
    assert math.isfinite(v) and v < 0.0


def test_te_zero_frequency_massless_rejected():
    with pytest.raises(ValueError):
        log_delta_te(SpectralPoint(l=1, xi_hat=0.0, mu=0.0, ratio=1.5))


def test_tm_zero_frequency_rejected():
    p = SpectralPoint(l=1, xi_hat=0.0, mu=1.0, ratio=1.5)
    with pytest.raises(ValueError):
        log_delta_tm(p)
    with pytest.raises(ValueError):
        det_q_expansion(p)
    with pytest.raises(ValueError):
        build_q_blocks(p)


def test_massless_tm_validation_and_near_touching():
    # Outside the chain range too: xi * ratio >= 2**32, and xi < 2**-64.
    for args in ((0, 1.0, 1.5), (1, 0.0, 1.5), (1, 1.0, 1.0),
                 (1, math.nan, 1.5), (1, 3e9, 1.5), (5, 1e-40, 1.5),
                 (1, True, 1.5), (1, "1.0", 1.5), (1, 1.0, None)):
        with pytest.raises(ValueError):
            log_delta_tm_massless(*args)
    # The rule at its bounds: xi_hat finite and > 0, ratio finite and > 1.
    # The least positive xi_hat passes the rule and leaves the chain range,
    # whose floor 2**-64 passes.
    for v in (0.0, -0.0) + NON_FINITE:
        with pytest.raises(ValueError, match=re.escape(
                f"xi_hat must be finite and > 0, got {v!r}")):
            log_delta_tm_massless(1, v, 1.5)
    for v in (1.0,) + NON_FINITE:
        with pytest.raises(ValueError, match=re.escape(
                f"ratio must be finite and > 1, got {v!r}")):
            log_delta_tm_massless(1, 1e-3, v)
    with pytest.raises(ValueError, match=r"2\*\*-64 <= z"):
        log_delta_tm_massless(1, TINY, 1.5)
    assert log_delta_tm_massless(1, 2.0 ** -64, 1.5) < 0.0
    assert log_delta_tm_massless(1, 1e-3, ABOVE_ONE) < 0.0
    # Shells a few ulps apart: the mode ratio is within rounding of 1, yet
    # the log factor must come back finite and strongly negative, never NaN.
    v = log_delta_tm_massless(1, 1e-8, 1.0 + 1e-15)
    assert math.isfinite(v)
    assert v < -25.0


def test_log1m_vs_mpmath():
    # ln(1 - rho) comes from log1p below 1/2 and from the exact 1 - rho
    # from 1/2 up: within an ulp on both sides of the switch and at the
    # ends, and NaN once rho reaches 1 or is not a number.
    for rho in (0.0, 2.0 ** -1074, 0.5 - 2.0 ** -54, 0.5, 1.0 - 2.0 ** -53):
        got = _rules._log1m(rho)
        with mpmath.workprec(200):
            want = mpmath.log1p(-mpmath.mpf(rho))
            assert abs(mpmath.mpf(got) - want) <= math.ulp(got), rho
    for rho in (1.0, math.inf, math.nan):
        assert math.isnan(_rules._log1m(rho))


def test_divergence_error_is_arithmetic_error():
    assert issubclass(DivergenceError, ArithmeticError)


@pytest.mark.parametrize("mode", ["TE", "TM"])
def test_nan_from_the_node_batch_is_a_divergence(monkeypatch, mode):
    # log_delta_te and log_delta_tm read one node of the kernel's batch; a
    # NaN there, in either mode, raises DivergenceError naming the mode and
    # the point. Real inputs do not reach it: at l = 1 and ratio 1 + 2**-52
    # both logs are still finite.
    real = kernel.log_delta_nodes
    p = SpectralPoint(l=1, xi_hat=1e-3, mu=0.5, ratio=1.0 + 2.0 ** -52)
    entry = {"TE": log_delta_te, "TM": log_delta_tm}[mode]
    assert -40.0 < entry(p) < -30.0

    class Stub:
        @staticmethod
        def log_delta_nodes(l, mu, ratio, code, xs):
            te, tm = real(l, mu, ratio, code, xs)
            return ((math.nan,), tm) if code == 0 else (te, (math.nan,))

    monkeypatch.setattr(determinants, "kernel", Stub)
    with pytest.raises(DivergenceError) as exc_info:
        entry(p)
    assert str(exc_info.value) == f"{mode} mode ratio reached 1 at {p}"


def test_massless_tm_ratio_of_one_is_a_divergence(monkeypatch):
    # With the outer shell's family stubbed to the inner one's, the mode
    # ratio is exactly 1 and ln(1 - rho) is NaN: DivergenceError, not NaN.
    real = determinants.eval_family
    assert math.isfinite(log_delta_tm_massless(1, 1e-3, 1.0 + 2.0 ** -52))
    monkeypatch.setattr(determinants, "eval_family",
                        lambda l, z: real(l, 1e-3))
    with pytest.raises(DivergenceError, match=re.escape(
            "massless TM mode ratio reached 1 (l=1, xi_hat=0.001, "
            "ratio=1.5)")):
        log_delta_tm_massless(1, 1e-3, 1.5)


@pytest.mark.parametrize("mu,calls", [(0.0, 2), (0.7, 3)])
def test_massless_tm_point_reuses_chains(monkeypatch, mu, calls):
    # With mu = 0 the vacuum-side chains (q_s at xi, e at xi * ratio) are
    # the ones already made at gamma and gamma * ratio, so a TM node fills
    # s and e chains at two arguments each instead of three. A fill runs
    # its chains as lanes of two loops, and every argument a lane runs at is
    # recorded where the lane starts: a Miller lane's by the _miller_start
    # that places it, an upward lane's by the _exp_split(-z) of its first
    # member, from order 0.
    args = {"s": [], "e": []}

    def record(name, kind, take):
        def counted(*a, _f=getattr(_core_py, name)):
            args[kind] += take(*a)
            return _f(*a)
        monkeypatch.setattr(_core_py, name, counted)

    record("_miller_start", "s", lambda top, z: (z,))
    record("_exp_split", "e", lambda x: (-x,))
    # No node table and no kept upward runs: the fill starts every lane.
    _core_py._NODES.clear()
    _core_py._RUNS.clear()
    _core_py.log_delta_nodes(5, mu, 1.5, 2, [2.0])
    g = _rules.gamma_arg(2.0, mu)
    assert len(args["s"]) == len(args["e"]) == calls
    assert sorted(args["s"]) == sorted({g, g * 1.5, 2.0})
    assert sorted(args["e"]) == sorted({g, g * 1.5, 2.0 * 1.5})


def test_results_come_from_the_node_batch(monkeypatch, tmp_path):
    # Every mode factor the program evaluates comes from the kernel's node
    # batch; the single-point entry log_delta_point serves no result.
    def refuse(*args):
        raise AssertionError("log_delta_point called")

    monkeypatch.setattr(kernel, "log_delta_point", refuse)
    p = SpectralPoint(l=3, xi_hat=1.0, mu=0.5, ratio=1.5)
    assert log_delta_te(p) < 0.0 and log_delta_tm(p) < 0.0
    assert energy(ProblemSpec(ratio=1.5, mu=0.5, rel_tol=1e-5)).value < 0.0
    assert force(ProblemSpec(ratio=1.5, mu=0.5, rel_tol=1e-4)) < 0.0
    rows = [row for row in golden_path().read_text().splitlines()
            if row.startswith(("log_delta_te", "log_delta_tm\t"))][::4]
    path = tmp_path / "goldens.txt"
    path.write_text("\n".join(rows) + "\n")
    checked, _, failures = check_goldens(path)
    assert checked == len(rows) >= 10 and not failures


# The grid of the attraction test, fixed before its first run: ratios from
# near contact to far apart, masses from none to heavy, low and high
# orders, and 40 nodes X 2**(-k/2), k < 40, from the massless frame edge
# X = (45 + 2 l ln ratio) / (2 (ratio - 1)) of the spectral sum, with l
# for the block top.
ATTRACTION_RATIOS = (1.001, 1.01, 1.2, 2.0, 20.0)
ATTRACTION_MUS = (0.0, 1e-3, 0.5, 8.0, 500.0)
ATTRACTION_LS = (1, 3, 30, 300)


@pytest.mark.parametrize("backend", ["pure", "compiled", "ubsan"])
def test_ratio_derivative_is_never_negative(request, backend):
    # The paper's claim that the force attracts, node by node: with
    # force = -sum (2l+1) int d ln Delta_l / d ratio dxi and positive
    # quadrature weights, every computed force is <= 0 if no TE or TM
    # derivative value is negative. None is, or NaN, on the grid; where
    # rho underflows a value is exactly 0. At the three smallest non-zero
    # values, the oracle's derivative has their sign.
    twin = (_core_py if backend == "pure"
            else request.getfixturevalue(backend))
    values = []
    for ratio in ATTRACTION_RATIOS:
        for mu in ATTRACTION_MUS:
            for l in ATTRACTION_LS:
                edge = ((45.0 + 2.0 * l * math.log(ratio))
                        / (2.0 * (ratio - 1.0)))
                xs = tuple(x for x in (edge * 2.0 ** (-k / 2.0)
                                       for k in range(40))
                           if _rules._Z_MIN <= x
                           and _rules.gamma_arg(x, mu) * ratio < _rules._Z_MAX)
                te, tm = twin.dlog_delta_nodes(l, mu, ratio, 2, xs)
                for mode, vs in (("te", te), ("tm", tm)):
                    values += [(v, l, x, mu, ratio, mode)
                               for x, v in zip(xs, vs)]
    assert len(values) == 8000
    bad = [v for v in values if math.isnan(v[0]) or v[0] < 0.0]
    assert bad == []
    smallest = sorted(v for v in values if v[0] > 0.0)[:3]
    for v, l, x, mu, ratio, mode in smallest:
        assert oracle_dlog_delta(l, x, mu, ratio, mode) > 0, (v, l, x, mu,
                                                               ratio, mode)
