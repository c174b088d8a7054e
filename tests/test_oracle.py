"""Tests of the arbitrary-precision reference routes.

The oracle is only trustworthy if its internal routes check each other, so
these tests lean on identities evaluated inside mpmath (Wronskian, route
agreement) plus spot comparisons against the fast kernel at double
precision. The frozen digit strings live in test_goldens.py.
"""

import math
import re

import pytest
from mpmath import mp, mpf, workdps

from procasphere import _rules
from procasphere.backend import kernel
from procasphere.bessel import eval_family
from procasphere.determinants import (
    SpectralPoint,
    log_delta_te,
    log_delta_tm,
)
from procasphere.oracle import (
    OracleError,
    mp_e,
    mp_family,
    mp_s,
    oracle_dlog_delta,
    oracle_l_term,
    oracle_log_delta,
)
from procasphere.oracle.highprec import _mp_log1m, _rho_tm_ambient
from procasphere.scaledrep import ScaledReal
from procasphere.spectrum import ProblemSpec, l_term


def test_oracle_argument_validation():
    with pytest.raises(ValueError):
        mp_s(-1, 1.0)
    with pytest.raises(ValueError):
        mp_s(1, 0.0)
    with pytest.raises(ValueError):
        mp_e(1, -1.0)
    with pytest.raises(ValueError):
        oracle_log_delta(0, 1.0, 0.0, 1.5, "tm")
    with pytest.raises(ValueError):
        oracle_log_delta(1, 1.0, 0.0, 1.0, "tm")
    with pytest.raises(ValueError):
        oracle_log_delta(1, 1.0, -1.0, 1.5, "tm")
    with pytest.raises(ValueError):
        oracle_log_delta(1, 1.0, 0.0, 1.5, "em")
    # The real rule at its bounds, in both modes: mu finite and >= 0, ratio
    # finite and > 1, xi finite and > 0, or >= 0 for TE, which takes xi = 0
    # with mu > 0.
    # The nearest inputs that pass run; oracle_l_term refuses the same
    # values, and its accepted runs are quadratures, left to the tests below.
    tiny = math.nextafter(0.0, math.inf)
    non_finite = (math.nan, math.inf, -math.inf)
    for mode in ("te", "tm"):
        xi_rule, xi_refused, xi_passed = (
            (">= 0", (-tiny,), (0.0, -0.0, tiny)) if mode == "te"
            else ("> 0", (0.0, -0.0), (tiny,)))
        for i, rule, refused, passed in (
                (1, f"xi must be finite and {xi_rule}",
                 xi_refused + non_finite, xi_passed),
                (2, "mu must be finite and >= 0", (-tiny,) + non_finite,
                 (0.0, -0.0, tiny)),
                (3, "ratio must be finite and > 1", (1.0,) + non_finite,
                 (math.nextafter(1.0, math.inf),))):
            for v in refused:
                args = [1, 1.0, 0.5, 1.5, mode]
                args[i] = v
                with pytest.raises(ValueError,
                                   match=re.escape(f"{rule}, got {v!r}")):
                    oracle_log_delta(*args)
                if i > 1:
                    l, _, mu, ratio, _ = args
                    with pytest.raises(ValueError,
                                       match=re.escape(f"{rule}, got {v!r}")):
                        oracle_l_term(l, mu, ratio, mode)
            for v in passed:
                args = [1, 1.0, 0.5, 1.5, mode]
                args[i] = v
                assert oracle_log_delta(*args) < 0
    for xi in (0.0, -0.0):
        with pytest.raises(ValueError, match="xi = 0 needs mu > 0"):
            oracle_log_delta(1, xi, 0.0, 1.5, "te")
    with pytest.raises(ValueError, match="xi must be a real number"):
        oracle_log_delta(1, False, 0.5, 1.5, "te")


def test_oracle_wronskian_in_high_precision():
    """s e' - s' e = -1 checked entirely inside mpmath, 40 digits deep."""
    with workdps(60):
        for l in (0, 1, 7, 45, 300):
            for z in (mpf("0.001"), mpf("0.8"), mpf(25), mpf(900)):
                s, e, sp, ep, _, _ = mp_family(l, z)
                res = abs(s * ep - sp * e + 1)
                assert res < mpf(10) ** -38, (l, z, float(res))


def test_oracle_recurrence_in_high_precision():
    # s_{l+1} = s_{l-1} - (2l+1)/z s_l inside mpmath.
    with workdps(60):
        for l in (1, 6, 29):
            for z in (mpf("0.3"), mpf(14), mpf(230)):
                lhs = mp_s(l + 1, z)
                rhs = mp_s(l - 1, z) - (2 * l + 1) / z * mp_s(l, z)
                assert abs(lhs / rhs - 1) < mpf(10) ** -36


def test_oracle_matches_fast_kernel_on_grid():
    """Double-precision kernel vs 40-digit oracle, from the argument floor
    2**-64 to 1e6: s_l and e_l, and for l >= 1 also s_{l-1}, s' and e'."""
    worst = 0.0
    for l in (0, 1, 2, 4, 9, 17, 33, 65, 129, 257):
        # 1e5 and 1e6 reach deep into the range of the ln 2 split that
        # carries exp(z) into the base-2 scale.
        for z in (2.0 ** -64, 1e-6, 0.004, 0.07, 0.9, 4.0, 17.0, 70.0, 260.0,
                  1100.0, 9000.0, 1e5, 1e6):
            fam = eval_family(l, z)
            fast = [fam.s, fam.e]
            with workdps(50):
                refs = [mp_s(l, mpf(z)), mp_e(l, mpf(z))]
                if l >= 1:
                    s1m, s1k = kernel.s_pair(l, z)[2:]
                    fast += [ScaledReal(s1m, s1k), fam.s_prime, fam.e_prime]
                    ref_fam = mp_family(l, mpf(z))
                    refs += [mp_s(l - 1, mpf(z)), ref_fam[2], ref_fam[3]]
                for v, ref in zip(fast, refs):
                    got = mp.ldexp(mpf(v.mantissa), int(v.log2_scale))
                    worst = max(worst, float(abs(got / ref - 1)))
    assert worst <= 1e-12


def _s_pair_error(points):
    # Worst relative error of both members of s_pair, (s_l, s_{l-1}),
    # against the 40-digit oracle.
    worst = 0.0
    for l, z in points:
        s1m, s1k, s0m, s0k = _rules.s_pair(l, z)
        with workdps(50):
            for m, k, order in ((s1m, s1k, l), (s0m, s0k, l - 1)):
                ref = mp_s(order, mpf(z))
                err = abs(mp.ldexp(mpf(m), int(k)) / ref - 1)
                worst = max(worst, float(err))
    return worst


def test_s_pair_vs_oracle_across_old_switch():
    # Where s_pair once switched from a power series to the recurrence,
    # max(1.2 l + 20, 30), with 0.8x and 1.2x of it, and high orders from
    # far below the order to above it, where a chain runs l + 26 steps.
    points = [(l, f * max(1.2 * l + 20.0, 30.0))
              for l in (3, 17, 50) for f in (0.8, 1.0, 1.2)]
    points += [(l, z) for l in (1000, 5000)
               for z in (1e-4, 0.5 * l, 1.2 * l + 20.0)]
    assert _s_pair_error(points) <= 1e-12


def test_miller_start_rule_vs_oracle():
    """s_pair on both sides of the Miller start switch vs the oracle."""
    # (l, z) around the root of z**2 = l**2 + T z, past which the Miller
    # start bound L**2 - l**2 >= T z fits below z: just below the root (old
    # start max(l, z) + 26), just above it, past the first z that takes the
    # new start, and at 1.5x and 10x the root.
    t = _rules._MILLER_T
    points = []
    for l in (1, 7, 40, 400, 1000):
        root = 0.5 * (t + math.sqrt(t * t + 4.0 * l * l))
        points += [(l, z) for z in (root - 0.01, root + 0.01, root + 4.5,
                                    1.5 * root, 10.0 * root)]
    assert _s_pair_error(points) <= 1e-12


def test_oracle_log_delta_vs_fast():
    worst = 0.0
    for l, xi, mu, ratio in ((1, 0.4, 0.0, 1.5), (3, 2.0, 0.7, 1.2),
                             (9, 6.0, 1.5, 2.0), (2, 0.02, 3.0, 1.1)):
        p = SpectralPoint(l=l, xi_hat=xi, mu=mu, ratio=ratio)
        for mode, fast in (("te", log_delta_te), ("tm", log_delta_tm)):
            ref = oracle_log_delta(l, xi, mu, ratio, mode)
            worst = max(worst, abs(fast(p) / float(ref) - 1.0))
    assert worst <= 1e-13


# Per ratio from near contact to wide gaps: three orders up to the large-l
# end the wave sum reaches there, each at four (xi, mu) nodes from the
# tiny-frequency heavy-mass corner to frequencies far above the order.
TM_POINT_GRID = [
    (l, xi, mu, ratio)
    for ratio, orders, nodes in (
        (1.003, (1, 200, 2000),
         ((1e-6, 50.0), (0.5, 0.0), (3.0, 5.0), (200.0, 0.3))),
        (1.03, (1, 40, 500),
         ((1e-3, 20.0), (0.5, 0.0), (8.0, 1.3), (60.0, 0.0))),
        (1.5, (1, 5, 40),
         ((1e-3, 3.0), (0.7, 0.0), (0.7, 1.3), (8.0, 0.3))),
        (4.0, (1, 3, 10),
         ((1e-3, 0.0), (0.3, 2.0), (2.0, 0.0), (2.0, 0.5))))
    for l in orders for xi, mu in nodes]


def test_log_delta_point_vs_oracle():
    """The TE point and the TM round trip vs the 40-digit oracle's 4x4
    determinants."""
    worst = 0.0
    for l, xi, mu, ratio in TM_POINT_GRID:
        for mode, name in ((0, "te"), (1, "tm")):
            ref = oracle_log_delta(l, xi, mu, ratio, name)
            got = kernel.log_delta_point(l, xi, mu, ratio, mode)
            assert ref != 0, (l, xi, mu, ratio, name)
            worst = max(worst, float(abs(got / ref - 1)))
    assert worst <= 1e-12


# The TM point grid plus nodes far above the order, where d_s + d_e, the
# sum of two values of size z, cancels to order one.
DLOG_GRID = TM_POINT_GRID + [(1, 1e4, 0.0, 1.003), (3, 2e4, 5.0, 1.003),
                             (10, 1500.0, 0.0, 1.03), (2, 100.0, 0.5, 1.5)]


def test_dlog_delta_nodes_vs_oracle():
    """The closed-form ratio derivative of each mode factor, in modes 0, 1
    and 2, vs mpmath's diff of the oracle's log factor."""
    worst = 0.0
    checked = 0
    for l, xi, mu, ratio in DLOG_GRID:
        ref = [oracle_dlog_delta(l, xi, mu, ratio, name)
               for name in ("te", "tm")]
        for mode, want in ((0, ref[0]), (1, ref[1]), (2, ref[0] + ref[1])):
            te, tm = kernel.dlog_delta_nodes(l, mu, ratio, mode, [xi])
            got = te[0] + tm[0]
            assert got > 0.0 or abs(want) < 1e-300, (l, xi, mu, ratio, mode)
            if abs(want) >= 1e-300:
                worst = max(worst, float(abs(got / want - 1)))
                checked += 1
    assert checked == 3 * len(DLOG_GRID)
    assert worst <= 1e-10


def test_oracle_l_term_vs_fast():
    for l, mode, mu, ratio in ((1, "te", 0.0, 1.6), (2, "tm", 0.8, 2.0)):
        ref = float(oracle_l_term(l, mu, ratio, mode))
        fast = l_term(ProblemSpec(ratio=ratio, mu=mu, rel_tol=1e-12,
                                  mode=mode), l)
        assert fast == pytest.approx(ref, rel=1e-11)


def test_oracle_digit_strings():
    # The printed forms carry 40 significant digits and parse back to the
    # same mpf at that precision.
    s = mp.nstr(mp_s(3, 2.5), 40)
    e = mp.nstr(mp_e(3, 2.5), 40)
    for text in (s, e):
        assert isinstance(text, str)
        with workdps(40):
            v = mpf(text)
            assert v > 0
    # Leading digits pinned against mpmath's half-integer Bessel functions:
    # sqrt(pi z/2) I_{7/2}(z) and sqrt(2 z/pi) K_{7/2}(z) at z = 2.5.
    assert s.startswith("0.52109717456284739643")
    assert e.startswith("0.55489459069755585534")


def test_oracle_massless_uses_exact_argument():
    # With mu = 0 the propagation argument equals xi with no sqrt round-off;
    # the two mode factors must then agree between mass-aware and massless
    # calls to the last digit.
    # The reference is the oracle's split-form route at 65 working digits,
    # ten more than its own.
    a = oracle_log_delta(2, 1.3, 0.0, 1.7, "tm")
    with workdps(65):
        b = _mp_log1m(_rho_tm_ambient(2, mpf(1.3), mpf(0), mpf(1.7)))
    assert abs(a / b - 1) < mpf(10) ** -38


def test_oracle_te_massive_zero_frequency():
    v = oracle_log_delta(1, 0.0, 1.0, 1.5, "te")
    assert float(v) < 0.0
    assert math.isfinite(float(v))
