"""Tests of the modified Riccati-Bessel evaluations.

Hand-checkable values, the Wronskian identity, recurrence self-consistency
and the Miller start rule are pinned here; digit-level accuracy against the
high-precision oracle lives in test_oracle.py and test_goldens.py.
"""

import math

import pytest

from procasphere import _core_py
from procasphere.bessel import eval_family


def test_order_zero_and_one_closed_forms():
    # s_0 = sinh z, e_0 = exp(-z)
    f = eval_family(0, 1.0)
    assert f.s.to_float() == pytest.approx(math.sinh(1.0), rel=1e-15)
    assert f.e.to_float() == pytest.approx(math.exp(-1.0), rel=1e-15)
    # s_1 = cosh z - sinh(z)/z, e_1 = exp(-z) (1 + 1/z)
    z = 1.0
    f = eval_family(1, z)
    assert f.s.to_float() == pytest.approx(
        math.cosh(z) - math.sinh(z) / z, rel=1e-14)
    assert f.e.to_float() == pytest.approx(2.0 / math.e, rel=1e-15)
    # Leading small-argument behavior: s_1(z) ~ z^2/3.
    z = 1e-3
    assert eval_family(1, z).s.to_float() == pytest.approx(
        z * z / 3.0, rel=1e-6)


def test_family_derivative_example():
    f = eval_family(1, 1.0)
    # e_1'(1) = -(e_0 + (1/z) e_1) at z=1 -> -3/e
    assert f.e_prime.to_float() == pytest.approx(-3.0 / math.e, rel=1e-14)
    # tilde combinations are defined as s - z s' and e - z e'
    assert f.s_tilde.to_float() == pytest.approx(
        f.s.to_float() - 1.0 * f.s_prime.to_float(), rel=1e-13)
    assert f.e_tilde.to_float() == pytest.approx(
        f.e.to_float() - 1.0 * f.e_prime.to_float(), rel=1e-13)


def test_wronskian_identity():
    """s e' - s' e = -1 across orders and the full argument range."""
    worst = 0.0
    for l in (0, 1, 2, 5, 13, 40, 150, 600):
        for z in (1e-3, 0.05, 0.7, 3.0, 12.0, 60.0, 400.0, 5000.0):
            f = eval_family(l, z)
            w = f.s * f.e_prime - f.s_prime * f.e
            worst = max(worst, abs(w.to_float() + 1.0))
    assert worst <= 1e-12


def test_three_term_recurrence_consistency():
    # s_{l+1} = s_{l-1} - (2l+1)/z s_l, and the same shape for e with a
    # sign flip; both must hold across chains with different start orders.
    for z in (0.4, 6.0, 55.0, 900.0):
        fams = [eval_family(l, z) for l in range(13)]
        for l in range(1, 11):
            lhs = fams[l + 1].s
            rhs = fams[l - 1].s - ((2.0 * l + 1.0) / z) * fams[l].s
            assert lhs.to_float() == pytest.approx(
                rhs.to_float(), rel=1e-11), (l, z, "s")
            lhs = fams[l + 1].e
            rhs = fams[l - 1].e + ((2.0 * l + 1.0) / z) * fams[l].e
            assert lhs.to_float() == pytest.approx(
                rhs.to_float(), rel=1e-11), (l, z, "e")


def test_derivative_recurrence_consistency():
    # s_l' = s_{l-1} - (l/z) s_l and e_l' = -e_{l-1} - (l/z) e_l.
    for z in (0.9, 20.0, 300.0):
        fams = [eval_family(l, z) for l in range(9)]
        for l in range(1, 9):
            sp = fams[l - 1].s - (l / z) * fams[l].s
            assert fams[l].s_prime.to_float() == pytest.approx(
                sp.to_float(), rel=1e-11)
            ep = -1.0 * fams[l - 1].e - (l / z) * fams[l].e
            assert fams[l].e_prime.to_float() == pytest.approx(
                ep.to_float(), rel=1e-11)


def test_positivity_and_order_monotonicity():
    # At fixed argument the growing solution decreases with order and the
    # decaying one increases relative to it; all values are positive.
    for z in (0.5, 5.0, 80.0):
        fams = [eval_family(l, z) for l in range(21)]
        for l in range(21):
            assert fams[l].s.sign() == 1.0
            assert fams[l].e.sign() == 1.0
        for l in range(20):
            assert fams[l + 1].s < fams[l].s
            assert fams[l].e < fams[l + 1].e


def test_product_s_e_bounded():
    # s_l e_l <= 1/2 everywhere (their product peaks below one half and
    # decays in both directions); a cheap global sanity net.
    for l in (1, 4, 30, 200):
        for z in (0.01, 1.0, float(l) + 0.5, 10.0 * l + 10.0):
            f = eval_family(l, z)
            p = (f.s * f.e).to_float()
            assert 0.0 < p <= 0.5 + 1e-12


def test_huge_argument_log_growth():
    # log s_l ~ z - log 2 and log e_l ~ -z at z >> l, up to the first
    # asymptotic correction l(l+1)/(2z) = 1.5e-4.
    z = 20000.0
    f = eval_family(2, z)
    assert f.s.log_abs() == pytest.approx(z - math.log(2.0), abs=2e-4)
    assert f.e.log_abs() == pytest.approx(-z, abs=2e-4)


def test_validation_errors():
    # A bool is not a real number here: eval_family(1, True) must not run
    # at z = 1.0.
    for l, z in ((-1, 1.0), (True, 1.0), (1.5, 1.0), (1, 0.0), (1, -2.0),
                 (1, math.inf), (2, math.nan), (1, True), (1, "1.0"),
                 (1, None), (1, [1.0])):
        with pytest.raises(ValueError):
            eval_family(l, z)


def test_miller_start_rule():
    # The downward recurrence starts at the smallest order b = ceil(sqrt(l**2
    # + T z)) + 1 that leaves a seed share of at most e**-45, with
    # T = 45/asinh(1), wherever b <= z, and at max(l, z) + 26 otherwise.
    t = _core_py._MILLER_T
    assert t == pytest.approx(45.0 / math.asinh(1.0), rel=1e-15)
    assert _core_py._miller_start(1, 1e6) <= 7200
    assert _core_py._miller_start(1, 2.0 ** 32) < 4.7e5
    for l in (1, 7, 40, 400, 1000, 5000):
        for z in (30.5, 51.0, 51.1, 55.6, 73.0, 80.0, 426.3, 431.0, 1025.9,
                  1031.0, 5100.0, 1e4, 1e6, 2.0 ** 32 - 1.0):
            start = _core_py._miller_start(l, z)
            bound = math.ceil(math.sqrt(l * l + t * z)) + 1
            if bound > z:
                assert start == int(max(l, z)) + 26, (l, z)
            else:
                assert start == bound, (l, z)
                assert start * start - l * l >= t * z, (l, z)
