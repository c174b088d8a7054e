"""Tests of the mantissa/base-2-scale scalar type."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from procasphere._rules import _ADD_CUTOFF
from procasphere.scaledrep import ScaledReal, _norm

# Values over most of the double range, normal and near its ends.
finite_floats = st.floats(
    min_value=1e-300, max_value=1e300, allow_nan=False, allow_infinity=False)
signs = st.sampled_from((-1.0, 1.0))
# Base-2 log of e^700, about 1009.9.
_LOG2_SPAN = 700.0 / math.log(2.0)


def _assert_normalized(x: ScaledReal):
    if x.mantissa == 0.0:
        assert x.log2_scale == 0.0
        return
    assert 0.5 <= abs(x.mantissa) < 1.0
    assert x.log2_scale == math.floor(x.log2_scale)


@settings(max_examples=300, deadline=None)
@given(finite_floats, signs)
def test_from_float_round_trip(mag, sign):
    x = sign * mag
    sr = ScaledReal.from_float(x)
    _assert_normalized(sr)
    back = sr.to_float()
    # frexp and ldexp are exact, well within the old two-rounding bound.
    assert back == pytest.approx(x, rel=4e-16, abs=0.0)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
def test_from_log_matches_log_abs(lv):
    sr = ScaledReal.from_log(lv)
    _assert_normalized(sr)
    assert sr.sign() == 1.0
    assert sr.log_abs() == pytest.approx(lv, rel=0.0, abs=1e-9 * max(1.0, abs(lv)))


@settings(max_examples=200, deadline=None)
@given(finite_floats, signs, finite_floats, signs)
def test_mul_div_consistency(ma, sa, mb, sb):
    a = ScaledReal.from_float(sa * ma)
    b = ScaledReal.from_float(sb * mb)
    prod = a * b
    _assert_normalized(prod)
    # log|ab| = log|a| + log|b| holds exactly up to mantissa rounding.
    assert prod.log_abs() == pytest.approx(a.log_abs() + b.log_abs(), abs=1e-12)
    assert prod.sign() == a.sign() * b.sign()
    quot = prod / b
    assert quot.to_float() == pytest.approx(a.to_float(), rel=1e-14)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=-_LOG2_SPAN, max_value=_LOG2_SPAN, allow_nan=False),
       st.floats(min_value=-_LOG2_SPAN, max_value=_LOG2_SPAN, allow_nan=False),
       signs, signs)
def test_add_matches_float_in_range(la, lb, sa, sb):
    # la and lb are base-2 logs of the operands, which span e^+-700, out to
    # the ends of the double range.
    a = ScaledReal(*_norm(sa * 2.0 ** (la - math.floor(la)), math.floor(la)))
    b = ScaledReal(*_norm(sb * 2.0 ** (lb - math.floor(lb)), math.floor(lb)))
    got = (a + b).to_float()
    want = a.to_float() + b.to_float()
    # Both routes round at operand scale, so a nearly cancelling pair can
    # disagree at full relative size in the difference; bound the gap by the
    # larger operand, which is all an add can promise.
    scale = max(abs(a.to_float()), abs(b.to_float()), 1e-290)
    assert abs(got - want) <= 1e-13 * scale


def test_zero_identities():
    z = ScaledReal.zero()
    assert z.is_zero
    assert z.sign() == 0.0
    assert z.to_float() == 0.0
    assert z.log_abs() == -math.inf
    x = ScaledReal.from_float(3.5)
    assert (x + z).to_float() == x.to_float()
    assert (z + x).to_float() == x.to_float()
    assert (x * z).is_zero
    assert (z / x).is_zero
    with pytest.raises(ZeroDivisionError):
        x / z


def test_from_float_rejects_non_finite():
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            ScaledReal.from_float(bad)


def test_add_cutoff_drops_negligible_addend():
    big = ScaledReal(0.75, 500.0)
    small = ScaledReal(0.75, 500.0 - _ADD_CUTOFF - 1.0)
    s = big + small
    assert s.mantissa == big.mantissa and s.log2_scale == big.log2_scale
    # Just inside the cutoff the small term must still contribute.
    near = ScaledReal(0.75, 500.0 - 30.0)
    s2 = big + near
    assert s2.mantissa != big.mantissa


def test_subtraction_and_negation():
    a = ScaledReal.from_float(5.0)
    b = ScaledReal.from_float(3.0)
    assert (a - b).to_float() == pytest.approx(2.0, rel=1e-15)
    assert (-a).to_float() == -5.0
    assert abs(ScaledReal.from_float(-7.0)).to_float() == pytest.approx(7.0)
    d = a - a
    assert d.is_zero


def test_scalar_multiplication():
    a = ScaledReal.from_float(2.0)
    assert (3 * a).to_float() == pytest.approx(6.0, rel=1e-15)
    assert (a * -0.5).to_float() == pytest.approx(-1.0, rel=1e-15)
    assert (a * 0.0).is_zero
    assert (a / 4.0).to_float() == pytest.approx(0.5, rel=1e-15)


def test_huge_scale_survives_where_float_overflows():
    # exp(20000) is far beyond double range; the ratio is still exact.
    a = ScaledReal.from_log(20000.0)
    b = ScaledReal.from_log(19990.0)
    r = a / b
    assert r.to_float() == pytest.approx(math.exp(10.0), rel=1e-12)
    assert a.to_float() == math.inf  # documented collapse behavior
    assert ScaledReal.from_log(-20000.0).to_float() == 0.0


def test_comparisons():
    a = ScaledReal.from_float(2.0)
    b = ScaledReal.from_float(3.0)
    assert a < b
    assert a <= b
    assert not (b < a)
    assert ScaledReal.from_float(-3.0) < ScaledReal.from_float(-2.0)
    assert ScaledReal.from_float(-1.0) < ScaledReal.from_float(1.0)
    assert ScaledReal.zero() < a
    assert ScaledReal.from_float(-1.0) < ScaledReal.zero()
    assert a == ScaledReal.from_float(2.0)
    assert a <= ScaledReal.from_float(2.0)


def test_norm_helper_bounds():
    for m, k in ((12345.678, 0.0), (-0.00031, 10.0), (math.e, 0.0), (1.0, -4.0),
                 (0.5, 3.0), (-1e300, -7.0)):
        nm, nk = _norm(m, k)
        assert 0.5 <= abs(nm) < 1.0
        # Value is preserved: compare in log space to dodge overflow.
        assert math.log2(abs(nm)) + nk == pytest.approx(
            math.log2(abs(m)) + k, abs=1e-12)
    assert _norm(0.0, 17.0) == (0.0, 0.0)
