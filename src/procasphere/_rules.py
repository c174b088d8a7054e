"""The scalar rules and lone chains of both kernel twins: one Python copy.

Scaled values are (mantissa, scale) pairs meaning m * 2**k with |m| in
[0.5, 1), the range of frexp, and k integer-valued, so renormalising and
aligning are exact and only mantissa products and sums round. The
package imports its rules and lone chains from here, and neither kernel
twin exports any of them: bessel calls family, and backend.kernel hands
out sr_norm, sr_mul, sr_add, gamma_arg, family, s_pair and e_pair as
these very objects. The lone chains (family, s_pair and e_pair) run one
argument's upward run and Miller run afresh; the pure twin's node fill
runs the same steps as lanes (_core_py._fill), and the C twin's node fill
runs static copies (c_norm, c_exp_split, c_miller_start, c_steps,
c_e_run, c_log1m, c_block_top and c_gamma) that make the same operations
on the same doubles. This module imports only itertools, math and struct.
"""

import itertools
import math
import struct

# Exponent gap beyond which an addend is below one ulp of the other term.
_ADD_CUTOFF = 64.0
# Cody-Waite split of ln 2 (frozen bit patterns shared with the compiled
# twin): _LN2_HI and _LN2_MID have 20 significant bits, so n * _LN2_HI and
# n * _LN2_MID are exact for |n| < 2**33, and _LN2_LO holds the next 53.
_INV_LN2 = float.fromhex("0x1.71547652b82fep+0")
_LN2_HI = float.fromhex("0x1.62e42p-1")
_LN2_MID = float.fromhex("0x1.fdf44p-22")
_LN2_LO = float.fromhex("0x1.9ef35793c7673p-41")
# The orders with one block top (_block_top) take q_s from one downward run
# started for the top (see _chains).
_BLOCK = 16

# Chain rescale: mantissas above _BIG move down by the exact power of two
# 2**-_STEP. An offset that starts as a float stays one; a fill's start as
# an int (see _core_py._fill).
_STEP = 128
_DOWN = 2.0 ** -_STEP
_BIG = 1e250
# The odd factors 2j + 1 of the chain step as doubles, for j < _ODD_N, in
# a read-only buffer. A chain iterates over a slice of its memoryview,
# which copies nothing; past the table it makes each further factor with
# float() as it goes. Every factor is the exact double 2.0 * j + 1.0
# (j < 2**52).
_ODD_N = 4096
_ODD = memoryview(
    struct.pack(f"{_ODD_N}d", *range(1, 2 * _ODD_N, 2))).cast("d")
# Chain arguments stay in [_Z_MIN, _Z_MAX). Above, the ln 2 split's
# products stop being exact (past 2**33 ln 2 ~ 5.95e9); a Miller chain at
# z = 2**32 starts near order 4.7e5 (see _miller_start), so that limit is
# set by the split, not by the recurrence. Below, one step's factor
# (2j + 1)/z could pass 2**128 and overflow between two rescales; at
# z >= 2**-64 it stays below that for every order below 2**60.
_Z_MIN = 2.0 ** -64
_Z_MAX = 2.0 ** 32
# Miller start constant 45 / asinh(1) (frozen bit pattern shared with the
# compiled twin): a start L with L**2 - l**2 >= _MILLER_T * z leaves a seed
# share of at most e**-45 at order l.
_MILLER_T = float.fromhex("0x1.98740f2ce783bp+5")
# Orders stay below 2**31, which a C long holds on every platform; the
# rescale headroom (2**60) and the exact odd factors (2**52) lie far above.
_L_END = 2 ** 31
# Out-of-range chain calls raise ValueError with this message.
_CHAIN_DOMAIN = ("Riccati-Bessel chains need 0 <= l < 2**31 and "
                 "2**-64 <= z < 2**32")


def sr_norm(m, k):
    if m == 0.0:
        return 0.0, 0.0
    # math.frexp returns inf and NaN with exponent 0: they keep their scale.
    m, e = math.frexp(m)
    return m, k + e


def sr_mul(m1, k1, m2, k2):
    if m1 == 0.0 or m2 == 0.0:
        return 0.0, 0.0
    return sr_norm(m1 * m2, k1 + k2)


def _sr_scale(m, k, c):
    if m == 0.0 or c == 0.0:
        return 0.0, 0.0
    return sr_norm(m * c, k)


def sr_add(m1, k1, m2, k2):
    if m1 == 0.0:
        return m2, k2
    if m2 == 0.0:
        return m1, k1
    # 2.0 ** -d is exact; a NaN gap (non-finite scales) takes the early exit.
    if k1 >= k2:
        d = k1 - k2
        if not d <= _ADD_CUTOFF:
            return m1, k1
        return sr_norm(m1 + m2 * 2.0 ** -d, k1)
    d = k2 - k1
    if not d <= _ADD_CUTOFF:
        return m2, k2
    return sr_norm(m2 + m1 * 2.0 ** -d, k2)


def gamma_arg(xi, mu):
    """sqrt(xi^2 + mu^2), exact in the single-parameter limits."""
    if mu == 0.0:
        return xi
    if xi == 0.0:
        return mu
    return math.sqrt(xi * xi + mu * mu)


def _exp_split(x):
    # exp(x) as (exp(r), n) with x = n ln 2 + r and n = floor(x / ln 2).
    # For |n| < 2**33 the products n * _LN2_HI and n * _LN2_MID are exact,
    # and each subtraction rounds at most at the scale of r, so r is good
    # to about an ulp, not to the |x| * eps of a one-part reduction.
    n = math.floor(x * _INV_LN2)
    r = ((x - n * _LN2_HI) - n * _LN2_MID) - n * _LN2_LO
    return math.exp(r), float(n)


def _log1m(rho):
    """ln(1 - rho); nan when rho >= 1 or rho is not a number (callers turn
    that into a domain failure)."""
    if rho < 0.5:
        return math.log1p(-rho)
    if not rho < 1.0:
        return math.nan
    # 1 - rho is exact from 1/2 up, and k ln 2 goes by the split of
    # _exp_split: k * _LN2_HI is exact.
    m, k = math.frexp(1.0 - rho)
    return k * _LN2_HI + (k * _LN2_MID + (k * _LN2_LO + math.log(m)))


def _block_top(l):
    """The top order of l's block of _BLOCK orders: {0, 1} has top 1,
    {2, ..., 17} has 17, and so on. Spectrum frames each wave at it too."""
    return l + (1 - l) % _BLOCK


# -- lone modified Riccati-Bessel chains ------------------------------------

def _miller_start(l, z):
    # Start order of the downward recurrence for s_l(z). From the uniform
    # asymptotics of I_nu and K_nu (DLMF 10.41), the seed's share at order
    # l after a start at L is about exp(-2 * integral_l^L asinh(nu/z) dnu).
    # Up to nu = z, asinh(nu/z) >= asinh(1) * nu/z, so L**2 - l**2 >= T z
    # with T = 45/asinh(1) keeps that share below e**-45 ~ 3e-20. Past z
    # the inequality fails, so a bound above z falls back to max(l, z) + 26:
    # for nu >= z, asinh(nu/z) >= asinh(1), so those 26 steps alone give
    # e**-45.8, at z < l as well as at z > l.
    b = math.ceil(math.sqrt(float(l) * float(l) + _MILLER_T * z)) + 1
    if b <= z:
        return b
    return int(max(float(l), z)) + 26


def _steps(cs, z, y, ym, off):
    # The three-term step t = ym + c/z * y of both chains, over the odd
    # factors c = 2j + 1 in cs: y is the newest value, ym the one before,
    # and a y above _BIG moves both down by 2**-_STEP and adds _STEP to
    # the offset.
    big = _BIG
    for c in cs:
        y, ym = ym + c / z * y, y
        if y > big:
            y *= _DOWN
            ym *= _DOWN
            off += _STEP
    return y, ym, off


def _up(n, l):
    # The factors 2j + 1 for j = n, n + 1, ..., l - 1.
    if l <= _ODD_N:
        return _ODD[n:l]
    return itertools.chain(
        _ODD[n:], map(float, range(2 * max(n, _ODD_N) + 1, 2 * l, 2)))


def _down(start, l):
    # The factors 2j + 1 for j = start, start - 1, ..., l.
    if start < _ODD_N:
        return _ODD[l:start + 1][::-1]
    far = map(float, range(2 * start + 1, 2 * max(l, _ODD_N), -2))
    return itertools.chain(far, _ODD[l:][::-1])


# An upward e run goes from order 0 up, or a fill's from the order where
# an earlier fill at its node left it (see _core_py._fill). A downward
# Miller run for q_s starts at _miller_start(top, z) for the top order of a
# block, and that start serves every order of the block: L**2 - l**2 >=
# L**2 - top**2 >= _MILLER_T * z, and a fallback start max(top, z) + 26
# leaves 26 steps at orders >= z above any l. After the step of order j a
# Miller run holds y = s_{j-1} and ym = s_j at one offset, so q_s of order
# j is y/ym there; only the ratio is read, so the offset is not kept.

def _e_run(l, z):
    # The upward run from e_{-1} = e_0 = exp(-z) to order l: (e_l, e_{l-1},
    # offset), both members at the one offset.
    m, k = _exp_split(-z)
    return _steps(_up(0, l), z, m, m, k)


def _check_chain(l, z):
    if not 0 <= l < _L_END or not _Z_MIN <= z < _Z_MAX:
        raise ValueError(_CHAIN_DOMAIN)


def _chains(l, z):
    # (e_l scaled, q_e, s_l scaled, q_s) at z, after the domain check: e_l
    # and q_e from one upward run to l, q_s from the Miller run of l's block
    # top stopped at l; e_l > 0, so frexp is sr_norm. The Wronskian
    # s_l e_{l-1} + s_{l-1} e_l = 1 gives s_l = 1/(e_l (q_e + q_s)), a sum of
    # positives.
    _check_chain(l, z)
    y, ym, off = _e_run(l, z)
    em, e = math.frexp(y)
    ek = off + e
    qe = ym / y
    y, ym, _ = _steps(_down(_miller_start(_block_top(l), z), l), z, 1.0, 0.0,
                      0.0)
    qs = y / ym
    sm, sk = sr_norm(1.0 / (em * (qe + qs)), -ek)
    return em, ek, qe, sm, sk, qs


def s_pair(l, z):
    """(s_l, s_{l-1}) scaled; s_{-1} = cosh z. Requires l >= 0 and
    2**-64 <= z < 2**32."""
    sm, sk, qs = _chains(l, z)[3:]
    return (sm, sk) + _sr_scale(sm, sk, qs)


def e_pair(l, z):
    """(e_l, e_{l-1}) scaled; e_{-1} = e_0 = exp(-z). Upward is the stable
    direction for the decaying solution, so no normalization pass is needed."""
    _check_chain(l, z)
    b, a, k = _e_run(l, z)
    return sr_norm(b, k) + sr_norm(a, k)


def family(l, z):
    """(s, e, s', e', s - z s', e - z e') as six scaled pairs, flattened."""
    em, ek, qe, sm, sk, qs = _chains(l, z)
    lz = l / z
    return ((sm, sk, em, ek) + _sr_scale(sm, sk, qs - lz)
            + _sr_scale(em, ek, -(qe + lz))
            + _sr_scale(sm, sk, (l + 1.0) - z * qs)
            + _sr_scale(em, ek, (l + 1.0) + z * qe))
