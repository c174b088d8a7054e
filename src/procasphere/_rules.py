"""The scalar rules that both kernel twins follow: their one Python copy.

Scaled values are (mantissa, scale) pairs meaning m * 2**k with |m| in
[0.5, 1), the range of frexp, and k integer-valued, so renormalising and
aligning are exact and only mantissa products and sums round. Both
kernel twins export sr_norm, sr_mul, sr_add and gamma_arg as these very
objects, and the rest of the package imports its rules from here. The C
twin's chains run static copies (c_norm, c_scale, c_exp_split, c_log1m,
c_block_top and c_gamma) that make the same operations on the same
doubles. This module imports only math.
"""

import math

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
# started for the top (see _core_py._e_run).
_BLOCK = 16


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
