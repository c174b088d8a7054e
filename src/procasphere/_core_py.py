"""Pure-Python kernel: scaled Riccati-Bessel chains and mode determinants.

Reference twin of the compiled core, the hand-written C kernel
``_core.c``.  The two are kept in lockstep: every chain and every mode
factor performs the same floating-point operations on the same doubles in
the same order in both, so every double they produce is bit-identical, and
any edit to an expression here must be mirrored there, in order. How a
loop comes by its operands may differ: a chain step here reads its odd
factor 2j + 1 from a table of doubles, where the C twin converts its loop
counter; both give the same exact double. The flat tuple-passing style (no
classes, no numpy) is deliberate: it transcribes one-to-one into C doubles.

Scaled values travel as (mantissa, scale) pairs meaning m * 2**k with
|m| in [0.5, 1), the range of frexp, and k integer-valued. Renormalising
and aligning are then exact: only mantissa products and sums round, and no
scaled primitive calls log or exp.

Each argument needs e_l from the upward recurrence and the ratio
q_s = s_{l-1}/s_l from one downward Miller run; s_l itself follows from the
Wronskian. Scaled values live only in those chains and in the families
built on them.

Orders come in blocks of 16, {0, 1}, {2, ..., 17}, {18, ..., 33} and so
on, and the waves of a block share their nodes (spectrum frames them
alike), so each twin keeps, per argument, the latest upward run, which a
call at a higher order goes on from, and the q_s of the latest block, all
made by one Miller run started for the block's top order. The twins keep
this cache differently (dicts here, a per-thread table in C), but it holds
only doubles that are functions of (order, argument) and the steps that
made them, so no hit, miss or eviction changes a bit.

A mode factor is ln(1 - rho) of a round trip between the shells, and
rho < 1 is a plain double: rho_TE for TE, and rho_TE (tr M - rho_TE det M)
for TM, with M the product of the two shells' 2x2 reflection matrices.

The ratio derivative of each mode factor comes from the same chains: ratio
enters only the outer shell's arguments, and the derivative of each
logarithmic derivative d = z f'/f follows from the Riccati equation.

Public surface, the same on both twins: sr_norm, sr_mul, sr_add,
gamma_arg, s_pair, e_pair, family, log_delta_point, log_delta_nodes and
dlog_delta_nodes.
"""

import array
import itertools
import math
import struct

BACKEND = "pure"

# Chain rescale: mantissas above _BIG move down by the exact power of two
# 2**-_STEP.
_STEP = 128.0
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
# Exponent gap beyond which an addend is below one ulp of the other term.
_ADD_CUTOFF = 64.0
# Cody-Waite split of ln 2 (frozen bit patterns shared with the compiled
# twin): _LN2_HI and _LN2_MID have 20 significant bits, so n * _LN2_HI and
# n * _LN2_MID are exact for |n| < 2**33, and _LN2_LO holds the next 53.
_INV_LN2 = float.fromhex("0x1.71547652b82fep+0")
_LN2_HI = float.fromhex("0x1.62e42p-1")
_LN2_MID = float.fromhex("0x1.fdf44p-22")
_LN2_LO = float.fromhex("0x1.9ef35793c7673p-41")
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
# The orders with one block top (_block_top) take q_s from one downward run
# started for the top (see _s_ratio).
_BLOCK = 16
# Orders stay below 2**31, which a C long holds on every platform; the
# rescale headroom (2**60) and the exact odd factors (2**52) lie far above.
_L_END = 2 ** 31
# Per-argument chain cache, at most _CACHE_CAP arguments per table: the
# state of the latest upward run, and the q_s of the latest block. Both
# hold only doubles that are functions of (order, argument), so a hit
# returns the bits a fresh run would. Each entry is an immutable tuple put
# or read by one dict operation, and a full table is cleared rather than
# pruned, so threads sharing the tables never read a half-made entry and
# need no lock; a race at worst repeats a run.
_CACHE_CAP = 768
_E_RUNS = {}
_S_BLOCKS = {}
# Out-of-domain calls raise ValueError here and in the compiled twin, with
# the same messages.
_CHAIN_DOMAIN = ("Riccati-Bessel chains need 0 <= l < 2**31 and "
                 "2**-64 <= z < 2**32")


# -- scaled primitives -------------------------------------------------------

def sr_norm(m, k):
    if m == 0.0:
        return 0.0, 0.0
    # math.frexp returns inf and NaN with exponent 0, so they keep their
    # scale; C leaves that exponent unspecified, so the twin tests for them.
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
    # 2.0 ** -d is exact. A NaN gap (non-finite scales) takes the early
    # exit, so the C twin never converts it to an integer.
    if k1 >= k2:
        d = k1 - k2
        if not d <= _ADD_CUTOFF:
            return m1, k1
        return sr_norm(m1 + m2 * 2.0 ** -d, k1)
    d = k2 - k1
    if not d <= _ADD_CUTOFF:
        return m2, k2
    return sr_norm(m2 + m1 * 2.0 ** -d, k2)


def _exp_split(x):
    # exp(x) as (exp(r), n) with x = n ln 2 + r and n = floor(x / ln 2).
    # For |n| < 2**33 the products n * _LN2_HI and n * _LN2_MID are exact,
    # and each subtraction rounds at most at the scale of r, so r is good
    # to about an ulp, not to the |x| * eps of a one-part reduction.
    n = math.floor(x * _INV_LN2)
    r = ((x - n * _LN2_HI) - n * _LN2_MID) - n * _LN2_LO
    return math.exp(r), float(n)


# -- modified Riccati-Bessel chains ------------------------------------------

def gamma_arg(xi, mu):
    """sqrt(xi^2 + mu^2), exact in the single-parameter limits."""
    if mu == 0.0:
        return xi
    if xi == 0.0:
        return mu
    return math.sqrt(xi * xi + mu * mu)


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


def _keep(table, z, value):
    if len(table) >= _CACHE_CAP:
        table.clear()
    table[z] = value


def _block_top(l):
    """The top order of l's block of _BLOCK orders: {0, 1} has top 1,
    {2, ..., 17} has 17, and so on. Spectrum frames each wave at it too."""
    return l + (1 - l) % _BLOCK


def _s_ratio(l, z):
    # q_s = s_{l-1}/s_l from the run of l's block, started at
    # _miller_start(top, z). That start serves every order of the block:
    # L**2 - l**2 >= L**2 - top**2 >= _MILLER_T * z, and a fallback start
    # max(top, z) + 26 leaves 26 steps at orders >= z above any l. After
    # the step of order j the run holds y = s_{j-1} and ym = s_j at one
    # offset, so q_s of order j is y/ym there, read after the steps that a
    # run stopped at j makes. Block tops lie _BLOCK apart, so a kept block
    # is l's when its top is at most _BLOCK - 1 orders above l.
    block = _S_BLOCKS.get(z)
    if block is None or not 0 <= block[0] - l < _BLOCK:
        top = _block_top(l)
        y, ym, off = _steps(_down(_miller_start(top, z), top + 1), z,
                            1.0, 0.0, 0.0)
        qs = array.array("d")
        for c in _down(top, max(top - _BLOCK + 1, 0)):
            y, ym, off = _steps((c,), z, y, ym, off)
            qs.append(y / ym)
        block = (top, qs)
        _keep(_S_BLOCKS, z, block)
    return block[1][block[0] - l]


def _check_chain(l, z):
    if not 0 <= l < _L_END or not _Z_MIN <= z < _Z_MAX:
        raise ValueError(_CHAIN_DOMAIN)


def _e_run(l, z):
    # (e_l, e_{l-1}, offset): the upward run from e_{-1} = e_0 = exp(-z),
    # both values unnormalized at the one offset. A run kept at this
    # argument up to an order n <= l goes on from there with the steps a
    # run from order 0 makes, so the result is the same bits.
    run = _E_RUNS.get(z)
    if run is None or run[0] > l:
        m, k = _exp_split(-z)
        run = (0, m, m, k)
    n, y, ym, off = run
    if n < l:
        y, ym, off = _steps(_up(n, l), z, y, ym, off)
        _keep(_E_RUNS, z, (l, y, ym, off))
    return y, ym, off


def _e_ratio(l, z):
    # (e_l scaled, q_e = e_{l-1}/e_l); both members of the run carry one
    # offset, so q_e is one division.
    b, a, k = _e_run(l, z)
    em, ek = sr_norm(b, k)
    return em, ek, a / b


def _chains(l, z):
    # (e_l scaled, q_e, s_l scaled, q_s) at z, after the domain check. The
    # Wronskian s_l e_{l-1} + s_{l-1} e_l = 1 gives s_l = 1/(e_l (q_e + q_s)),
    # a sum of positives.
    _check_chain(l, z)
    em, ek, qe = _e_ratio(l, z)
    qs = _s_ratio(l, z)
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


# -- mode determinants -------------------------------------------------------

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


def _core_point(l, xi, mu, ratio, mode, deriv=False):
    """(rho_TE, rho_TM, d rho_TE, d rho_TM) at one imaginary-frequency
    node, the last two the derivatives in ratio when deriv is true and 0.0
    otherwise.

    mode: 0 transverse-electric only, 1 transverse-magnetic only, 2 both.
    A mode not requested reads 0.0.
    """
    g = gamma_arg(xi, mu)
    gr = g * ratio
    egm, egk, qeg = _e_ratio(l, g)
    erm, erk, qer = _e_ratio(l, gr)
    qsg = _s_ratio(l, g)
    qsr = _s_ratio(l, gr)
    pg = qeg + qsg
    pr = qer + qsr

    # rho_TE = s(g) e(gr) / (e(g) s(gr)) with s = 1/(e (q_e + q_s)). As
    # gr > g, s(g)/s(gr) < 1 (s_l grows) and e(gr)/e(g) < 1 (e_l decays),
    # so rho_TE < 1 and ldexp cannot overflow; far apart it underflows
    # to 0.
    a = erm / egm
    rho = math.ldexp(a * a * (pr / pg), int(2.0 * (erk - egk)))
    # Ratio enters only the outer chains, at gr and xr. As e'/e - s'/s =
    # -(q_e + q_s), d ln rho_TE / d ratio = -g pr.
    drho = -rho * (g * pr) if deriv else 0.0
    if mode == 0:
        return rho, 0.0, drho, 0.0

    x = xi
    xr = xi * ratio
    if x == g:
        # Massless (or a mass too small to move gamma): x*ratio == g*ratio,
        # so the vacuum-side chains are the ones above.
        qsx = qsg
        qex = qer
    else:
        qsx = _s_ratio(l, x)
        qex = _e_ratio(l, xr)[2]

    # Divide the rows of the TM matching matrix by s(x) and e(xr) and its
    # columns by s and e at g and gr. What is left are four 2x2 blocks of
    # plain doubles, U and V at the inner shell and W and Y at the outer,
    # in d_s = z s'/s = z q_s - l, d_e = z e'/e = -(z q_e + l),
    # t_s = 1 - d_s(x) and t_e = 1 - d_e(xr):
    #   U = [[d_s(g), -mu^2], [L^2, g^2 t_s - x^2 (1 - d_s(g))]],
    #   V is U with d_e(g), W is U with d_s(gr) and t_e, Y is W with d_e(gr).
    # Then det Q / det Q0 = det(1 - rho_TE M) with M = W^-1 Y V^-1 U, the
    # round trip through both shells' 2x2 reflection matrices. The
    # off-diagonal entries use d_s - d_e = z (q_s + q_e), free of
    # cancellation.
    L2 = l * (l + 1.0)
    m2 = mu * mu
    x2 = x * x
    ml = m2 * L2
    gts = g * g * ((l + 1.0) - x * qsx)
    gte = g * g * ((l + 1.0) + xr * qex)
    dsg = g * qsg - l
    deg = -(g * qeg + l)
    dsr = gr * qsr - l
    der = -(gr * qer + l)
    u22 = gts - x2 * (1.0 - dsg)
    v22 = gts - x2 * (1.0 - deg)
    w22 = gte - x2 * (1.0 - dsr)
    y22 = gte - x2 * (1.0 - der)
    # det V and det W cannot vanish: d_e < 0 and t_s < 0 give v22 < 0, so
    # det V = d_e v22 + mu^2 L^2 > 0; d_s > 1 and t_e > 0 give w22 > 0, so
    # det W = d_s w22 + mu^2 L^2 > 0.
    dv = deg * v22 + ml
    dw = dsr * w22 + ml
    a11 = (v22 * dsg + ml) / dv
    a12 = m2 * x2 * (g * pg) / dv
    a21 = -L2 * (g * pg) / dv
    a22 = (deg * u22 + ml) / dv
    b11 = (w22 * der + ml) / dw
    b12 = -m2 * x2 * (gr * pr) / dw
    b21 = L2 * (gr * pr) / dw
    b22 = (dsr * y22 + ml) / dw
    tr = (b11 * a11 + b12 * a21) + (b21 * a12 + b22 * a22)
    det = (a11 * a22 - a12 * a21) * (b11 * b22 - b12 * b21)
    # ln det(1 - rho M) = ln(1 - rho (tr M - rho det M))
    rho_tm = rho * (tr - rho * det)
    drho_tm = 0.0
    if deriv:
        # Only W and Y depend on ratio, through d_s(gr), d_e(gr), d_e(xr)
        # and gr pr = d_s(gr) - d_e(gr). Each d obeys the Riccati equation
        # d'(z) = (d - d^2 + z^2 + L^2)/z, and dz/d ratio = z/ratio; for the
        # difference (d_s - d_e)' = p (1 - d_s - d_e) with p = q_s + q_e.
        # With x == g, gg == x2 and ddex == dder, so dy22 is exactly 0, as
        # y22 is up to rounding.
        gg = g * g
        dex = -(xr * qex + l)
        ddsr = (dsr - dsr * dsr + gr * gr + L2) / ratio
        dder = (der - der * der + gr * gr + L2) / ratio
        ddex = (dex - dex * dex + xr * xr + L2) / ratio
        dgp = g * pr * (1.0 - dsr - der)
        dgte = -(gg * ddex)
        dw22 = dgte + x2 * ddsr
        dy22 = dgte + x2 * dder
        ddw = ddsr * w22 + dsr * dw22
        c11 = ((dw22 * der + w22 * dder) - b11 * ddw) / dw
        c12 = (-m2 * x2 * dgp - b12 * ddw) / dw
        c21 = (L2 * dgp - b21 * ddw) / dw
        c22 = ((ddsr * y22 + dsr * dy22) - b22 * ddw) / dw
        dtr = (c11 * a11 + c12 * a21) + (c21 * a12 + c22 * a22)
        ddet = (a11 * a22 - a12 * a21) * ((c11 * b22 + b11 * c22)
                                          - (c12 * b21 + b12 * c21))
        drho_tm = drho * (tr - 2.0 * rho * det) + rho * (dtr - rho * ddet)
    if mode == 1:
        return 0.0, rho_tm, 0.0, drho_tm
    return rho, rho_tm, drho, drho_tm


def _check_point(l, xi, mu, ratio, mode):
    # Chains run at gamma and gamma * ratio, and in TM also at xi and
    # xi * ratio; TE alone takes any xi >= 0.
    xi_min = 0.0 if mode == 0 else _Z_MIN
    g = gamma_arg(xi, mu)
    if (not 1 <= l < _L_END or mode < 0 or mode > 2
            or not xi_min <= xi < math.inf
            or not 0.0 <= mu < math.inf or not 1.0 < ratio < math.inf
            or not _Z_MIN <= g or not g * ratio < _Z_MAX):
        raise ValueError(
            "mode factors need 1 <= l < 2**31, mode 0, 1 or 2, a finite "
            "mu >= 0, a finite ratio > 1, a finite xi >= 2**-64 (xi >= 0 in "
            "mode 0), sqrt(xi^2 + mu^2) >= 2**-64 and sqrt(xi^2 + mu^2) * "
            "ratio < 2**32")


def _dlog1m(rho, drho):
    """d ln(1 - rho) = -drho/(1 - rho); nan where _log1m is."""
    if not rho < 1.0:
        return math.nan
    return -drho / (1.0 - rho)


def log_delta_point(l, xi, mu, ratio, mode):
    _check_point(l, xi, mu, ratio, mode)
    r = _core_point(l, xi, mu, ratio, mode)
    return _log1m(r[0]) + _log1m(r[1])


def _nodes(l, mu, ratio, mode, xs, deriv):
    for x in xs:
        _check_point(l, x, mu, ratio, mode)
    rs = [_core_point(l, x, mu, ratio, mode, deriv) for x in xs]
    if deriv:
        return (tuple(_dlog1m(r[0], r[2]) for r in rs),
                tuple(_dlog1m(r[1], r[3]) for r in rs))
    return (tuple(_log1m(r[0]) for r in rs), tuple(_log1m(r[1]) for r in rs))


def log_delta_nodes(l, mu, ratio, mode, xs):
    """(ln Delta_TE per node, ln Delta_TM per node) as two tuples. A mode
    not requested has rho = 0 and reads -0.0, the additive identity, so
    te + tm is the requested value bit for bit in every mode. Every node
    is checked before any is evaluated."""
    return _nodes(l, mu, ratio, mode, xs, False)


def dlog_delta_nodes(l, mu, ratio, mode, xs):
    """(d ln Delta_TE / d ratio per node, d ln Delta_TM / d ratio per node)
    at fixed l, xi and mu, shaped and checked as log_delta_nodes; a mode
    not requested reads -0.0 here too."""
    return _nodes(l, mu, ratio, mode, xs, True)
