"""Pure-Python kernel: scaled Riccati-Bessel chains and mode determinants.

Reference twin of the compiled core, the hand-written C kernel
``_core.c``.  The two are kept in operation-for-operation lockstep so every
double they produce is bit-identical; any edit here must be mirrored there,
in order.  The flat tuple-passing style (no classes, no numpy) is
deliberate: it transcribes one-to-one into C doubles.

Scaled values travel as (mantissa, scale) pairs meaning m * 2**k with
|m| in [0.5, 1), the range of frexp, and k integer-valued. Renormalising
and aligning are then exact: only mantissa products and sums round, and no
scaled primitive calls log or exp.
"""

import math

BACKEND = "pure"

# Chain rescale: mantissas above _BIG move down by the exact power of two
# 2**-_STEP.
_STEP = 128.0
_DOWN = 2.0 ** -_STEP
_BIG = 1e250
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
# Out-of-domain calls raise ValueError here and in the compiled twin, with
# the same messages.
_CHAIN_DOMAIN = ("Riccati-Bessel chains need l >= 0 and "
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


def sr_div(m1, k1, m2, k2):
    if m1 == 0.0:
        return 0.0, 0.0
    return sr_norm(m1 / m2, k1 - k2)


def sr_scale(m, k, c):
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


def _s0_pair(z):
    # (s_0, s_{-1}) = (sinh z, cosh z) scaled: the closed forms up to 30;
    # above, exp(z) enters through _exp_split, so nothing overflows and the
    # mantissa never pays the z*eps penalty of an exp(log(..)) round-trip.
    if z > 30.0:
        em2 = math.exp(-2.0 * z)
        f, k0 = _exp_split(z)
        am, ak = sr_norm(f * (0.5 * (1.0 - em2)), k0)
        bm, bk = sr_norm(f * (0.5 * (1.0 + em2)), k0)
        return am, ak, bm, bk
    am, ak = sr_norm(math.sinh(z), 0.0)
    bm, bk = sr_norm(math.cosh(z), 0.0)
    return am, ak, bm, bk


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


def _steps(js, z, y, ym, off):
    # The three-term step t = ym + (2j + 1)/z * y of both chains, over the
    # orders js: y is the newest value, ym the one before, and a y above
    # _BIG moves both down by 2**-_STEP and adds _STEP to the offset.
    for j in js:
        t = ym + (2.0 * j + 1.0) / z * y
        ym = y
        y = t
        if y > _BIG:
            y *= _DOWN
            ym *= _DOWN
            off += _STEP
    return y, ym, off


def _s_miller(l, z):
    # Downward recurrence from _miller_start in three runs, so that no step
    # compares orders: down to s_l, one step to s_{l-1}, down to s_0, then
    # normalized against s_0 from _s0_pair.
    y, ym, off = _steps(range(_miller_start(l, z), l, -1), z, 1.0, 0.0, 0.0)
    out1m = y
    out1k = off
    y, ym, off = _steps((l,), z, y, ym, off)
    out0m = y
    out0k = off
    y, ym, off = _steps(range(l - 1, 0, -1), z, y, ym, off)
    m0, k0 = _s0_pair(z)[:2]
    am, ak = sr_norm(out1m / y * m0, k0 + (out1k - off))
    bm, bk = sr_norm(out0m / y * m0, k0 + (out0k - off))
    return am, ak, bm, bk


def s_pair(l, z):
    """(s_l, s_{l-1}) scaled; s_{-1} = cosh z. Requires l >= 0 and
    2**-64 <= z < 2**32."""
    if l < 0 or not _Z_MIN <= z < _Z_MAX:
        raise ValueError(_CHAIN_DOMAIN)
    if l == 0:
        return _s0_pair(z)
    return _s_miller(l, z)


def e_pair(l, z):
    """(e_l, e_{l-1}) scaled; e_{-1} = e_0 = exp(-z). Upward is the stable
    direction for the decaying solution, so no normalization pass is needed."""
    if l < 0 or not _Z_MIN <= z < _Z_MAX:
        raise ValueError(_CHAIN_DOMAIN)
    m, k = _exp_split(-z)
    b, a, k = _steps(range(l), z, m, m, k)
    am, ak = sr_norm(b, k)
    bm, bk = sr_norm(a, k)
    return am, ak, bm, bk


def _derivs(l, z, s1m, s1k, s0m, s0k, e1m, e1k, e0m, e0k):
    # (s', e', s - z s', e - z e') at z, flattened, from the chain pairs
    # (s_l, s_{l-1}) and (e_l, e_{l-1}) at z.
    lz = l / z
    tm_, tk_ = sr_scale(s1m, s1k, lz)
    spm, spk = sr_add(s0m, s0k, -tm_, tk_)
    tm_, tk_ = sr_scale(e1m, e1k, lz)
    epm, epk = sr_add(e0m, e0k, tm_, tk_)
    am, ak = sr_scale(s1m, s1k, l + 1.0)
    bm, bk = sr_scale(s0m, s0k, z)
    stm, stk = sr_add(am, ak, -bm, bk)
    am, ak = sr_scale(e1m, e1k, l + 1.0)
    bm, bk = sr_scale(e0m, e0k, z)
    etm, etk = sr_add(am, ak, bm, bk)
    return spm, spk, -epm, epk, stm, stk, etm, etk


def family(l, z):
    """(s, e, s', e', s - z s', e - z e') as six scaled pairs, flattened."""
    s1m, s1k, s0m, s0k = s_pair(l, z)
    e1m, e1k, e0m, e0k = e_pair(l, z)
    return (s1m, s1k, e1m, e1k) + _derivs(
        l, z, s1m, s1k, s0m, s0k, e1m, e1k, e0m, e0k)


# -- mode determinants -------------------------------------------------------

def _two(am, ak, bm, bk, cm, ck, dm, dk):
    # 2x2 determinant a*d - b*c of scaled entries.
    pm, pk = sr_mul(am, ak, dm, dk)
    qm, qk = sr_mul(bm, bk, cm, ck)
    return sr_add(pm, pk, -qm, qk)


def _bracket(g2, x2, am, ak, bm, bk, cm, ck, dm, dk):
    # g2 * a*b - x2 * c*d of scaled entries, the shape of the four
    # potential-matching entries of the TM matrix.
    pm, pk = sr_mul(am, ak, bm, bk)
    pm, pk = sr_scale(pm, pk, g2)
    qm, qk = sr_mul(cm, ck, dm, dk)
    qm, qk = sr_scale(qm, qk, x2)
    return sr_add(pm, pk, -qm, qk)


def log1m_scaled(m, k):
    """ln(1 - rho) for scaled rho; -0.0 when rho underflows, nan when
    rho >= 1 or rho is not finite (callers turn that into a domain
    failure)."""
    if m == 0.0:
        return -0.0
    if not math.isfinite(m):
        return math.nan
    m, k = sr_norm(m, k)
    if k < 0.0:
        # |rho| < 1/2: form it (2.0 ** k is exact) and let log1p keep the
        # digits of a small rho.
        v = m * 2.0 ** k
        if v == 0.0:
            return -0.0
        return math.log1p(-v)
    dm, dk = sr_add(0.5, 1.0, -m, k)
    if dm <= 0.0:
        return math.nan
    # dk ln 2 by the split of _exp_split: dk * _LN2_HI is exact.
    return dk * _LN2_HI + (dk * _LN2_MID + (dk * _LN2_LO + math.log(dm)))


def _core_point(l, xi, mu, ratio, mode):
    """Scaled rho for the requested modes at one imaginary-frequency node.

    mode: 0 transverse-electric only, 1 transverse-magnetic only, 2 both.
    Returns (te_m, te_k, tm_m, tm_k); unused slots are zero.
    """
    g = gamma_arg(xi, mu)
    gr = g * ratio
    sgm, sgk, sg0m, sg0k = s_pair(l, g)
    egm, egk, eg0m, eg0k = e_pair(l, g)
    srm, srk, sr0m, sr0k = s_pair(l, gr)
    erm, erk, er0m, er0k = e_pair(l, gr)

    te_m = te_k = 0.0
    if mode != 1:
        nm, nk = sr_mul(sgm, sgk, erm, erk)
        dm, dk = sr_mul(egm, egk, srm, srk)
        te_m, te_k = sr_div(nm, nk, dm, dk)
    if mode == 0:
        return te_m, te_k, 0.0, 0.0

    x = xi
    xr = xi * ratio

    # primes and s - z s' / e - z e' combinations at g and g*ratio
    spgm, spgk, epgm, epgk, stgm, stgk, etgm, etgk = _derivs(
        l, g, sgm, sgk, sg0m, sg0k, egm, egk, eg0m, eg0k)
    sprm, sprk, eprm, eprk, strm, strk, etrm, etrk = _derivs(
        l, gr, srm, srk, sr0m, sr0k, erm, erk, er0m, er0k)

    if x == g:
        # Massless (or a mass too small to move gamma): x*ratio == g*ratio,
        # so the vacuum-side chains and combinations are the ones above.
        sxm, sxk = sgm, sgk
        exm, exk = erm, erk
        stxm, stxk = stgm, stgk
        etxm, etxk = etrm, etrk
    else:
        sxm, sxk, sx0m, sx0k = s_pair(l, x)
        exm, exk, ex0m, ex0k = e_pair(l, xr)
        # s - z s' at x and e - z e' at x*ratio (the only vacuum-side
        # combos used)
        am, ak = sr_scale(sxm, sxk, l + 1.0)
        bm, bk = sr_scale(sx0m, sx0k, x)
        stxm, stxk = sr_add(am, ak, -bm, bk)
        am, ak = sr_scale(exm, exk, l + 1.0)
        bm, bk = sr_scale(ex0m, ex0k, xr)
        etxm, etxk = sr_add(am, ak, bm, bk)

    L2 = l * (l + 1.0)
    m2 = mu * mu
    g2 = g * g
    x2 = x * x

    q11m, q11k = sr_scale(spgm, spgk, g)
    q12m, q12k = sr_scale(epgm, epgk, g)
    q13m, q13k = sr_scale(sgm, sgk, -m2)
    q14m, q14k = sr_scale(egm, egk, -m2)
    q21m, q21k = sr_scale(sprm, sprk, gr)
    q22m, q22k = sr_scale(eprm, eprk, gr)
    q23m, q23k = sr_scale(srm, srk, -m2)
    q24m, q24k = sr_scale(erm, erk, -m2)
    am, ak = sr_mul(sxm, sxk, sgm, sgk)
    q31m, q31k = sr_scale(am, ak, L2)
    am, ak = sr_mul(sxm, sxk, egm, egk)
    q32m, q32k = sr_scale(am, ak, L2)
    q33m, q33k = _bracket(g2, x2, sgm, sgk, stxm, stxk, sxm, sxk, stgm, stgk)
    q34m, q34k = _bracket(g2, x2, egm, egk, stxm, stxk, sxm, sxk, etgm, etgk)
    am, ak = sr_mul(exm, exk, srm, srk)
    q41m, q41k = sr_scale(am, ak, L2)
    am, ak = sr_mul(exm, exk, erm, erk)
    q42m, q42k = sr_scale(am, ak, L2)
    q43m, q43k = _bracket(g2, x2, srm, srk, etxm, etxk, exm, exk, strm, strk)
    q44m, q44k = _bracket(g2, x2, erm, erk, etxm, etxk, exm, exk, etrm, etrk)

    # Laplace split by odd/even column pairs: six surviving products, one of
    # which is the decoupled determinant; the other five all sit at the
    # interaction scale, so no large cancellation ever forms.
    d0am, d0ak = _two(q21m, q21k, q23m, q23k, q41m, q41k, q43m, q43k)
    d0bm, d0bk = _two(q12m, q12k, q14m, q14k, q32m, q32k, q34m, q34k)
    det0m, det0k = sr_mul(d0am, d0ak, d0bm, d0bk)

    am, ak = _two(q11m, q11k, q13m, q13k, q21m, q21k, q23m, q23k)
    bm, bk = _two(q32m, q32k, q34m, q34k, q42m, q42k, q44m, q44k)
    t1m, t1k = sr_mul(am, ak, bm, bk)
    t1m = -t1m
    am, ak = _two(q11m, q11k, q13m, q13k, q31m, q31k, q33m, q33k)
    bm, bk = _two(q22m, q22k, q24m, q24k, q42m, q42k, q44m, q44k)
    t2m, t2k = sr_mul(am, ak, bm, bk)
    am, ak = _two(q11m, q11k, q13m, q13k, q41m, q41k, q43m, q43k)
    bm, bk = _two(q22m, q22k, q24m, q24k, q32m, q32k, q34m, q34k)
    t3m, t3k = sr_mul(am, ak, bm, bk)
    t3m = -t3m
    am, ak = _two(q21m, q21k, q23m, q23k, q31m, q31k, q33m, q33k)
    bm, bk = _two(q12m, q12k, q14m, q14k, q42m, q42k, q44m, q44k)
    t4m, t4k = sr_mul(am, ak, bm, bk)
    t4m = -t4m
    am, ak = _two(q31m, q31k, q33m, q33k, q41m, q41k, q43m, q43k)
    bm, bk = _two(q12m, q12k, q14m, q14k, q22m, q22k, q24m, q24k)
    t5m, t5k = sr_mul(am, ak, bm, bk)
    t5m = -t5m

    am, ak = sr_add(t1m, t1k, t2m, t2k)
    bm, bk = sr_add(t4m, t4k, t5m, t5k)
    bm, bk = sr_add(t3m, t3k, bm, bk)
    num_m, num_k = sr_add(am, ak, bm, bk)
    tm_m, tm_k = sr_div(-num_m, num_k, det0m, det0k)
    return te_m, te_k, tm_m, tm_k


def _check_point(l, xi, mu, ratio, mode):
    # Chains run at gamma and gamma * ratio, and in TM also at xi and
    # xi * ratio; TE alone takes any xi >= 0.
    xi_min = 0.0 if mode == 0 else _Z_MIN
    g = gamma_arg(xi, mu)
    if (l < 1 or mode < 0 or mode > 2 or not xi_min <= xi < math.inf
            or not 0.0 <= mu < math.inf or not 1.0 < ratio < math.inf
            or not _Z_MIN <= g or not g * ratio < _Z_MAX):
        raise ValueError(
            "mode factors need l >= 1, mode 0, 1 or 2, a finite mu >= 0, a "
            "finite ratio > 1, a finite xi >= 2**-64 (xi >= 0 in mode 0), "
            "sqrt(xi^2 + mu^2) >= 2**-64 and sqrt(xi^2 + mu^2) * ratio "
            "< 2**32")


def log_delta_point(l, xi, mu, ratio, mode):
    _check_point(l, xi, mu, ratio, mode)
    te_m, te_k, tm_m, tm_k = _core_point(l, xi, mu, ratio, mode)
    return log1m_scaled(te_m, te_k) + log1m_scaled(tm_m, tm_k)


def log_delta_nodes(l, mu, ratio, mode, xs):
    """(ln Delta_TE per node, ln Delta_TM per node) as two tuples. A mode
    not requested has rho = 0 and reads -0.0, the additive identity, so
    te + tm is the requested value bit for bit in every mode. Every node
    is checked before any is evaluated."""
    for x in xs:
        _check_point(l, x, mu, ratio, mode)
    rhos = [_core_point(l, x, mu, ratio, mode) for x in xs]
    return (tuple(log1m_scaled(r[0], r[1]) for r in rhos),
            tuple(log1m_scaled(r[2], r[3]) for r in rhos))


def rho_tm_massless(l, xi, ratio):
    """Conducting-boundary ratio s'(x)e'(xr)/(e'(x)s'(xr)), scaled."""
    # The domain of a massless TM node: with mu = 0, gamma is xi.
    _check_point(l, xi, 0.0, ratio, 1)
    xr = xi * ratio
    spm, spk, epm, epk = _derivs(l, xi, *s_pair(l, xi), *e_pair(l, xi))[:4]
    sprm, sprk, eprm, eprk = _derivs(
        l, xr, *s_pair(l, xr), *e_pair(l, xr))[:4]
    nm, nk = sr_mul(spm, spk, eprm, eprk)
    dm, dk = sr_mul(epm, epk, sprm, sprk)
    return sr_div(nm, nk, dm, dk)
