"""Arbitrary-precision reference routes, deliberately independent of the
fast kernel.

Everything here is recomputed from scratch with mpmath, to a fixed 40
digits: the decaying solution by its exact terminating sum, the growing one
by a positive power series or a guarded two-exponential form, determinants
both by the column-pair split and by a plain 4x4 cofactor expansion, and
the frequency integral by tanh-sinh quadrature at two precisions.
Disagreement between internal routes raises OracleError rather than
returning a number.
"""

from __future__ import annotations

from mpmath import extradps, mp, mpf, workdps

from ..spectrum import _integer, _real


class OracleError(RuntimeError):
    """Internal high-precision routes failed to agree."""


# Accuracy target of returned values; internal passes run with guard
# digits on top.
_DIGITS = 40
# Cap on the growing series, so a bad argument fails loudly instead of
# spinning.
_MAX_TERMS = 200000


# -- scalar building blocks (ambient precision) ------------------------------

def _mp_e_ambient(l, zz):
    # Exact terminating sum: e_l(z) = exp(-z) * sum_k c_k with
    # c_0 = 1, c_{k+1} = c_k (l+k+1)(l-k) / ((k+1) 2z).
    c = mpf(1)
    tot = mpf(1)
    for k in range(l):
        c = c * (l + k + 1) * (l - k) / ((k + 1) * 2 * zz)
        tot += c
    return mp.exp(-zz) * tot


def _mp_s_ambient(l, zz):
    if zz <= max(l, 30):
        # All-positive power series: no cancellation at any precision.
        t = zz ** (l + 1)
        for j in range(l):
            t /= 2 * j + 3
        tot = t
        eps = mpf(10) ** (-(mp.dps + 5))
        n = 0
        while True:
            n += 1
            if n > _MAX_TERMS:
                raise OracleError(
                    f"growing series did not converge for l={l}, z={zz}")
            t = t * zz * zz / (2 * n * (2 * n + 2 * l + 1))
            tot += t
            if t <= tot * eps:
                return tot
    # Two-exponential form; the alternating sum inside loses roughly
    # l^2/(2z) * log10(e) digits at its peak term, guard for that.
    zf = float(zz) if zz < mpf("1e300") else 1e300
    kstar = l * l / (2.0 * zf) + 2.0
    with extradps(20 + int(0.9 * kstar)):
        c = mpf(1)
        alt = mpf(1)
        pos = mpf(1)
        sign = 1
        for k in range(l):
            c = c * (l + k + 1) * (l - k) / ((k + 1) * 2 * zz)
            pos += c
            sign = -sign
            alt += sign * c
        parity = -1 if l % 2 else 1
        val = (mp.exp(zz) * alt - parity * mp.exp(-zz) * pos) / 2
    return val


def _mp_family_ambient(l, zz):
    # (s, e, s', e', s - z s', e - z e') at the ambient precision.
    s = _mp_s_ambient(l, zz)
    e = _mp_e_ambient(l, zz)
    if l == 0:
        sm1 = mp.cosh(zz)
        em1 = mp.exp(-zz)
    else:
        sm1 = _mp_s_ambient(l - 1, zz)
        em1 = _mp_e_ambient(l - 1, zz)
    sp = sm1 - l * s / zz
    ep = -em1 - l * e / zz
    st = s - zz * sp
    et = e - zz * ep
    return s, e, sp, ep, st, et


def _mp_log1m(rho):
    # log(1 - rho) with the subtraction done above the cancellation depth.
    if rho == 0:
        return mpf(0)
    if rho >= 1:
        raise OracleError(f"mode ratio {mp.nstr(rho, 8)} >= 1")
    a = abs(rho)
    if a < mpf(10) ** (-(mp.dps + 10)):
        # |log(1-rho) + rho| <= rho^2, far below working precision.
        return -rho
    gap = max(0, -int(mp.floor(mp.log10(a))))
    with extradps(gap + 10):
        val = mp.log(1 - rho)
    return val


# -- public scalar oracles ----------------------------------------------------

def _at_argument(ambient, l, z):
    # One Riccati-Bessel route at a checked order and argument, with guard
    # digits on top of the returned accuracy.
    _integer("order", l, 0)
    with workdps(_DIGITS + 15):
        zz = mpf(z)
        if not zz > 0:
            raise ValueError(f"argument must be > 0, got {z!r}")
        return ambient(l, zz)


def mp_s(l, z):
    """Growing Riccati-Bessel value as an mpmath float."""
    return _at_argument(_mp_s_ambient, l, z)


def mp_e(l, z):
    """Decaying Riccati-Bessel value as an mpmath float."""
    return _at_argument(_mp_e_ambient, l, z)


def mp_family(l, z):
    """(s, e, s', e', s - z s', e - z e') as mpmath floats."""
    return _at_argument(_mp_family_ambient, l, z)


# -- mode ratios and determinants ---------------------------------------------

def _rho_te_ambient(l, x, m, r):
    g = x if m == 0 else mp.sqrt(x * x + m * m)
    gr_ = g * r
    sg = _mp_s_ambient(l, g)
    eg = _mp_e_ambient(l, g)
    sgr = _mp_s_ambient(l, gr_)
    egr = _mp_e_ambient(l, gr_)
    return (sg * egr) / (eg * sgr)


def _q_entries(l, x, m, r):
    # The 4x4 boundary matrix, rows: field matching at each shell, then
    # potential matching at each shell.
    g = x if m == 0 else mp.sqrt(x * x + m * m)
    gr_ = g * r
    xr_ = x * r
    sg, eg, spg, epg, stg, etg = _mp_family_ambient(l, g)
    sr_, er_, spr, epr, str_, etr = _mp_family_ambient(l, gr_)
    sx, _ex_unused, _spx, _epx, stx, _etx_unused = _mp_family_ambient(l, x)
    _sxr, exr, _spxr, _epxr, _stxr, etx = _mp_family_ambient(l, xr_)
    m2 = m * m
    g2 = g * g
    x2 = x * x
    L2 = l * (l + 1)
    q = [[None] * 4 for _ in range(4)]
    q[0][0] = g * spg
    q[0][1] = g * epg
    q[0][2] = -m2 * sg
    q[0][3] = -m2 * eg
    q[1][0] = gr_ * spr
    q[1][1] = gr_ * epr
    q[1][2] = -m2 * sr_
    q[1][3] = -m2 * er_
    q[2][0] = L2 * sx * sg
    q[2][1] = L2 * sx * eg
    q[2][2] = g2 * sg * stx - x2 * sx * stg
    q[2][3] = g2 * eg * stx - x2 * sx * etg
    q[3][0] = L2 * exr * sr_
    q[3][1] = L2 * exr * er_
    q[3][2] = g2 * sr_ * etx - x2 * exr * str_
    q[3][3] = g2 * er_ * etx - x2 * exr * etr
    return q


def _rho_tm_from_q(q):
    # Column-pair split of the determinant: the decoupled product plus five
    # interaction-scale terms, each free of large cancellation.
    d0a = q[1][0] * q[3][2] - q[1][2] * q[3][0]
    d0b = q[0][1] * q[2][3] - q[0][3] * q[2][1]
    det0 = d0a * d0b
    t1 = -(q[0][0] * q[1][2] - q[0][2] * q[1][0]) * (
        q[2][1] * q[3][3] - q[2][3] * q[3][1])
    t2 = (q[0][0] * q[2][2] - q[0][2] * q[2][0]) * (
        q[1][1] * q[3][3] - q[1][3] * q[3][1])
    t3 = -(q[0][0] * q[3][2] - q[0][2] * q[3][0]) * (
        q[1][1] * q[2][3] - q[1][3] * q[2][1])
    t4 = -(q[1][0] * q[2][2] - q[1][2] * q[2][0]) * (
        q[0][1] * q[3][3] - q[0][3] * q[3][1])
    t5 = -(q[2][0] * q[3][2] - q[2][2] * q[3][0]) * (
        q[0][1] * q[1][3] - q[0][3] * q[1][1])
    num = (t1 + t2) + (t3 + (t4 + t5))
    return -num / det0, det0


def _rho_tm_ambient(l, x, m, r):
    rho, _det0 = _rho_tm_from_q(_q_entries(l, x, m, r))
    return rho


def _det4(q):
    def det3(a):
        return (a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
                - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
                + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0]))

    tot = mpf(0)
    sign = 1
    for col in range(4):
        minor = [[q[row][c] for c in range(4) if c != col]
                 for row in (1, 2, 3)]
        tot += sign * q[0][col] * det3(minor)
        sign = -sign
    return tot


def _validate_point(l, xi, mu, ratio, zero_xi_ok=False):
    _integer("order", l, 1)
    _real("mu", mu, 0)
    _real("ratio", ratio, 1, strict=True)
    # TE with a massive field takes xi = 0: the factor only sees gamma = mu.
    _real("xi", xi, 0, strict=not zero_xi_ok)
    if xi == 0.0 and mu <= 0.0:
        raise ValueError("xi = 0 needs mu > 0")


def oracle_log_delta(l, xi, mu, ratio, mode):
    """ln of the TE or TM mode factor, with an internal route cross-check.

    TE is evaluated twice at different precisions; TM is evaluated by the
    split form and by a plain cofactor determinant run with enough guard
    digits to survive the det/det cancellation. Returns an mpmath float.
    """
    if mode not in ("te", "tm"):
        raise ValueError(f"mode must be 'te' or 'tm', got {mode!r}")
    _validate_point(l, xi, mu, ratio, zero_xi_ok=(mode == "te"))
    tol = mpf(10) ** (-_DIGITS)
    if mode == "te":
        vals = []
        for dps in (_DIGITS + 15, _DIGITS + 30):
            with workdps(dps):
                rho = _rho_te_ambient(l, mpf(xi), mpf(mu), mpf(ratio))
                vals.append(_mp_log1m(rho))
        v1, v2 = vals
        if abs(v1 - v2) > abs(v2) * tol:
            raise OracleError(
                f"TE precisions disagree at l={l}, xi={xi}, mu={mu}, "
                f"ratio={ratio}")
        return v1
    with workdps(_DIGITS + 15):
        rho = _rho_tm_ambient(l, mpf(xi), mpf(mu), mpf(ratio))
        primary = _mp_log1m(rho)
        # Guard digits for the direct route: the full determinant agrees
        # with the decoupled one through the first -log10|rho| digits.
        cancel = 0
        if rho != 0 and abs(rho) < 1:
            cancel = max(0, -int(mp.floor(mp.log10(abs(rho)))))
    with workdps(_DIGITS + 25 + cancel):
        q = _q_entries(l, mpf(xi), mpf(mu), mpf(ratio))
        det_full = _det4(q)
        d0a = q[1][0] * q[3][2] - q[1][2] * q[3][0]
        d0b = q[0][1] * q[2][3] - q[0][3] * q[2][1]
        delta = det_full / (d0a * d0b)
        if delta <= 0:
            raise OracleError(
                f"direct determinant ratio not positive at l={l}, xi={xi}, "
                f"mu={mu}, ratio={ratio}")
        direct = mp.log(delta)
    if abs(primary - direct) > abs(primary) * tol:
        raise OracleError(
            f"TM routes disagree at l={l}, xi={xi}, mu={mu}, ratio={ratio}: "
            f"{mp.nstr(primary, 25)} vs {mp.nstr(direct, 25)}")
    return primary


def oracle_dlog_delta(l, xi, mu, ratio, mode):
    """d ln Delta / d ratio of the TE or TM mode factor at fixed l, xi, mu.

    mpmath's diff of the log factor in ratio, by the routes of
    oracle_log_delta (the split form for TM); diff evaluates them at about
    twice the working precision. It runs at two working precisions, which
    must agree to 40 digits. Returns an mpmath float.
    """
    if mode not in ("te", "tm"):
        raise ValueError(f"mode must be 'te' or 'tm', got {mode!r}")
    _validate_point(l, xi, mu, ratio, zero_xi_ok=(mode == "te"))
    rho_of = _rho_te_ambient if mode == "te" else _rho_tm_ambient
    vals = []
    for dps in (_DIGITS + 15, _DIGITS + 30):
        with workdps(dps):
            x = mpf(xi)
            m = mpf(mu)
            vals.append(mp.diff(lambda r: _mp_log1m(rho_of(l, x, m, r)),
                                mpf(ratio)))
    v1, v2 = vals
    if abs(v1 - v2) > abs(v2) * mpf(10) ** (-_DIGITS):
        raise OracleError(
            f"{mode.upper()} derivative precisions disagree at l={l}, "
            f"xi={xi}, mu={mu}, ratio={ratio}")
    return v1


def oracle_l_term(l, mu, ratio, mode):
    """(2l+1) times the frequency integral of one partial wave's log factor.

    tanh-sinh quadrature run at two precisions; they must agree to 32
    digits. Returns an mpmath float.
    """
    _integer("order", l, 1)
    if mode not in ("te", "tm"):
        raise ValueError(f"mode must be 'te' or 'tm', got {mode!r}")
    _real("mu", mu, 0)
    _real("ratio", ratio, 1, strict=True)

    def run(dps):
        with workdps(dps):
            m = mpf(mu)
            r = mpf(ratio)

            def f(x):
                if mode == "te":
                    rho = _rho_te_ambient(l, x, m, r)
                else:
                    rho = _rho_tm_ambient(l, x, m, r)
                return _mp_log1m(rho)

            d = (45 + 2 * l * mp.log(r)) / (2 * (r - 1))
            x_edge = mp.sqrt(d * (d + 2 * m))
            val = mp.quad(f, [0, x_edge / 64, x_edge / 8, x_edge,
                              8 * x_edge, mp.inf])
            return (2 * l + 1) * val

    v1 = run(_DIGITS)
    v2 = run(_DIGITS + 10)
    if abs(v1 - v2) > abs(v2) * mpf(10) ** (-(_DIGITS - 8)):
        raise OracleError(
            f"quadrature precisions disagree at l={l}, mu={mu}, "
            f"ratio={ratio}, mode={mode}")
    return v2
