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

The scalar rules the node fill runs (_exp_split, _log1m and the block
rule) and the chain constants and steps come from _rules, their one
Python copy, which the rest of the package imports too; the C twin
follows them in static functions of its own.

Each argument needs e_l from the upward recurrence and the ratio
q_s = s_{l-1}/s_l from one downward Miller run; s_l itself follows from the
Wronskian. Scaled values live only in those chains and in the families
built on them.

Orders come in blocks of 16, {0, 1}, {2, ..., 17}, {18, ..., 33} and so
on. One Miller run started for a block's top order yields the q_s of every
order of the block, and the waves of a block share their nodes, as do
the blocks that spectrum frames alike. So both twins keep a node table for
the mode factors: a node's first call in a block fills its rows, the
chains of every order of the block at that node, _ROW doubles per order,
lowest order first; the other waves of the block read their row. A fill
also keeps the node's upward runs at the order after the block's top, and
a fill of a later block at that node, with lanes at the same arguments,
goes on from there instead of from order 0: with no step to make for the
next block, and 16 steps per lane for each block skipped. Upward is e's
stable direction, so a run that goes on makes the steps of a run from
order 0 on the same doubles. The Miller runs start afresh in each block.
Rows without TM's chains are filled again for a TM call, from order 0.
Here the table is one dict that threads share, from a batch's node tuple
to its node list, and it holds the nodes of one (top, mu, ratio), at most
_NODE_CAP of them; it is cleared for another or when it would pass the
cap, and a clear keeps the runs of the nodes it held (_RUNS). In C it is a
table per thread, keyed by each node's bits, whose records hold their
rows and runs together; it holds the nodes of one (mu, ratio), of any
block, and is cleared for another or when full. Every kept double is the
one a fresh fill makes, by the same steps on the same doubles, so no hit,
miss, run that goes on or clear changes a bit. Each chain function has
one C counterpart: _rules._e_run and _fill are c_e_run and c_fill, and
the table lookup in _nodes is c_rows.

A fill makes its rows in two loops, with a lane per chain: an upward loop
runs the e chains at gamma, gamma * ratio and, for TM with a mass,
xi * ratio, and appends each order's row; a Miller loop runs the q_s
chains at gamma, gamma * ratio and, for TM with a mass, xi, and writes
their columns. Without a mass TM's columns are copies. Only these loops
differ from C's: here the chains run as lanes of one loop, each lane
making exactly the steps of its own run, where C runs each alone
(c_e_rows, c_s_rows); a fill keeps its scales as ints, where C keeps
doubles of the same integer values; and the table finds a batch's node
list by its node tuple and compares its (top, mu, ratio) once, where
c_rows finds and compares each node, and the list holds per node the
products of xi, gamma, ratio and mu that do not depend on l, which C
forms again per node.

One node batch (_nodes) reads its node list from the table, or checks
its nodes and fills their rows into a new one, and forms each node's mode
factors in one loop over the list.

A mode factor is ln(1 - rho) of a round trip between the shells, and
rho < 1 is a plain double: rho_TE for TE, and rho_TE (tr M - rho_TE det M)
for TM, with M the product of the two shells' 2x2 reflection matrices.

The ratio derivative of each mode factor comes from the same chains: ratio
enters only the outer shell's arguments, and the derivative of each
logarithmic derivative d = z f'/f follows from the Riccati equation.

Public surface, the same on both twins: BACKEND, log_delta_nodes and
dlog_delta_nodes. backend assembles the package's kernel from them.
"""

import math
import operator

from ._rules import (_BIG, _BLOCK, _DOWN, _L_END, _STEP, _Z_MAX, _Z_MIN,
                     _block_top, _down, _exp_split, _log1m, _miller_start,
                     _steps, _up)

BACKEND = "pure"

# Node table of the mode factors: a batch's node tuple -> (block, tm,
# node list), the list holding per node its rows, the chains of every
# order of block = (top, mu, ratio) at that node (see _fill), and the
# products that do not depend on l, (rows, xi, g, g * ratio, xi * ratio,
# xi**2, g**2, mu**2 xi**2, -mu**2 xi**2), each formed as the wave loop
# formed it. The waves of a block share their nodes, bisection batches
# included, so each batch after the first on a tuple skips each node's
# checks, fill and products. The table holds the nodes of _NODES_BLOCK
# only: a batch of another block, or one whose nodes would take the table
# past _NODE_CAP nodes, clears it and makes its own block current, so a
# long wave cannot grow it (a batch of more nodes is held alone). _RUNS
# maps a node to the upward runs its last fill left (see _fill), which a
# fill of a later block goes on from if they hold its lanes' arguments; a
# clear keeps only the runs of the nodes the table held and of the
# clearing batch, so _RUNS holds at most the runs of two full tables and
# a batch. An entry serves a batch only if it holds the very block object
# that the batch found current. Each entry and each run is an immutable
# tuple put or read by one dict operation, and a clear replaces _RUNS
# whole, so threads sharing the table never read a half-made entry or one
# of another block, and need no lock; a race at worst repeats a fill or
# starts one from order 0. The rows are _ROW doubles per order in one flat
# tuple, rho_TE's e factor among them already formed (see _fill): a tuple
# of the ten chain values per order cost 0.4 MB more peak memory on the
# benchmark's small-gap batch. An array of doubles cost 1 MB less, but
# each read then makes new floats, which took back a quarter of the
# speed-up.
_NODE_CAP = 256
_ROW = 8
_NODES = {}
_NODES_BLOCK = None
_RUNS = {}
# Out-of-domain calls raise ValueError here and in the compiled twin, with
# the same messages.
_POINT_DOMAIN = (
    "mode factors need 1 <= l < 2**31, mode 0, 1 or 2, a finite mu >= 0, a "
    "finite ratio > 1, a finite xi >= 2**-64 (xi >= 0 in mode 0), "
    "sqrt(xi^2 + mu^2) >= 2**-64 and sqrt(xi^2 + mu^2) * ratio < 2**32")


# -- a fill's chain lanes ---------------------------------------------------

def _block_lo(top):
    # The lowest order of top's block.
    return max(top - _BLOCK + 1, 0)


# A node's fill runs its chains as lanes of its two loops (see _fill). Each
# lane makes exactly the steps, rescales and divisions of its own run, so
# every double is the one a lone run at that argument makes; only the loop
# overhead is shared.

def _pair_steps(cs, z, y, ym, off, zr, yr, ymr, offr):
    # _steps at z and at zr as two lanes of one loop over the factors cs.
    big = _BIG
    for c in cs:
        y, ym = ym + c / z * y, y
        if y > big:
            y, ym, off = y * _DOWN, ym * _DOWN, off + _STEP
        yr, ymr = ymr + c / zr * yr, yr
        if yr > big:
            yr, ymr, offr = yr * _DOWN, ymr * _DOWN, offr + _STEP
    return y, ym, off, yr, ymr, offr


def _trio_steps(cs, z, y, ym, off, zr, yr, ymr, offr, zx, yx, ymx):
    # _steps at z, zr and zx as three lanes of one loop over the factors cs;
    # the lane at zx keeps no offset, as only its ratios are read.
    big = _BIG
    for c in cs:
        y, ym = ym + c / z * y, y
        if y > big:
            y, ym, off = y * _DOWN, ym * _DOWN, off + _STEP
        yr, ymr = ymr + c / zr * yr, yr
        if yr > big:
            yr, ymr, offr = yr * _DOWN, ymr * _DOWN, offr + _STEP
        yx, ymx = ymx + c / zx * yx, yx
        if yx > big:
            yx, ymx = yx * _DOWN, ymx * _DOWN
    return y, ym, off, yr, ymr, offr, yx, ymx


# -- mode determinants -------------------------------------------------------

def _fill(block, xi, g, tm, run):
    """The rows of xi for block = (top, mu, ratio) in the node table, _ROW
    doubles per order of the block, lowest first,
    (aa, nn, q_e(g), q_e(gr), q_s(g), q_s(gr), q_s(x), q_e(xr)) at
    g = gamma_arg(xi, mu), gr = g * ratio, x = xi and xr = xi * ratio,
    and the node's upward state after them. (e(gr)/e(g))**2 is aa * 2**nn:
    aa is the squared ratio of the mantissas and nn twice the gap of the
    scales, as the C twin forms them for rho_TE (nn is an int here, a
    double there). The last two are made only with tm (and read 0.0
    otherwise), since only TM needs them; without a mass x = g and
    xr = gr, so they are copied.

    Two loops make the rows, with a lane per chain: three for TM rows with
    a mass, two otherwise. The upward loop runs e at g, gr (and xr) and
    reads an order, then steps, so its last step, past top, is not read;
    it goes on from run, the state (n, lanes, y, ym, off, ...) that a fill
    of an earlier block left at order n, if run holds these lanes' own
    arguments at an order n <= lo, and from order 0 otherwise. The Miller
    loop runs q_s at g, gr (and x): each lane runs alone from its own
    start down to the lowest start, where all join, and the rows are
    written from top down."""
    top, _, ratio = block
    gr = g * ratio
    xr = xi * ratio
    lo = _block_lo(top)
    three = tm and xi != g
    lanes = g, gr, three and xr
    if not (run and run[0] <= lo and run[1] == lanes):
        m, k = _exp_split(-g)
        mr, kr = _exp_split(-gr)
        mx = _exp_split(-xr)[0] if three else 0.0
        run = 0, lanes, m, m, int(k), mr, mr, int(kr), mx, mx
    n, _, y, ym, off, yr, ymr, offr, yx, ymx = run
    qx = 0.0
    if three:
        y, ym, off, yr, ymr, offr, yx, ymx = _trio_steps(
            _up(n, lo), g, y, ym, off, gr, yr, ymr, offr, xr, yx, ymx)
        qx = ymx / yx
    else:
        y, ym, off, yr, ymr, offr = _pair_steps(_up(n, lo), g, y, ym, off,
                                                gr, yr, ymr, offr)
    frexp = math.frexp
    big = _BIG
    rows = []
    for c in _up(lo, top + 1):
        m, e = frexp(y)
        mr, er = frexp(yr)
        a = mr / m
        rows += (a * a, 2 * ((offr + er) - (off + e)), ym / y, ymr / yr,
                 0.0, 0.0, 0.0, qx)
        y, ym = ym + c / g * y, y
        if y > big:
            y, ym, off = y * _DOWN, ym * _DOWN, off + _STEP
        yr, ymr = ymr + c / gr * yr, yr
        if yr > big:
            yr, ymr, offr = yr * _DOWN, ymr * _DOWN, offr + _STEP
        if three:
            yx, ymx = ymx + c / xr * yx, yx
            if yx > big:
                yx, ymx = yx * _DOWN, ymx * _DOWN
            qx = ymx / yx
    run = top + 1, lanes, y, ym, off, yr, ymr, offr, yx, ymx
    start = _miller_start(top, g)
    startr = _miller_start(top, gr)
    startx = _miller_start(top, xi) if three else min(start, startr)
    low = min(start, startr, startx)
    y = yr = yx = 1.0
    ym = ymr = ymx = 0.0
    if start > low:
        y, ym, _ = _steps(_down(start, low + 1), g, y, ym, 0.0)
    if startr > low:
        yr, ymr, _ = _steps(_down(startr, low + 1), gr, yr, ymr, 0.0)
    if startx > low:
        yx, ymx, _ = _steps(_down(startx, low + 1), xi, yx, ymx, 0.0)
    if three:
        y, ym, _, yr, ymr, _, yx, ymx = _trio_steps(
            _down(low, top + 1), g, y, ym, 0.0, gr, yr, ymr, 0.0, xi, yx, ymx)
    else:
        y, ym, _, yr, ymr, _ = _pair_steps(_down(low, top + 1), g, y, ym, 0.0,
                                           gr, yr, ymr, 0.0)
    p = len(rows) - _ROW + 4
    for c in _down(top, lo):
        y, ym = ym + c / g * y, y
        if y > big:
            y, ym = y * _DOWN, ym * _DOWN
        yr, ymr = ymr + c / gr * yr, yr
        if yr > big:
            yr, ymr = yr * _DOWN, ymr * _DOWN
        rows[p] = y / ym
        rows[p + 1] = yr / ymr
        if three:
            yx, ymx = ymx + c / xi * yx, yx
            if yx > big:
                yx, ymx = yx * _DOWN, ymx * _DOWN
            rows[p + 2] = yx / ymx
        p -= _ROW
    if tm and not three:
        rows[6::_ROW] = rows[4::_ROW]
        rows[7::_ROW] = rows[3::_ROW]
    return tuple(rows), run


def _nodes(l, mu, ratio, mode, xs, deriv):
    """(TE per node, TM per node) at the imaginary-frequency nodes xs:
    ln(1 - rho), or with deriv its derivative in ratio. mode: 0
    transverse-electric only, 1 transverse-magnetic only, 2 both; a mode
    not requested has rho = 0 and reads -0.0. The C twin's c_core_point
    makes the same operations per node."""
    # Chains run at gamma and gamma * ratio, and in TM also at xi and
    # xi * ratio; TE alone takes any xi >= 0. l and mode are indices, as C
    # reads them: a float raises TypeError before any node is read. Every
    # node is checked before any is evaluated, and an empty batch checks
    # nothing else, as in C. xs is read once, so any iterable serves, as
    # in C. A batch that its entry serves (see _NODES) skips the node
    # checks, which its nodes passed for this block and modes; any other
    # batch clears the table if it must before it fills, fills each node
    # from its kept runs if it has them, and puts its entry.
    global _NODES_BLOCK, _RUNS
    l = operator.index(l)
    mode = operator.index(mode)
    xs = tuple(xs)
    tm = mode != 0
    top = _block_top(l)
    m2 = mu * mu
    block = _NODES_BLOCK
    entry = _NODES.get(xs)
    if (entry is None or entry[0] is not block or entry[1] < tm
            or block != (top, mu, ratio)):
        # Not held past here, so that the fills below free its rows.
        entry = None
        xi_min = 0.0 if mode == 0 else _Z_MIN
        sqrt = math.sqrt
        gs = []
        for xi in xs:
            # gamma_arg, inline.
            g = xi if mu == 0.0 else mu if xi == 0.0 else sqrt(xi * xi + m2)
            if not (xi_min <= xi < math.inf and _Z_MIN <= g
                    and g * ratio < _Z_MAX):
                raise ValueError(_POINT_DOMAIN)
            gs.append(g)
        if not xs:
            return (), ()
    if (not 1 <= l < _L_END or mode < 0 or mode > 2
            or not 0.0 <= mu < math.inf or not 1.0 < ratio < math.inf):
        raise ValueError(_POINT_DOMAIN)
    if entry is None:
        # An entry with too few modes goes first; the nodes held are
        # counted over a snapshot, as another thread may put one meanwhile.
        # A clear keeps the runs of those nodes and of the batch's own.
        _NODES.pop(xs, None)
        held = [n[1] for e in list(_NODES.values()) for n in e[2]] + [*xs]
        if block != (top, mu, ratio) or len(held) > _NODE_CAP:
            _RUNS = {x: _RUNS.get(x) for x in held}
            _NODES.clear()
            block = _NODES_BLOCK = (top, mu, ratio)
        nodes = []
        for xi, g in zip(xs, gs):
            x2 = xi * xi
            rows, _RUNS[xi] = _fill(block, xi, g, tm, _RUNS.get(xi))
            nodes.append((rows, xi, g, g * ratio, xi * ratio, x2, g * g,
                          m2 * x2, -m2 * x2))
        entry = _NODES[xs] = (block, tm, tuple(nodes))
    i = _ROW * (l - _block_lo(top))
    j = i + _ROW
    fl = float(l)
    lp = l + 1.0
    L2 = l * lp
    ml = m2 * L2
    log1p = math.log1p
    ldexp = math.ldexp
    te, tmv = [], []
    for rows, xi, g, gr, xr, x2, gg, m2x2, nm2x2 in entry[2]:
        aa, nn, qeg, qer, qsg, qsr, qsx, qex = rows[i:j]
        pg = qeg + qsg
        pr = qer + qsr
        # rho_TE = s(g) e(gr) / (e(g) s(gr)) with s = 1/(e (q_e + q_s)), so
        # (e(gr)/e(g))**2 (pr/pg), with the e factor as aa * 2**nn from the
        # fill. As gr > g, s(g)/s(gr) < 1 (s_l grows) and e(gr)/e(g) < 1
        # (e_l decays), so rho_TE < 1 and ldexp cannot overflow; far apart
        # it underflows to 0.
        rho = ldexp(aa * (pr / pg), nn)
        if deriv:
            # Ratio enters only the outer chains, at gr and xr. As
            # e'/e - s'/s = -(q_e + q_s), d ln rho_TE / d ratio = -g pr.
            drho = -rho * (g * pr)
        if mode != 1:
            if deriv:
                # d ln(1 - rho) = -drho/(1 - rho), nan where _log1m is.
                te.append(-drho / (1.0 - rho) if rho < 1.0 else math.nan)
            else:
                te.append(log1p(-rho) if rho < 0.5 else _log1m(rho))
        if not tm:
            continue

        # Divide the rows of the TM matching matrix by s(x) and e(xr) and
        # its columns by s and e at g and gr, with x = xi and xr = xi *
        # ratio. What is left are four 2x2 blocks of plain doubles, U and V
        # at the inner shell and W and Y at the outer, in d_s = z s'/s =
        # z q_s - l, d_e = z e'/e = -(z q_e + l), t_s = 1 - d_s(x) and
        # t_e = 1 - d_e(xr):
        #   U = [[d_s(g), -mu^2], [L^2, g^2 t_s - x^2 (1 - d_s(g))]],
        #   V is U with d_e(g), W is U with d_s(gr) and t_e, Y is W with
        #   d_e(gr).
        # Then det Q / det Q0 = det(1 - rho_TE M) with M = W^-1 Y V^-1 U,
        # the round trip through both shells' 2x2 reflection matrices. The
        # off-diagonal entries use d_s - d_e = z (q_s + q_e), free of
        # cancellation.
        gts = gg * (lp - xi * qsx)
        gte = gg * (lp + xr * qex)
        dsg = g * qsg - fl
        deg = -(g * qeg + fl)
        dsr = gr * qsr - fl
        der = -(gr * qer + fl)
        u22 = gts - x2 * (1.0 - dsg)
        v22 = gts - x2 * (1.0 - deg)
        w22 = gte - x2 * (1.0 - dsr)
        y22 = gte - x2 * (1.0 - der)
        # det V and det W cannot vanish: d_e < 0 and t_s < 0 give v22 < 0,
        # so det V = d_e v22 + mu^2 L^2 > 0; d_s > 1 and t_e > 0 give
        # w22 > 0, so det W = d_s w22 + mu^2 L^2 > 0.
        dv = deg * v22 + ml
        dw = dsr * w22 + ml
        gp = g * pg
        grp = gr * pr
        a11 = (v22 * dsg + ml) / dv
        a12 = m2x2 * gp / dv
        a21 = -L2 * gp / dv
        a22 = (deg * u22 + ml) / dv
        b11 = (w22 * der + ml) / dw
        b12 = nm2x2 * grp / dw
        b21 = L2 * grp / dw
        b22 = (dsr * y22 + ml) / dw
        tr = (b11 * a11 + b12 * a21) + (b21 * a12 + b22 * a22)
        da = a11 * a22 - a12 * a21
        det = da * (b11 * b22 - b12 * b21)
        # ln det(1 - rho M) = ln(1 - rho (tr M - rho det M))
        rho_tm = rho * (tr - rho * det)
        if not deriv:
            tmv.append(log1p(-rho_tm) if rho_tm < 0.5 else _log1m(rho_tm))
            continue
        # Only W and Y depend on ratio, through d_s(gr), d_e(gr), d_e(xr)
        # and gr pr = d_s(gr) - d_e(gr). Each d obeys the Riccati equation
        # d'(z) = (d - d^2 + z^2 + L^2)/z, and dz/d ratio = z/ratio; for the
        # difference (d_s - d_e)' = p (1 - d_s - d_e) with p = q_s + q_e.
        # With x == g, gg == x2 and ddex == dder, so dy22 is exactly 0, as
        # y22 is up to rounding.
        dex = -(xr * qex + fl)
        grgr = gr * gr
        ddsr = (dsr - dsr * dsr + grgr + L2) / ratio
        dder = (der - der * der + grgr + L2) / ratio
        ddex = (dex - dex * dex + xr * xr + L2) / ratio
        dgp = g * pr * (1.0 - dsr - der)
        dgte = -(gg * ddex)
        dw22 = dgte + x2 * ddsr
        dy22 = dgte + x2 * dder
        ddw = ddsr * w22 + dsr * dw22
        c11 = ((dw22 * der + w22 * dder) - b11 * ddw) / dw
        c12 = (nm2x2 * dgp - b12 * ddw) / dw
        c21 = (L2 * dgp - b21 * ddw) / dw
        c22 = ((ddsr * y22 + dsr * dy22) - b22 * ddw) / dw
        dtr = (c11 * a11 + c12 * a21) + (c21 * a12 + c22 * a22)
        ddet = da * ((c11 * b22 + b11 * c22) - (c12 * b21 + b12 * c21))
        drho_tm = drho * (tr - 2.0 * rho * det) + rho * (dtr - rho * ddet)
        tmv.append(-drho_tm / (1.0 - rho_tm) if rho_tm < 1.0 else math.nan)
    # A mode not requested reads -0.0 at every node.
    none = (-0.0,) * len(xs)
    return tuple(te) or none, tuple(tmv) or none


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
