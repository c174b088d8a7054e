"""Tests of the modified Riccati-Bessel evaluations.

Hand-checkable values, the Wronskian identity, recurrence self-consistency,
the Miller start rule and the pure chains' doubles are pinned here;
digit-level accuracy against the high-precision oracle lives in
test_oracle.py and test_goldens.py.
"""

import math
import re
import sys
import threading

import pytest

from procasphere import _core_py, _rules, spectrum
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
    # The argument must be finite and > 0. The least positive double
    # passes that rule and leaves the chain range, whose floor 2**-64
    # passes.
    for z in (0.0, -0.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=re.escape(
                f"argument must be finite and > 0, got {z!r}")):
            eval_family(1, z)
    with pytest.raises(ValueError, match=r"2\*\*-64 <= z"):
        eval_family(1, math.nextafter(0.0, math.inf))
    assert eval_family(1, 2.0 ** -64).z == 2.0 ** -64


def test_miller_start_rule():
    # The downward recurrence starts at the smallest order b = ceil(sqrt(l**2
    # + T z)) + 1 that leaves a seed share of at most e**-45, with
    # T = 45/asinh(1), wherever b <= z, and at max(l, z) + 26 otherwise.
    t = _rules._MILLER_T
    assert t == pytest.approx(45.0 / math.asinh(1.0), rel=1e-15)
    assert _rules._miller_start(1, 1e6) <= 7200
    assert _rules._miller_start(1, 2.0 ** 32) < 4.7e5
    for l in (1, 7, 40, 400, 1000, 5000):
        for z in (30.5, 51.0, 51.1, 55.6, 73.0, 80.0, 426.3, 431.0, 1025.9,
                  1031.0, 5100.0, 1e4, 1e6, 2.0 ** 32 - 1.0):
            start = _rules._miller_start(l, z)
            bound = math.ceil(math.sqrt(l * l + t * z)) + 1
            if bound > z:
                assert start == int(max(l, z)) + 26, (l, z)
            else:
                assert start == bound, (l, z)
                assert start * start - l * l >= t * z, (l, z)


# The chain layer transcribed with a plain range loop, forming each odd
# factor as 2.0 * j + 1.0 from the order j, q_e from the normalized pair,
# and every run made afresh: the upward run from order 0, and the Miller
# run from the start of the order's block top (orders {0, 1}, {2..17},
# {18..33}, ... share one). The kernel's chains read their factors from a
# table, make those past its end lazily, go on from the upward run they
# kept at the same argument, and read q_s from the block's one run; every
# double must be the same.
def _ref_steps(js, z, y, ym, off):
    for j in js:
        t = ym + (2.0 * j + 1.0) / z * y
        ym = y
        y = t
        if y > 1e250:
            y *= 2.0 ** -128
            ym *= 2.0 ** -128
            off += 128.0
    return y, ym, off


def _ref_top(l):
    return l + (1 - l) % 16


def _ref_e_pair(l, z):
    m, k = _rules._exp_split(-z)
    b, a, k = _ref_steps(range(l), z, m, m, k)
    return _rules.sr_norm(b, k) + _rules.sr_norm(a, k)


def _ref_chains(l, z):
    em, ek, e0m, e0k = _ref_e_pair(l, z)
    qe = e0m / em * 2.0 ** (e0k - ek)
    start = _rules._miller_start(_ref_top(l), z)
    y, ym, _ = _ref_steps(range(start, l - 1, -1), z, 1.0, 0.0, 0.0)
    qs = y / ym
    sm, sk = _rules.sr_norm(1.0 / (em * (qe + qs)), -ek)
    return em, ek, qe, sm, sk, qs


def _ref_s_pair(l, z):
    sm, sk, qs = _ref_chains(l, z)[3:]
    return (sm, sk) + _rules._sr_scale(sm, sk, qs)


def _ref_family(l, z):
    em, ek, qe, sm, sk, qs = _ref_chains(l, z)
    lz = l / z
    scale = _rules._sr_scale
    return ((sm, sk, em, ek) + scale(sm, sk, qs - lz)
            + scale(em, ek, -(qe + lz))
            + scale(sm, sk, (l + 1.0) - z * qs)
            + scale(em, ek, (l + 1.0) + z * qe))


def test_chains_match_plain_step_loop():
    # Needs no compiler: the pure chains against the transcription above,
    # by repr, with upward runs and Miller starts just below, at and just
    # past the end of the factor table, and far past it. At each argument
    # the orders ascend, so the kernel goes on from its kept upward run:
    # across the block edges 1 | 2 and 17 | 18, up to the table's end, and
    # past it on lazily made factors.
    n = _rules._ODD_N
    points = [(l, z) for l in (0, 1, 15, 16, 17, 18, n - 1, n, n + 1, n + 2,
                                n + 300)
              for z in (0.5, 30.0, 5000.0)]
    # A start past l + 25 orders only from the fallback max(l, z) + 26,
    # which every z below covers at these orders.
    for start in (n - 1, n, n + 1):
        for z in (0.5, 30.0, 1000.0):
            assert _rules._miller_start(start - 26, z) == start, z
            points.append((start - 26, z))
    # Block top 4049, whose fallback start int(z) + 26 falls just below, at
    # and just past the table's end, read at the top and at a lower order.
    for start, z in ((n - 1, 4069.5), (n, 4070.5), (n + 1, 4071.5)):
        assert _rules._miller_start(4049, z) == start, z
        points += [(4040, z), (4049, z)]
    # An upward run that crosses the table's end in one go.
    points += [(1, 7.0), (n + 40, 7.0)]
    points += [(5000, 1e6), (1, 2.0 ** 31)]
    for l, z in points:
        assert repr(_rules.e_pair(l, z)) == repr(_ref_e_pair(l, z)), (l, z)
        assert repr(_rules.s_pair(l, z)) == repr(_ref_s_pair(l, z)), (l, z)
        assert repr(_rules.family(l, z)) == repr(_ref_family(l, z)), (l, z)


# The single-run references of a fill's lanes: one chain run alone per
# argument, read at every order of top's block.
def _e_rows(top, z):
    # q_e = e_{l-1}/e_l, lowest order first: the upward run read at the
    # block's lowest order and after each further step. Both members of the
    # run carry one offset, so q_e is one division.
    lo = max(top - 15, 0)
    y, ym, _ = _rules._e_run(lo, z)
    qes = [ym / y]
    for j in range(lo, top):
        y, ym, _ = _ref_steps((j,), z, y, ym, 0.0)
        qes.append(ym / y)
    return qes


def _s_rows(top, z):
    # q_s = s_{l-1}/s_l, top order first: the Miller run started for top,
    # read after the step of each order of the block.
    start = _rules._miller_start(top, z)
    y, ym, _ = _ref_steps(range(start, top, -1), z, 1.0, 0.0, 0.0)
    qs = []
    for j in range(top, max(top - 15, 0) - 1, -1):
        y, ym, _ = _ref_steps((j,), z, y, ym, 0.0)
        qs.append(y / ym)
    return qs


def _single_lane_rows(top, xi, mu, ratio):
    # A TM node's rows as _fill makes them, from one chain run per argument:
    # e_l from e_pair's upward run to each order, q_e rows lowest order
    # first, q_s rows reversed from top first. A fill keeps its scales as
    # ints, so nn is the int of the gap e_pair's float scales give.
    g = _rules.gamma_arg(xi, mu)
    gr = g * ratio
    qeg, qer, qex = (_e_rows(top, z) for z in (g, gr, xi * ratio))
    qsg, qsr, qsx = (_s_rows(top, z)[::-1] for z in (g, gr, xi))
    rows = []
    for o, l in enumerate(range(max(top - 15, 0), top + 1)):
        egm, egk = _rules.e_pair(l, g)[:2]
        erm, erk = _rules.e_pair(l, gr)[:2]
        a = erm / egm
        rows += [a * a, int(2.0 * (erk - egk)), qeg[o], qer[o], qsg[o],
                 qsr[o], qsx[o], qex[o]]
    return tuple(rows)


def _rescales(z, top, up):
    # Whether a lone run at z rescales before the last order of top's block.
    ms, lo = _rules._miller_start, max(top - 15, 0)
    if up:
        m, k = _rules._exp_split(-z)
        return _ref_steps(range(top), z, m, m, k)[2] > k
    return _ref_steps(range(ms(top, z), lo - 1, -1), z, 1.0, 0.0, 0.0)[2] > 0


def test_paired_lanes_match_single_lane_runs():
    # A fill runs the chains at gamma and gamma * ratio, and for a massive
    # TM node also at xi and xi * ratio, as lanes of its two loops. Each
    # lane must make the doubles of its own run alone, by repr: whichever
    # Miller run starts first, with equal starts, in block {0, 1}, with
    # starts and tops around the end of the factor table, and when one lane
    # rescales and the others do not.
    ms = _rules._miller_start
    n = _rules._ODD_N
    # At top 17 the lower argument starts higher: 55 by the fallback,
    # 55 * 1.1 by the bound.
    assert ms(17, 55.0) == 81 and ms(17, 55.0 * 1.1) == 60
    assert ms(17, 0.5) == ms(17, 0.75) == 43
    assert ms(4049, 4069.5) == n - 1 and ms(4049, 4071.5) == n + 1
    assert n < ms(4065, 5000.0) < ms(4065, 7500.0)
    assert _rescales(1e-15, 17, True)
    assert not _rescales(1e-15 * 1e6, 17, True)
    assert _rescales(1e-5, 17, False)
    assert not _rescales(1e-5 * 100.0, 17, False)
    past = _rules._block_top(n + 4)
    assert past > n
    cases = [(17, 55.0, 0.0, 1.1), (17, 55.0, 3.0, 1.1),
             (17, 0.5, 0.0, 1.5), (1, 2.0, 0.0, 1.3), (1, 2.0, 0.7, 1.3),
             (4049, 4069.5, 0.0, 4071.5 / 4069.5), (4065, 5000.0, 0.0, 1.5),
             (4065, 30.0, 0.5, 1.5), (past, 7.0, 0.0, 1.2),
             (17, 1e-15, 0.0, 1e6), (17, 1e-5, 0.0, 100.0)]
    # Massive TM nodes, whose xi lanes run with the others: the Miller
    # start at xi (first of the three starts) above, between, below and
    # level with those at gamma and gamma * ratio, and past the table's
    # end while both others stay below it.
    mu = math.sqrt(60.5 ** 2 - 55.0 ** 2)
    massive = {(17, 55.0, mu, 1.1): (81, 60, 62),
               (17, 55.0, mu, 2.0): (81, 60, 82),
               (17, 55.0, mu, 118.0 / 60.5): (81, 60, 81),
               (17, 0.5, 100.0, 1.5): (43, 75, 91),
               (17, 0.5, 3.0, 30.0): (43, 43, 72),
               (17, 0.5, 0.7, 1.3): (43, 43, 43),
               (4049, 4071.5, math.sqrt(4090.0 ** 2 - 4071.5 ** 2), 1.5):
                   (n + 1, 4076, 4089),
               (4065, 5000.0, 100.0, 1.5): (n + 2, n + 2, 4113)}
    for (top, xi, mu, ratio), starts in massive.items():
        g = _rules.gamma_arg(xi, mu)
        assert (ms(top, xi), ms(top, g), ms(top, g * ratio)) == starts
    # Of the upward lanes only the one at xi * ratio rescales, and of the
    # Miller lanes only the one at xi.
    for (xi, mu, ratio), up in (((1e-16, 1e-9, 10.0), True),
                                ((1e-5, 1e-3, 2.0), False)):
        g = _rules.gamma_arg(xi, mu)
        x = xi * ratio if up else xi
        assert [_rescales(z, 17, up) for z in (x, g, g * ratio)] == [
            True, False, False], (xi, mu, ratio)
        massive[(17, xi, mu, ratio)] = None
    for top, xi, mu, ratio in cases + list(massive):
        g = _rules.gamma_arg(xi, mu)
        block = (top, mu, ratio)
        got = _core_py._fill(block, xi, g, True, None)[0]
        want = _single_lane_rows(top, xi, mu, ratio)
        assert repr(got) == repr(want), (top, xi, mu, ratio)
        # Without TM's chains the rows read 0.0 in the two TM columns,
        # q_s(x) and q_e(xr), and what the TM rows read everywhere else.
        te_rows = _core_py._fill(block, xi, g, False, None)[0]
        rows = list(got)
        rows[6::8] = rows[7::8] = [0.0] * (len(rows) // 8)
        assert repr(te_rows) == repr(tuple(rows)), block


def test_te_fill_runs_no_lane_at_xi(monkeypatch):
    # A TE fill's Miller lanes run at gamma and gamma * ratio only, also
    # when the run at gamma starts above the one at gamma * ratio (81
    # against 60 at top 17): at xi = 0, where gamma is the mass, a lane at
    # xi would divide by zero. Whatever xi, the rows read what the rows of
    # the same gamma and ratio read outside the two TM columns.
    rows = list(_single_lane_rows(17, 55.0, 0.0, 1.1))
    rows[6::8] = rows[7::8] = [0.0] * (len(rows) // 8)
    zs = []

    def steps(cs, z, *a, _f=_core_py._steps):
        zs.append(z)
        return _f(cs, z, *a)

    monkeypatch.setattr(_core_py, "_steps", steps)
    for xi in (0.0, 1.0):
        del zs[:]
        got = _core_py._fill((17, 55.0, 1.1), xi, 55.0, False, None)[0]
        assert repr(got) == repr(tuple(rows)), xi
        assert zs == [55.0], xi


def test_chain_cache_stays_within_its_cap(monkeypatch):
    # A wave bisected down to 346 massive TM nodes fills more nodes than
    # the pure twin's node table holds; the table is cleared as it fills
    # and never holds more than its cap, counted over the node lists of
    # its entries. The wave is the one a cold table gives, and the one a
    # table without a cap gives.
    monkeypatch.setattr(spectrum, "kernel", _core_py)
    fills, sizes = [], []

    def fill(*args, _fill=_core_py._fill):
        fills.append(args[1])
        return _fill(*args)

    def nodes(*args, _nodes=_core_py._nodes):
        out = _nodes(*args)
        sizes.append(sum(len(e[2]) for e in _core_py._NODES.values()))
        return out

    monkeypatch.setattr(_core_py, "_fill", fill)
    monkeypatch.setattr(_core_py, "_nodes", nodes)
    _core_py._NODES.clear()
    cold = spectrum._l_term_full(3, 0.5, 1.5, 2, 1e-13)
    assert len(fills) == cold[2] > _core_py._NODE_CAP
    assert 0 < max(sizes) <= _core_py._NODE_CAP
    assert repr(spectrum._l_term_full(3, 0.5, 1.5, 2, 1e-13)) == repr(cold)
    monkeypatch.setattr(_core_py, "_NODE_CAP", 10 ** 6)
    _core_py._NODES.clear()
    assert repr(spectrum._l_term_full(3, 0.5, 1.5, 2, 1e-13)) == repr(cold)


def test_rejected_node_batch_leaves_the_node_table():
    # Every node of a batch is checked before any is evaluated: a batch
    # whose last node leaves the chain range raises and fills nothing,
    # although its other nodes, of another block, would clear the table.
    xs = (0.5, 1.0, 2.0)
    _core_py._NODES.clear()
    _core_py.log_delta_nodes(5, 0.5, 1.3, 2, xs)
    before = dict(_core_py._NODES)
    block = _core_py._NODES_BLOCK
    assert set(before) == {xs}
    with pytest.raises(ValueError):
        _core_py.log_delta_nodes(40, 0.5, 1.3, 2, xs + (2.0 ** 32,))
    assert _core_py._NODES_BLOCK == block
    assert _core_py._NODES.keys() == before.keys()
    assert _core_py._NODES[xs] is before[xs]


def _run_threads(run, n, interval):
    # Runs run(i) for i < n in n threads, a switch interval apart, and
    # joins them.
    old = sys.getswitchinterval()
    sys.setswitchinterval(interval)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)


def test_node_table_from_threads_of_other_blocks():
    # Threads share the pure twin's node table, and a node batch clears it
    # when its block is not the table's. Four threads on four blocks (top
    # or mu differ) at the same nodes clear it for one another between a
    # batch's block check and its reads, and fill the same keys; a record
    # serves only the batch of the block it was made for, so every call
    # still gives the serial answer.
    xs = tuple(0.05 * 1.6 ** i for i in range(12))
    jobs = [(l, mu, 1.3, 2, xs)
            for l, mu in ((5, 0.0), (20, 0.0), (5, 0.5), (40, 0.5))]
    expected = []
    for job in jobs:
        _core_py._NODES.clear()
        expected.append(_core_py.log_delta_nodes(*job))
    start = threading.Barrier(len(jobs))
    got = [[] for _ in jobs]

    def run(i):
        start.wait()
        for _ in range(40):
            got[i].append(_core_py.log_delta_nodes(*jobs[i]))

    _run_threads(run, len(jobs), 1e-6)
    for i, want in enumerate(expected):
        assert got[i] == [want] * 40, jobs[i][:2]
    _core_py._NODES.clear()


def test_node_table_cap_from_threads():
    # Four threads on one block fill more nodes between them than the
    # table holds, in batches of two, so a batch counts the nodes held
    # while the others put their entries and clear the table. Every call
    # still gives the serial answer, and none raises.
    per = _core_py._NODE_CAP // 4 + 16
    xs = [0.05 * 1.01 ** n for n in range(4 * per)]
    jobs = [[tuple(xs[j:j + 2]) for j in range(i * per, (i + 1) * per, 2)]
            for i in range(4)]
    expected = []
    for batches in jobs:
        want = []
        for batch in batches:
            _core_py._NODES.clear()
            want.append(_core_py.log_delta_nodes(5, 0.7, 1.3, 2, batch))
        expected.append(want * 3)
    _core_py._NODES.clear()
    got = [[] for _ in jobs]

    def run(i):
        for _ in range(3):
            for batch in jobs[i]:
                got[i].append(_core_py.log_delta_nodes(5, 0.7, 1.3, 2,
                                                       batch))

    _run_threads(run, len(jobs), 1e-6)
    for i, want in enumerate(expected):
        assert got[i] == want, i
    _core_py._NODES.clear()


def test_kept_node_list_serves_as_a_cleared_table(monkeypatch):
    # The waves of a block at one node tuple take the node list that the
    # tuple's entry keeps. Every wave lo..top of the block, in both node
    # entries and every mode, must give what a cleared table gives, also
    # when its TE-only batch came just before on fresh rows and when a
    # batch on other nodes came in between. A cleared table serves nothing
    # from an entry: the next batch fills every node.
    xs = tuple(0.05 * 1.6 ** i for i in range(12))
    other = xs[1:]
    names = ("log_delta_nodes", "dlog_delta_nodes")
    fills = []

    def fill(block, xi, *a, _f=_core_py._fill):
        fills.append(xi)
        return _f(block, xi, *a)

    def call(name, l, mode, nodes):
        return repr(getattr(_core_py, name)(l, 0.7, 1.3, mode, nodes))

    monkeypatch.setattr(_core_py, "_fill", fill)
    order = []
    for l in range(2, 18):
        if l % 2:
            order.append((names[0], l, 2, other))
        order += [(name, l, mode, xs) for mode in (0, 1, 2) for name in names]
    cold = {}
    for c in sorted(set(order), key=lambda c: (len(c[3]), c[:3])):
        _core_py._NODES.clear()
        del fills[:]
        cold[c] = call(*c)
        assert fills == list(c[3]), c
    _core_py._NODES.clear()
    assert [call(*c) for c in order] == [cold[c] for c in order]
    entry = _core_py._NODES[xs]
    call(names[1], 9, 1, xs)
    assert _core_py._NODES[xs] is entry
    _core_py._NODES.clear()


def test_kept_node_list_is_checked_again():
    # A batch that asks for TM after a TE batch checks its nodes again, as
    # TM needs xi >= 2**-64 where TE takes xi = 0; a batch at another
    # ratio does too, where gamma * ratio can leave the chain range.
    xs = (0.0, 0.5, 2.0)
    _core_py._NODES.clear()
    te = _core_py.log_delta_nodes(5, 0.7, 1.3, 0, xs)
    for name in ("log_delta_nodes", "dlog_delta_nodes"):
        for mode in (1, 2):
            with pytest.raises(ValueError):
                getattr(_core_py, name)(5, 0.7, 1.3, mode, xs)
    assert _core_py.log_delta_nodes(5, 0.7, 1.3, 0, xs) == te
    ys = (1.0, 2.0 ** 31)
    _core_py.log_delta_nodes(5, 0.7, 1.3, 2, ys)
    _core_py.log_delta_nodes(6, 0.7, 1.3, 2, ys)
    for ratio in (2.0, 2.5):
        with pytest.raises(ValueError):
            _core_py.log_delta_nodes(6, 0.7, ratio, 2, ys)
    _core_py._NODES.clear()


def _holds(rows):
    # Whether an entry of the node table keeps these rows.
    return any(n[0] is rows for e in list(_core_py._NODES.values())
               for n in e[2])


def test_kept_node_list_holds_no_cleared_record(monkeypatch):
    # Once a batch of another block or a batch past the cap has cleared
    # the table, or a TM batch has filled a TE entry again, no entry, the
    # table's or one a batch still holds, may keep the rows that the table
    # dropped: at each later fill of that batch the rows have no more
    # references than once the batch is done.
    xs = tuple(0.05 * 1.6 ** i for i in range(12))
    long = tuple(40.0 + 0.01 * i for i in range(_core_py._NODE_CAP + 20))
    for mode, other in ((2, (20, xs)), (2, (5, long)), (0, (6, xs))):
        _core_py._NODES.clear()
        _core_py.log_delta_nodes(5, 0.7, 1.3, mode, xs)
        _core_py.log_delta_nodes(6, 0.7, 1.3, mode, xs)
        old = _core_py._NODES[xs][2][0][0]
        counts = []

        def fill(*a, _f=_core_py._fill):
            gone = not _holds(old)
            rows = _f(*a)
            if gone:
                counts.append(sys.getrefcount(old))
            return rows

        monkeypatch.setattr(_core_py, "_fill", fill)
        _core_py.log_delta_nodes(other[0], 0.7, 1.3, 2, other[1])
        monkeypatch.undo()
        assert counts and set(counts) == {sys.getrefcount(old)}, other[0]
        assert not _holds(old)
    _core_py._NODES.clear()
