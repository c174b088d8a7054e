"""Tests of the quadrature, the partial-wave sum, and the sweep tables."""

import errno
import json
import math
import os
import re
import threading
from dataclasses import replace

import pytest

from procasphere import _workers, spectrum
from procasphere.spectrum import (
    ConvergenceError,
    EnergyResult,
    ProblemSpec,
    SweepRow,
    _gk15_combine,
    _l_term_full,
    _panel_nodes,
    default_fd_step,
    energy,
    force,
    l_term,
    sweep_mass,
    sweep_ratio,
)


# The doubles next to the bounds 1 and 0 of the real rule.
ABOVE_ONE = math.nextafter(1.0, math.inf)
TINY = math.nextafter(0.0, math.inf)


def test_problem_spec_validation():
    with pytest.raises(ValueError):
        ProblemSpec(ratio=1.0)
    with pytest.raises(ValueError):
        ProblemSpec(ratio=math.inf)
    with pytest.raises(ValueError):
        ProblemSpec(ratio=1.5, mu=-0.1)
    with pytest.raises(ValueError):
        ProblemSpec(ratio=1.5, rel_tol=0.0)
    with pytest.raises(ValueError):
        ProblemSpec(ratio=1.5, rel_tol=0.5)  # above the 1e-2 ceiling
    with pytest.raises(ValueError):
        ProblemSpec(ratio=1.5, l_cap=0)
    with pytest.raises(ValueError):
        ProblemSpec(ratio=1.5, l_cap=2.0)
    with pytest.raises(ValueError):
        ProblemSpec(ratio=1.5, mode="tem")
    for bad in (None, "1.5", True, [1.5]):
        for field in ("ratio", "mu", "rel_tol"):
            with pytest.raises(ValueError):
                ProblemSpec(**{"ratio": 1.5, field: bad})
    assert ProblemSpec(ratio=1.5, mode="TE").mode == "te"
    # The real rule at its bounds: ratio finite and > 1, mu finite and >= 0.
    for ratio in (1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=re.escape(
                f"ratio must be finite and > 1, got {ratio!r}")):
            ProblemSpec(ratio=ratio)
    for mu in (-TINY, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=re.escape(
                f"mu must be finite and >= 0, got {mu!r}")):
            ProblemSpec(ratio=1.5, mu=mu)
    assert ProblemSpec(ratio=ABOVE_ONE).ratio == ABOVE_ONE
    for mu in (0.0, -0.0, TINY):
        assert repr(ProblemSpec(ratio=1.5, mu=mu).mu) == repr(mu)


def test_gk15_polynomial_exactness():
    """The embedded rule is exact to degree 13, the full rule to degree 22."""
    a, b = 0.3, 1.7
    xs, h = _panel_nodes(a, b)
    assert len(xs) == 15
    assert xs[14] == pytest.approx(0.5 * (a + b))
    assert len(set(xs)) == 15
    for d in range(23):
        fv = [x ** d for x in xs]
        val, err = _gk15_combine(fv, h)
        exact = (b ** (d + 1) - a ** (d + 1)) / (d + 1)
        assert val == pytest.approx(exact, rel=1e-13), d
        if d <= 13:
            # Both rules integrate this exactly: the error estimate is pure
            # rounding noise.
            assert err <= 1e-12 * abs(exact), d
    # Degree 23 breaks the full rule: the quadrature must notice.
    fv = [x ** 23 for x in xs]
    val, err = _gk15_combine(fv, h)
    exact = (b ** 24 - a ** 24) / 24.0
    assert abs(val - exact) > 0.0
    assert err > 0.0


def test_l_term_validation():
    spec = ProblemSpec(ratio=1.5)
    for bad in (0, -1, True, 1.0):
        with pytest.raises(ValueError):
            l_term(spec, bad)


def test_l_term_sign_and_decay():
    spec = ProblemSpec(ratio=1.5, mu=0.3, rel_tol=1e-6)
    terms = {}
    for mode in ("te", "tm"):
        ms = ProblemSpec(ratio=1.5, mu=0.3, rel_tol=1e-6, mode=mode)
        vals = [l_term(ms, l) for l in (1, 2, 4, 8)]
        assert all(v < 0.0 for v in vals)
        assert all(abs(b) < abs(a) for a, b in zip(vals, vals[1:]))
        terms[mode] = vals
    total = [l_term(ProblemSpec(ratio=1.5, mu=0.3, rel_tol=1e-6, mode="total"), l)
             for l in (1, 2, 4, 8)]
    for t, te, tm in zip(total, terms["te"], terms["tm"]):
        assert t == pytest.approx(te + tm, rel=1e-9)


def test_l_term_mass_suppression():
    # gamma >= mu puts a hard exp(-2 mu (ratio-1)) lid on the integrand;
    # at mu = 200 and ratio = 1.5 that is e^-200, far below any rounding.
    spec = ProblemSpec(ratio=1.5, mu=200.0, rel_tol=1e-6)
    assert abs(l_term(spec, 1)) < 1e-30


@pytest.mark.parametrize("rel_tol", [1e-5, 1e-10])
@pytest.mark.parametrize("ratio", [1.03, 1.15, 2.0])
def test_coarse_start_stays_resolved(ratio, rel_tol):
    # Each wave starts from five panels. Against the same wave solved 1e4
    # times tighter, its error result must bound the difference, and the
    # difference must meet the wave's own target, rel_tol / 10.
    refined = 0
    for mu in (0.0, 5.0, 50.0):
        for l in (1, 10, 100):
            value, err, evals = _l_term_full(l, mu, ratio, 2, rel_tol)[:3]
            ref, ref_err, ref_evals = _l_term_full(
                l, mu, ratio, 2, rel_tol * 1e-4)[:3]
            diff = abs(value - ref)
            assert diff <= err, (mu, l)
            assert diff <= rel_tol / 10.0 * abs(value), (mu, l)
            # Both error results meet their own targets, which the start's
            # 76 evaluations alone do not: bisection must place the rest.
            assert err <= rel_tol / 10.0 * abs(value), (mu, l)
            assert ref_err <= rel_tol * 1e-5 * abs(ref), (mu, l)
            refined += ref_evals > 76
    assert refined > 0


def test_short_frame_fails_fast():
    # At rel_tol 1e-19 the tail past the frame (2.1e-20 of this wave) exceeds
    # rel_tol/100: the wave raises after its five start panels and the tail
    # point, 76 evaluations, instead of refining into the budget.
    with pytest.raises(ConvergenceError, match="frame") as exc_info:
        _l_term_full(1, 0.0, 1.5, 2, 1e-19)
    assert exc_info.value.evals == 76
    assert exc_info.value.l_reached == 1
    with pytest.raises(ConvergenceError, match="frame") as exc_info:
        energy(ProblemSpec(ratio=1.5, rel_tol=1e-19))
    assert exc_info.value.evals == 76


def test_exhausted_budget_raises(monkeypatch):
    # A TE factor that oscillates 1e9 times faster than it decays keeps the
    # panels' Gauss-Kronrod errors above the target however far they are
    # bisected: the first wave raises once its evaluations reach the
    # budget of 40,000, with the partial sum its panels reached.
    class Stub:
        @staticmethod
        def log_delta_nodes(l, mu, ratio, mode, xs):
            te = tuple(-math.exp(-x) * (1.0 + 0.5 * math.sin(1e9 * x))
                       for x in xs)
            return te, (-0.0,) * len(te)

    monkeypatch.setattr(spectrum, "kernel", Stub)
    with pytest.raises(ConvergenceError) as exc_info:
        energy(ProblemSpec(1.5, rel_tol=1e-6, mode="te"))
    error = exc_info.value
    assert str(error) == "quadrature budget exhausted at l=1"
    assert error.evals >= 40000
    assert error.l_reached == 1
    assert math.isfinite(error.partial_sum)


def test_waves_of_a_block_share_their_frame(monkeypatch):
    # Blocks of 16 orders, {0, 1}, {2, ..., 17}, {18, ..., 33}, are the
    # kernels' chain blocks. Every wave evaluates its five start panels and
    # its tail node X, the frame edge at its block's top, as its first
    # kernel batch: 75 panel nodes, then X. The panels cover [0, E], with E
    # the power of two at or above X, graded toward 0 at the edges
    # E * (2**j - 1)/31. So the waves of a block share all 76 nodes, and
    # blocks whose X round up to one E share all 75 panel nodes. _rules
    # holds the one Python copy of the block rule, which the pure twin and
    # spectrum both use.
    from procasphere import _rules
    assert _rules._BLOCK == 16
    assert [_rules._block_top(l) for l in (0, 1, 2, 17, 18, 33, 34)] == [
        1, 1, 17, 17, 33, 33, 49]
    kernel = spectrum.kernel
    batches = []

    class Recorder:
        @staticmethod
        def log_delta_nodes(l, mu, ratio, mode, xs):
            batches.append(tuple(xs))
            return kernel.log_delta_nodes(l, mu, ratio, mode, xs)

    monkeypatch.setattr(spectrum, "kernel", Recorder)
    mu, ratio = 0.5, 1.05
    starts = {}
    for l in (1, 2, 17, 18, 33, 34, 49, 50, 65):
        batches.clear()
        _l_term_full(l, mu, ratio, 2, 1e-4)
        xs = starts[l] = batches[0]
        top = _rules._block_top(l)
        d = (45.0 + 2.0 * top * math.log(ratio)) / (2.0 * (ratio - 1.0))
        X = math.sqrt(d * (d + 2.0 * mu))
        E = 2.0 ** math.ceil(math.log2(X))
        assert len(xs) == 76 and xs[-1] == X <= E < 2.0 * X
        assert max(xs) < E
        for p in range(5):
            a, b = (E * (2 ** j - 1) / 31.0 for j in (p, p + 1))
            assert xs[15 * p:15 * p + 15] == tuple(_panel_nodes(a, b)[0])
    assert starts[2] == starts[17] and starts[18] == starts[33]
    assert starts[34] == starts[49] and starts[50] == starts[65]
    assert len({starts[l][:75] for l in (1, 2, 18, 34)}) == 1
    assert len({starts[l][75] for l in (1, 2, 18, 34)}) == 4
    assert starts[34][:75] != starts[50][:75]


@pytest.mark.parametrize("at", [3, 4 * 15 + 7, 75],
                         ids=["panel-1", "panel-4", "tail"])
def test_nan_at_a_start_node_names_it(monkeypatch, at):
    # A wave's start is one kernel batch, checked for NaN by one sum. A NaN
    # at any of its nodes, in the first panel, in the fourth or at the tail
    # node X, raises ConvergenceError naming that node; a batch without
    # one passes.
    kernel = spectrum.kernel
    bad = []

    class Stub:
        @staticmethod
        def log_delta_nodes(l, mu, ratio, mode, xs):
            te, tm = kernel.log_delta_nodes(l, mu, ratio, mode, xs)
            if bad and len(xs) == 76:
                te = te[:at] + (math.nan,) + te[at + 1:]
                bad.append(xs[at])
            return te, tm

    want = _l_term_full(20, 0.5, 1.3, 2, 1e-6)
    monkeypatch.setattr(spectrum, "kernel", Stub)
    assert repr(_l_term_full(20, 0.5, 1.3, 2, 1e-6)) == repr(want)
    bad.append(None)
    with pytest.raises(ConvergenceError) as exc_info:
        _l_term_full(20, 0.5, 1.3, 2, 1e-6)
    assert str(exc_info.value) == (
        f"mode factor not finite at l=20, xi_hat={bad[-1]!r}")
    assert exc_info.value.l_reached == 20


def test_energy_bookkeeping():
    res = energy(ProblemSpec(ratio=1.5, mu=0.5, rel_tol=1e-7, mode="te"))
    assert res.value < 0.0
    assert res.abs_error_estimate > 0.0
    assert res.abs_error_estimate < 1e-5 * abs(res.value)
    assert res.l_used >= 5
    assert res.integrand_evals > 15 * res.l_used
    ls = [l for l, _ in res.per_l_terms]
    assert ls == list(range(1, res.l_used + 1))
    naive = sum(t for _, t in res.per_l_terms)
    assert res.value == pytest.approx(naive, rel=1e-12)


def test_energy_mode_split():
    te = energy(ProblemSpec(ratio=1.5, mu=0.5, rel_tol=1e-7, mode="te"))
    tm = energy(ProblemSpec(ratio=1.5, mu=0.5, rel_tol=1e-7, mode="tm"))
    tot = energy(ProblemSpec(ratio=1.5, mu=0.5, rel_tol=1e-7, mode="total"))
    budget = (te.abs_error_estimate + tm.abs_error_estimate
              + tot.abs_error_estimate)
    assert abs(tot.value - (te.value + tm.value)) <= 5.0 * budget
    # The joint pass's shares agree with the single-mode runs...
    assert abs(tot.te - te.value) <= 5.0 * budget
    assert abs(tot.tm - tm.value) <= 5.0 * budget
    assert abs(tot.value - (tot.te + tot.tm)) <= 5.0 * budget
    # ...and a single-mode run reports its own value as its share, bit for
    # bit, and no share for the other polarization.
    assert te.te == te.value and te.tm is None
    assert tm.tm == tm.value and tm.te is None


def test_energy_error_honesty():
    loose = energy(ProblemSpec(ratio=1.6, mu=0.2, rel_tol=1e-5))
    tight = energy(ProblemSpec(ratio=1.6, mu=0.2, rel_tol=1e-9))
    assert abs(loose.value - tight.value) <= 5.0 * loose.abs_error_estimate


def test_energy_thread_determinism():
    spec = ProblemSpec(ratio=1.4, mu=0.3, rel_tol=1e-6)
    r1 = energy(spec, threads=1)
    r4 = energy(spec, threads=4)
    assert r1.value == r4.value
    assert r1.abs_error_estimate == r4.abs_error_estimate
    assert r1.l_used == r4.l_used
    assert r1.integrand_evals == r4.integrand_evals
    assert r1.per_l_terms == r4.per_l_terms
    assert r1.te == r4.te
    assert r1.tm == r4.tm


def test_energy_threads_validation():
    spec = ProblemSpec(ratio=1.5)
    for bad in (0, -2, True, 2.0):
        with pytest.raises(ValueError):
            energy(spec, threads=bad)


def _no_child_left():
    # Every worker of a wave sum is stopped and reaped when the call
    # returns or raises.
    if hasattr(os, "fork"):
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def eight_cpus(monkeypatch):
    # Lets threads up to 8 fork that many processes on any host, so each
    # worker count below really deals its blocks.
    if not hasattr(os, "fork"):
        pytest.skip("no os.fork: every wave sum runs on one process")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)),
                        raising=False)


@pytest.mark.parametrize("ratio,mu", [(1.05, 0.0), (1.03, 0.5)])
def test_energy_bits_do_not_depend_on_threads(eight_cpus, ratio, mu):
    spec = ProblemSpec(ratio=ratio, mu=mu, rel_tol=1e-5)
    want = energy(spec, threads=1)
    assert want.l_used > 8 * 16  # at least 9 blocks: 8 workers get one
    for threads in (2, 3, 8):
        assert repr(energy(spec, threads=threads)) == repr(want), threads
        _no_child_left()


def test_force_bits_do_not_depend_on_threads(eight_cpus):
    spec = ProblemSpec(ratio=1.05, mu=0.5, rel_tol=1e-3)
    closed = repr(force(spec))
    fd = repr(force(spec, fd_step=1e-3))
    for threads in (2, 3):
        assert repr(force(spec, threads=threads)) == closed, threads
        _no_child_left()
        assert repr(force(spec, fd_step=1e-3, threads=threads)) == fd, threads
        _no_child_left()


# Cheap stand-ins for a wave through _wave_sum: terms that fall like l**-2,
# so the sum stops at l = 258 at rel_tol 1e-5, in block 17.
FAKE_SPEC = ProblemSpec(ratio=1.5, rel_tol=1e-5)


def _fake_wave(l, mu, ratio, mode, rel_tol):
    v = -1.0 / (l * l + 0.1 * l)
    return v, abs(v) * 1e-9, 15 * l, 0.3 * v, v - 0.3 * v


def _raised(call):
    # type, message and partial state of the error that call raises
    with pytest.raises(Exception) as exc_info:
        call()
    _no_child_left()
    exc = exc_info.value
    return type(exc), exc.args, vars(exc)


def test_fake_waves_sum_alike_on_any_worker_count(eight_cpus):
    want = spectrum._wave_sum(FAKE_SPEC, _fake_wave, 1)
    assert want.l_used == 258
    for threads in (2, 3, 8):
        got = spectrum._wave_sum(FAKE_SPEC, _fake_wave, threads)
        assert repr(got) == repr(want), threads
        _no_child_left()


@pytest.mark.parametrize("error", [
    lambda: ConvergenceError("quadrature budget exhausted at l=70",
                             partial_sum=-0.25, l_reached=70, evals=40000),
    lambda: ValueError("ratio=1.5, mu=0.0, l=70: out of range")],
    ids=["ConvergenceError", "ValueError"])
def test_worker_error_surfaces_as_the_serial_one(eight_cpus, error):
    # Wave 70 lies in block 5 (66, ..., 81), a worker's block at 2, 3 and
    # 8 processes. The worker sends waves 66 to 69 and stops at 70, which
    # this process makes again and raises as the serial loop does.
    parent = os.getpid()
    here = []

    def wave(l, *args):
        if os.getpid() == parent:
            here.append(l)
        if l == 70:
            raise error()
        return _fake_wave(l, *args)

    want = _raised(lambda: spectrum._wave_sum(FAKE_SPEC, wave, 1))
    assert want[0] is type(error())
    for threads in (2, 3, 8):
        here.clear()
        got = _raised(lambda: spectrum._wave_sum(FAKE_SPEC, wave, threads))
        assert got == want, threads
        assert 70 in here and not {66, 67, 68, 69} & set(here), threads


def test_worker_error_past_the_stop_is_never_seen(eight_cpus):
    # Every wave past the serial stop fails; workers make up to one block
    # past it, and none of their failures may reach the result.
    stop = spectrum._wave_sum(FAKE_SPEC, _fake_wave, 1)

    def wave(l, *args):
        if l > stop.l_used:
            raise ConvergenceError(f"past the stop at l={l}", l_reached=l)
        return _fake_wave(l, *args)

    for threads in (1, 2, 3, 8):
        got = spectrum._wave_sum(FAKE_SPEC, wave, threads)
        assert repr(got) == repr(stop), threads
        _no_child_left()


def test_cap_inside_a_worker_block(eight_cpus):
    # Terms like 1/l never meet the stop rule. l_cap 105 cuts block 7
    # (98, ..., 113), a worker's block at 2, 3 and 8 processes.
    spec = replace(FAKE_SPEC, l_cap=105)

    def wave(l, mu, ratio, mode, rel_tol):
        v = -1.0 / l
        return v, 1e-12, 15, v, -0.0

    want = _raised(lambda: spectrum._wave_sum(spec, wave, 1))
    assert want[0] is ConvergenceError and want[2]["l_reached"] == 105
    for threads in (2, 3, 8):
        assert _raised(lambda: spectrum._wave_sum(spec, wave, threads)) == (
            want), threads


@pytest.mark.parametrize("call", ["pipe", "fork"])
def test_failed_fork_runs_the_waves_here(monkeypatch, call):
    # Out of processes (EAGAIN) or descriptors, no worker starts: the waves
    # run on this process, with the serial result's bits, and every pipe
    # end made for the worker is closed.
    if not hasattr(os, "fork"):
        pytest.skip("no os.fork: every wave sum runs on one process")
    spec = ProblemSpec(ratio=1.3, mu=0.5, rel_tol=1e-5)
    want = repr(energy(spec))
    real_pipe = os.pipe
    ends = []

    def pipe():
        fds = real_pipe()
        ends.extend(fds)
        return fds

    def fail(*args):
        raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    monkeypatch.setattr(os, "pipe", pipe if call == "fork" else fail)
    monkeypatch.setattr(os, "fork", fail)
    assert repr(energy(spec, threads=2)) == want
    assert ends or call == "pipe"
    for fd in ends:
        with pytest.raises(OSError):
            os.fstat(fd)


def test_second_fork_failing_keeps_the_first_worker(monkeypatch):
    # Of two workers the first starts and the second cannot: this process
    # makes its own blocks and those of the second.
    if not hasattr(os, "fork"):
        pytest.skip("no os.fork: every wave sum runs on one process")
    real_fork = os.fork
    forks = []

    def fork():
        if forks:
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        forks.append(os.getpid())
        return real_fork()

    want = repr(spectrum._wave_sum(FAKE_SPEC, _fake_wave, 1))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2},
                        raising=False)
    monkeypatch.setattr(os, "fork", fork)
    assert repr(spectrum._wave_sum(FAKE_SPEC, _fake_wave, 3)) == want
    assert len(forks) == 1


def _no_fork(*args):
    pytest.fail("os.fork was called")


def test_one_cpu_runs_the_waves_here(monkeypatch):
    # threads=2 on a one-CPU mask starts no worker.
    spec = ProblemSpec(ratio=1.3, mu=0.5, rel_tol=1e-5)
    want = repr(energy(spec))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    monkeypatch.setattr(os, "fork", _no_fork, raising=False)
    assert repr(energy(spec, threads=2)) == want


def test_second_thread_runs_the_waves_here(monkeypatch):
    # A fork copies only the calling thread, so while another thread lives
    # threads=2 starts no worker, however many CPUs there are.
    spec = ProblemSpec(ratio=1.3, mu=0.5, rel_tol=1e-5)
    want = repr(energy(spec))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)),
                        raising=False)
    monkeypatch.setattr(os, "fork", _no_fork, raising=False)
    done = threading.Event()
    waiter = threading.Thread(target=done.wait)
    waiter.start()
    try:
        assert repr(energy(spec, threads=2)) == want
    finally:
        done.set()
        waiter.join(timeout=10)
    assert not waiter.is_alive()


@pytest.fixture
def movable():
    # A real mask of at least two CPUs, which this process may change and
    # whose CPU it can read.
    if not (hasattr(os, "fork") and hasattr(os, "sched_setaffinity")
            and os.path.exists("/proc/self/stat")):
        pytest.skip("no os.fork, os.sched_setaffinity or /proc/self/stat")
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("fewer than two allowed CPUs")


def test_worker_leaves_the_cpu_it_is_told(movable):
    # A child told to leave CPU c runs elsewhere, with the mask it started
    # with, for each c this process may run on.
    mask = os.sched_getaffinity(0)
    for c in sorted(mask)[:4]:
        r, w = os.pipe()
        pid = os.fork()
        if pid == 0:
            try:
                os.close(r)
                _workers._leave(c, mask, 1)
                cpu, now = _workers._placement()
                os.write(w, json.dumps([cpu, sorted(now)]).encode())
            finally:
                os._exit(0)
        os.close(w)
        with os.fdopen(r, "rb") as f:
            report = f.read()
        os.waitpid(pid, 0)
        cpu, now = json.loads(report)
        assert cpu != c and cpu in mask, (c, cpu)
        assert now == sorted(mask), c


def test_threaded_sum_keeps_the_callers_mask(movable):
    spec = ProblemSpec(ratio=1.3, mu=0.5, rel_tol=1e-5)
    mask = os.sched_getaffinity(0)
    want = repr(energy(spec))
    assert repr(energy(spec, threads=2)) == want
    _no_child_left()
    assert os.sched_getaffinity(0) == mask


def test_energy_cap_exhaustion():
    spec = ProblemSpec(ratio=1.05, rel_tol=1e-8, l_cap=2)
    with pytest.raises(ConvergenceError) as exc_info:
        energy(spec)
    err = exc_info.value
    assert err.l_reached == 2
    assert err.partial_sum < 0.0
    assert err.last_term < 0.0
    assert err.evals > 0


def test_energy_huge_mass_is_null():
    # e^(-2 mu (ratio-1)) with mu = 1e4 is zero in double precision: every
    # term underflows, the sum stops by the zero-term rule.
    res = energy(ProblemSpec(ratio=1.5, mu=1e4, rel_tol=1e-6))
    assert abs(res.value) <= 1e-20
    assert res.l_used <= 5


def test_energy_heavy_mass_te_is_zero():
    # mu = 1e6: every chain argument is at least 1e6, where the Miller
    # start sits near order 7200 instead of 1e6 + 26.
    res = energy(ProblemSpec(ratio=1.5, mu=1e6, rel_tol=1e-5, mode="te"))
    assert res.value == 0.0


def test_energy_beyond_chain_range_is_rejected():
    # Chain arguments of 2**32 and more leave the exact range of the ln 2
    # split, so the kernel refuses them (a Miller chain there would start
    # near order 4.7e5); below 2**-64 the step factor could overflow. The
    # error names the inputs that put a node there.
    with pytest.raises(ValueError):
        energy(ProblemSpec(ratio=1.5, mu=5e9, rel_tol=1e-6))
    for spec in (ProblemSpec(ratio=1e16, mu=0.5, rel_tol=1e-5),
                 ProblemSpec(ratio=1.0 + 1e-10, rel_tol=1e-5)):
        with pytest.raises(ValueError, match="ratio="):
            energy(spec)
    # Far apart, wave 1's first node is the smallest of the sum.
    with pytest.raises(ValueError, match=r"ratio=1e\+18, mu=0.0, l=1:"):
        energy(ProblemSpec(ratio=1e18, rel_tol=1e-5))


def test_force_beyond_chain_range_names_its_inputs():
    # The derivative waves name the inputs that left the chain range, as
    # the energy's waves do.
    with pytest.raises(ValueError, match=r"ratio=1e\+18, mu=0.0, l=1:"):
        force(ProblemSpec(ratio=1e18, rel_tol=1e-5))


def test_energy_far_apart_follows_the_inverse_fourth_power():
    # Just inside the chain range: wave 1's frame keeps its first node
    # above 2**-64 at ratio 3e17, and the higher waves take the wider
    # frame of their block's top. Far apart the energy goes like
    # ratio**-4, so tripling the ratio divides it by 81.
    near = energy(ProblemSpec(ratio=1e17, rel_tol=1e-5)).value
    far = energy(ProblemSpec(ratio=3e17, rel_tol=1e-5)).value
    assert far < 0.0
    assert far == pytest.approx(near / 81.0, rel=1e-12)


def test_default_fd_step():
    assert default_fd_step(ProblemSpec(ratio=2.0)) == 1e-3
    assert default_fd_step(ProblemSpec(ratio=1.004)) == pytest.approx(4e-4)
    # The step is min(1e-3, (ratio - 1)/10) wherever the offsets ratio +-
    # step and ratio +- step/2 round to within 1e-2 of themselves. Near
    # contact (ratio - 1 up to about 2.2e-13) and from ratio + step = 2**36
    # up there is no such step. At ratio - 1 = 1e-15 and 2e-15 the step is
    # below the rounding of ratio, so force() would refuse it; at 3e-15 the
    # rounded half step would be an ulp, 2.2e-16, about 40 % above its
    # 1.5e-16; at 1e-14 up to 22 % off.
    for ratio in (1.0 + 1e-15, 1.0 + 2e-15, 1.0 + 3e-15, 1.0 + 1e-14,
                  1.0 + 2.2e-13, 2.0 ** 36 - 5e-4, 2.0 ** 36, 1e12):
        with pytest.raises(ValueError, match=re.escape(f"ratio={ratio!r}")):
            default_fd_step(ProblemSpec(ratio=ratio))
    for ratio in (1.0 + 2.3e-13, 1.0 + 1e-12, 1.0 + 1e-7, 1.0001, 1.004,
                  1.15, 2.0, 2.0 ** 36 - 1.0):
        h = default_fd_step(ProblemSpec(ratio=ratio))
        assert h == min(1e-3, (ratio - 1.0) / 10.0), ratio
        for step in (h, -h, 0.5 * h, -0.5 * h):
            assert abs((ratio + step) - ratio - step) <= 1e-2 * abs(step)


def test_force_validation():
    spec = ProblemSpec(ratio=1.5, rel_tol=1e-4)
    with pytest.raises(ValueError):
        force(spec, fd_step=0.0)
    with pytest.raises(ValueError):
        force(spec, fd_step=-1e-3)
    with pytest.raises(ValueError):
        force(spec, fd_step=math.nan)
    with pytest.raises(ValueError):
        force(spec, fd_step=0.6)  # would push the inner ratio below 1
    # ratio +- fd_step/2 that rounds to ratio would difference an energy
    # with itself, a force of -0.0. At ratio 2 the step 2**-51 leaves
    # ratio - fd_step/2 below 2 but rounds ratio + fd_step/2 to 2 (a tie,
    # to even), so either side alone raises.
    for ratio, h in ((1.5, 1e-16), (1.5, 2.0 ** -52), (2.0, 2.0 ** -51)):
        with pytest.raises(ValueError, match="fd_step"):
            force(replace(spec, ratio=ratio), fd_step=h)
    # fd_step must be finite and > 0. The least positive step passes that
    # rule, and the rounding check refuses it.
    for h in (0.0, -0.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=re.escape(
                f"fd_step must be finite and > 0, got {h!r}")):
            force(spec, fd_step=h)
    with pytest.raises(ValueError, match="fd_step too small"):
        force(spec, fd_step=TINY)


def test_force_attractive_and_step_insensitive():
    spec = ProblemSpec(ratio=1.5, mu=0.5, rel_tol=1e-6)
    f1 = force(spec, fd_step=1e-3)
    f2 = force(spec, fd_step=5e-4)
    assert f1 < 0.0
    # O(h^4) truncation is ~1e-10 relative here; what remains is quadrature
    # noise at the inner tolerance, a few parts in 1e6 of the force.
    assert f2 == pytest.approx(f1, rel=3e-5)


def _fd_forces(spec, h):
    # The finite-difference route of force(spec, fd_step=h) for the TE and
    # TM shares and the total at once: the same four energies at
    # rel_tol/100, differenced field by field in the same order.
    inner = replace(spec, rel_tol=spec.rel_tol / 100.0)
    r = spec.ratio
    e = [energy(replace(inner, ratio=x))
         for x in (r + h, r - h, r + 0.5 * h, r - 0.5 * h)]
    out = {}
    for mode, field in (("te", "te"), ("tm", "tm"), ("total", "value")):
        v = [getattr(x, field) for x in e]
        d1 = (v[0] - v[1]) / (2.0 * h)
        d2 = (v[2] - v[3]) / h
        out[mode] = -(4.0 * d2 - d1) / 3.0
    return out


# Both force routes at every (ratio, mu): the closed-form derivative per
# mode at rel_tol 1e-4, and the finite-difference reference at 1e-5.
@pytest.fixture(scope="module")
def force_routes():
    out = {}
    for ratio in (1.05, 1.1, 1.5, 2.0):
        for mu in (0.0, 0.5, 5.0):
            spec = ProblemSpec(ratio=ratio, mu=mu, rel_tol=1e-4)
            new = {mode: force(replace(spec, mode=mode))
                   for mode in ("te", "tm", "total")}
            ref = _fd_forces(replace(spec, rel_tol=1e-5),
                             default_fd_step(spec))
            out[ratio, mu] = new, ref
    return out


def test_fd_forces_is_the_library_route():
    spec = ProblemSpec(ratio=2.0, mu=0.5, rel_tol=1e-5)
    assert _fd_forces(spec, 1e-3)["total"] == force(spec, fd_step=1e-3)


def test_force_routes_agree(force_routes):
    for (ratio, mu), (new, ref) in force_routes.items():
        for mode in ("te", "tm", "total"):
            assert new[mode] < 0.0, (ratio, mu, mode)
            assert abs(new[mode] - ref[mode]) <= 1e-4 * abs(ref[mode]), (
                ratio, mu, mode, new[mode], ref[mode])


def test_force_modes_sum_to_total(force_routes):
    # Each mode stops on its own waves, so the sum agrees within rel_tol.
    for (ratio, mu), (new, _ref) in force_routes.items():
        assert new["te"] + new["tm"] == pytest.approx(new["total"],
                                                      rel=1e-4), (ratio, mu)


def test_force_is_one_wave_sum(monkeypatch):
    # Without fd_step no energy runs: one sum of derivative waves at
    # rel_tol/100, on the frame and stop rule of energy().
    spec = ProblemSpec(ratio=1.5, mu=0.5, rel_tol=1e-4)
    calls = []
    monkeypatch.setattr(spectrum, "energy",
                        lambda *a, **k: calls.append(a))
    waves = []

    def wave(l, mu, ratio, mode, rel_tol):
        waves.append((l, rel_tol))
        return dl_term_full(l, mu, ratio, mode, rel_tol)

    dl_term_full = spectrum._dl_term_full
    monkeypatch.setattr(spectrum, "_dl_term_full", wave)
    f = force(spec)
    assert f < 0.0 and not calls
    assert [l for l, _ in waves] == list(range(1, len(waves) + 1))
    assert {t for _, t in waves} == {1e-6}


def test_force_huge_mass_vanishes():
    assert abs(force(ProblemSpec(ratio=1.5, mu=1e4, rel_tol=1e-4))) <= 1e-15


def test_sweep_ratio_table():
    template = ProblemSpec(ratio=1.5, mu=0.0, rel_tol=1e-5)
    table = sweep_ratio(template, 1.3, 1.7, 3)
    assert table.param_name == "ratio"
    assert [r.param for r in table.rows] == [1.3, 1.5, 1.7]
    assert dict(table.manifest)["sweep"] == "ratio"
    assert dict(table.manifest)["mu"] == repr(0.0)
    for row in table.rows:
        assert row.e_total == row.e_te + row.e_tm
        assert row.e_total < 0.0
        assert row.abs_err > 0.0
        assert row.l_used >= 1
    # Wider gap, weaker binding: energies rise toward zero monotonically.
    totals = [r.e_total for r in table.rows]
    assert totals[0] < totals[1] < totals[2]
    # A sweep row is the polarization shares of one total energy.
    tot = energy(ProblemSpec(ratio=1.3, mu=0.0, rel_tol=1e-5))
    assert table.rows[0].e_te == tot.te
    assert table.rows[0].e_tm == tot.tm
    assert table.rows[0].l_used == tot.l_used


def _stub_energy(spec, threads=1):
    # A sweep row's energy without the wave sum, for validation tests.
    return EnergyResult(value=-2.0, abs_error_estimate=0.0, l_used=1,
                        integrand_evals=0, per_l_terms=(), te=-1.0, tm=-1.0)


def test_sweep_ratio_validation(monkeypatch):
    template = ProblemSpec(ratio=1.5, rel_tol=1e-4)
    with pytest.raises(ValueError):
        sweep_ratio(template, 1.3, 1.7, 1)
    with pytest.raises(ValueError):
        sweep_ratio(template, 1.3, 1.7, True)
    with pytest.raises(ValueError):
        sweep_ratio(template, 1.0, 1.7, 3)
    with pytest.raises(ValueError):
        sweep_ratio(template, 1.3, math.inf, 3)
    # Both ends must be finite and > 1; the next double above 1 passes.
    for v in (1.0, math.nan, math.inf, -math.inf):
        for name, ends in (("ratio_from", (v, 1.7)), ("ratio_to", (1.3, v))):
            with pytest.raises(ValueError, match=re.escape(
                    f"{name} must be finite and > 1, got {v!r}")):
                sweep_ratio(template, *ends, 3)
    monkeypatch.setattr(spectrum, "energy", _stub_energy)
    for ends in ((ABOVE_ONE, 1.7), (1.3, ABOVE_ONE)):
        table = sweep_ratio(template, *ends, 2)
        assert [r.param for r in table.rows] == list(ends)


def test_sweep_mass_table():
    template = ProblemSpec(ratio=1.6, rel_tol=1e-5)
    table = sweep_mass(template, [0.0, 0.5, 2.0])
    assert table.param_name == "mu"
    assert [r.param for r in table.rows] == [0.0, 0.5, 2.0]
    # Mass suppresses the interaction: energies rise toward zero.
    totals = [r.e_total for r in table.rows]
    assert totals[0] < totals[1] < totals[2] < 0.0


def test_sweep_mass_validation(monkeypatch):
    template = ProblemSpec(ratio=1.6, rel_tol=1e-4)
    with pytest.raises(ValueError):
        sweep_mass(template, [])
    with pytest.raises(ValueError):
        sweep_mass(template, [0.0, 0.0])
    with pytest.raises(ValueError):
        sweep_mass(template, [0.5, 0.2])
    with pytest.raises(ValueError):
        sweep_mass(template, [-1.0, 0.5])
    # Each mass must be finite and >= 0; 0, -0.0 and the least positive
    # double pass.
    for m in (-TINY, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=re.escape(
                f"mass value must be finite and >= 0, got {m!r}")):
            sweep_mass(template, [m, 7.0])
    monkeypatch.setattr(spectrum, "energy", _stub_energy)
    for m in (0.0, -0.0, TINY):
        table = sweep_mass(template, [m, 7.0])
        assert [repr(r.param) for r in table.rows] == [repr(m), "7.0"]


def test_sweep_row_failure_becomes_nan():
    # A row that cannot converge is recorded as NaN with l_used 0, so a long
    # sweep survives one bad point.
    template = ProblemSpec(ratio=1.05, rel_tol=1e-8, l_cap=2)
    table = sweep_mass(template, [0.0])
    row = table.rows[0]
    assert math.isnan(row.e_total)
    assert math.isnan(row.e_te) and math.isnan(row.e_tm)
    assert row.l_used == 0


def test_sweep_csv_round_trip():
    template = ProblemSpec(ratio=1.6, rel_tol=1e-4)
    table = sweep_mass(template, [0.0, 1.0])
    lines = table.to_csv().splitlines()
    assert lines[:5] == ["# sweep=mu", "# ratio=1.6", "# rel_tol=0.0001",
                         "# l_cap=5000",
                         "param,e_te,e_tm,e_total,abs_err,l_used"]
    back = tuple(SweepRow(*map(float, parts[:5]), int(parts[5]))
                 for parts in (line.split(",") for line in lines[5:]))
    assert back == table.rows  # repr keeps every bit


def test_sweep_json_round_trip():
    template = ProblemSpec(ratio=1.6, rel_tol=1e-4)
    table = sweep_mass(template, [0.0, 1.0])
    doc = json.loads(table.to_json())
    assert doc["sweep"] == "mu"
    assert doc["manifest"] == {"sweep": "mu", "ratio": "1.6",
                               "rel_tol": "0.0001", "l_cap": "5000"}
    assert tuple(SweepRow(**r) for r in doc["rows"]) == table.rows


def test_sweep_row_is_frozen():
    row = SweepRow(param=1.0, e_te=-1.0, e_tm=-1.0, e_total=-2.0,
                   abs_err=1e-8, l_used=3)
    with pytest.raises(Exception):
        row.param = 2.0
