"""Partial-wave sum over the imaginary-frequency spectrum.

The interaction energy between the shells, in units of hbar*c/(2*pi*a1),
is the sum over partial waves l >= 1 of (2l+1) times the integral over the
dimensionless imaginary frequency of the combined TE and TM log factors.
Each log factor is strictly negative and decays like
exp(-2*gamma*(ratio-1)), which drives both the quadrature framing and the
tail bounds used here. Waves come in blocks of 16 orders that share one
frame, so their start nodes coincide, and the kernel's node table, which
keeps each node's Bessel chains for every order of the block, serves the
whole block. The frame's panels end on a power of two, so consecutive
blocks share their panel nodes too, and the kernel's upward runs at those
nodes go on from block to block. A wave's start, its five panels and the
tail node, is one kernel batch of 76 nodes, and the frame's nodes are made
once per block: the last frame is kept. Each bisection step is one batch
too, of 30 nodes: the halves of the worst panel, left then right.

Everything is deterministic by construction: panels are refined by a
first-maximum scan, sums are accumulated in a fixed order, and each wave's
doubles depend on its inputs alone. With threads > 1 the blocks of waves
are dealt round-robin to the calling process and to forked worker
processes, which send each wave back exact; the sum still takes the waves
in ascending order by the one stop rule, so results are bit-identical for
any thread count.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, replace

# The kernels' chain blocks, which frame the waves, and gamma: one rule on
# either backend, from the scalar rules that both twins follow.
from ._rules import _BLOCK, _block_top, gamma_arg
from .backend import kernel

_MODE_CODE = {"te": 0, "tm": 1, "total": 2}

# 15-point Kronrod rule with embedded 7-point Gauss rule on [-1, 1].
# Generated once at 30 digits via the Laurie recursion and frozen; the test
# suite pins them through polynomial exactness up to degree 22.
_XGK = (
    0.99145537112081264,
    0.94910791234275852,
    0.86486442335976907,
    0.74153118559939444,
    0.58608723546769113,
    0.40584515137739717,
    0.20778495500789847,
    0.0,
)
_WGK = (
    0.022935322010529225,
    0.063092092629978553,
    0.10479001032225018,
    0.14065325971552592,
    0.1690047266392679,
    0.19035057806478541,
    0.20443294007529889,
    0.20948214108472783,
)
_WG = (
    0.12948496616886969,
    0.27970539148927667,
    0.38183005050511894,
    0.41795918367346939,
)


class ConvergenceError(RuntimeError):
    """Quadrature or partial-wave sum could not reach the requested tolerance.

    Carries the partial state so callers can report how far the run got.
    """

    def __init__(self, message: str, *, partial_sum: float | None = None,
                 last_term: float | None = None, l_reached: int | None = None,
                 evals: int | None = None):
        super().__init__(message)
        self.partial_sum = partial_sum
        self.last_term = last_term
        self.l_reached = l_reached
        self.evals = evals


def _real(name: str, v, bound: float | None = None,
          strict: bool = False) -> float:
    # The package's one real-number rule. Inputs may come from an edited
    # JSON document: reject a bool, a list, a string or None with
    # ValueError, not a TypeError from float() or a silent 1.0. Given a
    # bound, the value must also be finite and > bound (strict) or >= it.
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {v!r}")
    x = float(v)
    if bound is not None and not (
            math.isfinite(x) and (x > bound if strict else x >= bound)):
        raise ValueError(f"{name} must be finite and {'>' if strict else '>='}"
                         f" {bound}, got {v!r}")
    return x


def _integer(name: str, v, minimum: int) -> int:
    # The package's one integer rule, beside _real: a bool, a float or a
    # string raises ValueError, as does a value below minimum.
    if isinstance(v, bool) or not isinstance(v, int) or v < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {v!r}")
    return v


@dataclass(frozen=True)
class ProblemSpec:
    """Dimensionless statement of one two-shell problem.

    ratio is the outer over inner radius (> 1), mu the field mass scaled by
    the inner radius (>= 0). rel_tol bounds the relative error of the summed
    energy; l_cap is a hard ceiling on the partial-wave order; mode selects
    "te", "tm" or "total".
    """

    ratio: float
    mu: float = 0.0
    rel_tol: float = 1e-8
    l_cap: int = 5000
    mode: str = "total"

    def __post_init__(self):
        object.__setattr__(self, "ratio",
                           _real("ratio", self.ratio, 1, strict=True))
        object.__setattr__(self, "mu", _real("mu", self.mu, 0))
        object.__setattr__(self, "rel_tol", _real("rel_tol", self.rel_tol))
        object.__setattr__(self, "mode", str(self.mode).lower())
        _integer("l_cap", self.l_cap, 1)
        if not (0.0 < self.rel_tol <= 1e-2):
            raise ValueError(f"rel_tol must lie in (0, 1e-2], got {self.rel_tol!r}")
        if self.mode not in _MODE_CODE:
            raise ValueError(
                f"mode must be one of {sorted(_MODE_CODE)}, got {self.mode!r}")


@dataclass(frozen=True)
class EnergyResult:
    """Converged energy plus the bookkeeping needed to audit it.

    value is E / E0 with E0 = hbar*c/(2*pi*a1). abs_error_estimate combines
    the per-wave quadrature errors with a geometric bound on the dropped
    partial-wave tail. per_l_terms lists every (l, term) that entered the
    sum, in order. te and tm are the two polarizations' shares, integrated
    on the same panels and summed over the same waves; each is None when
    its polarization was not requested. In mode "total" te + tm equals
    value up to rounding; the CLI and sweep tables report e_total as
    te + tm, which can differ from value in the last bit.
    """

    value: float
    abs_error_estimate: float
    l_used: int
    integrand_evals: int
    per_l_terms: tuple[tuple[int, float], ...]
    te: float | None
    tm: float | None


def _neumaier_step(s: float, c: float, v: float):
    # One compensated step: (s + v, c plus the rounding error of s + v).
    t = s + v
    if abs(s) >= abs(v):
        c += (s - t) + v
    else:
        c += (v - t) + s
    return t, c


def _neumaier(values):
    # Compensated sum. The iteration order is part of the contract: callers
    # feed a deterministically ordered sequence.
    s = 0.0
    c = 0.0
    for v in values:
        s, c = _neumaier_step(s, c, v)
    return s + c


def _plain_sum(panels, field: int) -> float:
    # One panel field summed from 0.0 in list order, uncompensated.
    t = 0.0
    for p in panels:
        t += p[field]
    return t


def _panel_nodes(a: float, b: float):
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    xs = []
    for j in range(7):
        xs.append(c - h * _XGK[j])
        xs.append(c + h * _XGK[j])
    xs.append(c)
    return xs, h


def _k15(fv):
    # Kronrod sum, unrolled, in the order that every result's bits depend
    # on: from 0.0, the symmetric node pairs from the outermost inward,
    # then the centre.
    w = _WGK
    return (0.0 + w[0] * (fv[0] + fv[1]) + w[1] * (fv[2] + fv[3])
            + w[2] * (fv[4] + fv[5]) + w[3] * (fv[6] + fv[7])
            + w[4] * (fv[8] + fv[9]) + w[5] * (fv[10] + fv[11])
            + w[6] * (fv[12] + fv[13]) + w[7] * fv[14])


def _gk15_combine(fv, h: float):
    k15 = _k15(fv)
    # The even-index Kronrod abscissae are the Gauss-7 abscissae.
    g7 = (_WG[0] * (fv[2] + fv[3]) + _WG[1] * (fv[6] + fv[7])
          + _WG[2] * (fv[10] + fv[11]) + _WG[3] * fv[14])
    return h * k15, abs(h * (k15 - g7))


def _panels(l: int, mu: float, ratio: float, mode: int, spans, xs,
            deriv: bool):
    # One kernel batch at xs, the 15 _panel_nodes of each span (a, b, h) in
    # order, then any further node (the tail X): a record [a, b, integral,
    # error, TE integral, TM integral] per span, and te + tm at every node,
    # which is the requested mode's log (with deriv, its ratio derivative)
    # bit for bit, as a mode not requested reads -0.0.
    nodes = kernel.dlog_delta_nodes if deriv else kernel.log_delta_nodes
    try:
        te, tm = nodes(l, mu, ratio, mode, xs)
    except ValueError as exc:
        # A valid ProblemSpec can still put a node outside the kernel's
        # chain range; say which inputs did.
        raise ValueError(f"ratio={ratio!r}, mu={mu!r}, l={l}: {exc}") from None
    fv = [p + q for p, q in zip(te, tm)]
    # A NaN anywhere makes the sum NaN; only then look for the first one.
    if math.isnan(sum(fv)):
        for x, f in zip(xs, fv):
            if math.isnan(f):
                raise ConvergenceError(
                    f"mode factor not finite at l={l}, xi_hat={x!r}",
                    l_reached=l)
    records = []
    for p, (a, b, h) in enumerate(spans):
        at = slice(15 * p, 15 * p + 15)
        val, err = _gk15_combine(fv[at], h)
        records.append([a, b, val, err, h * _k15(te[at]), h * _k15(tm[at])])
    return records, fv


@functools.lru_cache(maxsize=1)
def _frame(X: float):
    # A wave's start, which depends on X alone: the nodes of five panels on
    # [0, E] in order, then the tail node X, and each panel's (a, b, h).
    # The edge E is X rounded up to a power of two, and at least 2**-51,
    # so the waves of consecutive blocks, whose X differ, share the panel
    # nodes. The panels are graded toward 0, with edges E * (2**j - 1)/31
    # for j = 0, ..., 5, and their first node, about 1.4e-4 * E, stays at
    # or above 2**-64.
    m, e = math.frexp(X)
    E = max(math.ldexp(0.5 if m == 0.5 else 1.0, e), 2.0 ** -51)
    edges = [E * (2 ** j - 1) / 31.0 for j in range(6)]
    xs, spans = [], []
    for a, b in zip(edges, edges[1:]):
        pxs, h = _panel_nodes(a, b)
        xs += pxs
        spans.append((a, b, h))
    return tuple(xs) + (X,), tuple(spans)


def _l_term_full(l: int, mu: float, ratio: float, mode: int, rel_tol: float):
    """One partial wave: ((2l+1)*integral, error bound, eval count, and
    the TE and TM shares of the first)."""
    return _wave(l, mu, ratio, mode, rel_tol, False)


def _dl_term_full(l: int, mu: float, ratio: float, mode: int,
                  rel_tol: float):
    """The ratio derivative of one partial wave, in the five fields of
    _l_term_full."""
    return _wave(l, mu, ratio, mode, rel_tol, True)


def _wave(l: int, mu: float, ratio: float, mode: int, rel_tol: float,
          deriv: bool):
    # Frame the decay: the integrand falls like
    # exp(-2*gamma*(ratio-1) - 2*l*log(ratio)), so put the tail node X where
    # that exponent, taken at the block's top order, reaches ~45 (twenty
    # digits below the peak; at the lower orders of a block X lies further
    # out, and the block's waves share their start nodes). Five panels
    # graded toward 0 on [0, E], E >= X a power of two (see _frame), start
    # the wave; bisection places any further nodes. The start panels and
    # the tail node are one kernel batch, on the frame that the block's
    # first wave made.
    top = _block_top(l)
    d = (45.0 + 2.0 * top * math.log(ratio)) / (2.0 * (ratio - 1.0))
    X = math.sqrt(d * (d + 2.0 * mu))
    xs, spans = _frame(X)
    panels, fv = _panels(l, mu, ratio, mode, spans, xs, deriv)
    evals = len(xs)

    # The tail past X: an exponential with local rate 2*(ratio-1)*X/gamma(X),
    # and the rate only grows to the right of X. The panels also cover
    # [X, E], so the bound counts that part twice and stays a bound. The
    # derivative integrand carries an extra factor of about 2*gamma, and
    # gamma grows at most like xi, by a factor below exp((xi - X)/X); so
    # its bound takes the rate minus 1/X, which the frame keeps above 44/X.
    f = fv[-1]
    g = gamma_arg(X, mu)
    if deriv:
        tail = abs(f) / (2.0 * X * (ratio - 1.0) / g - 1.0 / X)
    else:
        tail = abs(f) * g / (2.0 * X * (ratio - 1.0))
    total = _plain_sum(panels, 2)
    if tail > (rel_tol / 100.0) * abs(total):
        # The frame holds twenty digits of decay, so only a tolerance below
        # the rounding of the panel sum itself gets here.
        raise ConvergenceError(
            f"integration frame [0, {X!r}] too short at l={l}: tail bound "
            f"{tail!r} exceeds rel_tol/100 of the wave",
            partial_sum=(2.0 * l + 1.0) * total, l_reached=l, evals=evals)

    # Bisect the worst panel until the error meets the target; the
    # evaluation budget also ends a bisection that has run out of doubles.
    while True:
        errsum = _plain_sum(panels, 3)
        total = _plain_sum(panels, 2)
        target = max((rel_tol / 10.0) * abs(total), 1e-280)
        if errsum + tail <= target:
            break
        if evals >= 40000:
            raise ConvergenceError(
                f"quadrature budget exhausted at l={l}",
                partial_sum=(2.0 * l + 1.0) * total, l_reached=l, evals=evals)
        worst = 0
        wmax = panels[0][3]
        for i in range(1, len(panels)):
            if panels[i][3] > wmax:
                worst = i
                wmax = panels[i][3]
        # Both halves are one batch; the left takes the worst's place.
        a, b = panels[worst][:2]
        mid = 0.5 * (a + b)
        left, hl = _panel_nodes(a, mid)
        right, hr = _panel_nodes(mid, b)
        (panels[worst], last), _ = _panels(
            l, mu, ratio, mode, ((a, mid, hl), (mid, b, hr)), left + right,
            deriv)
        panels.append(last)
        evals += 30

    panels.sort(key=lambda p: p[0])
    errsum = _plain_sum(panels, 3)
    w = 2.0 * l + 1.0
    value = w * _neumaier([p[2] for p in panels])
    te = w * _neumaier([p[4] for p in panels])
    tm = w * _neumaier([p[5] for p in panels])
    return value, w * (errsum + tail), evals, te, tm


def l_term(spec: ProblemSpec, l: int) -> float:
    """Contribution of one partial wave: (2l+1) times its xi integral."""
    _integer("l", l, 1)
    return _l_term_full(
        l, spec.mu, spec.ratio, _MODE_CODE[spec.mode], spec.rel_tol)[0]


def _worker_count(threads: int) -> int:
    # Processes for one wave sum: threads, at most one per CPU this process
    # may run on, and one where os.fork is missing or another thread runs
    # (a fork copies only the calling thread, so a lock that another thread
    # holds would stay held in the child).
    if threads == 1:
        return 1
    import os
    import threading

    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return min(threads, cpus)


def _waves(spec: ProblemSpec, wave, workers: int):
    # Every wave l = 1, ..., l_cap in ascending order, each the five numbers
    # wave(l, mu, ratio, mode, rel_tol) gives; the consumer stops early by
    # closing the generator. More than one worker forks (see _workers),
    # never more than there are blocks of waves.
    args = (spec.mu, spec.ratio, _MODE_CODE[spec.mode], spec.rel_tol)
    workers = min(workers, (_block_top(spec.l_cap) - 1) // _BLOCK + 1)
    if workers == 1:
        for l in range(1, spec.l_cap + 1):
            yield wave(l, *args)
        return
    from ._workers import forked_waves

    yield from forked_waves(spec.l_cap, wave, args, workers)


def _wave_sum(spec: ProblemSpec, wave, threads: int) -> EnergyResult:
    # The partial-wave sum of energy() and force(), by the stop rule that
    # energy() describes; wave(l, mu, ratio, mode, rel_tol) gives one term
    # in the shape of _l_term_full, and _waves runs the waves on up to
    # threads processes. force() reads the result's value.
    _integer("threads", threads, 1)
    mode = _MODE_CODE[spec.mode]
    s = 0.0
    c = 0.0
    err_quad = 0.0
    terms = []
    te_terms = []
    tm_terms = []
    consec = 0
    evals_total = 0
    waves = _waves(spec, wave, _worker_count(threads))
    try:
        for l, (value, err, ev, te, tm) in enumerate(waves, 1):
            evals_total += ev
            err_quad += err
            terms.append((l, value))
            te_terms.append(te)
            tm_terms.append(tm)
            s, c = _neumaier_step(s, c, value)
            if value == 0.0 or abs(value) <= spec.rel_tol * abs(s + c):
                consec += 1
                if consec == 3:
                    break
            else:
                consec = 0
        else:
            raise ConvergenceError(
                f"partial-wave cap {spec.l_cap} reached without convergence",
                partial_sum=s + c, last_term=terms[-1][1], l_reached=l,
                evals=evals_total)
    finally:
        # Stops and reaps the workers, on every way out.
        waves.close()
    # Geometric bound on the dropped waves; the observed decay quotient of
    # the last two terms is clamped away from 1 so the bound stays finite.
    a_last = abs(terms[-1][1])
    prev_t = terms[-2][1]
    q = 0.95 if prev_t == 0.0 else min(a_last / abs(prev_t), 0.95)
    return EnergyResult(
        value=s + c,
        abs_error_estimate=err_quad + a_last * q / (1.0 - q),
        l_used=l,
        integrand_evals=evals_total,
        per_l_terms=tuple(terms),
        te=None if mode == 1 else _neumaier(te_terms),
        tm=None if mode == 0 else _neumaier(tm_terms),
    )


def energy(spec: ProblemSpec, threads: int = 1) -> EnergyResult:
    """Interaction energy in units of hbar*c/(2*pi*a1).

    One pass integrates the requested polarizations together. Partial
    waves are summed in ascending order (with compensation) until three
    consecutive terms fall below rel_tol relative to the running sum;
    exhausting l_cap first raises ConvergenceError. threads > 1 runs the
    waves on up to that many processes, at most one per available CPU:
    the blocks {1}, {2..17}, {18..33}, ... go round-robin to this process
    and to forked workers, each at most one block ahead of the sum, and
    every worker is stopped and reaped before the call returns or raises.
    Each worker starts on a CPU other than this process's, then may run on
    any CPU this process may; this process's own CPU mask is untouched.
    Where os.fork is missing, or another thread is running, the waves run
    on this process alone, and where a fork fails, on the workers that
    started. No thread count changes a bit of the result or of an error.
    """
    # _l_term_full is looked up in the module at each call, so a wrapper
    # installed on spectrum._l_term_full sees every wave, each in the
    # process that makes it.
    return _wave_sum(spec, _l_term_full, threads)


def default_fd_step(spec: ProblemSpec) -> float:
    """A step for force()'s finite-difference reference, small enough
    that ratio - step stays well above 1: min(1e-3, (ratio - 1)/10).

    The offsets ratio +- step and ratio +- step/2 round to within
    ulp(ratio + step)/step of themselves, relatively. Where that bound
    exceeds 1e-2, the loosest rel_tol a spec may ask for, the reference
    could meet no tolerance: ValueError names the ratio. That is near
    contact (ratio - 1 below about 2.2e-13) and from ratio + step = 2**36
    up.
    """
    h = min(1e-3, (spec.ratio - 1.0) / 10.0)
    if math.ulp(spec.ratio + h) > 1e-2 * h:
        raise ValueError(f"no finite-difference step at ratio={spec.ratio!r}:"
                         f" its offsets would round by more than 1e-2")
    return h


def force(spec: ProblemSpec, fd_step: float | None = None,
          threads: int = 1) -> float:
    """-dE/d(ratio) at fixed inner radius.

    Without fd_step, one wave sum at rel_tol/100 of
    (2l+1) * integral of d ln Delta_l / d(ratio), the kernel's closed-form
    derivative of the requested polarizations, on the same frame, panels
    and stop rule as energy(). With fd_step, the finite-difference
    reference: central differences at steps fd_step and fd_step/2,
    Richardson-extrapolated to an O(h^4) derivative, over four energy()
    calls at rel_tol/100 so cancellation in the differences does not eat
    the requested accuracy; a step whose half rounds away at ratio raises
    ValueError. threads runs either wave sum (each energy() call's, on the
    finite-difference route) on up to that many processes, each worker
    started on a CPU other than this process's, as in energy(), and
    changes no bit of the result.
    """
    inner = replace(spec, rel_tol=spec.rel_tol / 100.0)
    if fd_step is None:
        return -_wave_sum(inner, _dl_term_full, threads).value
    h = _real("fd_step", fd_step, 0, strict=True)
    if spec.ratio - h <= 1.0:
        raise ValueError("fd_step too large: ratio - fd_step must stay > 1")
    half = 0.5 * h
    if spec.ratio - half == spec.ratio or spec.ratio + half == spec.ratio:
        # A difference of one energy with itself would read as a force of 0.
        raise ValueError(f"fd_step too small: ratio +- fd_step/2 rounds to "
                         f"ratio, got {fd_step!r}")

    def e_at(r: float) -> float:
        return energy(replace(inner, ratio=r), threads=threads).value

    d1 = (e_at(spec.ratio + h) - e_at(spec.ratio - h)) / (2.0 * h)
    d2 = (e_at(spec.ratio + half) - e_at(spec.ratio - half)) / h
    return -(4.0 * d2 - d1) / 3.0


# The sweep tables live in sweeps, which loads when one of these names is
# first read (PEP 562), so a process that runs no sweep never compiles it.
_SWEEP_NAMES = ("SweepRow", "SweepTable", "_sweep_row", "sweep_ratio",
                "sweep_mass")


def __getattr__(name):
    if name not in _SWEEP_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import sweeps

    value = globals()[name] = getattr(sweeps, name)
    return value
