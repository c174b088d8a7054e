"""Bit-identity between the compiled kernel and its pure-Python twin.

The two implementations share expression shapes on purpose; every public
kernel entry point must agree to the last bit, so that results never depend
on which backend happened to import.

The compiled kernel under test, and a build of it with the
undefined-behaviour sanitizer, come from the fixtures of conftest.py. The
scalar entries sr_norm, sr_mul, sr_add and gamma_arg, and the lone chains
family, s_pair and e_pair, are the _rules objects on both twins
(tests/test_surface.py); the twins' entries are still compared here, and
the compiled node fill's own copies of the rules and chain steps are
compared through the node entries, at the chains' extremes too.
"""

import dataclasses
import json
import math
import os
import subprocess
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from procasphere import _core_py as pure
from procasphere import _rules, bessel, determinants, spectrum


def _kernel(request, backend):
    # The pure twin needs no compiler; a build is made on first use.
    return pure if backend == "pure" else request.getfixturevalue(backend)


def test_backend_tags(compiled):
    assert pure.BACKEND == "pure"
    assert compiled.BACKEND == "compiled"


# What the package and the benchmark call; nothing else is public.
SURFACE = {"sr_norm", "sr_mul", "sr_add", "gamma_arg", "s_pair", "e_pair",
           "family", "log_delta_point", "log_delta_nodes", "dlog_delta_nodes"}


def test_twins_export_the_same_callables(compiled):
    # An entry point added to or deleted from either twin fails here, also
    # a dead one added back to both.
    def public(kernel):
        return {name for name, f in vars(kernel).items()
                if not name.startswith("_") and callable(f)}
    assert public(pure) == SURFACE
    assert public(compiled) == SURFACE


def test_compiled_exports_no_private_name(compiled):
    # The scalar rules (_log1m, _exp_split, _sr_scale, _block_top, _BLOCK)
    # have one Python copy, _rules, on both backends; the C twin keeps its
    # own as static functions and exports no private name at all.
    assert {name for name in vars(compiled)
            if name.startswith("_") and not name.startswith("__")} == set()


# Normalized mantissa/scale pairs as the kernels produce them.
mantissas = st.one_of(
    st.floats(min_value=0.5, max_value=1.0, exclude_max=True),
    st.floats(min_value=-1.0, max_value=-0.5, exclude_min=True))
scales = st.integers(min_value=-100000, max_value=100000).map(float)


@settings(max_examples=250, deadline=None)
@given(mantissas, scales, mantissas, scales)
def test_scalar_primitives_bit_identical(compiled, m1, k1, m2, k2):
    assert pure.sr_norm(m1 * 2.5, k1) == compiled.sr_norm(m1 * 2.5, k1)
    assert pure.sr_mul(m1, k1, m2, k2) == compiled.sr_mul(m1, k1, m2, k2)
    assert pure.sr_add(m1, k1, m2, k2) == compiled.sr_add(m1, k1, m2, k2)
    # Renormalising is exact: the mantissa lands in [0.5, 1) and the value
    # m * 2**k is unchanged.
    m, k = compiled.sr_norm(m1 * 2.5, k1)
    assert 0.5 <= abs(m) < 1.0
    assert math.ldexp(m, int(k - k1)) == m1 * 2.5


def test_sr_add_across_the_cutoff():
    # Scale gaps just below, at and just above the cutoff beyond which the
    # smaller addend is dropped, in both operand orders and both signs. The
    # unnormalized 1.5 shows which side of the cutoff a gap fell on: up to
    # it the sum is renormalized, beyond it the larger operand comes back
    # as it was.
    cut = _rules._ADD_CUTOFF
    for gap in (cut - 2.0, cut - 1.0, cut, cut + 1.0, cut + 2.0):
        for m1, m2 in ((0.75, 0.6), (0.5, -0.9), (-0.99, 0.5), (1.5, 0.6)):
            for big, args in ((0, (m1, 40.0 + gap, m2, 40.0)),
                              (1, (m2, -7.0, m1, -7.0 + gap))):
                got = _rules.sr_add(*args)
                if gap > cut:
                    assert got == args[2 * big:2 * big + 2], (gap, args)
                else:
                    assert 0.5 <= abs(got[0]) < 1.0, (gap, args)


@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
def test_non_finite_operands_agree(x):
    # inf and NaN pass through the scaled primitives with their scale.
    assert repr(_rules.sr_norm(x, 0.0)) == repr((x, 0.0))
    assert repr(_rules.sr_mul(1.5, 0.0, x, 0.0)) == repr((x, 0.0))
    # By repr at a scale of -0.0 too, where a scale sign may differ though
    # the values compare equal: the scale comes back as the operands' scale
    # plus 0, so -0.0 becomes 0.0.
    for k in (-0.0, 0.0, 3.0):
        for name, args, scale in (("sr_norm", (x, k), k),
                                  ("sr_mul", (1.5, k, x, k), k + k),
                                  ("sr_add", (x, k, 0.75, k), k),
                                  ("sr_add", (0.75, k, x, k), k)):
            got = getattr(_rules, name)(*args)
            assert repr(got) == repr((x, scale + 0.0)), (name, args)


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=0.0, max_value=1e8),
       st.floats(min_value=0.0, max_value=1e8))
def test_gamma_arg_bit_identical(compiled, xi, mu):
    assert pure.gamma_arg(xi, mu) == compiled.gamma_arg(xi, mu)
    # Exact in the single-parameter limits.
    assert compiled.gamma_arg(xi, 0.0) == xi
    assert compiled.gamma_arg(0.0, mu) == mu


def _chain_points():
    # (order, argument) pairs where the chains meet their extremes.
    points = [(l, z) for l in (0, 1, 2, 7, 40, 400, 1000)
              for z in (0.001, 0.03, 0.5, 3.0, 12.0, 29.9, 30.1, 60.0, 300.0,
                        1500.0, 20000.0)]
    # Around the Miller start switch, the root of z**2 = l**2 + T z: just
    # below and above it, past the first z that takes the new start, and
    # at 1.5x and 10x the root.
    t = _rules._MILLER_T
    for l in (1, 7, 40, 400, 1000):
        root = 0.5 * (t + math.sqrt(t * t + 4.0 * l * l))
        points += [(l, z) for z in (root - 0.01, root + 0.01, root + 4.5,
                                    1.5 * root, 10.0 * root)]
    # Around the old series switch max(1.2 l + 20, 30), high orders from
    # far below the order to above it, and the argument floor 2**-64.
    points += [(l, f * max(1.2 * l + 20.0, 30.0))
               for l in (3, 17, 50) for f in (0.8, 1.0, 1.2)]
    points += [(l, z) for l in (1000, 5000)
               for z in (1e-4, 0.5 * l, 1.2 * l + 20.0)]
    points += [(l, 2.0 ** -64) for l in (0, 1, 40, 5000)]
    # Past the end of the pure twin's factor table: orders on both sides of
    # its size, Miller starts max(l, z) + 26 just below, at and past it,
    # and a long Miller chain (about 3.3e5 steps) at z = 2**31.
    n = _rules._ODD_N
    points += [(l, z) for l in (n - 1, n, n + 1) for z in (30.0, 5000.0)]
    points += [(l, z) for l in (n - 27, n - 26, n - 25)
               for z in (0.5, 1000.0)]
    points += [(1, 2.0 ** 31), (n + 1, 2.0 ** 31)]
    # The last argument below the chain range's top, 2**32, where the ln 2
    # split of exp(-z) takes n = floor(-z / ln 2) near -6.2e9, its largest
    # |n|; the floor 2**-64 above takes n = -1.
    top = math.nextafter(2.0 ** 32, 0.0)
    points += [(0, top), (1, top)]
    return points


CHAIN_POINTS = _chain_points()


def test_family_bit_identical_on_grid(compiled):
    # The lone chains are the _rules objects on both twins, so they agree
    # at every point of CHAIN_POINTS; the compiled twin's own chain steps
    # are compared there through its node entries (next test).
    for name in ("family", "s_pair", "e_pair"):
        assert getattr(compiled, name) is getattr(pure, name), name
        assert getattr(pure, name) is vars(_rules)[name], name


# Consecutive batches of the next test alternate between these ratios, so
# that each clears both twins' node tables and fills its nodes afresh.
NEAR_ONE = (1.0 + 2.0 ** -20, 1.0 + 2.0 ** -19)


def _landing(z, ratio):
    # The node x with x * ratio == z exactly, or None.
    x = z / ratio
    for _ in range(4):
        if x * ratio == z:
            return x
        x = math.nextafter(x, 0.0 if x * ratio > z else math.inf)
    return None


@pytest.mark.parametrize("backend", ["compiled", "ubsan"])
def test_chain_extremes_bit_identical_in_node_batches(request, backend):
    # At each point (l, z) of CHAIN_POINTS, a massless batch of l's block
    # (order 1 for l = 0) whose chains run at z: a node at z, where gamma
    # is z, and a node at z / ratio, where gamma * ratio is z, each where
    # both of its arguments lie in the chain range. Its fill runs the
    # compiled upward run from order 0 (c_e_run, c_exp_split) and the
    # Miller run of l's block top (c_miller_start, c_steps) at z, as the
    # lone chains at (l, z) do; the compiled and UBSan builds must give the
    # pure twin's bits in both node entries.
    kernel = request.getfixturevalue(backend)
    lo, hi = _rules._Z_MIN, _rules._Z_MAX
    for i, (l, z) in enumerate(CHAIN_POINTS):
        ratio = NEAR_ONE[i % 2]
        x = _landing(z, ratio)
        assert x is not None or z / ratio < lo, (l, z)
        xs = tuple(v for v in (z, x)
                   if v is not None and lo <= v and v * ratio < hi)
        assert xs, (l, z)
        args = (max(l, 1), 0.0, ratio, 2, xs)
        for entry in ("log_delta_nodes", "dlog_delta_nodes"):
            want = getattr(pure, entry)(*args)
            got = getattr(kernel, entry)(*args)
            assert repr(got) == repr(want), (entry, l, z)


GRID = [(l, xi, mu, ratio)
        for l in (1, 3, 10, 25) for xi in (0.05, 1.0, 8.0)
        for mu in (0.0, 0.7, 3.0) for ratio in (1.3, 2.2)]
GRID += [(1, 0.4, 0.0, 1.5), (6, 2.5, 1.2, 1.25), (15, 9.0, 0.3, 2.0)]
# Near contact, at high orders, heavy masses and tiny frequencies, where the
# TM round trip's plain-double 2x2 blocks meet their widest ranges.
GRID += [(l, xi, mu, ratio)
         for l in (200, 2000) for xi in (1e-6, 0.5, 40.0)
         for mu in (0.0, 50.0) for ratio in (1.003, 1.03)]


def test_log_delta_bit_identical_on_grid(compiled):
    for l, xi, mu, ratio in GRID:
        for mode in (0, 1, 2):
            a = pure.log_delta_point(l, xi, mu, ratio, mode)
            b = compiled.log_delta_point(l, xi, mu, ratio, mode)
            assert a == b, (l, xi, mu, ratio, mode)


def test_log_delta_nodes_bit_identical(compiled):
    xs = [0.01 * (1.35 ** i) for i in range(40)]
    for mode in (0, 1, 2):
        te, tm = pure.log_delta_nodes(4, 0.5, 1.6, mode, xs)
        assert compiled.log_delta_nodes(4, 0.5, 1.6, mode, xs) == (te, tm)
        assert len(te) == len(tm) == len(xs)
        # Nodes may come from any iterable, read once.
        for kernel in (pure, compiled):
            got = kernel.log_delta_nodes(4, 0.5, 1.6, mode, iter(xs))
            assert repr(got) == repr((te, tm)), (kernel.BACKEND, mode)
        for x, a, b in zip(xs, te, tm):
            # Each requested component is the pointwise mode value; one not
            # requested reads -0.0, so the per-node sum is the requested
            # value bit for bit, in every mode.
            for want, got in ((0, a), (1, b)):
                if mode in (want, 2):
                    assert got == pure.log_delta_point(4, x, 0.5, 1.6, want)
                else:
                    assert got == 0.0 and math.copysign(1.0, got) == -1.0
            point = pure.log_delta_point(4, x, 0.5, 1.6, mode)
            assert (a + b).hex() == point.hex()
    # Near contact at l = 1 and small xi, rho is about 0.99 in both modes,
    # so ln(1 - rho) takes its branch from rho = 1/2 up (below -ln 2).
    for mu in (0.0, 0.5):
        xs = (1e-3, 0.01, 0.1, 0.5)
        want = pure.log_delta_nodes(1, mu, 1.003, 2, xs)
        assert repr(compiled.log_delta_nodes(1, mu, 1.003, 2, xs)) == repr(
            want), mu
        assert max(want[0] + want[1]) < -math.log(2.0), mu
    # The TE node xi = 0 at a mass, where gamma is mu exactly (c_gamma's
    # xi == 0 branch; mu = 0 takes the other exact branch on the grid).
    for mu in (0.5, 3.0):
        xs = (0.0, 0.25, 1.0)
        want = pure.log_delta_nodes(4, mu, 1.6, 0, xs)
        assert repr(compiled.log_delta_nodes(4, mu, 1.6, 0, xs)) == repr(
            want), mu


def test_dlog_delta_nodes_bit_identical(compiled):
    # The ratio derivative at every grid point, and on a batch of nodes
    # spanning five decades, in every mode.
    batches = [(l, mu, ratio, (xi,)) for l, xi, mu, ratio in GRID]
    batches += [(l, mu, ratio, tuple(1e-3 * 2.3 ** i for i in range(15)))
                for l, mu, ratio in ((4, 0.5, 1.6), (30, 0.0, 1.05),
                                     (300, 20.0, 1.01))]
    for l, mu, ratio, xs in batches:
        for mode in (0, 1, 2):
            want = pure.dlog_delta_nodes(l, mu, ratio, mode, xs)
            got = compiled.dlog_delta_nodes(l, mu, ratio, mode, xs)
            assert repr(got) == repr(want), (l, mu, ratio, mode)
            got = pure.dlog_delta_nodes(l, mu, ratio, mode, iter(xs))
            assert repr(got) == repr(want), (l, mu, ratio, mode)
    # The TE node xi = 0 at a mass, where gamma is mu exactly.
    for l, mu, ratio in ((4, 0.5, 1.6), (30, 3.0, 1.05)):
        xs = (0.0, 0.25, 1.0)
        want = pure.dlog_delta_nodes(l, mu, ratio, 0, xs)
        got = compiled.dlog_delta_nodes(l, mu, ratio, 0, xs)
        assert repr(got) == repr(want), (l, mu, ratio)


def test_non_integer_order_raises(compiled):
    # An order is an index: truncating 3.5 to 3 would answer another question.
    for kernel in (pure, compiled):
        with pytest.raises(TypeError):
            kernel.log_delta_point(3.5, 1.0, 0.5, 1.5, 2)
        with pytest.raises(TypeError):
            kernel.s_pair(2.9, 1.0)


@pytest.mark.parametrize("backend", ["pure", "compiled"])
def test_mode_and_order_are_indices(request, backend):
    # Both twins read l and mode as C reads an index: a float, even 1.0,
    # raises C's TypeError before any node is read, also with no nodes,
    # and True reads as 1. The pure case needs no compiler.
    kernel = _kernel(request, backend)
    msg = "'float' object cannot be interpreted as an integer"
    for bad in (1.5, 1.0):
        for l, mode in ((5, bad), (bad, 1)):
            with pytest.raises(TypeError) as exc_info:
                kernel.log_delta_point(l, 1.0, 0.5, 1.3, mode)
            assert str(exc_info.value) == msg
            for name in ("log_delta_nodes", "dlog_delta_nodes"):
                for xs in ([1.0], []):
                    with pytest.raises(TypeError) as exc_info:
                        getattr(kernel, name)(l, 0.5, 1.3, mode, xs)
                    assert str(exc_info.value) == msg, (name, l, mode, xs)
    assert (repr(kernel.log_delta_point(True, 1.0, 0.5, 1.3, True))
            == repr(kernel.log_delta_point(1, 1.0, 0.5, 1.3, 1)))
    for name in ("log_delta_nodes", "dlog_delta_nodes"):
        f = getattr(kernel, name)
        assert (repr(f(True, 0.5, 1.3, True, [1.0, 2.0]))
                == repr(f(1, 0.5, 1.3, 1, [1.0, 2.0])))


# Out-of-domain calls: (function name, arguments). Both kernels raise
# ValueError before computing anything.
OUT_OF_DOMAIN = [
    ("s_pair", (-1, 1.0)),
    ("s_pair", (2, 0.0)),
    ("s_pair", (2, -1.0)),
    ("s_pair", (2, math.nan)),
    ("s_pair", (2, math.inf)),
    ("s_pair", (2, 2.0 ** 32)),
    ("s_pair", (0, 1e300)),
    ("s_pair", (2, 2.0 ** -65)),
    ("s_pair", (100, 1e-40)),
    ("e_pair", (2, 0.0)),
    ("e_pair", (-1, 1.0)),
    ("e_pair", (2, math.inf)),
    ("e_pair", (1, 5e9)),
    ("e_pair", (2, 2.0 ** -65)),
    ("e_pair", (100, 1e-40)),
    ("family", (3, 0.0)),
    ("family", (-2, 1.0)),
    ("family", (2, 2.0 ** -65)),
    ("family", (100, 1e-40)),
    ("log_delta_point", (0, 1.0, 0.5, 1.5, 0)),
    ("log_delta_point", (1, 0.0, 0.0, 1.5, 0)),
    ("log_delta_point", (1, -1.0, 0.5, 1.5, 0)),
    ("log_delta_point", (1, 1.0, 0.5, 1.0, 1)),
    ("log_delta_point", (1, 0.0, 0.0, 1.5, 2)),
    ("log_delta_point", (-1, 1.0, 0.0, 1.5, 2)),
    ("log_delta_point", (0, 1.0, 0.0, 1.5, 0)),
    ("log_delta_point", (1, 1.0, 0.0, 1.5, 3)),
    ("log_delta_point", (1, 1.0, 0.0, 1.5, -1)),
    ("log_delta_point", (1, 0.0, 0.5, 1.5, 1)),
    ("log_delta_point", (1, 0.0, 0.5, 1.5, 2)),
    ("log_delta_point", (1, math.nan, 0.5, 1.5, 2)),
    ("log_delta_point", (1, 1.0, math.nan, 1.5, 2)),
    ("log_delta_point", (1, 1.0, -0.5, 1.5, 2)),
    ("log_delta_point", (1, 1.0, 0.5, math.inf, 2)),
    ("log_delta_point", (1, 1.0, 3e9, 1.5, 0)),
    ("log_delta_point", (1, 3e9, 0.0, 1.5, 1)),
    # Below the argument floor 2**-64: gamma in any mode, xi in TM.
    ("log_delta_point", (5, 1e-100, 0.0, 1.5, 0)),
    ("log_delta_point", (5, 1e-100, 0.0, 1.5, 1)),
    ("log_delta_point", (5, 1e-100, 0.5, 1.5, 1)),
    ("log_delta_nodes", (3, 0.0, 1.5, 2, [0.0, 1.0])),
    ("log_delta_nodes", (3, 0.5, 1.5, 2, [1.0, -2.0])),
    ("log_delta_nodes", (3, 0.5, 1.5, 7, [1.0])),
    ("log_delta_nodes", (0, 0.5, 1.5, 0, [1.0])),
    ("dlog_delta_nodes", (3, 0.0, 1.5, 2, [0.0, 1.0])),
    ("dlog_delta_nodes", (3, 0.5, 1.0, 1, [1.0])),
    ("dlog_delta_nodes", (3, 0.5, 1.5, 3, [1.0])),
    ("dlog_delta_nodes", (1, 0.0, 1.5, 2, [1.0, 3e9])),
    # Orders from 2**31 up, which a C long need not hold, and which would
    # start a chain that does not return (the library's entries are in
    # test_library_rejects_orders_from_2_31).
    ("s_pair", (2 ** 31, 1.0)),
    ("e_pair", (2 ** 31, 1.0)),
    ("family", (2 ** 60, 1.0)),
    ("log_delta_point", (2 ** 31, 1.0, 0.5, 1.5, 2)),
    ("dlog_delta_nodes", (2 ** 60, 0.5, 1.5, 1, [1.0])),
]


@pytest.mark.parametrize("backend", ["pure", "compiled"])
def test_out_of_domain_raises(compiled, backend):
    kernel = pure if backend == "pure" else compiled
    for name, args in OUT_OF_DOMAIN:
        with pytest.raises(ValueError):
            getattr(kernel, name)(*args)
    # The one zero-frequency node in the domain: massive TE, which
    # log_delta_te serves. Both kernels agree on it, and on a TE node below
    # the floor whose gamma, the mass, is above it.
    v = kernel.log_delta_point(2, 0.0, 0.5, 1.5, 0)
    assert math.isfinite(v) and v < 0.0
    assert v == pure.log_delta_point(2, 0.0, 0.5, 1.5, 0)
    assert kernel.log_delta_nodes(2, 0.5, 1.5, 0, [0.0]) == ((v,), (0.0,))
    assert kernel.log_delta_point(2, 1e-100, 0.5, 1.5, 0) == v
    # Also where the Miller run at gamma = mu starts above the one at
    # gamma * ratio (81 against 60 in the block of order 2).
    w = kernel.log_delta_point(2, 0.0, 55.0, 1.1, 0)
    assert math.isfinite(w) and w == pure.log_delta_point(2, 0.0, 55.0, 1.1, 0)


@pytest.mark.parametrize("backend", ["pure", "compiled"])
def test_library_rejects_orders_from_2_31(compiled, backend, monkeypatch):
    # The domain checks refuse the order before any chain runs.
    kernel = pure if backend == "pure" else compiled
    monkeypatch.setattr(bessel, "kernel", kernel)
    monkeypatch.setattr(determinants, "kernel", kernel)
    with pytest.raises(ValueError, match=r"l < 2\*\*31"):
        bessel.eval_family(2 ** 31, 1.0)
    p = determinants.SpectralPoint(l=2 ** 31, xi_hat=1.0, mu=0.5, ratio=1.5)
    for f in (determinants.log_delta_te, determinants.log_delta_tm):
        with pytest.raises(ValueError, match=r"l < 2\*\*31"):
            f(p)


def test_log_delta_nodes_from_two_threads(compiled):
    # The compiled batch runs without the GIL; two threads at once on
    # different waves must each get the serial answer.
    jobs = [(4, 0.5, 1.6, 2, [0.01 * (1.35 ** i) for i in range(15)]),
            (30, 2.0, 1.05, 1, [0.2 * (1.3 ** i) for i in range(15)])]
    expected = [pure.log_delta_nodes(*job) for job in jobs]
    assert [compiled.log_delta_nodes(*job) for job in jobs] == expected
    start = threading.Barrier(len(jobs))
    got = [[] for _ in jobs]

    def run(i):
        start.wait()
        for _ in range(50):
            got[i].append(compiled.log_delta_nodes(*jobs[i]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(i,))
                   for i in range(len(jobs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for i, want in enumerate(expected):
        assert got[i] == [want] * 50


def _empty_pure_cache():
    # The node table and the upward runs it kept, so that every fill after
    # this starts from order 0.
    pure._NODES.clear()
    pure._RUNS.clear()


# Nodes from 1e-3 to 1e3 for the chain-cache tests.
CACHE_XS = tuple(1e-3 * 10.0 ** (i / 2.0) for i in range(13))
# More nodes than the node table holds (256), from 1e-3 to 30.
LONG_XS = tuple(1e-3 * 10.0 ** (4.5 * i / 299) for i in range(300))
# The cache tests run on every twin and on the sanitizer build.
CACHE_BACKENDS = ["pure", "compiled", "ubsan"]


@pytest.mark.parametrize("backend", CACHE_BACKENDS)
def test_chain_cache_changes_no_bit(request, backend):
    # Both twins keep one node table between calls: each node's chains for
    # the 16 orders of a block, for one (block top, mu, ratio) at a time, at
    # most 256 nodes; C keeps one table per thread and finds a node by
    # probing from the hash of its bits. Each value must be the one the
    # pure twin gives with its cache emptied before the call, whether the
    # calls ascend in l, descend, or follow calls that leave other chains
    # kept: one at another order on the same nodes, then one at other nodes
    # or at the same nodes and order with another ratio or another mass,
    # then the same call in TE alone. So no chains kept for another
    # (mu, ratio), or without TM's, may be served. Last, a batch longer
    # than the cap, in TE then TM, on 256 of its nodes and on all 300: the
    # table fills, is cleared when full, and a TE record is upgraded to TM
    # in a full table, with the index's probe runs at their longest.
    kernel = _kernel(request, backend)
    calls = [(name, l, mu) for mu in (0.0, 0.7) for l in range(1, 41)
             for name in ("log_delta_nodes", "dlog_delta_nodes")]
    other = tuple(1.37 * x for x in CACHE_XS)

    def call(k, name, l, mu, xs=CACHE_XS, ratio=1.3, mode=2):
        return repr(getattr(k, name)(l, mu, ratio, mode, xs))

    want = {}
    for c in calls:
        _empty_pure_cache()
        want[c] = call(pure, *c)
    assert {c: call(kernel, *c) for c in calls} == want
    assert {c: call(kernel, *c) for c in reversed(calls)} == want
    mixed = {}
    for name, l, mu in calls:
        got = mixed[name, l, mu] = set()
        for before in ((61 - l, mu, other, 1.3), (l, mu, CACHE_XS, 1.7),
                       (l, mu + 1.1, CACHE_XS, 1.3)):
            call(kernel, name, l + 20, mu)
            call(kernel, name, *before)
            call(kernel, name, l, mu, mode=0)
            got.add(call(kernel, name, l, mu))
    assert mixed == {c: {w} for c, w in want.items()}
    capped = [(name, l, mu, xs, 1.45, mode)
              for l, mu in ((3, 0.7), (20, 0.0))
              for xs in (LONG_XS[:256], LONG_XS) for mode in (0, 2)
              for name in ("log_delta_nodes", "dlog_delta_nodes")]
    want = {}
    for c in capped:
        _empty_pure_cache()
        want[c] = call(pure, *c)
    assert {c: call(kernel, *c) for c in capped} == want


# Nodes that consecutive blocks share, as the waves of one frame do.
RUN_XS = tuple(0.05 * 1.5 ** i for i in range(14))


@pytest.mark.parametrize("backend", CACHE_BACKENDS)
def test_continued_runs_change_no_bit(request, backend):
    # Both twins keep each node's upward runs at the order after the last
    # one a fill made, and a fill of a later block at that node, at the
    # same mu and ratio and with the same lanes, goes on from there. Each
    # call of each sequence below must give what the pure twin gives with
    # its table and kept runs emptied first: blocks in a row (each fill
    # goes on with no step to make), blocks that skip one or three blocks
    # (16 steps per lane per skipped block), and fills that must start
    # from order 0: at another mass or ratio in between, a massive TM fill
    # after TE fills (a third lane), TM after TE in one block (the kept
    # runs are past the block's orders, without a mass too), and after a
    # batch longer than the table's cap.
    kernel = _kernel(request, backend)
    runs = [[(l, 0.7, 1.3, 2, RUN_XS) for l in (2, 18, 34, 50)],
            [(l, 0.7, 1.3, 2, RUN_XS) for l in (5, 37, 101, 133)],
            [(5, 0.7, 1.3, 2, RUN_XS), (20, 0.9, 1.3, 2, RUN_XS),
             (40, 0.7, 1.3, 2, RUN_XS), (50, 0.7, 1.6, 2, RUN_XS),
             (70, 0.7, 1.3, 2, RUN_XS)],
            [(5, 0.7, 1.3, 0, RUN_XS), (20, 0.7, 1.3, 2, RUN_XS),
             (40, 0.7, 1.3, 0, RUN_XS), (41, 0.7, 1.3, 1, RUN_XS)],
            [(5, 0.0, 1.3, 0, RUN_XS), (20, 0.0, 1.3, 0, RUN_XS),
             (21, 0.0, 1.3, 2, RUN_XS), (40, 0.0, 1.3, 2, RUN_XS)],
            [(5, 0.7, 1.45, 2, LONG_XS[:40]), (8, 0.7, 1.45, 2, LONG_XS),
             (20, 0.7, 1.45, 2, LONG_XS[:40]),
             (40, 0.7, 1.45, 2, LONG_XS[:40])]]
    for name in ("log_delta_nodes", "dlog_delta_nodes"):
        for seq in runs:
            want = []
            for c in seq:
                _empty_pure_cache()
                want.append(repr(getattr(pure, name)(*c)))
            _empty_pure_cache()
            got = [repr(getattr(kernel, name)(*c)) for c in seq]
            assert got == want, (name, seq[0])


def test_fills_go_on_from_their_kept_order(monkeypatch):
    # A clock-free count of the upward steps of the pure twin's fills on a
    # sum of many blocks. The first factors a fill draws (_up) are those of
    # the steps that take a node's upward runs to the block's lowest order.
    # A node filled in the block before, on this process, goes on from
    # the order its last fill reached, one past that block's top: serially
    # with no step to make, and where a worker skips blocks (every other
    # block of the same sum here), with 16 steps per lane per skipped
    # block. Most fills go on; the others start at order 0, or go on from
    # an older fill of their node.
    monkeypatch.setattr(spectrum, "kernel", pure)
    starts = []
    pending = []

    def fill(block, xi, g, tm, run, _f=pure._fill):
        pending[:] = [(xi, block[0])]
        return _f(block, xi, g, tm, run)

    def up(n, l, _f=pure._up):
        if pending:
            starts.append(pending.pop() + (n, l))
        return _f(n, l)

    monkeypatch.setattr(pure, "_fill", fill)
    monkeypatch.setattr(pure, "_up", up)
    for stride in (1, 2):
        _empty_pure_cache()
        del starts[:]
        tops = list(range(17, 16 * 8 + 2, 16 * stride))
        for top in tops:
            for l in range(top - 15, top + 1):
                spectrum._l_term_full(l, 0.5, 1.05, 2, 1e-5)
        last = {}
        went_on = 0
        for xi, top, n, lo in starts:
            before = last.get(xi)
            # Any fill that does not start at order 0 goes on from the
            # order where its node's last fill left it.
            assert n == 0 or n == before + 1, (xi, top)
            if before in tops and tops.index(top) == tops.index(before) + 1:
                assert n == before + 1, (xi, top)
                assert lo - n == 16 * (stride - 1), (xi, top)
                went_on += 1
            last[xi] = top
        assert went_on >= 75 * (len(tops) - 2), stride


@pytest.mark.parametrize("backend", CACHE_BACKENDS)
def test_threads_keep_the_bits_of_continued_runs(request, monkeypatch,
                                                 backend):
    # A worker's fills go on through the blocks it skips, so a sum of five
    # blocks on one, two and three processes must give the same result in
    # every field.
    kernel = _kernel(request, backend)
    monkeypatch.setattr(spectrum, "kernel", kernel)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2},
                        raising=False)
    spec = spectrum.ProblemSpec(ratio=1.1, mu=0.5, rel_tol=1e-5)
    want = spectrum.energy(spec)
    assert want.l_used > 4 * 16 + 1
    for threads in (2, 3):
        assert repr(spectrum.energy(spec, threads=threads)) == repr(want)


@pytest.mark.parametrize("backend", CACHE_BACKENDS)
def test_chain_cache_from_four_threads(request, backend):
    # Four threads on the waves of one block at the same nodes ask for the
    # same node records at once. The pure twin's node table is shared by
    # every thread and replaces whole tuples; the compiled twin's is per
    # thread, so each thread fills its own. Each call must still give the
    # serial answer.
    kernel = _kernel(request, backend)
    jobs = [[(l, 0.0, 1.3, 2, CACHE_XS[:8]) for l in range(2 + i, 18, 4)]
            for i in range(4)]
    expected = [[pure.log_delta_nodes(*job) for job in js] for js in jobs]
    start = threading.Barrier(len(jobs))
    got = [[] for _ in jobs]

    def run(i):
        start.wait()
        for _ in range(10):
            for job in reversed(jobs[i]):
                got[i].append(kernel.log_delta_nodes(*job))
            _empty_pure_cache()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(i,))
                   for i in range(len(jobs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for i, want in enumerate(expected):
        assert got[i] == list(reversed(want)) * 10


@pytest.mark.parametrize("backend", CACHE_BACKENDS)
def test_warm_energy_repeats_cold_energy(request, monkeypatch, backend):
    # The compiled node table is per thread, so a new thread starts with
    # an empty one; the pure twin's shared table is emptied. The same
    # energy again, on this thread, where the table holds the last
    # block's nodes, is the same result in every field.
    kernel = _kernel(request, backend)
    monkeypatch.setattr(spectrum, "kernel", kernel)
    spec = spectrum.ProblemSpec(ratio=1.3, mu=0.5, rel_tol=1e-6)
    _empty_pure_cache()
    cold = []
    worker = threading.Thread(target=lambda: cold.append(spectrum.energy(spec)))
    worker.start()
    worker.join(timeout=120)
    assert len(cold) == 1
    spectrum.energy(spec)
    warm = spectrum.energy(spec)
    for field in dataclasses.fields(warm):
        assert (repr(getattr(warm, field.name))
                == repr(getattr(cold[0], field.name))), field.name


ENERGY_CASES = pytest.mark.parametrize("ratio,mu,rel_tol",
                                       [(1.5, 0.5, 1e-7), (1.05, 2.0, 1e-5)])


@ENERGY_CASES
def test_energy_bit_identical(compiled, monkeypatch, ratio, mu, rel_tol):
    _assert_energy_bit_identical(compiled, monkeypatch, ratio, mu, rel_tol)


@ENERGY_CASES
def test_energy_bit_identical_under_ubsan(ubsan, monkeypatch, ratio, mu,
                                          rel_tol):
    _assert_energy_bit_identical(ubsan, monkeypatch, ratio, mu, rel_tol)


def _assert_energy_bit_identical(kernel, monkeypatch, ratio, mu, rel_tol):
    # Every node, panel and wave of a whole energy, on one and two threads.
    spec = spectrum.ProblemSpec(ratio=ratio, mu=mu, rel_tol=rel_tol)
    monkeypatch.setattr(spectrum, "kernel", pure)
    want = spectrum.energy(spec)
    monkeypatch.setattr(spectrum, "kernel", kernel)
    for threads in (1, 2):
        got = spectrum.energy(spec, threads=threads)
        for field in ("value", "abs_error_estimate", "te", "tm", "l_used",
                      "integrand_evals", "per_l_terms"):
            assert repr(getattr(got, field)) == repr(getattr(want, field)), (
                threads, field)


@pytest.mark.parametrize("ratio,mu,rel_tol", [(1.5, 0.5, 1e-5),
                                               (1.05, 2.0, 1e-3)])
def test_force_bit_identical(compiled, monkeypatch, ratio, mu, rel_tol):
    # The closed-form route's whole wave sum, on one and two threads.
    spec = spectrum.ProblemSpec(ratio=ratio, mu=mu, rel_tol=rel_tol)
    monkeypatch.setattr(spectrum, "kernel", pure)
    want = repr(spectrum.force(spec))
    monkeypatch.setattr(spectrum, "kernel", compiled)
    for threads in (1, 2):
        assert repr(spectrum.force(spec, threads=threads)) == want, threads


def test_compiled_energy_loads_no_pure_twin(compiled):
    # On the compiled backend the wave framing, determinants and scaledrep
    # take their scalar rules from _rules, and the kernel hands out the
    # _rules objects as its scalar entries, so an energy run, serial or on
    # forked workers, the determinant routes, selftest and the golden
    # checks never load the pure twin. The build's exec imports
    # procasphere._rules, and with it the package, which picks its
    # backend then: so the child registers this build as procasphere._core
    # before it runs exec, as the importlib documentation does.
    code = "\n".join((
        "import importlib.util, json, sys",
        "spec = importlib.util.spec_from_file_location(",
        f"    'procasphere._core', {compiled.__file__!r})",
        "core = importlib.util.module_from_spec(spec)",
        "sys.modules['procasphere._core'] = core",
        "spec.loader.exec_module(core)",
        "import procasphere",
        "assert procasphere.active_backend() == 'compiled'",
        "spec = procasphere.ProblemSpec(ratio=1.5, mu=0.5, rel_tol=1e-3)",
        "for threads in (1, 2):",
        "    procasphere.energy(spec, threads=threads)",
        "import procasphere.determinants",
        "from procasphere.cli import main",
        "from procasphere.oracle.goldens import check_goldens",
        "assert main(['selftest']) == 0",
        "checked, _, failures = check_goldens()",
        "assert checked > 0 and not failures",
        "print(json.dumps(sorted(sys.modules)))"))
    env = {k: v for k, v in os.environ.items() if k != "PROCASPHERE_PURE"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    root = os.path.dirname(os.path.dirname(pure.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (root, env.get("PYTHONPATH")) if p)
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True, env=env)
    assert r.returncode == 0, r.stderr
    loaded = set(json.loads(r.stdout.splitlines()[-1]))
    assert {"procasphere.spectrum", "procasphere.determinants",
            "procasphere.scaledrep", "procasphere.oracle.goldens"} <= loaded
    assert "procasphere._core_py" not in loaded


def test_default_backend_is_compiled():
    if os.environ.get("PROCASPHERE_PURE"):
        pytest.skip("pure backend forced via PROCASPHERE_PURE")
    built = pytest.importorskip(
        "procasphere._core", reason="compiled kernel not built in place")
    from procasphere.backend import active_backend, kernel
    assert active_backend() == "compiled"
    assert kernel is built
