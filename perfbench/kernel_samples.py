"""Per-call costs of the kernel's public functions on seeded samples of a
workload's own recorded node arguments.

Times include the Python call into the kernel, which on the compiled
backend is most of a scaled-arithmetic call.
"""

from __future__ import annotations

import statistics
import time

NODE_SAMPLE = 400
POINT_SAMPLE = 120
FAMILY_SAMPLE = 100
OPERAND_SAMPLE = 2000
MIN_SECONDS = 0.25


def _per_call(fn, args) -> float:
    """Median seconds per call over passes through args, MIN_SECONDS in all."""
    passes = []
    t_end = time.perf_counter() + MIN_SECONDS
    while len(passes) < 3 or time.perf_counter() < t_end:
        t0 = time.perf_counter()
        for a in args:
            fn(*a)
        passes.append(time.perf_counter() - t0)
    return statistics.median(passes) / len(args)


def kernel_metrics(kernel, nodes, rng) -> dict:
    """nodes: recorded (l, mu, ratio, mode, xs) calls of log_delta_nodes."""
    flat = [(l, x, mu, ratio, mode)
            for l, mu, ratio, mode, xs in nodes for x in xs]
    sample = rng.sample(flat, min(NODE_SAMPLE, len(flat)))

    # The Bessel chains each node asks for: s at gamma and gamma*ratio (and
    # at xi for TM), e at gamma and gamma*ratio (and at xi*ratio for TM).
    # s_pair's branch and Miller start depend on argument against order.
    s_below, s_above, e_args = [], [], []
    for l, x, mu, ratio, mode in sample:
        g = kernel.gamma_arg(x, mu)
        tm = mode != 0
        for z in (g, g * ratio) + ((x,) if tm else ()):
            (s_below if z <= l else s_above).append((l, z))
        e_zs = (g, g * ratio) + ((x * ratio,) if tm else ())
        e_args += [(l, z) for z in e_zs]

    te = [(l, x, mu, ratio, 0) for l, x, mu, ratio, _m in sample]
    tm0 = [(l, x, mu, ratio, 1) for l, x, mu, ratio, _m in sample if mu == 0.0]
    tmm = [(l, x, mu, ratio, 1) for l, x, mu, ratio, _m in sample if mu > 0.0]

    # Scaled operands as the kernel makes them: the six values of a
    # Riccati-Bessel family at sampled chain arguments. sr_norm gets raw
    # products and same-family differences, sr_mul any two values, sr_add
    # two values of one family (similar scales, some cancellation).
    chains = s_below + s_above
    fams = []
    for l, z in rng.sample(chains, min(FAMILY_SAMPLE, len(chains))):
        f = kernel.family(l, z)
        fam = [(f[i], f[i + 1]) for i in range(0, 12, 2) if f[i] != 0.0]
        if len(fam) >= 2:
            fams.append(fam)
    values = [v for fam in fams for v in fam]
    norm_args, mul_args, add_args = [], [], []
    for i in range(OPERAND_SAMPLE):
        (am, ak), (bm, bk) = rng.choice(values), rng.choice(values)
        mul_args.append((am, ak, bm, bk))
        (cm, ck), (dm, dk) = rng.sample(rng.choice(fams), 2)
        add_args.append((cm, ck, dm if i % 2 else -dm, dk))
        norm_args.append((am * bm, ak + bk) if i % 2 else (cm - dm, ck))

    return {
        "kernel.sr_norm.ns": 1e9 * _per_call(kernel.sr_norm, norm_args),
        "kernel.sr_mul.ns": 1e9 * _per_call(kernel.sr_mul, mul_args),
        "kernel.sr_add.ns": 1e9 * _per_call(kernel.sr_add, add_args),
        "kernel.s_pair.below.us": 1e6 * _per_call(kernel.s_pair, s_below),
        "kernel.s_pair.above.us": 1e6 * _per_call(kernel.s_pair, s_above),
        "kernel.e_pair.us": 1e6 * _per_call(kernel.e_pair, e_args),
        "kernel.te_point.us": 1e6 * _per_call(kernel.log_delta_point,
                                              te[:POINT_SAMPLE]),
        "kernel.tm_point.us": 1e6 * _per_call(kernel.log_delta_point,
                                              tm0[:POINT_SAMPLE]),
        "kernel.tm_point_massive.us": 1e6 * _per_call(kernel.log_delta_point,
                                                      tmm[:POINT_SAMPLE]),
    }
