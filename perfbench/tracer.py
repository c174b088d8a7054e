"""Spans around the program's layers, kept in memory, for the traced run.

Only this process is instrumented, from outside the program:

- ``spectrum.energy``: the wave sum;
- ``spectrum._l_term_full``: one partial wave;
- ``kernel.log_delta_nodes`` and ``kernel.log_delta_point``: mode factors
  at quadrature nodes. These are wrapped on a proxy that replaces
  ``spectrum``'s reference to the kernel, so the kernel's calls among its
  own functions (the pure twin's node loop calls its point function) stay
  unwrapped and the two backends are traced alike.

All four are looked up on their modules at call time, so the wrappers see
every call, including those made by ``force`` and the sweeps. The
benchmark adds spans around its own ``force`` and ``sweep_mass`` calls.
Each span records its name, start, end, parent span, partial wave ``l``,
one count (integrand evaluations, nodes or sweep rows) and, for an
energy, the partial waves it used.
"""

from __future__ import annotations

import itertools
import threading
import time

NAME, START, END, PARENT, L, COUNT, L_USED = range(7)


class Tracer:
    def __init__(self):
        self.spans: dict[int, list] = {}
        self.nodes: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        # Waves computed on worker threads attach to the open energy span.
        self._outer = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, l=None) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else self._outer
        sid = next(self._ids)
        self.spans[sid] = [name, time.perf_counter(), None, parent, l, 0, 0]
        stack.append(sid)
        return sid

    def close(self, sid: int, count: int = 0) -> None:
        span = self.spans[sid]
        span[END] = time.perf_counter()
        span[COUNT] = count
        self._stack().pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span of its own."""
        sid = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(sid)

    def install(self, spectrum):
        """Wrap the layers; returns a function that removes the wrappers."""
        orig_energy = spectrum.energy
        orig_wave = spectrum._l_term_full
        orig_kernel = spectrum.kernel
        tracer = self

        def energy(spec, threads=1):
            sid = tracer.open("energy")
            outer, tracer._outer = tracer._outer, sid
            count = 0
            try:
                res = orig_energy(spec, threads=threads)
                count = res.integrand_evals
                tracer.spans[sid][L_USED] = res.l_used
                return res
            finally:
                tracer._outer = outer
                tracer.close(sid, count)

        def wave(l, mu, ratio, mode, rel_tol):
            sid = tracer.open("wave", l)
            count = 0
            try:
                out = orig_wave(l, mu, ratio, mode, rel_tol)
                count = out[2]
                return out
            finally:
                tracer.close(sid, count)

        class TracedKernel:
            def __getattr__(self, name):
                return getattr(orig_kernel, name)

            def log_delta_nodes(self, l, mu, ratio, mode, xs):
                tracer.nodes.append((l, mu, ratio, mode, xs))
                sid = tracer.open("kernel.nodes", l)
                try:
                    return orig_kernel.log_delta_nodes(l, mu, ratio, mode, xs)
                finally:
                    tracer.close(sid, len(xs))

            def log_delta_point(self, l, xi, mu, ratio, mode):
                sid = tracer.open("kernel.point", l)
                try:
                    return orig_kernel.log_delta_point(l, xi, mu, ratio, mode)
                finally:
                    tracer.close(sid, 1)

        spectrum.energy = energy
        spectrum._l_term_full = wave
        spectrum.kernel = TracedKernel()

        def remove():
            spectrum.energy = orig_energy
            spectrum._l_term_full = orig_wave
            spectrum.kernel = orig_kernel

        return remove

    def dump(self) -> list[dict]:
        return [{"id": sid, "name": s[NAME], "start": s[START], "end": s[END],
                 "parent": s[PARENT], "l": s[L], "count": s[COUNT],
                 "l_used": s[L_USED]}
                for sid, s in self.spans.items()]


def _union_length(intervals) -> float:
    total = 0.0
    cur_a = cur_b = None
    for a, b in sorted(intervals):
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        elif b > cur_b:
            cur_b = b
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def layer_metrics(tracer: Tracer, outer_arg) -> dict:
    """Per-layer figures derived from the spans.

    outer_arg(x, mu, ratio) gives a node's outer Bessel argument, so
    the share of nodes above the order can be counted.
    """
    spans = tracer.spans
    children: dict[int, list[int]] = {}
    for sid, s in spans.items():
        children.setdefault(s[PARENT], []).append(sid)

    def dur(sid):
        s = spans[sid]
        return s[END] - s[START]

    energies = [sid for sid, s in spans.items() if s[NAME] == "energy"]
    waves = [sid for e in energies for sid in children.get(e, ())
             if spans[sid][NAME] == "wave"]
    kernel_t = nodes_t = 0.0
    points = 0
    wave_self = 0.0
    for w in waves:
        inner = 0.0
        for k in children.get(w, ()):
            d = dur(k)
            inner += d
            if spans[k][NAME] == "kernel.nodes":
                nodes_t += d
                points += spans[k][COUNT]
        kernel_t += inner
        wave_self += dur(w) - inner
    energy_t = sum(dur(e) for e in energies)
    sum_self = sum(
        dur(e) - _union_length([(spans[w][START], spans[w][END])
                                for w in children.get(e, ())])
        for e in energies)
    l_used = sum(spans[e][L_USED] for e in energies)
    evals = sum(spans[e][COUNT] for e in energies)
    above = sum(1 for l, mu, ratio, _mode, xs in tracer.nodes
                for x in xs if outer_arg(x, mu, ratio) > l)

    def per_parent(name):
        parents = [sid for sid, s in spans.items() if s[NAME] == name]
        calls = [e for p in parents for e in children.get(p, ())
                 if spans[e][NAME] == "energy"]
        return parents, calls

    forces, force_energies = per_parent("force")
    sweeps, sweep_energies = per_parent("sweep")
    sweep_rows = sum(spans[s][COUNT] for s in sweeps)
    return {
        "kernel.nodes.points": points,
        "kernel.nodes.us_per_point": 1e6 * nodes_t / points,
        "kernel.nodes.time_share": kernel_t / energy_t,
        "kernel.nodes.above_share": above / points,
        "wave.count": len(waves),
        "wave.evals_per_wave":
            sum(spans[w][COUNT] for w in waves) / len(waves),
        "wave.ms": 1e3 * sum(dur(w) for w in waves) / len(waves),
        "wave.quad_self_ms": 1e3 * wave_self / len(waves),
        "sum.l_used": l_used,
        "sum.integrand_evals": evals,
        "sum.wave_yield": l_used / len(waves),
        "sum.self_s": sum_self,
        "force.energy_calls":
            len(force_energies) / len(forces) if forces else 0,
        "force.evals": (sum(spans[e][COUNT] for e in force_energies)
                        / len(forces) if forces else 0),
        "sweep.energy_calls": (len(sweep_energies) / sweep_rows
                               if sweep_rows else 0),
        "trace.accounted_share": (kernel_t + wave_self + sum_self) / energy_t,
    }
