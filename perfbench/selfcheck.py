"""Self-check of the benchmark harness: its checks must bite.

Run from the repository root as: python3 perfbench/selfcheck.py

1. A solve that passes against the reference table counts as failed once
   its reference moves by 3 * rel_tol.
2. The sweep's mass-suppression check passes with S(x) and fails with S
   evaluated at 1.05 * x.

Exit code 0 when both hold, 1 otherwise.
"""

from __future__ import annotations

import copy
import sys

import run
import workloads as W


def main() -> int:
    ctx = run.Context()
    failures = 0

    def expect(name: str, cond: bool) -> None:
        nonlocal failures
        print(("ok - " if cond else "FAIL - ") + name)
        failures += not cond

    batch = W.BATCHES["figure-grid"]
    ratio, mu = 2.0, 0.0
    res = ctx.spectrum.energy(ctx.spec(ratio, mu, batch.rel_tol))
    rnd = {"out": {(ratio, mu): res}}
    attempted, failed, _misses, problems = run.check_round(
        ctx, "figure-grid", rnd)
    expect(f"energy ({ratio}, {mu}) passes against the reference",
           (attempted, failed, problems) == (1, 0, []))

    doc = copy.deepcopy(ctx.ref.doc)
    for e in doc["energies"]:
        if (e["mode"], e["ratio"], e["mu"]) == ("total", ratio, mu):
            e["value"] += 3.0 * batch.rel_tol * abs(e["value"])
    shifted = copy.copy(ctx)
    shifted.ref = W.Reference(doc)
    attempted, failed, _misses, _problems = run.check_round(
        shifted, "figure-grid", rnd)
    expect("it counts as failed against a reference shifted by 3 rel_tol",
           (attempted, failed) == (1, 1))

    ratio = W.SWEEP_RATIO
    rows = []
    for m in W.SWEEP_MUS:
        te = ctx.ref.energy("te", ratio, m)
        rows.append((m, te, te + ctx.ref.energy("tm", ratio, m)))
    x = W.SWEEP_MUS[-1] * (ratio - 1.0)
    expect("sweep suppression passes with S(x)",
           W.mass_suppression(rows, ratio, W.plate_suppression(x)) == [])
    wrong = W.mass_suppression(rows, ratio, W.plate_suppression(1.05 * x))
    expect(f"sweep suppression fails with S(1.05 x): {'; '.join(wrong)}",
           wrong != [])
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
