"""Regenerate the benchmark's reference table, perfbench/reference.json.

Run as: python3 perfbench/make_reference.py [--src DIR]

Every energy input of the workloads is solved at rel_tol * 1e-4 and every
force at rel_tol * 1e-3, each with its own error estimate. A force's
estimate is the change when the finite-difference step is halved. One
partial wave per workload comes from the mpmath oracle (TE and TM), which
is independent of the fast kernel. --src selects the package source to
import, so a compiled build can regenerate the table faster; both backends
return bit-identical values.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time

import workloads as W


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=str(W.SRC_DIR),
                    help="directory holding the procasphere package")
    args = ap.parse_args(argv)
    sys.path.insert(0, args.src)
    import procasphere
    from procasphere import ProblemSpec, default_fd_step, energy, force
    from procasphere.oracle import oracle_l_term

    t_start = time.perf_counter()
    energies = []
    for mode, ratio, mu, rel_tol in W.energy_inputs():
        t0 = time.perf_counter()
        tol = rel_tol * W.REF_ENERGY_FACTOR
        r = energy(ProblemSpec(ratio=ratio, mu=mu, rel_tol=tol, mode=mode))
        energies.append({
            "mode": mode, "ratio": ratio, "mu": mu, "rel_tol": tol,
            "value": r.value, "abs_error_estimate": r.abs_error_estimate,
            "l_used": r.l_used, "seconds": round(time.perf_counter() - t0, 2),
        })
        print(f"energy {mode} {ratio} {mu} @ {tol:g}: {r.value!r} "
              f"+- {r.abs_error_estimate:.3g}", flush=True)

    forces = []
    for ratio, mu, rel_tol in W.force_inputs():
        t0 = time.perf_counter()
        tol = rel_tol * W.REF_FORCE_FACTOR
        spec = ProblemSpec(ratio=ratio, mu=mu, rel_tol=tol)
        h = default_fd_step(spec)
        f = force(spec)
        f_half = force(spec, fd_step=h / 2.0)
        forces.append({
            "ratio": ratio, "mu": mu, "rel_tol": tol, "fd_step": h,
            "value": f, "abs_error_estimate": abs(f - f_half),
            "seconds": round(time.perf_counter() - t0, 2),
        })
        print(f"force {ratio} {mu} @ {tol:g}: {f!r} +- {abs(f - f_half):.3g}",
              flush=True)

    waves = []
    for name, (ratio, mu, l, _tol) in W.ORACLE_WAVES.items():
        t0 = time.perf_counter()
        te = float(oracle_l_term(l, mu, ratio, "te"))
        tm = float(oracle_l_term(l, mu, ratio, "tm"))
        waves.append({"workload": name, "ratio": ratio, "mu": mu, "l": l,
                      "te": te, "tm": tm,
                      "seconds": round(time.perf_counter() - t0, 2)})
        print(f"oracle wave {name} l={l}: te {te!r} tm {tm!r}", flush=True)

    # Sanity of the table itself: each reference's own estimate must sit
    # far below the tolerance it is used to judge.
    for e, (_m, _r, _mu, rel_tol) in zip(energies, W.energy_inputs()):
        if not e["abs_error_estimate"] <= 1e-2 * rel_tol * abs(e["value"]):
            raise SystemExit(f"reference energy too loose: {e}")
    for f, (_r, _mu, rel_tol) in zip(forces, W.force_inputs()):
        if not f["abs_error_estimate"] <= 1e-2 * rel_tol * abs(f["value"]):
            raise SystemExit(f"reference force too loose: {f}")

    doc = {
        "command": "python3 perfbench/make_reference.py",
        "backend": procasphere.active_backend(),
        "python": platform.python_version(),
        "seconds": round(time.perf_counter() - t_start, 1),
        "energy_tol_factor": W.REF_ENERGY_FACTOR,
        "force_tol_factor": W.REF_FORCE_FACTOR,
        "energies": energies,
        "forces": forces,
        "oracle_waves": waves,
    }
    with open(W.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"wrote {W.REFERENCE_PATH} in {doc['seconds']} s on the "
          f"{doc['backend']} backend")
    return 0


if __name__ == "__main__":
    sys.exit(main())
