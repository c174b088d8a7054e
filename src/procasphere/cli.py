"""Command-line front end.

Every computing subcommand prints a JSON document with two top-level keys:
"manifest" (the command, package version, backend and the fully resolved
inputs) and "result". The manifest is sufficient to re-run the computation,
which is exactly what the replay subcommand does; since the numerics are
deterministic, a replay must reproduce the stored result bit for bit.

A module that only one subcommand needs (selftest's Bessel and determinant
routes, the unit conversion of radii in meters, the sweep tables) loads
when that runs.

Exit codes: 0 success, 1 replay mismatch or selftest failure, 2 usage or
parameter error, 3 failure to converge.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import __version__
from .backend import active_backend
from .spectrum import (
    ConvergenceError,
    ProblemSpec,
    default_fd_step,
    energy,
    force,
)


class UsageError(Exception):
    """Bad flag combination or parameter value; maps to exit code 2."""


def _problem_inputs(args) -> dict:
    dimless = args.ratio is not None or args.mu is not None
    physical = (args.a1_m is not None or args.a2_m is not None
                or args.mass_ev is not None)
    if dimless and physical:
        raise UsageError(
            "give either --ratio/--mu or --a1-m/--a2-m/--mass-ev, not both")
    if physical:
        if args.a1_m is None or args.a2_m is None:
            raise UsageError("physical input needs both --a1-m and --a2-m")
        from .units import convert_units
        ratio, mu = convert_units(
            args.a1_m, args.a2_m,
            args.mass_ev if args.mass_ev is not None else 0.0)
    else:
        if args.ratio is None:
            raise UsageError(
                "give --ratio (plus optional --mu) or radii in meters")
        ratio = args.ratio
        mu = args.mu if args.mu is not None else 0.0
    if args.si and args.a1_m is None:
        raise UsageError("--si needs radii in meters (--a1-m/--a2-m)")
    inputs = {
        "ratio": ratio, "mu": mu, "rel_tol": args.rel_tol,
        "l_cap": args.l_cap, "mode": args.mode, "threads": args.threads,
        "si": args.si, "a1_m": args.a1_m, "a2_m": args.a2_m,
        "mass_ev": args.mass_ev,
    }
    if args.command == "force":
        inputs["fd_step"] = args.fd_step
    return inputs


def _sweep_ratio_inputs(args) -> dict:
    return {
        "from": args.ratio_from, "to": args.ratio_to, "steps": args.steps,
        "mu": args.mu, "rel_tol": args.rel_tol, "l_cap": args.l_cap,
        "threads": args.threads,
    }


def _sweep_mass_inputs(args) -> dict:
    try:
        mu_values = [float(tok) for tok in args.mu_values.split(",") if tok]
    except ValueError:
        raise UsageError(
            f"--mu-values must be comma-separated numbers, got {args.mu_values!r}")
    return {
        "mu_values": mu_values, "ratio": args.ratio, "rel_tol": args.rel_tol,
        "l_cap": args.l_cap, "threads": args.threads,
    }


def _manifest(command: str, inputs: dict) -> dict:
    return {
        "command": command,
        "package": "procasphere",
        "version": __version__,
        "backend": active_backend(),
        "inputs": inputs,
    }


def _emit(doc: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(doc, indent=2))
        return
    result = doc["result"]
    keys = [k for k in result if k != "wall_time_s"]
    print("# " + json.dumps(doc["manifest"]))
    print(",".join(keys))
    cells = []
    for k in keys:
        v = result[k]
        if v is None:
            cells.append("")
        elif isinstance(v, float):
            cells.append(repr(v))
        else:
            cells.append(str(v))
    print(",".join(cells))


# -- the request table: manifest inputs -> result ----------------------------
#
# A command resolves its flags into the manifest inputs and runs its table
# entry on them; replay runs the same entry on the stored inputs. Each entry
# reads every input before it computes.

def _problem(inputs: dict) -> ProblemSpec:
    return ProblemSpec(ratio=inputs["ratio"], mu=inputs["mu"],
                       rel_tol=inputs["rel_tol"], l_cap=inputs["l_cap"],
                       mode=inputs["mode"])


def _si_radius(inputs: dict):
    """The inner radius in meters if the inputs ask for SI values, else
    None. An si that is not true or false is a usage error."""
    si = inputs["si"]
    if not isinstance(si, bool):
        raise UsageError(f"si must be true or false, got {si!r}")
    return inputs["a1_m"] if si else None


def _energy(inputs: dict) -> dict:
    spec = _problem(inputs)
    threads = inputs["threads"]
    si_a1 = _si_radius(inputs)
    r = energy(spec, threads=threads)
    result = {
        "e_te": r.te,
        "e_tm": r.tm,
        "e_total": r.te + r.tm if spec.mode == "total" else None,
        "abs_error_estimate": r.abs_error_estimate,
        "l_used": r.l_used,
        "integrand_evals": r.integrand_evals,
    }
    if si_a1 is not None:
        from .units import energy_scale_joules
        e0 = energy_scale_joules(si_a1)
        for key in ("e_te", "e_tm", "e_total"):
            v = result[key]
            result[key + "_joules"] = None if v is None else v * e0
    return result


def _force(inputs: dict) -> dict:
    spec = _problem(inputs)
    threads = inputs["threads"]
    si_a1 = _si_radius(inputs)
    fd_step = inputs["fd_step"]
    f = force(spec, fd_step=fd_step, threads=threads)
    result = {"force": f, "fd_step": fd_step, "mode": spec.mode}
    if si_a1 is not None:
        from .units import energy_scale_joules
        # F = -dE/da2 = (E0/a1) * (-dE_hat/dratio)
        result["force_newtons"] = f * energy_scale_joules(si_a1) / si_a1
    return result


def _sweep_ratio(inputs: dict):
    from .sweeps import sweep_ratio

    template = ProblemSpec(ratio=inputs["from"], mu=inputs["mu"],
                           rel_tol=inputs["rel_tol"], l_cap=inputs["l_cap"])
    return sweep_ratio(template, inputs["from"], inputs["to"],
                       inputs["steps"], threads=inputs["threads"])


def _sweep_mass(inputs: dict):
    from .sweeps import sweep_mass

    template = ProblemSpec(ratio=inputs["ratio"], rel_tol=inputs["rel_tol"],
                           l_cap=inputs["l_cap"])
    return sweep_mass(template, inputs["mu_values"],
                      threads=inputs["threads"])


_COMMANDS = {
    "energy": _energy,
    "force": _force,
    "sweep-ratio": _sweep_ratio,
    "sweep-mass": _sweep_mass,
}


class _Inputs(dict):
    """Manifest inputs; reading one that is missing is a usage error."""

    def __missing__(self, key):
        raise UsageError(f"manifest inputs lack {key!r}")


def _run(command, inputs):
    """The result of a command for its manifest inputs."""
    if not (isinstance(command, str) and command in _COMMANDS
            and isinstance(inputs, dict)):
        raise UsageError(f"cannot run command {command!r} on {inputs!r}")
    return _COMMANDS[command](_Inputs(inputs))


def _as_json(result):
    # A sweep's table, the one result that is not a dict, as its JSON.
    if isinstance(result, dict):
        return result
    return json.loads(result.to_json())


# -- subcommands -------------------------------------------------------------

def _cmd_compute(args) -> int:
    inputs = args.inputs(args)
    t0 = time.perf_counter()
    result = _run(args.command, inputs)
    wall = time.perf_counter() - t0
    if args.fmt == "csv" and not isinstance(result, dict):
        sys.stdout.write(result.to_csv())
        return 0
    result = _as_json(result)
    result["wall_time_s"] = wall
    _emit({"manifest": _manifest(args.command, inputs), "result": result},
          args.fmt)
    return 0


def _strip_volatile(obj):
    if isinstance(obj, dict):
        return {k: _strip_volatile(v) for k, v in obj.items()
                if k != "wall_time_s"}
    if isinstance(obj, list):
        return [_strip_volatile(v) for v in obj]
    return obj


def _cmd_replay(args) -> int:
    try:
        with open(args.file, encoding="utf-8") as fh:
            doc = json.load(fh)
        command = doc["manifest"]["command"]
        inputs = doc["manifest"]["inputs"]
        stored = doc["result"]
    except OSError as exc:
        raise UsageError(f"cannot read {args.file}: {exc.strerror}") from None
    except (ValueError, KeyError, TypeError) as exc:
        raise UsageError(
            f"{args.file} is not a result document: {exc!r}") from None
    fresh = _as_json(_run(command, inputs))
    stored = json.dumps(_strip_volatile(stored), sort_keys=True)
    redone = json.dumps(_strip_volatile(fresh), sort_keys=True)
    if stored == redone:
        print(f"replay ok: {args.file} ({command})")
        return 0
    print(f"replay mismatch for {args.file} ({command})", file=sys.stderr)
    print(f"stored: {stored}", file=sys.stderr)
    print(f"redone: {redone}", file=sys.stderr)
    return 1


def _cmd_selftest(args) -> int:
    from .bessel import eval_family
    from .determinants import (
        SpectralPoint, det_q0_expansion, det_q0_factored, det_q_direct,
        det_q_expansion, expansion_coefficients, log_delta_tm,
        log_delta_tm_massless, reference_expansion_coefficients)

    failures = 0

    def check(name, fn):
        nonlocal failures
        try:
            fn()
            print(f"ok - {name}")
        except Exception as exc:
            failures += 1
            print(f"FAIL - {name}: {exc}")

    print(f"ok - backend: {active_backend()}")

    def wronskian():
        worst = 0.0
        for l in (0, 1, 5, 40):
            for z in (1e-3, 1.0, 30.0, 200.0):
                f = eval_family(l, z)
                res = (f.s * f.e_prime - f.s_prime * f.e).to_float() + 1.0
                worst = max(worst, abs(res))
        if worst > 1e-12:
            raise AssertionError(f"worst residual {worst:.3e}")

    def det_routes():
        pts = (SpectralPoint(l=1, xi_hat=0.5, mu=0.3, ratio=1.5),
               SpectralPoint(l=5, xi_hat=2.0, mu=1.0, ratio=1.2),
               SpectralPoint(l=12, xi_hat=8.0, mu=0.5, ratio=2.0),
               SpectralPoint(l=3, xi_hat=0.05, mu=2.0, ratio=1.1))
        for p in pts:
            rel = abs((det_q_expansion(p) / det_q_direct(p)).to_float() - 1.0)
            if rel > 1e-9:
                raise AssertionError(f"coupled det mismatch {rel:.3e} at {p}")
            rel0 = abs(
                (det_q0_expansion(p) / det_q0_factored(p)).to_float() - 1.0)
            if rel0 > 1e-10:
                raise AssertionError(
                    f"decoupled det mismatch {rel0:.3e} at {p}")
            for orders in (expansion_coefficients(p),
                           reference_expansion_coefficients(p)):
                if any(o.sign() != 1.0 for o in orders):
                    raise AssertionError(f"non-positive coefficient at {p}")

    def massless_reduction():
        pts = ((1, 0.7, 1.5), (6, 3.0, 1.3), (15, 10.0, 2.0))
        for l, xi, ratio in pts:
            a = log_delta_tm(SpectralPoint(l=l, xi_hat=xi, mu=0.0,
                                           ratio=ratio))
            b = log_delta_tm_massless(l, xi, ratio)
            if abs(a - b) > 1e-10 * abs(b):
                raise AssertionError(
                    f"massless mismatch at l={l}, xi={xi}, ratio={ratio}")

    def force_routes():
        # The closed-form derivative against the finite-difference
        # reference.
        spec = ProblemSpec(ratio=2.0, mu=0.5, rel_tol=1e-4)
        f = force(spec)
        ref = force(spec, fd_step=default_fd_step(spec))
        if not (f < 0.0 and abs(f - ref) <= spec.rel_tol * abs(ref)):
            raise AssertionError(f"force {f!r} vs finite differences {ref!r}")

    def energy_sanity():
        r = energy(ProblemSpec(ratio=1.3, rel_tol=1e-5))
        if not (r.te < 0.0 and r.tm < 0.0):
            raise AssertionError(
                f"energies not attractive: te={r.te}, tm={r.tm}")
        q = r.te / r.tm
        if not (0.25 <= q <= 4.0):
            raise AssertionError(f"TE/TM ratio {q} outside sanity window")

    check("riccati-bessel wronskian", wronskian)
    check("determinant routes agree", det_routes)
    check("massless reduction", massless_reduction)
    check("energy sanity", energy_sanity)
    check("force routes agree", force_routes)
    return 0 if failures == 0 else 1


# -- parser ------------------------------------------------------------------

def _add_problem_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--ratio", type=float, default=None,
                   help="outer/inner radius ratio (> 1)")
    p.add_argument("--mu", type=float, default=None,
                   help="field mass times inner radius, natural units (>= 0)")
    p.add_argument("--a1-m", dest="a1_m", type=float, default=None,
                   help="inner radius in meters")
    p.add_argument("--a2-m", dest="a2_m", type=float, default=None,
                   help="outer radius in meters")
    p.add_argument("--mass-ev", dest="mass_ev", type=float, default=None,
                   help="field mass in eV")
    p.add_argument("--mode", choices=("te", "tm", "total"), default="total",
                   help="which polarization to sum (default: total)")
    p.add_argument("--si", action="store_true",
                   help="also report SI values (needs radii in meters)")


def _add_common_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--rel-tol", dest="rel_tol", type=float, default=1e-8,
                   help="relative tolerance on the summed energy")
    p.add_argument("--l-cap", dest="l_cap", type=int, default=5000,
                   help="hard ceiling on the partial-wave order")
    p.add_argument("--threads", type=int, default=1,
                   help="processes for each wave sum, at most one per CPU "
                        "this process may use; forked workers, each started "
                        "on a CPU other than this process's, make some of "
                        "the blocks of waves. Recorded in the manifest; no "
                        "count changes the result (default: 1)")
    p.add_argument("--format", dest="fmt", choices=("json", "csv"),
                   default="json", help="output format (default: json)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="procasphere",
        description="Casimir energy of a massive vector field between two "
                    "concentric conducting spheres.")
    parser.add_argument("--version", action="version",
                        version=f"procasphere {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("energy", help="interaction energy at one point")
    _add_problem_args(p)
    _add_common_args(p)
    p.set_defaults(func=_cmd_compute, inputs=_problem_inputs)

    p = sub.add_parser("force", help="-dE/d(ratio) at one point")
    _add_problem_args(p)
    _add_common_args(p)
    p.add_argument("--fd-step", dest="fd_step", type=float, default=None,
                   help="step in ratio of the finite-difference reference "
                        "(Richardson-extrapolated central differences); "
                        "without it the force integrates the closed-form "
                        "ratio derivative")
    p.set_defaults(func=_cmd_compute, inputs=_problem_inputs)

    p = sub.add_parser("sweep-ratio", help="energy table over radius ratios")
    p.add_argument("--from", dest="ratio_from", type=float, required=True,
                   help="first ratio (> 1)")
    p.add_argument("--to", dest="ratio_to", type=float, required=True,
                   help="last ratio (> 1)")
    p.add_argument("--steps", type=int, required=True,
                   help="number of grid points (>= 2)")
    p.add_argument("--mu", type=float, default=0.0,
                   help="fixed field mass (default: 0)")
    _add_common_args(p)
    p.set_defaults(func=_cmd_compute, inputs=_sweep_ratio_inputs)

    p = sub.add_parser("sweep-mass", help="energy table over field masses")
    p.add_argument("--mu-values", dest="mu_values", required=True,
                   help="comma-separated ascending masses, e.g. 0,0.5,1")
    p.add_argument("--ratio", type=float, required=True,
                   help="fixed radius ratio (> 1)")
    _add_common_args(p)
    p.set_defaults(func=_cmd_compute, inputs=_sweep_mass_inputs)

    p = sub.add_parser("selftest", help="hermetic internal cross-checks")
    p.set_defaults(func=_cmd_selftest)

    p = sub.add_parser("replay",
                       help="re-run a stored JSON result and compare bits")
    p.add_argument("file", help="JSON output of a previous run")
    p.set_defaults(func=_cmd_replay)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"did not converge: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
