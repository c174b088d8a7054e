"""The repository's benchmark: time to a converged energy, force and table.

Run from the repository root as:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (inputs in workloads.py, reasons in README.md): figure-grid,
small-gap, force-cli. The package is imported from ``src/`` of the
checkout, whichever backend it selects there. A run repeats whole rounds
of the workload's operations until --seconds have passed (at least one),
checks every output, and prints, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. With --trace 0 the
metrics are the end-to-end ones of BENCHMARK.json, measured untraced and
scaled to a reference host speed by calibration slices timed between the
operations; with --trace 1 a traced round follows the untraced ones and
the metrics are the per-layer ones. Spans and run records go to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as W

SETUP_PROBES = 9
STARTUP_PROBES = 3

# Host-speed calibration. On a shared host the speed of interpreter work
# drifts by tens of percent over minutes, largely the same for any Python
# code: plain wall-time medians of two sets of ten runs, twenty minutes
# apart, differed by 25 % (README.md). So every round also times a fixed
# slice of interpreter work, spread over the gaps between its operations,
# and its times are scaled to the speed at which one slice takes
# CALIB_REF_S. The slice shares no code with the program, and the
# collector is off while it runs, so the program's heap cannot move it.
# Set-up is not scaled: process start and imports do not track interpreter
# speed, and scaling them widened their spread.
CALIB_ITERS = 100_000
CALIB_REF_S = 0.05
CALIB_SLICES = 48


def _calib_step(m, k):
    if m >= 2.718281828459045 or m < 1.0:
        j = math.floor(math.log(m))
        m = m / math.exp(j)
        k += j
    return m, k


def calibration_slice() -> float:
    gc.disable()
    try:
        t0 = time.perf_counter()
        m, k = 1.5, 0.0
        for i in range(CALIB_ITERS):
            m, k = _calib_step(m * 1.7 + (i & 7) * 0.01, k)
        return time.perf_counter() - t0
    finally:
        gc.enable()


class Calibration:
    """Calibration slices taken at the points between timed operations."""

    def __init__(self, points: int):
        self.per_point = -(-CALIB_SLICES // points)
        self.slices: list[float] = []

    def point(self) -> None:
        for _ in range(self.per_point):
            self.slices.append(calibration_slice())

    def speed(self) -> float:
        """Factor that scales a wall time to the reference speed."""
        return CALIB_REF_S * len(self.slices) / sum(self.slices)


# -- set-up -------------------------------------------------------------------

class Context:
    """Everything a run loads before its first solve."""

    def __init__(self):
        t0 = time.perf_counter()
        sys.path.insert(0, str(W.SRC_DIR))
        import procasphere
        from procasphere import spectrum

        self.import_s = time.perf_counter() - t0
        where = Path(procasphere.__file__).resolve()
        if not where.is_relative_to(W.SRC_DIR):
            raise SystemExit(f"procasphere imported from {where}, not from "
                             f"{W.SRC_DIR}")
        self.spectrum = spectrum
        self.backend = procasphere.active_backend()
        self.ref = W.Reference.load()

    @functools.cached_property
    def plate_s(self) -> float:
        """S(x) at the sweep's heaviest mass, computed when first checked
        rather than in set-up: it needs mpmath, which the program does
        not import."""
        return W.plate_suppression(W.SWEEP_MUS[-1] * (W.SWEEP_RATIO - 1.0))

    def spec(self, ratio, mu, rel_tol, mode="total"):
        return self.spectrum.ProblemSpec(ratio=ratio, mu=mu, rel_tol=rel_tol,
                                         mode=mode)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(W.SRC_DIR), env.get("PYTHONPATH")) if p)
    env.pop("PROCASPHERE_THREADS", None)
    return env


def setup_probes() -> tuple[list[float], list[float]]:
    """Wall times of fresh processes from start to the end of set-up, and
    their import times."""
    walls, imports = [], []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        out = subprocess.run([sys.executable, __file__, "--setup-probe"],
                             capture_output=True, text=True, check=True,
                             cwd=W.REPO_DIR, env=child_env())
        walls.append(time.perf_counter() - t0)
        imports.append(json.loads(out.stdout)["import_s"])
    return walls, imports


def header(ctx: Context) -> dict:
    head = W.REPO_DIR / ".git" / "HEAD"
    commit = "unknown"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            target = W.REPO_DIR / ".git" / ref[5:]
            if target.is_file():
                commit = target.read_text().strip()
    return {"commit": commit, "backend": ctx.backend,
            "python": platform.python_version(), "nproc": os.cpu_count()}


# -- the CLI ------------------------------------------------------------------

def cli(*args: str) -> tuple[subprocess.CompletedProcess, float]:
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "procasphere.cli", *args],
                          capture_output=True, text=True, cwd=W.REPO_DIR,
                          env=child_env())
    return proc, time.perf_counter() - t0


def cli_energy() -> dict:
    """procasphere energy, then procasphere replay of its JSON."""
    ratio, mu, rel_tol = W.CLI_ENERGY
    proc, wall = cli("energy", "--ratio", repr(ratio), "--mu", repr(mu),
                     "--rel-tol", repr(rel_tol), "--threads", "1")
    doc = json.loads(proc.stdout) if proc.returncode == 0 else None
    W.OUT_DIR.mkdir(exist_ok=True)
    path = W.OUT_DIR / "cli-energy.json"
    path.write_text(proc.stdout)
    replay, replay_wall = cli("replay", str(path))
    return {"doc": doc, "wall": wall, "replay_wall": replay_wall,
            "replay_ok": replay.returncode == 0
            and "replay ok" in replay.stdout}


def cli_sweep() -> list[dict] | None:
    proc, _wall = cli("sweep-mass", "--ratio", repr(W.SWEEP_RATIO),
                      "--mu-values", ",".join(repr(m) for m in W.SWEEP_MUS),
                      "--rel-tol", repr(W.SWEEP_TOL), "--threads", "1")
    if proc.returncode != 0:
        return None
    return json.loads(proc.stdout)["result"]["rows"]


# -- one round ----------------------------------------------------------------

def run_round(ctx: Context, workload: str, order, tracer=None) -> dict:
    """Solve the workload's operations once, each between calibration
    points; outputs, raw wall times and calibrated times."""
    batch = W.BATCHES[workload]
    sp = ctx.spectrum

    def solve(r, m):
        spec = ctx.spec(r, m, batch.rel_tol)
        if batch.kind == "energy":
            return sp.energy(spec, threads=batch.threads)
        if tracer is not None:
            return tracer.call("force", sp.force, spec)
        return sp.force(spec)

    def traced_sweep():
        # In-process on the traced round, so the sweep's energy calls are
        # counted.
        sid = tracer.open("sweep")
        table = sp.sweep_mass(ctx.spec(W.SWEEP_RATIO, 0.0, W.SWEEP_TOL),
                              W.SWEEP_MUS)
        tracer.close(sid, len(table.rows))
        return json.loads(table.to_json())["rows"]

    steps = [(p, functools.partial(solve, *p)) for p in order]
    if workload == "force-cli":
        steps += [("cli", cli_energy),
                  ("sweep", cli_sweep if tracer is None else traced_sweep)]
    cal = Calibration(len(steps) + 1)
    out, walls = {}, {}
    for key, step in steps:
        cal.point()
        t0 = time.perf_counter()
        out[key] = step()
        walls[key] = time.perf_counter() - t0
    cal.point()
    speed = cal.speed()
    batch_wall = sum(walls[p] for p in order)
    round_wall = sum(walls.values())
    return {"out": {p: out[p] for p in order}, "cli": out.get("cli"),
            "sweep": out.get("sweep"), "speed": speed,
            "batch_wall_s": batch_wall, "round_wall_s": round_wall,
            "batch_s": batch_wall * speed, "round_s": round_wall * speed}


# -- checks -------------------------------------------------------------------

def check_round(ctx: Context, workload: str, rnd: dict):
    """(attempted, failed, misses, problems) of one round."""
    batch = W.BATCHES[workload]
    ref = ctx.ref
    attempted = failed = 0
    misses, problems = [], []

    def op(label, ok):
        nonlocal attempted, failed
        attempted += 1
        if not ok:
            failed += 1
            misses.append(label)

    pts = []
    for (r, m), res in sorted(rnd["out"].items()):
        if batch.kind == "energy":
            value = res.value
            e_ref = ref.energy("total", r, m)
            op(f"energy ({r}, {m}): {value!r} vs {e_ref!r} "
               f"+- {res.abs_error_estimate:.3g}",
               W.energy_accurate(value, res.abs_error_estimate, e_ref,
                                 batch.rel_tol))
            if m == 0.0:
                problems += W.plate_limit("energy", value, r, 3,
                                          W.PLATE_ENERGY)
        else:
            value = res
            f_ref = ref.force(r, m)
            op(f"force ({r}, {m}): {value!r} vs {f_ref!r}",
               W.force_accurate(value, f_ref, batch.rel_tol))
            if m == 0.0:
                problems += W.plate_limit("force", value, r, 4, W.PLATE_FORCE)
        pts.append((r, m, value))
    problems += W.negative(batch.kind, [v for _r, _m, v in pts])
    problems += W.decreasing_magnitude(batch.kind, pts)

    if workload == "force-cli":
        problems += check_cli(ctx, rnd["cli"], op)
        rows = rnd["sweep"]
        if rows is None:
            problems.append("sweep-mass exited with an error")
            for mu in W.SWEEP_MUS:
                op(f"sweep row mu={mu}: no output", False)
        else:
            problems += check_sweep(ctx, rows, op)
    return attempted, failed, misses, problems


def check_cli(ctx: Context, c: dict, op) -> list[str]:
    doc = c["doc"]
    if doc is None:
        op("CLI energy: no output", False)
        return ["procasphere energy exited with an error"]
    res = doc["result"]
    problems = W.negative("CLI energy",
                          [res["e_te"], res["e_tm"], res["e_total"]])
    # Consistency of the output format only: the CLI builds e_total as this
    # sum. The accuracy of the energy is checked against the reference.
    if not res["e_total"] == res["e_te"] + res["e_tm"]:
        problems.append(f"CLI e_total {res['e_total']!r} != e_te + e_tm")
    if not c["replay_ok"]:
        problems.append("procasphere replay did not report 'replay ok'")
    ratio, mu, rel_tol = W.CLI_ENERGY
    e_ref = ctx.ref.energy("total", ratio, mu)
    op(f"CLI energy: {res['e_total']!r} vs {e_ref!r}",
       W.energy_accurate(res["e_total"], res["abs_error_estimate"], e_ref,
                         rel_tol))
    return problems


def check_sweep(ctx: Context, rows: list[dict], op) -> list[str]:
    problems = []
    ratio = W.SWEEP_RATIO
    for row in rows:
        mu = row["param"]
        e_ref = (ctx.ref.energy("te", ratio, mu)
                 + ctx.ref.energy("tm", ratio, mu))
        op(f"sweep row mu={mu}: {row['e_total']!r} vs {e_ref!r} "
           f"+- {row['abs_err']:.3g}",
           W.energy_accurate(row["e_total"], row["abs_err"], e_ref,
                             W.SWEEP_TOL))
        problems += W.negative(f"sweep mu={mu}",
                               [row["e_te"], row["e_tm"], row["e_total"]])
    problems += W.decreasing_magnitude(
        "sweep", [(ratio, r["param"], r["e_total"]) for r in rows])
    problems += W.mass_suppression(
        [(r["param"], r["e_te"], r["e_total"]) for r in rows], ratio,
        ctx.plate_s)
    return problems


def check_oracle_wave(ctx: Context, workload: str) -> list[str]:
    ratio, mu, l, rel_tol = W.ORACLE_WAVES[workload]
    te, tm = (ctx.spectrum.l_term(ctx.spec(ratio, mu, rel_tol, mode), l)
              for mode in ("te", "tm"))
    return W.oracle_wave(f"wave ({ratio}, {mu})", te, tm,
                         ctx.ref.waves[workload], rel_tol)


# -- per-layer figures --------------------------------------------------------

def per_layer(ctx, plain, traced, tracer, rng, imports):
    """Per-layer metrics, and the CLI measurement they used."""
    from kernel_samples import kernel_metrics
    from tracer import layer_metrics

    kernel = ctx.spectrum.kernel
    metrics = layer_metrics(
        tracer, lambda x, mu, ratio: kernel.gamma_arg(x, mu) * ratio)
    metrics.update(kernel_metrics(kernel, tracer.nodes, rng))
    metrics["trace.overhead"] = traced["batch_s"] / plain["batch_s"]
    c = traced.get("cli") or cli_energy()
    startup = statistics.median(cli("--version")[1]
                                for _ in range(STARTUP_PROBES))
    metrics["cli.startup_s"] = startup
    metrics["cli.energy_s"] = c["wall"] + c["replay_wall"]
    metrics["cli.overhead_s"] = (c["wall"] - c["doc"]["result"]["wall_time_s"]
                                 if c["doc"] else c["wall"])
    metrics["cli.replay_s"] = c["replay_wall"]
    metrics["setup.import_s"] = statistics.median(imports)
    return metrics, c


# -- main ---------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="procasphere benchmark")
    ap.add_argument("--workload", choices=W.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (W.SRC_DIR / "procasphere" / "__init__.py").is_file():
        print(f"error: no procasphere package under {W.SRC_DIR}",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        print(json.dumps({"import_s": Context().import_s}))
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    with open(W.REPO_DIR / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)

    setup_walls, imports = setup_probes()
    ctx = Context()
    head = header(ctx)
    print("# header " + json.dumps(head), flush=True)

    rng = random.Random(args.seed)
    order = list(W.BATCHES[args.workload].problems)
    rng.shuffle(order)

    rounds = []
    t_start = time.perf_counter()
    while True:
        rounds.append(run_round(ctx, args.workload, order))
        if time.perf_counter() - t_start >= args.seconds:
            break

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        remove = tracer.install(ctx.spectrum)
        try:
            rounds.append(run_round(ctx, args.workload, order, tracer))
        finally:
            remove()

    attempted = failed = 0
    misses, problems = [], []
    for rnd in rounds:
        a, f, m, p = check_round(ctx, args.workload, rnd)
        attempted += a
        failed += f
        misses += m
        problems += p
    problems += check_oracle_wave(ctx, args.workload)

    if args.trace:
        values, probe = per_layer(ctx, rounds[0], rounds[-1], tracer, rng,
                                  imports)
        if rounds[-1]["cli"] is None:
            # The probe is not one of the workload's operations, so a miss
            # against the reference is a problem rather than a failure.
            problems += check_cli(
                ctx, probe, lambda label, ok: ok or problems.append(label))
        names = bench["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(setup_walls),
            "batch_s": statistics.median(r["batch_s"] for r in rounds),
            "round_s": statistics.median(r["round_s"] for r in rounds),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        names = bench["end_to_end"]
    missing = [m["name"] for m in names if m["name"] not in values]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1

    record = {
        "header": head, "workload": args.workload, "seed": args.seed,
        "trace": args.trace, "order": order,
        "rounds": [{k: r[k] for k in ("batch_s", "round_s", "speed",
                                      "batch_wall_s", "round_wall_s")}
                   for r in rounds],
        "setup_walls": setup_walls, "values": values,
        "failed_operations": misses, "problems": problems,
    }
    W.OUT_DIR.mkdir(exist_ok=True)
    with open(W.OUT_DIR / f"run-{args.workload}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if tracer is not None:
        with open(W.OUT_DIR / f"trace-{args.workload}.json", "w",
                  encoding="utf-8") as fh:
            json.dump({"header": head, "spans": tracer.dump()}, fh)
    for line in misses + problems:
        print("# " + line, file=sys.stderr)

    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
