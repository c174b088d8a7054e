"""End-to-end tests of the command-line interface via real subprocesses."""

import json
import math
import os
import subprocess
import sys

import pytest

import procasphere
from procasphere import ProblemSpec, energy

BASE = [sys.executable, "-m", "procasphere.cli"]
# The child runs the package under test, wherever this process imported it
# from (src/ through pytest's pythonpath, or an install), ahead of any other
# copy on the path.
PACKAGE_ROOT = os.path.dirname(os.path.dirname(procasphere.__file__))


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (PACKAGE_ROOT, env.get("PYTHONPATH")) if p)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(BASE + list(args), capture_output=True, text=True,
                          env=env)


def test_version():
    r = run_cli("--version")
    assert r.returncode == 0
    assert r.stdout.startswith("procasphere ")


def test_energy_json_document():
    r = run_cli("energy", "--ratio", "1.5", "--mu", "0.5",
                "--rel-tol", "1e-6")
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    man = doc["manifest"]
    assert man["command"] == "energy"
    assert man["package"] == "procasphere"
    assert man["inputs"]["ratio"] == 1.5
    assert man["inputs"]["mu"] == 0.5
    assert man["inputs"]["mode"] == "total"
    assert man["backend"] in ("compiled", "pure")
    res = doc["result"]
    assert res["e_total"] == pytest.approx(res["e_te"] + res["e_tm"])
    assert res["e_total"] < 0.0
    assert res["l_used"] >= 5
    assert res["wall_time_s"] > 0.0
    # Full float precision must survive the JSON trip.
    assert res["e_total"] == float(repr(res["e_total"]))


def test_energy_single_mode_nulls():
    r = run_cli("energy", "--ratio", "1.5", "--mode", "te",
                "--rel-tol", "1e-5")
    doc = json.loads(r.stdout)
    res = doc["result"]
    assert res["e_te"] < 0.0
    assert res["e_tm"] is None
    assert res["e_total"] is None


def test_energy_csv_format():
    r = run_cli("energy", "--ratio", "1.5", "--rel-tol", "1e-5",
                "--format", "csv")
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    assert lines[0].startswith("# {")
    header = lines[1].split(",")
    cells = lines[2].split(",")
    assert "e_total" in header
    row = dict(zip(header, cells))
    assert float(row["e_total"]) < 0.0


def test_physical_units_path():
    # 10 mm and 11 mm shells with a 1e-5 eV field; the conversion constants
    # fix mu = mass * a1 / (hbar c) and ratio = a2/a1.
    r = run_cli("energy", "--a1-m", "0.01", "--a2-m", "0.011",
                "--mass-ev", "1e-5", "--rel-tol", "1e-5", "--si")
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    assert doc["manifest"]["inputs"]["ratio"] == pytest.approx(1.1)
    assert doc["manifest"]["inputs"]["mu"] == pytest.approx(
        0.5067730717679396, rel=1e-12)
    res = doc["result"]
    assert res["e_total_joules"] == pytest.approx(
        res["e_total"] * 3.1615267734966903e-26 / (2.0 * math.pi * 0.01),
        rel=1e-12)


def test_input_exclusivity_and_usage_errors():
    r = run_cli("energy", "--ratio", "1.5", "--a1-m", "0.01")
    assert r.returncode == 2
    assert "not both" in r.stderr
    r = run_cli("energy", "--a1-m", "0.01")
    assert r.returncode == 2
    r = run_cli("energy")
    assert r.returncode == 2
    r = run_cli("energy", "--ratio", "0.9")
    assert r.returncode == 2
    r = run_cli("energy", "--ratio", "1.5", "--si")
    assert r.returncode == 2


def test_convergence_failure_exit_code():
    r = run_cli("energy", "--ratio", "1.05", "--l-cap", "2")
    assert r.returncode == 3
    assert "converge" in r.stderr


def test_threads_flag_recorded():
    # Only the flag sets the thread count; the environment does not.
    doc_flag = json.loads(run_cli(
        "energy", "--ratio", "1.5", "--rel-tol", "1e-5", "--threads", "2",
        env_extra={"PROCASPHERE_THREADS": "7"}).stdout)
    assert doc_flag["manifest"]["inputs"]["threads"] == 2
    doc_default = json.loads(run_cli(
        "energy", "--ratio", "1.5", "--rel-tol", "1e-5",
        env_extra={"PROCASPHERE_THREADS": "3"}).stdout)
    assert doc_default["manifest"]["inputs"]["threads"] == 1
    r = run_cli("energy", "--ratio", "1.5", "--threads", "0")
    assert r.returncode == 2
    assert "threads must be an integer >= 1" in r.stderr


def test_threads_do_not_change_bits():
    a = json.loads(run_cli("energy", "--ratio", "1.4", "--mu", "0.3",
                           "--rel-tol", "1e-6").stdout)["result"]
    b = json.loads(run_cli("energy", "--ratio", "1.4", "--mu", "0.3",
                           "--rel-tol", "1e-6", "--threads", "4").stdout)["result"]
    for k in ("e_te", "e_tm", "e_total", "abs_error_estimate", "l_used",
              "integrand_evals"):
        assert a[k] == b[k], k


def test_energy_on_two_threads_prints_one_document(tmp_path):
    # Forked workers leave without flushing the parent's stdout: one JSON
    # document, which replays ok (on two threads again).
    r = run_cli("energy", "--ratio", "1.05", "--rel-tol", "1e-4",
                "--threads", "2")
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)  # a second document would be extra data
    assert r.stdout.count('"manifest"') == 1
    assert doc["manifest"]["inputs"]["threads"] == 2
    assert doc["result"]["l_used"] > 2 * 16
    out = tmp_path / "run.json"
    out.write_text(r.stdout, encoding="utf-8")
    rep = run_cli("replay", str(out))
    assert rep.returncode == 0, rep.stderr
    assert rep.stdout == f"replay ok: {out} (energy)\n"


def test_force_command():
    r = run_cli("force", "--ratio", "1.5", "--mu", "0.5",
                "--rel-tol", "1e-5")
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    assert doc["result"]["force"] < 0.0
    # No --fd-step: the closed-form route, which takes no step.
    assert doc["result"]["fd_step"] is None
    assert doc["manifest"]["inputs"]["fd_step"] is None
    r = run_cli("force", "--ratio", "1.5", "--mu", "0.5",
                "--rel-tol", "1e-5", "--fd-step", "1e-3")
    assert r.returncode == 0, r.stderr
    fd = json.loads(r.stdout)["result"]
    assert fd["fd_step"] == 1e-3
    assert fd["force"] == pytest.approx(doc["result"]["force"], rel=1e-5)
    # A step below the rounding of ratio would print a force of -0.0.
    r = run_cli("force", "--ratio", "1.5", "--mu", "0.5", "--rel-tol", "1e-5",
                "--fd-step", "1e-16")
    assert r.returncode == 2, r.stdout
    assert "fd_step" in r.stderr and r.stdout == ""


def test_sweep_ratio_csv():
    r = run_cli("sweep-ratio", "--from", "1.3", "--to", "1.5", "--steps", "3",
                "--rel-tol", "1e-4", "--format", "csv")
    assert r.returncode == 0, r.stderr
    lines = r.stdout.splitlines()
    manifest = [ln for ln in lines if ln.startswith("#")]
    assert any(ln.startswith("# sweep=ratio") for ln in manifest)
    header_at = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    assert lines[header_at] == "param,e_te,e_tm,e_total,abs_err,l_used"
    data = [ln.split(",") for ln in lines[header_at + 1:] if ln]
    assert [float(row[0]) for row in data] == [1.3, 1.4, 1.5]
    assert all(float(row[3]) < 0.0 for row in data)


def test_sweep_mass_json_and_validation():
    r = run_cli("sweep-mass", "--mu-values", "0,0.5,2", "--ratio", "1.6",
                "--rel-tol", "1e-4")
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    rows = doc["result"]["rows"]
    assert [row["param"] for row in rows] == [0.0, 0.5, 2.0]
    totals = [row["e_total"] for row in rows]
    assert totals[0] < totals[1] < totals[2] < 0.0
    r = run_cli("sweep-mass", "--mu-values", "2,1", "--ratio", "1.6")
    assert r.returncode == 2
    r = run_cli("sweep-mass", "--mu-values", "0;1", "--ratio", "1.6")
    assert r.returncode == 2


@pytest.mark.parametrize("argv", [
    ("energy", "--ratio", "1.5", "--mu", "0.5", "--rel-tol", "1e-6"),
    ("energy", "--ratio", "1.5", "--mu", "0.5", "--rel-tol", "1e-6",
     "--mode", "te"),
    ("force", "--ratio", "1.6", "--rel-tol", "1e-3"),
    ("force", "--ratio", "1.6", "--mu", "0.5", "--rel-tol", "1e-3",
     "--fd-step", "1e-3"),
    ("sweep-ratio", "--from", "1.5", "--to", "1.7", "--steps", "2",
     "--rel-tol", "1e-4"),
    ("sweep-mass", "--mu-values", "0,1", "--ratio", "1.6",
     "--rel-tol", "1e-4"),
], ids=["energy", "energy-te", "force", "force-fd", "sweep-ratio",
        "sweep-mass"])
def test_replay_round_trip(tmp_path, argv):
    out = tmp_path / "run.json"
    r = run_cli(*argv)
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["manifest"]["command"] == argv[0]
    out.write_text(r.stdout, encoding="utf-8")
    rep = run_cli("replay", str(out))
    assert rep.returncode == 0, rep.stderr
    assert f"replay ok: {out} ({argv[0]})" in rep.stdout


def test_energy_is_one_pass():
    # The polarization shares come from the joint pass: as many integrand
    # evaluations as one total energy, and a total that is their sum.
    res = json.loads(run_cli("energy", "--ratio", "1.5", "--mu", "0.5",
                             "--rel-tol", "1e-6").stdout)["result"]
    tot = energy(ProblemSpec(ratio=1.5, mu=0.5, rel_tol=1e-6))
    assert res["integrand_evals"] == tot.integrand_evals
    assert (res["e_te"], res["e_tm"], res["l_used"]) == (tot.te, tot.tm,
                                                         tot.l_used)
    assert res["e_total"] == res["e_te"] + res["e_tm"]


def test_replay_bad_input_is_usage_error(tmp_path):
    good = run_cli("energy", "--ratio", "1.5", "--rel-tol", "1e-4").stdout
    doc = json.loads(good)
    no_manifest = tmp_path / "no_manifest.json"
    no_manifest.write_text(json.dumps({"result": doc["result"]}),
                           encoding="utf-8")
    doc["manifest"]["inputs"]["ratio"] = None
    null_ratio = tmp_path / "null_ratio.json"
    null_ratio.write_text(json.dumps(doc), encoding="utf-8")
    del doc["manifest"]["inputs"]["mu"]
    no_mu = tmp_path / "no_mu.json"
    no_mu.write_text(json.dumps(doc), encoding="utf-8")
    not_json = tmp_path / "not.json"
    not_json.write_text("{", encoding="utf-8")
    # Inputs of the wrong type for force, sweep-mass, sweep-ratio and
    # energy --si.
    mistyped = []
    for i, (command, edits) in enumerate((
            ("force", {"fd_step": [0.001]}),
            ("sweep-mass", {"mu_values": [[0.0], 1.0]}),
            ("sweep-mass", {"mu_values": 5}),
            ("sweep-ratio", {"from": 1.2, "to": None, "steps": 2}),
            ("sweep-ratio", {"from": 1.2, "to": [1.5], "steps": 2}),
            ("sweep-ratio", {"from": 1.2, "to": "1.5", "steps": 2}),
            ("energy", {"si": True, "a1_m": [1e-6], "a2_m": 1.5e-6}))):
        bad = json.loads(good)
        bad["manifest"]["command"] = command
        bad["manifest"]["inputs"].update(edits)
        mistyped.append(tmp_path / f"mistyped_{i}.json")
        mistyped[-1].write_text(json.dumps(bad), encoding="utf-8")
    for path in (tmp_path / "missing.json", no_manifest, null_ratio, no_mu,
                 not_json, *mistyped):
        rep = run_cli("replay", str(path))
        assert rep.returncode == 2, (path, rep.stderr)
        assert "Traceback" not in rep.stderr
        assert rep.stderr.startswith("error: ")
        assert len(rep.stderr.splitlines()) == 1


def test_replay_detects_tampering(tmp_path):
    out = tmp_path / "run.json"
    doc = json.loads(run_cli("energy", "--ratio", "1.5", "--mu", "0.5",
                             "--rel-tol", "1e-6").stdout)
    doc["result"]["e_total"] = doc["result"]["e_total"] * (1.0 + 1e-12)
    out.write_text(json.dumps(doc), encoding="utf-8")
    rep = run_cli("replay", str(out))
    assert rep.returncode == 1
    assert "mismatch" in rep.stderr


def test_selftest_passes():
    r = run_cli("selftest")
    assert r.returncode == 0, r.stdout + r.stderr
    assert "FAIL" not in r.stdout
    assert "ok - riccati-bessel wronskian" in r.stdout
    assert "ok - force routes agree" in r.stdout


def test_version_matches_pyproject():
    # Replay notes in README key on the manifest version, which is
    # __version__; the package metadata must carry the same one.
    tomllib = pytest.importorskip("tomllib")
    path = os.path.join(os.path.dirname(__file__), os.pardir,
                        "pyproject.toml")
    with open(path, "rb") as fh:
        meta = tomllib.load(fh)
    assert meta["project"]["version"] == procasphere.__version__
    assert run_cli("--version").stdout.split() == ["procasphere",
                                                   procasphere.__version__]


@pytest.mark.parametrize("command", ["energy", "force"])
def test_replay_reads_si_as_a_bool(tmp_path, capsys, command):
    # si is true or false. Any other value in an edited manifest is a
    # parameter error, as a non-real ratio is: "no" must not ask for SI
    # values, nor 0 quietly decline them. true and false replay as before.
    from procasphere import cli

    docs = {}
    for si, flags in ((True, ["--a1-m", "0.01", "--a2-m", "0.015", "--si"]),
                      (False, ["--ratio", "1.5"])):
        assert cli.main([command, *flags, "--rel-tol", "1e-3"]) == 0
        docs[si] = json.loads(capsys.readouterr().out)
        assert docs[si]["manifest"]["inputs"]["si"] is si
        assert ("force_newtons" in docs[si]["result"]
                or "e_total_joules" in docs[si]["result"]) is si
    for i, si in enumerate(("no", 0, None, [], True, False)):
        doc = json.loads(json.dumps(docs[si is True]))
        doc["manifest"]["inputs"]["si"] = si
        path = tmp_path / f"si_{i}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code = cli.main(["replay", str(path)])
        out, err = capsys.readouterr()
        if isinstance(si, bool):
            assert code == 0 and out.startswith("replay ok"), (si, err)
        else:
            assert code == 2, (si, out, err)
            assert err == f"error: si must be true or false, got {si!r}\n"
