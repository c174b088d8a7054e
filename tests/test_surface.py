"""Guards on the public surface.

Every exported name must resolve, and eval_family, the one Bessel
accessor, must return exactly the leading pairs of the kernel's s_pair and
e_pair, the entries the benchmark times and the chains run on. The package
loads its Bessel, determinant, scaled-arithmetic, unit and sweep modules on
first use: a fresh energy run or CLI command must not load them, yet every
exported name must be the object its submodule defines. The pure kernel's
source stays below a step of CPython's parser at 4,096 tokens.
"""

import importlib
import json
import os
import subprocess
import sys
import tokenize

import pytest

import procasphere
from procasphere import oracle, spectrum, sweeps
from procasphere.backend import kernel
from procasphere.bessel import eval_family


def test_exported_names_resolve():
    for module in (procasphere, oracle):
        missing = [n for n in module.__all__ if not hasattr(module, n)]
        assert missing == [], module.__name__


def test_eval_family_is_the_kernel_pairs():
    for l in (0, 1, 2, 5, 17, 60, 200, 1000):
        for z in (2.0 ** -64, 1e-6, 0.01, 0.5, 3.0, 40.0, 700.0, 9000.0,
                  1e5, 1e6):
            f = eval_family(l, z)
            assert repr((f.s.mantissa, f.s.log2_scale)) == repr(
                kernel.s_pair(l, z)[:2]), (l, z)
            assert repr((f.e.mantissa, f.e.log2_scale)) == repr(
                kernel.e_pair(l, z)[:2]), (l, z)


LAZY_MODULES = ("bessel", "determinants", "scaledrep", "units", "sweeps")
# What neither a bare import nor an energy run may load.
UNUSED = {f"procasphere.{m}" for m in LAZY_MODULES + ("_workers", "oracle")}
UNUSED.add("mpmath")


def _modules_after(code):
    """The modules loaded by a fresh interpreter that runs code."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PROCASPHERE_PURE="1")
    root = os.path.dirname(os.path.dirname(procasphere.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (root, env.get("PYTHONPATH")) if p)
    code += "\nimport json, sys; print(json.dumps(sorted(sys.modules)))"
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True, env=env)
    assert r.returncode == 0, r.stderr
    return set(json.loads(r.stdout.splitlines()[-1]))


def test_bare_import_loads_no_unused_module():
    loaded = _modules_after("import procasphere")
    assert "procasphere.spectrum" in loaded
    assert loaded & UNUSED == set()


def test_cli_energy_loads_no_unused_module():
    loaded = _modules_after(
        "from procasphere import cli\n"
        "assert cli.main(['energy', '--ratio', '1.5', '--mu', '0.5', "
        "'--rel-tol', '1e-3']) == 0")
    assert "procasphere.cli" in loaded
    assert loaded & UNUSED == set()


def test_cli_physical_input_loads_units_only():
    loaded = _modules_after(
        "from procasphere import cli\n"
        "assert cli.main(['energy', '--a1-m', '0.01', '--a2-m', '0.015', "
        "'--rel-tol', '1e-3', '--si']) == 0")
    assert "procasphere.units" in loaded
    assert loaded & (UNUSED - {"procasphere.units"}) == set()


def test_pure_kernel_stays_below_the_parser_step():
    # CPython's parser doubles its token array when a source passes 4,096
    # tokens, and a fresh process without a bytecode cache (the CLI's, the
    # benchmark's) then holds about 0.12 MB more after it imports the pure
    # kernel. A kernel that grows past the step fails here, so that the
    # cost is seen before it is paid. The parser reads no comments and no
    # non-logical newlines, so neither is counted.
    path = os.path.join(os.path.dirname(procasphere.__file__), "_core_py.py")
    with open(path, encoding="utf-8") as f:
        tokens = [t for t in tokenize.generate_tokens(f.readline)
                  if t.type not in (tokenize.COMMENT, tokenize.NL)]
    assert len(tokens) < 4096


def test_every_name_is_its_submodules_object():
    for name in procasphere.__all__:
        if name == "__version__":
            continue
        obj = getattr(procasphere, name)
        home = obj.__module__
        assert home.startswith("procasphere."), name
        assert vars(sys.modules[home])[name] is obj, name


def test_lazy_submodules_resolve_as_attributes(monkeypatch):
    for sub in LAZY_MODULES:
        monkeypatch.delitem(vars(procasphere), sub, raising=False)
        assert getattr(procasphere, sub) is importlib.import_module(
            f"procasphere.{sub}")


def test_dir_and_star_import_cover_all():
    assert set(procasphere.__all__) <= set(dir(procasphere))
    namespace = {}
    exec("from procasphere import *", namespace)
    assert set(procasphere.__all__) <= set(namespace)
    for name in procasphere.__all__:
        assert namespace[name] is getattr(procasphere, name), name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError,
                       match="module 'procasphere' has no attribute 'nope'"):
        procasphere.nope


def test_a_name_is_resolved_once(monkeypatch):
    calls = []
    resolve = procasphere.__getattr__

    def counting(name):
        calls.append(name)
        return resolve(name)

    monkeypatch.setattr(procasphere, "__getattr__", counting)
    for name in ("log_delta_te", "ScaledReal", "units"):
        monkeypatch.delitem(vars(procasphere), name, raising=False)
        first = getattr(procasphere, name)
        assert getattr(procasphere, name) is first
        assert vars(procasphere)[name] is first
    assert calls == ["log_delta_te", "ScaledReal", "units"]


SWEEP_NAMES = ("SweepRow", "SweepTable", "sweep_ratio", "sweep_mass")


@pytest.mark.parametrize("name", SWEEP_NAMES + ("_sweep_row",))
def test_sweep_names_resolve_from_spectrum(monkeypatch, name):
    # spectrum serves the names that moved to sweeps, on first use too.
    monkeypatch.delitem(vars(spectrum), name, raising=False)
    assert getattr(spectrum, name) is vars(sweeps)[name]
    assert vars(spectrum)[name] is vars(sweeps)[name]
    if not name.startswith("_"):
        assert getattr(procasphere, name) is vars(sweeps)[name]
    with pytest.raises(AttributeError, match="procasphere.spectrum"):
        spectrum.nope


def test_sweep_rows_call_energy_through_spectrum(monkeypatch):
    # A wrapper installed on spectrum.energy sees every row of a sweep.
    calls = []
    energy = spectrum.energy

    def counting(spec, threads=1):
        calls.append(spec.mu)
        return energy(spec, threads=threads)

    monkeypatch.setattr(spectrum, "energy", counting)
    template = procasphere.ProblemSpec(ratio=1.5, rel_tol=1e-3)
    table = procasphere.sweep_mass(template, [0.0, 1.0])
    assert calls == [0.0, 1.0] and len(table.rows) == 2
