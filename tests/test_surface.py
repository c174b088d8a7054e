"""Guards on the public surface.

Every exported name must resolve, and eval_family, the one Bessel
accessor, must return exactly the leading pairs of the kernel's s_pair and
e_pair, the entries the benchmark times and the chains run on. The package
loads its Bessel, determinant, scaled-arithmetic, unit and sweep modules on
first use: a fresh energy run or CLI command must not load them, yet every
exported name must be the object its submodule defines. Every module that
a bare import compiles stays below a step of CPython's parser at 4,096
tokens. The scalar rules and the lone chains (family, s_pair and e_pair)
have one Python copy, _rules, which every module imports and both kernel
twins hand out as their entries; none reads a private name off the
active kernel. Only the real-number rule, spectrum._real, tests a value
for finiteness.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
import tokenize

import pytest

import procasphere
from procasphere import _rules, oracle, spectrum, sweeps
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


# The package modules that a bare pure-backend import compiles.
ALWAYS_LOADED = ("__init__", "_core_py", "_rules", "backend", "spectrum")


def test_pure_kernel_stays_below_the_parser_step():
    # CPython's parser doubles its token array when a source passes 4,096
    # tokens, and a fresh process without a bytecode cache (the CLI's, the
    # benchmark's) then holds about 0.12 MB more after it imports the pure
    # kernel. A kernel that grows past the step fails here, so that the
    # cost is seen before it is paid, and so does any other module that
    # every import compiles, so that a move out of the kernel cannot push
    # one of them past it. The parser reads no comments and no non-logical
    # newlines, so neither is counted.
    loaded = {m for m in _modules_after("import procasphere")
              if m.partition(".")[0] == "procasphere"}
    assert loaded == {"procasphere"} | {
        f"procasphere.{name}" for name in ALWAYS_LOADED[1:]}
    home = os.path.dirname(procasphere.__file__)
    for name in ALWAYS_LOADED:
        with open(os.path.join(home, name + ".py"), encoding="utf-8") as f:
            tokens = [t for t in tokenize.generate_tokens(f.readline)
                      if t.type not in (tokenize.COMMENT, tokenize.NL)]
        assert len(tokens) < 4096, name


# The scalar rules each module takes from _rules, as (its name, the rule).
RULE_USERS = {
    "_core_py": [(n, n) for n in (
        "_BIG", "_BLOCK", "_DOWN", "_L_END", "_STEP", "_Z_MAX", "_Z_MIN",
        "_block_top", "_down", "_exp_split", "_log1m", "_miller_start",
        "_steps", "_up", "e_pair", "family", "gamma_arg", "s_pair", "sr_add",
        "sr_mul", "sr_norm")],
    "scaledrep": [("_exp_split", "_exp_split"), ("_sr_scale", "_sr_scale"),
                  ("sr_add", "sr_add"), ("sr_mul", "sr_mul"),
                  ("_norm", "sr_norm")],
    "determinants": [("_log1m", "_log1m"), ("gamma_arg", "gamma_arg")],
    "spectrum": [("_BLOCK", "_BLOCK"), ("_block_top", "_block_top"),
                 ("gamma_arg", "gamma_arg")],
    "_workers": [("_block_top", "_block_top")],
}
# The kernel entries that both twins hand out as the _rules objects.
SCALAR_ENTRIES = ("sr_norm", "sr_mul", "sr_add", "gamma_arg", "family",
                  "s_pair", "e_pair")


def test_scalar_rules_are_the_rules_objects(request):
    for module, pairs in RULE_USERS.items():
        namespace = vars(importlib.import_module(f"procasphere.{module}"))
        for name, rule in pairs:
            assert namespace[name] is vars(_rules)[rule], (module, name)
    # The compiled twin last: without a C compiler its build skips the
    # test after the checks above have run.
    for twin in (kernel, request.getfixturevalue("compiled")):
        for name in SCALAR_ENTRIES:
            assert getattr(twin, name) is vars(_rules)[name], (
                twin.BACKEND, name)


def _reads_kernel(node):
    # kernel or anything.kernel, as "from .backend import kernel" or
    # "backend.kernel" would name the active kernel.
    return ((isinstance(node, ast.Name) and node.id == "kernel")
            or (isinstance(node, ast.Attribute) and node.attr == "kernel"))


def _package_trees():
    # (file name, syntax tree) of every .py under src/procasphere/.
    home = os.path.dirname(procasphere.__file__)
    for folder, _, files in os.walk(home):
        for file in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(folder, file)
            with open(path, encoding="utf-8") as f:
                yield file, ast.parse(f.read(), path)


def test_no_module_reads_a_private_kernel_name():
    # A private helper read off the active kernel would tie that module to
    # a kernel export outside the public surface; the rules come from
    # _rules instead.
    reads = []
    for file, tree in _package_trees():
        reads += [f"{file}:{node.lineno} kernel.{node.attr}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and node.attr.startswith("_")
                  and _reads_kernel(node.value)]
    assert reads == []


def test_finiteness_is_checked_by_the_real_rule_alone():
    # Every real input's range is checked by spectrum._real, which takes
    # the bound; a hand-written isfinite test elsewhere would be a second
    # copy of that rule.
    uses = []
    for file, tree in _package_trees():
        if file == "spectrum.py":
            rule = next(node for node in tree.body
                        if isinstance(node, ast.FunctionDef)
                        and node.name == "_real")
            allowed = set(map(id, ast.walk(rule)))
        else:
            allowed = set()
        uses += [f"{file}:{node.lineno}" for node in ast.walk(tree)
                 if id(node) not in allowed
                 and "isfinite" in (getattr(node, "attr", None),
                                    getattr(node, "id", None))]
    assert uses == []


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
