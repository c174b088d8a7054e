"""Suite-wide checks, and the compiled kernel's test builds.

The compiled kernel under test is built from ``_core.c`` with the flags of
setup.py plus strict warnings, once per session, and loaded by file path,
so the tests need only a C compiler, not an installed extension. The
build imports nothing and is not put in sys.modules, so the load leaves
the package's backend choice alone. A second build with the
undefined-behaviour sanitizer runs the chain-cache tests, the node
batches at the chains' extremes and a whole energy, where any undefined
behaviour in the kernel aborts the run.
"""

import importlib.util
import os
import shlex
import shutil
import subprocess
import sysconfig
from pathlib import Path

import pytest

import procasphere

# extra_compile_args of setup.py, then warnings as errors.
BUILD_FLAGS = ["-O2", "-ffp-contract=off", "-std=c11", "-Wall", "-Wextra",
               "-Werror"]
# Undefined behaviour (an index out of a fixed-size array, an overflowing
# signed sum or shift) stops the process at once instead of going on.
UBSAN_FLAGS = ["-ffp-contract=off", "-std=c11", "-fsanitize=undefined",
               "-fno-sanitize-recover=all"]


def _cc():
    cc = shlex.split(sysconfig.get_config_var("CC") or "cc")
    if not cc or shutil.which(cc[0]) is None:
        pytest.skip("no C compiler found to build the compiled kernel")
    return cc


def _build(cc, flags, src, out):
    return subprocess.run(
        [*cc, *flags, "-shared", "-fPIC",
         "-I" + sysconfig.get_paths()["include"], str(src), "-o", str(out),
         "-lm"], capture_output=True, text=True)


def _load(cc, flags, tmp_path_factory):
    src = Path(procasphere.__file__).with_name("_core.c")
    out = (tmp_path_factory.mktemp("core")
           / ("_core" + sysconfig.get_config_var("EXT_SUFFIX")))
    proc = _build(cc, flags, src, out)
    assert proc.returncode == 0, proc.stderr
    spec = importlib.util.spec_from_file_location("procasphere._core", out)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def compiled(tmp_path_factory):
    return _load(_cc(), BUILD_FLAGS, tmp_path_factory)


@pytest.fixture(scope="session")
def ubsan(tmp_path_factory):
    cc = _cc()
    probe = tmp_path_factory.mktemp("probe")
    (probe / "empty.c").write_text("int empty(void) { return 0; }\n")
    proc = _build(cc, UBSAN_FLAGS, probe / "empty.c", probe / "empty.so")
    if proc.returncode != 0:
        pytest.skip("the compiler cannot link the undefined-behaviour "
                    "sanitizer")
    return _load(cc, UBSAN_FLAGS, tmp_path_factory)


@pytest.fixture(autouse=True)
def no_child_outlives_a_test():
    # A wave sum on more than one process forks workers and must stop and
    # reap every one before it returns or raises; so must anything else
    # that starts a child. After each test no child of this process may be
    # running or left unreaped. Where os.fork is missing, the library
    # starts no worker, and the check is skipped.
    yield
    if not hasattr(os, "fork"):
        return
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    state = "running" if pid == 0 else f"pid {pid}, unreaped, status {status}"
    pytest.fail(f"a child process outlived the test ({state})")
