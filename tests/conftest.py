"""Suite-wide checks."""

import os

import pytest


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
