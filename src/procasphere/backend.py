"""Kernel selection: compiled extension when present, pure Python otherwise.

Set ``PROCASPHERE_PURE=1`` in the environment to force the pure backend,
for instance to time it beside an in-place build of the compiled one.

Each twin is only its node batch: ``BACKEND``, ``log_delta_nodes`` and
``dlog_delta_nodes``. ``kernel`` is the one object the package reads them
from, and this module the one place that knows its surface.
"""

import os
from types import SimpleNamespace

from . import _rules

if os.environ.get("PROCASPHERE_PURE", "") not in ("", "0"):
    from . import _core_py as _twin
else:
    try:
        from . import _core as _twin  # type: ignore[no-redef]
    except ImportError:
        from . import _core_py as _twin  # type: ignore[no-redef]


def _log_delta_point(l, xi, mu, ratio, mode):
    # A one-node batch: te + tm is the requested mode factor bit for bit,
    # as a mode not requested reads -0.0.
    te, tm = _twin.log_delta_nodes(l, mu, ratio, mode, (xi,))
    return te[0] + tm[0]


kernel = SimpleNamespace(
    BACKEND=_twin.BACKEND,
    log_delta_nodes=_twin.log_delta_nodes,
    dlog_delta_nodes=_twin.dlog_delta_nodes,
    # Read by the benchmark's kernel samples only, and kept until those are
    # rewritten: the _rules objects and a point entry, the one-node batch.
    log_delta_point=_log_delta_point,
    **{name: vars(_rules)[name] for name in (
        "sr_norm", "sr_mul", "sr_add", "gamma_arg", "family", "s_pair",
        "e_pair")},
)


def active_backend() -> str:
    """Name of the kernel in use: 'compiled' or 'pure'."""
    return kernel.BACKEND
