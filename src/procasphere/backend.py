"""Kernel selection: compiled extension when present, pure Python otherwise.

Set ``PROCASPHERE_PURE=1`` in the environment to force the pure backend,
for instance to time it beside an in-place build of the compiled one.
"""

import os

if os.environ.get("PROCASPHERE_PURE", "") not in ("", "0"):
    from . import _core_py as kernel
else:
    try:
        from . import _core as kernel  # type: ignore[no-redef]
    except ImportError:
        from . import _core_py as kernel  # type: ignore[no-redef]


def active_backend() -> str:
    """Name of the kernel in use: 'compiled' or 'pure'."""
    return kernel.BACKEND
