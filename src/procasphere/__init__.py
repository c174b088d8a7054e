"""Casimir energy of a massive vector field between concentric shells.

The public surface: overflow-safe scalars (ScaledReal), modified
Riccati-Bessel families in that form, the TE/TM mode factors (plain
doubles from the kernel) with the determinant routes and the massless TM
reference that check them, the spectral sum (energy, force, sweeps), and
unit conversion from laboratory inputs. Only ``backend`` and ``spectrum``,
with the kernel and its scalar rules ``_rules`` (all that an energy or
force runs), load with the package; the rest of
``__all__`` and the ``bessel``, ``scaledrep``, ``determinants``, ``units``
and ``sweeps`` modules load on first use (PEP 562), so no fresh process
compiles them idly.
"""

import importlib
import types

from .backend import active_backend
from .spectrum import (
    ConvergenceError,
    EnergyResult,
    ProblemSpec,
    default_fd_step,
    energy,
    force,
    l_term,
)

__version__ = "0.10.6"

# The defining submodule of each name that loads on first use.
_LAZY = dict.fromkeys((
    "SpectralPoint", "QBlocks", "MassOrders", "DivergenceError",
    "build_q_blocks", "expansion_coefficients",
    "reference_expansion_coefficients", "det_q_expansion", "det_q0_expansion",
    "det_q0_factored", "det_q_direct", "log_delta_te", "log_delta_tm",
    "log_delta_tm_massless"), "determinants")
_LAZY.update(RBFamily="bessel", eval_family="bessel", ScaledReal="scaledrep",
             convert_units="units", energy_scale_joules="units",
             SweepRow="sweeps", SweepTable="sweeps", sweep_ratio="sweeps",
             sweep_mass="sweeps")

# The public names: those imported above, then those that load on first use.
__all__ = [n for n, v in globals().items()
           if not (n.startswith("_") or isinstance(v, types.ModuleType))]
__all__ += ["__version__", *_LAZY]


def __getattr__(name):
    if name in _LAZY.values():
        value = importlib.import_module(f".{name}", __name__)
    elif name in _LAZY:
        value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__),
                        name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later reads skip this function
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
