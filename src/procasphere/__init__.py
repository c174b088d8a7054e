"""Casimir energy of a massive vector field between concentric shells.

The public surface: overflow-safe scalars (ScaledReal), modified
Riccati-Bessel families in that form, the TE/TM mode factors (plain
doubles from the kernel) with the determinant routes and the massless TM
reference that check them, the spectral sum (energy, force, sweeps), and
unit conversion from laboratory inputs.
"""

from .backend import active_backend
from .bessel import RBFamily, eval_family
from .determinants import (
    DivergenceError,
    MassOrders,
    QBlocks,
    SpectralPoint,
    build_q_blocks,
    det_q0_expansion,
    det_q0_factored,
    det_q_direct,
    det_q_expansion,
    expansion_coefficients,
    log_delta_te,
    log_delta_tm,
    log_delta_tm_massless,
    reference_expansion_coefficients,
)
from .scaledrep import ScaledReal
from .spectrum import (
    ConvergenceError,
    EnergyResult,
    ProblemSpec,
    SweepRow,
    SweepTable,
    default_fd_step,
    energy,
    force,
    l_term,
    sweep_mass,
    sweep_ratio,
)
from .units import convert_units, energy_scale_joules

__version__ = "0.9.1"

__all__ = [
    "ScaledReal",
    "RBFamily",
    "eval_family",
    "SpectralPoint",
    "QBlocks",
    "MassOrders",
    "DivergenceError",
    "build_q_blocks",
    "expansion_coefficients",
    "reference_expansion_coefficients",
    "det_q_expansion",
    "det_q0_expansion",
    "det_q0_factored",
    "det_q_direct",
    "log_delta_te",
    "log_delta_tm",
    "log_delta_tm_massless",
    "ProblemSpec",
    "EnergyResult",
    "ConvergenceError",
    "l_term",
    "energy",
    "force",
    "default_fd_step",
    "sweep_ratio",
    "sweep_mass",
    "SweepRow",
    "SweepTable",
    "convert_units",
    "energy_scale_joules",
    "active_backend",
    "__version__",
]
