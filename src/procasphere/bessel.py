"""Modified Riccati-Bessel functions of imaginary argument, overflow-free.

The growing solution s_l and decaying solution e_l (with s_l e_l' - s_l' e_l
= -1) are returned as :class:`ScaledReal` so that arguments up to tens of
thousands stay representable. Two recurrences serve every order l >= 0 and
every argument 2**-64 <= z < 2**32: the always-stable upward recurrence for
e_l, and Miller's downward recurrence for the ratio q_s = s_{l-1}/s_l. The
Wronskian s_l e_{l-1} + s_{l-1} e_l = 1 then gives
s_l = 1/(e_l (e_{l-1}/e_l + q_s)), a sum of positives, with no separate
normalization. Arguments outside that range raise ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._rules import family
from .scaledrep import ScaledReal
from .spectrum import _integer, _real


@dataclass(frozen=True)
class RBFamily:
    """One order's worth of values at a fixed argument.

    s_tilde = s - z s' and e_tilde = e - z e' are the combinations that
    enter the mode determinants.
    """

    l: int
    z: float
    s: ScaledReal
    e: ScaledReal
    s_prime: ScaledReal
    e_prime: ScaledReal
    s_tilde: ScaledReal
    e_tilde: ScaledReal


def eval_family(l: int, z: float) -> RBFamily:
    """s, e, their derivatives, and the tilde combinations at one point."""
    _integer("order", l, 0)
    v = _real("argument", z, 0, strict=True)
    (sm, sk, em, ek, spm, spk, epm, epk,
     stm, stk, etm, etk) = family(l, v)
    return RBFamily(
        l=l,
        z=v,
        s=ScaledReal(sm, sk),
        e=ScaledReal(em, ek),
        s_prime=ScaledReal(spm, spk),
        e_prime=ScaledReal(epm, epk),
        s_tilde=ScaledReal(stm, stk),
        e_tilde=ScaledReal(etm, etk),
    )
