"""Mode determinants for the two concentric conducting shells.

For each partial wave l and imaginary frequency xi_hat the massive vector
field contributes a transverse-electric ratio (a single quotient of
Riccati-Bessel values) and a transverse-magnetic ratio det Q / det Q0 of a
4x4 boundary matrix. Everything here is dimensionless: lengths in units of
the inner radius, so the outer radius is `ratio` and the field mass enters
as `mu`.

Two independent routes exist for the TM determinant and both are kept on
purpose: the assembled 4x4 blocks with a direct cofactor expansion
(reference, this module), and the mass-order expansion whose six
coefficients are individually positive. The massless TM factor has its
own reference, log_delta_tm_massless, a quotient of ScaledReal family
values. The fast path used by the quadrature lives in the kernel backend,
works in plain doubles, and is cross-checked against all three.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .backend import kernel
from .bessel import eval_family
from .scaledrep import ScaledReal
from .spectrum import _integer, _real


class DivergenceError(ArithmeticError):
    """The mode ratio reached 1: shells touching (or numerical breakdown)."""


@dataclass(frozen=True)
class SpectralPoint:
    """One (partial wave, imaginary frequency) evaluation point."""

    l: int
    xi_hat: float
    mu: float
    ratio: float

    def __post_init__(self):
        _integer("l", self.l, 1)
        for name in ("xi_hat", "mu", "ratio"):
            v = _real(name, getattr(self, name))
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v!r}")
        if self.xi_hat < 0.0:
            raise ValueError("xi_hat must be >= 0")
        if self.mu < 0.0:
            raise ValueError("mu must be >= 0")
        if self.ratio <= 1.0:
            raise ValueError("ratio must be > 1")

    @property
    def gamma_hat(self) -> float:
        """sqrt(xi_hat^2 + mu^2): the massive propagation argument."""
        return kernel.gamma_arg(self.xi_hat, self.mu)


@dataclass(frozen=True)
class QBlocks:
    """The four 2x2 blocks of the TM boundary matrix, scaled entries.

    Row pairs: (w1 | w2) are the two field-matching rows at the inner and
    outer shell, (w3 | w4) the potential-matching rows. w2 carries the
    factor -mu^2 and vanishes identically in the massless limit.
    """

    w1: tuple[tuple[ScaledReal, ScaledReal], tuple[ScaledReal, ScaledReal]]
    w2: tuple[tuple[ScaledReal, ScaledReal], tuple[ScaledReal, ScaledReal]]
    w3: tuple[tuple[ScaledReal, ScaledReal], tuple[ScaledReal, ScaledReal]]
    w4: tuple[tuple[ScaledReal, ScaledReal], tuple[ScaledReal, ScaledReal]]

    def as_matrix(self) -> list[list[ScaledReal]]:
        """Assembled 4x4 matrix [[w1, w2], [w3, w4]]."""
        return [
            [self.w1[0][0], self.w1[0][1], self.w2[0][0], self.w2[0][1]],
            [self.w1[1][0], self.w1[1][1], self.w2[1][0], self.w2[1][1]],
            [self.w3[0][0], self.w3[0][1], self.w4[0][0], self.w4[0][1]],
            [self.w3[1][0], self.w3[1][1], self.w4[1][0], self.w4[1][1]],
        ]


class MassOrders(NamedTuple):
    """Determinant coefficients grouped by powers of mu^2 l(l+1).

    det = order0 + (mu^2 l(l+1)) order1 + (mu^2 l(l+1))^2 order2. All three
    are strictly positive for xi_hat > 0, which is what makes this grouping
    a cancellation-free evaluation route.
    """

    order0: ScaledReal
    order1: ScaledReal
    order2: ScaledReal


def _require_positive_xi(p: SpectralPoint) -> None:
    # e_l(xi_hat * ratio) appears by itself in the potential rows and
    # diverges at zero frequency for l >= 1, whatever the mass.
    if p.xi_hat <= 0.0:
        raise ValueError("TM quantities need xi_hat > 0")


def build_q_blocks(p: SpectralPoint) -> QBlocks:
    """Assemble the boundary matrix blocks at one spectral point."""
    _require_positive_xi(p)
    g = p.gamma_hat
    r = p.ratio
    x = p.xi_hat
    fg = eval_family(p.l, g)
    fgr = eval_family(p.l, g * r)
    fx = eval_family(p.l, x)
    fxr = eval_family(p.l, x * r)
    m2 = p.mu * p.mu
    L2 = p.l * (p.l + 1.0)
    g2 = g * g
    x2 = x * x

    w1 = (
        (g * fg.s_prime, g * fg.e_prime),
        ((g * r) * fgr.s_prime, (g * r) * fgr.e_prime),
    )
    w2 = (
        ((-m2) * fg.s, (-m2) * fg.e),
        ((-m2) * fgr.s, (-m2) * fgr.e),
    )
    w3 = (
        (L2 * (fx.s * fg.s), L2 * (fx.s * fg.e)),
        (L2 * (fxr.e * fgr.s), L2 * (fxr.e * fgr.e)),
    )
    w4 = (
        (
            g2 * (fg.s * fx.s_tilde) - x2 * (fx.s * fg.s_tilde),
            g2 * (fg.e * fx.s_tilde) - x2 * (fx.s * fg.e_tilde),
        ),
        (
            g2 * (fgr.s * fxr.e_tilde) - x2 * (fxr.e * fgr.s_tilde),
            g2 * (fgr.e * fxr.e_tilde) - x2 * (fxr.e * fgr.e_tilde),
        ),
    )
    return QBlocks(w1=w1, w2=w2, w3=w3, w4=w4)


def _det2(a: ScaledReal, b: ScaledReal, c: ScaledReal, d: ScaledReal) -> ScaledReal:
    return a * d - b * c


def _det3(m: list[list[ScaledReal]]) -> ScaledReal:
    return (
        m[0][0] * _det2(m[1][1], m[1][2], m[2][1], m[2][2])
        - m[0][1] * _det2(m[1][0], m[1][2], m[2][0], m[2][2])
        + m[0][2] * _det2(m[1][0], m[1][1], m[2][0], m[2][1])
    )


def det_q_direct(p: SpectralPoint) -> ScaledReal:
    """4x4 determinant by cofactor expansion of the assembled blocks.

    Deliberately naive: this is the cross-check route for the expansion
    below, not a fast path.
    """
    q = build_q_blocks(p).as_matrix()
    total = ScaledReal.zero()
    sign = 1.0
    for col in range(4):
        minor = [[q[row][c] for c in range(4) if c != col] for row in (1, 2, 3)]
        total = total + sign * (q[0][col] * _det3(minor))
        sign = -sign
    return total


def _pieces(p: SpectralPoint):
    g = p.gamma_hat
    r = p.ratio
    x = p.xi_hat
    fg = eval_family(p.l, g)
    fgr = eval_family(p.l, g * r)
    fx = eval_family(p.l, x)
    fxr = eval_family(p.l, x * r)
    g2 = g * g
    x2 = x * x
    # The four recurring brackets: mixed growing/decaying combinations at the
    # inner shell (p1, p3) and outer shell (p2, p4).
    p1 = g2 * (fg.e * fx.s_tilde) - x2 * (fx.s * fg.e_tilde)
    p2 = g2 * (fgr.s * fxr.e_tilde) - x2 * (fxr.e * fgr.s_tilde)
    p3 = g2 * (fg.s * fx.s_tilde) - x2 * (fx.s * fg.s_tilde)
    p4 = g2 * (fgr.e * fxr.e_tilde) - x2 * (fxr.e * fgr.e_tilde)
    return fg, fgr, fx, fxr, p1, p2, p3, p4


def expansion_coefficients(p: SpectralPoint) -> MassOrders:
    """Mass-order coefficients of the coupled-shell determinant."""
    _require_positive_xi(p)
    g = p.gamma_hat
    r = p.ratio
    x = p.xi_hat
    fg, fgr, fx, fxr, p1, p2, p3, p4 = _pieces(p)
    gr = g * r
    wr = gr * (fgr.s_prime * fg.e) - gr * (fgr.e_prime * fg.s)
    wl = g * (fg.s_prime * fgr.e) - g * (fg.e_prime * fgr.s)
    order0 = (p1 * p2 - p3 * p4) * (
        (g * fg.e_prime) * (gr * fgr.s_prime) - (g * fg.s_prime) * (gr * fgr.e_prime)
    )
    order1 = (
        fx.s * wr * (fg.e * p2 - fg.s * p4)
        + fxr.e * wl * (fgr.e * p3 - fgr.s * p1)
        - (2.0 * g * g * x * x * r) * (fx.s * fxr.e)
    )
    cross = fg.e * fgr.s - fg.s * fgr.e
    order2 = (fx.s * fxr.e) * (cross * cross)
    return MassOrders(order0=order0, order1=order1, order2=order2)


def reference_expansion_coefficients(p: SpectralPoint) -> MassOrders:
    """Mass-order coefficients of the decoupled (normalizing) determinant."""
    _require_positive_xi(p)
    g = p.gamma_hat
    r = p.ratio
    fg, fgr, fx, fxr, p1, p2, _, _ = _pieces(p)
    gr = g * r
    ie = g * fg.e_prime    # inner-shell decaying derivative factor
    os_ = gr * fgr.s_prime  # outer-shell growing derivative factor
    order0 = ie * os_ * (p1 * p2)
    order1 = (fgr.s * fgr.s) * ie * fxr.e * p1 + (fg.e * fg.e) * os_ * fx.s * p2
    order2 = (fgr.s * fgr.s) * (fg.e * fg.e) * (fx.s * fxr.e)
    return MassOrders(order0=order0, order1=order1, order2=order2)


def _expansion_total(p: SpectralPoint, orders: MassOrders) -> ScaledReal:
    c1 = p.mu * p.mu * p.l * (p.l + 1.0)
    return orders.order0 + c1 * orders.order1 + (c1 * c1) * orders.order2


def det_q_expansion(p: SpectralPoint) -> ScaledReal:
    """Coupled determinant via the positive mass-order coefficients."""
    return _expansion_total(p, expansion_coefficients(p))


def det_q0_expansion(p: SpectralPoint) -> ScaledReal:
    """Decoupled determinant via the positive mass-order coefficients."""
    return _expansion_total(p, reference_expansion_coefficients(p))


def det_q0_factored(p: SpectralPoint) -> ScaledReal:
    """Decoupled determinant as the product of two 2x2 determinants."""
    _require_positive_xi(p)
    q = build_q_blocks(p).as_matrix()
    return _det2(q[0][1], q[0][3], q[2][1], q[2][3]) * _det2(
        q[1][0], q[1][2], q[3][0], q[3][2]
    )


def log_delta_te(p: SpectralPoint) -> float:
    """ln of the transverse-electric mode factor, always in (-inf, 0)."""
    if p.xi_hat == 0.0 and p.mu == 0.0:
        raise ValueError("TE factor needs xi_hat > 0 or mu > 0")
    # A batch of one node, as in every wave: the mode not requested reads
    # -0.0, so te + tm is the TE log bit for bit.
    te, tm = kernel.log_delta_nodes(p.l, p.mu, p.ratio, 0, (p.xi_hat,))
    val = te[0] + tm[0]
    if math.isnan(val):
        raise DivergenceError(f"TE mode ratio reached 1 at {p}")
    return val


def log_delta_tm(p: SpectralPoint) -> float:
    """ln(det Q / det Q0) for the transverse-magnetic modes.

    Computed as a round trip between the shells, ln det(1 - rho_TE M): the
    kernel divides Q's rows and columns down to four 2x2 shell matrices of
    plain doubles, so M = W^-1 Y V^-1 U is the product of the outer and
    inner 2x2 reflection matrices, and rho_TE < 1 carries the propagation
    between the shells. The value never suffers the det-minus-det
    cancellation: ln(1 - rho_TE (tr M - rho_TE det M)) forms the
    interaction part directly, all in plain doubles. The 4x4 routes above
    and log_delta_tm_massless stay as independent checks.
    """
    _require_positive_xi(p)
    te, tm = kernel.log_delta_nodes(p.l, p.mu, p.ratio, 1, (p.xi_hat,))
    val = te[0] + tm[0]
    if math.isnan(val):
        raise RuntimeError(f"TM determinant breakdown at {p}")
    return val


def log_delta_tm_massless(l: int, xi_hat: float, ratio: float) -> float:
    """Massless-field TM factor: independent closed-form code path.

    ln(1 - rho) with the conducting-boundary ratio
    rho = s'(x) e'(xr) / (e'(x) s'(xr)), x = xi_hat and xr = xi_hat * ratio,
    formed from ScaledReal family values. Serves as the regression target
    for log_delta_tm at mu = 0. Diverges to -inf as ratio -> 1+; that case
    raises DivergenceError rather than returning NaN.
    """
    _integer("l", l, 1)
    xi_hat = _real("xi_hat", xi_hat)
    ratio = _real("ratio", ratio)
    if not (math.isfinite(xi_hat) and xi_hat > 0.0):
        raise ValueError("xi_hat must be > 0")
    if not (math.isfinite(ratio) and ratio > 1.0):
        raise ValueError("ratio must be > 1")
    f = eval_family(l, xi_hat)
    fr = eval_family(l, xi_hat * ratio)
    rho = (f.s_prime * fr.e_prime) / (f.e_prime * fr.s_prime)
    val = kernel._log1m(rho.to_float())
    if math.isnan(val):
        raise DivergenceError(
            f"massless TM mode ratio reached 1 (l={l}, xi_hat={xi_hat}, ratio={ratio})"
        )
    return val
