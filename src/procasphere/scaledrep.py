"""Overflow-free scalar representation used by the special-function kernels.

A value is stored as ``mantissa * 2**log2_scale`` with ``|mantissa|`` in
``[0.5, 1)``, the range of ``math.frexp`` (or exactly zero).
``log2_scale`` is kept integer-valued, so renormalising and aligning are
exact: differences and sums of scales carry no rounding, and only mantissa
operations accumulate error (about one ulp each).  That property is what
lets determinant ratios of astronomically scaled quantities come out to
near-full double precision.  The arithmetic is the active kernel's (the
two twins round alike), so a ScaledReal rounds exactly as the kernels do.
"""

from __future__ import annotations

import math

from .backend import kernel

_exp_split = kernel._exp_split
_sr_scale = kernel._sr_scale
sr_add = kernel.sr_add
sr_mul = kernel.sr_mul
_norm = kernel.sr_norm

_LN2 = math.log(2.0)


class ScaledReal:
    """A real number in mantissa/base-2-scale form.

    Construct with :meth:`from_float` or :meth:`from_log`; the raw
    constructor trusts its arguments (used by the kernels, which keep the
    invariant themselves).
    """

    __slots__ = ("mantissa", "log2_scale")

    def __init__(self, mantissa: float, log2_scale: float = 0.0):
        self.mantissa = mantissa
        self.log2_scale = log2_scale

    # -- construction ------------------------------------------------------

    @classmethod
    def from_float(cls, x: float) -> "ScaledReal":
        if math.isinf(x) or math.isnan(x):
            raise ValueError(f"cannot represent {x!r}")
        return cls(*_norm(x, 0.0))

    @classmethod
    def from_log(cls, log_value: float) -> "ScaledReal":
        """The positive number exp(log_value), without ever forming it."""
        return cls(*_norm(*_exp_split(log_value)))

    @classmethod
    def zero(cls) -> "ScaledReal":
        return cls(0.0, 0.0)

    # -- conversion --------------------------------------------------------

    def to_float(self) -> float:
        """Collapse to a plain double; overflows to inf, underflows to 0."""
        if self.mantissa == 0.0:
            return 0.0
        try:
            return math.ldexp(self.mantissa, int(self.log2_scale))
        except OverflowError:
            return math.copysign(math.inf, self.mantissa)

    def log_abs(self) -> float:
        """Natural log of |value|; -inf for zero."""
        if self.mantissa == 0.0:
            return -math.inf
        return math.log(abs(self.mantissa)) + self.log2_scale * _LN2

    def sign(self) -> float:
        if self.mantissa > 0.0:
            return 1.0
        if self.mantissa < 0.0:
            return -1.0
        return 0.0

    @property
    def is_zero(self) -> bool:
        return self.mantissa == 0.0

    # -- arithmetic --------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, ScaledReal):
            return ScaledReal(*sr_mul(self.mantissa, self.log2_scale,
                                      other.mantissa, other.log2_scale))
        if isinstance(other, (int, float)):
            return ScaledReal(*_sr_scale(self.mantissa, self.log2_scale,
                                         float(other)))
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, ScaledReal):
            if other.mantissa == 0.0:
                raise ZeroDivisionError("ScaledReal division by zero")
            return ScaledReal(*_norm(self.mantissa / other.mantissa,
                                     self.log2_scale - other.log2_scale))
        if isinstance(other, (int, float)):
            return ScaledReal(*_norm(self.mantissa / float(other),
                                     self.log2_scale))
        return NotImplemented

    def __add__(self, other):
        if not isinstance(other, ScaledReal):
            return NotImplemented
        return ScaledReal(*sr_add(self.mantissa, self.log2_scale,
                                  other.mantissa, other.log2_scale))

    def __sub__(self, other):
        if not isinstance(other, ScaledReal):
            return NotImplemented
        return self.__add__(ScaledReal(-other.mantissa, other.log2_scale))

    def __neg__(self):
        return ScaledReal(-self.mantissa, self.log2_scale)

    def __abs__(self):
        return ScaledReal(abs(self.mantissa), self.log2_scale)

    # -- comparison --------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, ScaledReal):
            return (self.mantissa == other.mantissa
                    and self.log2_scale == other.log2_scale)
        return NotImplemented

    def __lt__(self, other):
        if not isinstance(other, ScaledReal):
            return NotImplemented
        s1, s2 = self.sign(), other.sign()
        if s1 != s2:
            return s1 < s2
        if s1 == 0.0:
            return False
        if s1 > 0.0:
            return self.log_abs() < other.log_abs()
        return self.log_abs() > other.log_abs()

    def __le__(self, other):
        eq = self.__eq__(other)
        if eq is NotImplemented:
            return NotImplemented
        return eq or self.__lt__(other)

    def __hash__(self):
        return hash((self.mantissa, self.log2_scale))

    def __repr__(self):
        return f"ScaledReal({self.mantissa!r}, log2_scale={self.log2_scale!r})"
