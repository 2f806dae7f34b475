"""Exact integer polynomial arithmetic and the closed-form Poincare series.

The series for the rank-3 representation spaces are presented as exact
quotients of integer polynomials; division is performed with a remainder
check so a transcription error surfaces as an exception instead of a
silently wrong polynomial.
"""

from __future__ import annotations

from collections.abc import Sequence

from .frozen import Frozen

# both series take about 0.05 s at g = 100 and 1.3 s at g = 400 on one core
MAX_GENUS = 100


class NotDivisible(ValueError):
    """Polynomial division left a nonzero remainder."""


class IntPolynomial(Frozen):
    """Dense integer-coefficient polynomial in t; index = degree.

    Canonical form: no trailing zero coefficients, the zero polynomial is
    the empty tuple.  Coefficients must be ints (not bool): TypeError else.
    """

    __slots__ = _fields = ("coeffs",)

    def __init__(self, coeffs: Sequence[int] = ()):
        values = list(coeffs)
        if any(type(c) is not int for c in values):
            raise TypeError(f"polynomial coefficients must be integers: {values!r}")
        while values and values[-1] == 0:
            values.pop()
        object.__setattr__(self, "coeffs", tuple(values))

    @classmethod
    def one(cls) -> "IntPolynomial":
        return cls((1,))

    @classmethod
    def t_power(cls, k: int) -> "IntPolynomial":
        return cls((0,) * k + (1,))

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __call__(self, t: int) -> int:
        if type(t) is not int:
            raise TypeError(f"polynomials are evaluated at ints, got {t!r}")
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    def __repr__(self) -> str:
        return f"IntPolynomial({list(self.coeffs)})"

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(out)

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial([-c for c in self.coeffs])

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return IntPolynomial()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPolynomial(out)

    def __pow__(self, k: int) -> "IntPolynomial":
        if type(k) is not int:
            raise TypeError(f"polynomial exponents must be ints, got {k!r}")
        if k < 0:
            raise ValueError("negative powers are not polynomials")
        result = IntPolynomial.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result


def poly_divexact(num: IntPolynomial, den: IntPolynomial) -> IntPolynomial:
    """Quotient q with q * den = num exactly; NotDivisible otherwise."""
    if not isinstance(num, IntPolynomial) or not isinstance(den, IntPolynomial):
        raise TypeError(f"need two IntPolynomials, got {num!r} and {den!r}")
    if den.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(num.coeffs)
    d = list(den.coeffs)
    lead = d[-1]
    if len(rem) < len(d):
        if any(rem):
            raise NotDivisible("numerator has lower degree than denominator")
        return IntPolynomial()
    q = [0] * (len(rem) - len(d) + 1)
    for k in range(len(q) - 1, -1, -1):
        c = rem[k + len(d) - 1]
        if c % lead != 0:
            raise NotDivisible("leading coefficient does not divide")
        q[k] = c // lead
        if q[k]:
            for j, dj in enumerate(d):
                rem[k + j] -= q[k] * dj
    if any(rem):
        raise NotDivisible("nonzero remainder")
    return IntPolynomial(q)


# denominator (1 - t^2)(1 - t^4) shared by both series
def _denominator() -> IntPolynomial:
    return IntPolynomial((1, 0, -1)) * IntPolynomial((1, 0, 0, 0, -1))


def pt_so3(w2: int, g: int) -> IntPolynomial:
    """Poincare polynomial of the SO(3) representation space with class w2.

    ((1 + t^3)^2g - (1 + t)^2g t^(2g + 2 - 2 w2)) / ((1 - t^2)(1 - t^4)),
    and the division is required to be exact.

    The w2 = 1 quotient is the classical polynomial of the smooth rank-2
    odd-determinant moduli space.  The w2 = 0 numerator as written carries
    only a simple zero at t = 1 (it equals (1+t)^2g ((1-t+t^2)^2g - t^(2g+2))
    and the bracket has derivative -2 at t = 1), while the denominator
    vanishes to second order there, so for w2 = 0 this raises NotDivisible
    for every g.
    """
    if type(w2) is not int or type(g) is not int:
        raise ValueError(f"w2 and genus must be ints, got w2={w2!r}, genus={g!r}")
    if w2 not in (0, 1):
        raise ValueError(f"w2 must be 0 or 1, got {w2}")
    if g < 2:
        raise ValueError(f"genus must be >= 2, got {g}")
    if g > MAX_GENUS:
        raise ValueError(f"genus {g} exceeds the supported maximum {MAX_GENUS}")
    shift = 2 * g + 2 - 2 * w2
    numerator = IntPolynomial((1, 0, 0, 1)) ** (2 * g) - (
        IntPolynomial((1, 1)) ** (2 * g) * IntPolynomial.t_power(shift)
    )
    return poly_divexact(numerator, _denominator())


def pt_sl3(w2: int, g: int) -> IntPolynomial:
    """Poincare polynomial of the SL(3, R) representation space with class w2.

    The w2 = 0 space gains one contractible component, adding the constant 1;
    the w2 = 1 series coincides with the SO(3) one.
    """
    base = pt_so3(w2, g)
    if w2 == 0:
        return base + IntPolynomial.one()
    return base
