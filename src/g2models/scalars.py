"""Exact scalars: rationals, Gaussian rationals, real quadratic fields, serialization.

Plain rationals are ``fractions.Fraction`` (always reduced, denominator > 0).
``GaussianRational`` adds the field Q(i) used by the compact model over C^3.
``QuadraticRational`` is Q(sqrt(d)) in integers, for the split witness frame;
``sqrt_q`` returns the exact square root of a positive rational in Q or in it.
Rationals serialize as strings "p/q"; Gaussian rationals as {"re": .., "im": ..}.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
from typing import Union

Q = Fraction

Scalar = Union[int, Fraction, "GaussianRational"]


def fmt_q(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def parse_q(s: str) -> Fraction:
    """Parse "p", "p/q" or a finite decimal such as "0.5"; exponent notation is rejected.

    An exponent would let a few characters ask for an integer of any size
    ("1e999999999" has a billion digits), and `fmt_q` never writes one.
    """
    if "e" in s or "E" in s:
        raise ValueError(f"exponent notation in {s!r}; write the rational as \"p/q\" or a plain decimal")
    return Fraction(s)


@dataclass(frozen=True)
class GaussianRational:
    """Element of Q(i), componentwise exact."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    @staticmethod
    def of(x) -> "GaussianRational":
        if isinstance(x, GaussianRational):
            return x
        return GaussianRational(Fraction(x), Fraction(0))

    def __add__(self, other):
        o = GaussianRational.of(other)
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-GaussianRational.of(other))

    def __rsub__(self, other):
        return GaussianRational.of(other) + (-self)

    def __mul__(self, other):
        o = GaussianRational.of(other)
        return GaussianRational(self.re * o.re - self.im * o.im,
                                self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def norm_sq(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def inverse(self) -> "GaussianRational":
        n = self.norm_sq()
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        return GaussianRational(self.re / n, -self.im / n)

    def __truediv__(self, other):
        return self * GaussianRational.of(other).inverse()

    def __rtruediv__(self, other):
        return GaussianRational.of(other) * self.inverse()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self):
        return hash((self.re, self.im)) if self.im else hash(self.re)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __repr__(self):
        if not self.im:
            return fmt_q(self.re)
        return f"({fmt_q(self.re)}+{fmt_q(self.im)}i)"

    def to_json(self) -> dict:
        return {"re": fmt_q(self.re), "im": fmt_q(self.im)}

    @staticmethod
    def from_json(d: dict) -> "GaussianRational":
        return GaussianRational(parse_q(d["re"]), parse_q(d["im"]))


I_GAUSS = GaussianRational(Fraction(0), Fraction(1))


class QuadraticRational:
    """(a + b sqrt(d)) / den in Q(sqrt(d)), d a non-square integer; build it with `sqrt_q`.

    a, b and den are integers, den > 0 and gcd(a, b, den) = 1, so equal
    elements have equal parts.  Every operation is integer arithmetic plus one
    gcd.  int and Fraction operands mix in as elements with b = 0; two
    elements combine only over the same d.
    """

    __slots__ = ("a", "b", "den", "d")

    def __init__(self, a: int, b: int, den: int, d: int):
        g = gcd(a, b, den)
        if den < 0:
            g = -g
        self.a, self.b, self.den, self.d = a // g, b // g, den // g, d

    def _parts(self, other):
        if type(other) is QuadraticRational:
            if other.d != self.d:
                raise ValueError(f"Q(sqrt({self.d})) and Q(sqrt({other.d})) do not mix")
            return other.a, other.b, other.den
        if isinstance(other, int):
            return other, 0, 1
        if isinstance(other, Fraction):
            return other.numerator, 0, other.denominator
        return None

    def __add__(self, other):
        o = self._parts(other)
        if o is None:
            return NotImplemented
        a, b, den = o
        if den == self.den:
            return QuadraticRational(self.a + a, self.b + b, den, self.d)
        return QuadraticRational(self.a * den + a * self.den, self.b * den + b * self.den,
                                 self.den * den, self.d)

    __radd__ = __add__

    def __neg__(self):
        return QuadraticRational(-self.a, -self.b, self.den, self.d)

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        o = self._parts(other)
        if o is None:
            return NotImplemented
        a, b, den = o
        return QuadraticRational(self.a * a + self.b * b * self.d, self.a * b + self.b * a,
                                 self.den * den, self.d)

    __rmul__ = __mul__

    def _inverse(self):
        # (a + b r)(a - b r) = a^2 - b^2 d, nonzero unless a = b = 0 because d is not a square
        n = self.a * self.a - self.b * self.b * self.d
        if not n:
            raise ZeroDivisionError("division by zero in Q(sqrt(d))")
        return QuadraticRational(self.den * self.a, -self.den * self.b, n, self.d)

    def __truediv__(self, other):
        if type(other) is QuadraticRational:
            return self * other._inverse()
        if isinstance(other, (int, Fraction)):
            return self * (1 / Fraction(other))
        return NotImplemented

    def __rtruediv__(self, other):
        return self._inverse() * other

    def __bool__(self):
        return bool(self.a or self.b)

    def __eq__(self, other):
        if type(other) is QuadraticRational:
            return (self.a, self.b, self.den) == (other.a, other.b, other.den) and (not self.b or self.d == other.d)
        o = self._parts(other)
        if o is None:
            return NotImplemented
        return not self.b and (self.a, self.den) == (o[0], o[2])

    def __repr__(self):
        return f"({self.a} + {self.b}*sqrt({self.d}))/{self.den}"


def sqrt_q(x: Fraction) -> Union[Fraction, QuadraticRational]:
    """The positive square root of a positive rational p/q, exact.

    A Fraction when p q is a square; otherwise sqrt(p q) / q in Q(sqrt(p q)).
    """
    x = Fraction(x)
    if x <= 0:
        raise ValueError(f"sqrt_q needs a positive rational, got {x}")
    p, q = x.numerator, x.denominator
    r = isqrt(p * q)
    if r * r == p * q:
        return Fraction(r, q)
    return QuadraticRational(0, 1, q, p * q)
