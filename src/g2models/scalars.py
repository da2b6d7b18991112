"""Exact scalars: rationals, Gaussian rationals, and serialization helpers.

Plain rationals are ``fractions.Fraction`` (always reduced, denominator > 0).
``GaussianRational`` adds the field Q(i) used by the compact model over C^3.
Rationals serialize as strings "p/q"; Gaussian rationals as {"re": .., "im": ..}.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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
