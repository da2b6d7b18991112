"""Arbitrary-precision decimal floats for the column scalars of a witness frame.

All orbit classification stays rational, and a witness frame's directions are
exact; these floats only form the real scalars of its columns (a cube root and
square roots) and their products with those directions.  A ``BigFloat``
carries its working precision (decimal digits, default 60) and every operation
rounds in a local ``decimal`` context, so there is no mutable global state.
The witness residual gate uses the tolerance 10^(-P/2) at precision P.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Context, Decimal
from fractions import Fraction
from typing import Union

DEFAULT_DIGITS = 60

# guard digits beyond the advertised precision, absorbed before any tolerance test
_GUARD = 20


def _ctx(digits: int) -> Context:
    return Context(prec=digits + _GUARD)


@dataclass(frozen=True)
class BigFloat:
    val: Decimal
    digits: int = DEFAULT_DIGITS

    @staticmethod
    def of(x: Union[int, Fraction, Decimal, "BigFloat"], digits: int = DEFAULT_DIGITS) -> "BigFloat":
        if isinstance(x, BigFloat):
            return x
        if isinstance(x, Fraction):
            c = _ctx(digits)
            return BigFloat(c.divide(Decimal(x.numerator), Decimal(x.denominator)), digits)
        return BigFloat(Decimal(x), digits)

    def _bin(self, other, op) -> "BigFloat":
        o = BigFloat.of(other, self.digits)
        d = min(self.digits, o.digits)
        return BigFloat(op(_ctx(d), self.val, o.val), d)

    def __add__(self, other):
        return self._bin(other, Context.add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._bin(other, Context.subtract)

    def __rsub__(self, other):
        return BigFloat.of(other, self.digits) - self

    def __mul__(self, other):
        return self._bin(other, Context.multiply)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._bin(other, Context.divide)

    def __rtruediv__(self, other):
        return BigFloat.of(other, self.digits) / self

    def __neg__(self):
        # copy_negate is quiet: plain -val would round to the default context
        return BigFloat(self.val.copy_negate(), self.digits)

    def __abs__(self):
        return BigFloat(self.val.copy_abs(), self.digits)

    def __lt__(self, other):
        return self.val < BigFloat.of(other, self.digits).val

    def __le__(self, other):
        return self.val <= BigFloat.of(other, self.digits).val

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, Decimal, BigFloat)):
            return self.val == BigFloat.of(other, self.digits).val
        return NotImplemented

    def __hash__(self):
        return hash(self.val)

    def __bool__(self):
        return self.val != 0

    def __repr__(self):
        return f"BigFloat({self.val}, digits={self.digits})"

    def sqrt(self) -> "BigFloat":
        if self.val < 0:
            raise ValueError("sqrt of negative BigFloat")
        return BigFloat(_ctx(self.digits).sqrt(self.val), self.digits)

    def __str__(self):
        return str(self.val)


def tolerance(digits: int = DEFAULT_DIGITS) -> BigFloat:
    """Residual bound 10^(-digits/2) used by every approximate check."""
    return BigFloat(Decimal(1).scaleb(-(digits // 2)), digits)


def real_cube_root(a: Union[int, Fraction, BigFloat], digits: int = DEFAULT_DIGITS) -> BigFloat:
    """The real cube root of ``a`` (negative inputs give negative roots).

    Newton iteration on x^3 - a at precision ``digits``; the result satisfies
    |root^3 - a| <= 10^(-digits/2) * max(1, |a|).
    """
    x = BigFloat.of(a, digits)
    if not x:
        return BigFloat(Decimal(0), digits)
    neg = x.val < 0
    v = x.val.copy_abs()
    c = _ctx(digits)
    # float seed, then quadratic convergence; ~log2(digits) rounds suffice
    guess = Decimal(float(v) ** (1.0 / 3.0))
    if guess == 0:
        guess = Decimal(1)
    two = Decimal(2)
    three = Decimal(3)
    for _ in range(digits.bit_length() + 8):
        prev = guess
        guess = c.divide(c.add(c.multiply(two, guess), c.divide(v, c.multiply(guess, guess))), three)
        if guess == prev:
            break
    root = BigFloat(guess, digits)
    return -root if neg else root
