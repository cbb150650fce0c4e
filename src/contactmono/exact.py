"""Exact scalars for the invariant calculus.

Values live in the field Q(i, sqrt2): z = (a + b*sqrt2) + (c + d*sqrt2)*i
with a, b, c, d rational.  Rationals are enough for the exterior algebra
and the pseudohermitian solve; sqrt2 enters only through the spinor basis
normalization, and keeping it symbolic makes every displayed matrix exact.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

Rat = Union[int, Fraction]

_SQRT2 = 1.4142135623730951


def _fr(x: Rat) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


def _qmul(a0: Fraction, a1: Fraction, b0: Fraction, b1: Fraction):
    # (a0 + a1 sqrt2)(b0 + b1 sqrt2)
    return a0 * b0 + 2 * a1 * b1, a0 * b1 + a1 * b0


def _qinv(a0: Fraction, a1: Fraction):
    # 1 / (a0 + a1 sqrt2); the norm a0^2 - 2 a1^2 vanishes only at 0
    n = a0 * a0 - 2 * a1 * a1
    if n == 0:
        raise ZeroDivisionError("division by zero in Q(sqrt2)")
    return a0 / n, -a1 / n


def _qsign(a0: Fraction, a1: Fraction) -> int:
    """Exact sign of a0 + a1*sqrt2."""
    if a0 == 0 and a1 == 0:
        return 0
    if a0 >= 0 and a1 >= 0:
        return 1
    if a0 <= 0 and a1 <= 0:
        return -1
    # opposite signs: compare a0^2 with 2 a1^2
    big_rational = a0 * a0 > 2 * a1 * a1
    if a0 > 0:
        return 1 if big_rational else -1
    return -1 if big_rational else 1


class ExactComplex:
    """Element of Q(i, sqrt2) with exact arithmetic and decidable equality."""

    __slots__ = ("ar", "as2", "br", "bs2")

    def __init__(self, re: Rat = 0, im: Rat = 0, re_s2: Rat = 0, im_s2: Rat = 0):
        object.__setattr__(self, "ar", _fr(re))
        object.__setattr__(self, "as2", _fr(re_s2))
        object.__setattr__(self, "br", _fr(im))
        object.__setattr__(self, "bs2", _fr(im_s2))

    def __setattr__(self, *_):
        raise AttributeError("ExactComplex is immutable")

    # -- constructors -------------------------------------------------
    @staticmethod
    def coerce(x) -> "ExactComplex":
        if isinstance(x, ExactComplex):
            return x
        if isinstance(x, (int, Fraction)):
            return ExactComplex(x)
        raise TypeError(f"cannot coerce {type(x).__name__} to ExactComplex")

    # -- predicates ----------------------------------------------------
    def is_zero(self) -> bool:
        return not (self.ar or self.as2 or self.br or self.bs2)

    def is_real(self) -> bool:
        return self.br == 0 and self.bs2 == 0

    def is_rational(self) -> bool:
        return self.as2 == 0 and self.bs2 == 0 and self.br == 0

    def real_sign(self) -> int:
        if not self.is_real():
            raise ValueError("real_sign of a non-real value")
        return _qsign(self.ar, self.as2)

    # -- accessors -----------------------------------------------------
    @property
    def re(self) -> Fraction:
        if self.as2 != 0:
            raise ValueError("real part is irrational")
        return self.ar

    @property
    def im(self) -> Fraction:
        if self.bs2 != 0:
            raise ValueError("imaginary part is irrational")
        return self.br

    def conjugate(self) -> "ExactComplex":
        return ExactComplex(self.ar, -self.br, self.as2, -self.bs2)

    def to_complex(self) -> complex:
        return complex(
            float(self.ar) + float(self.as2) * _SQRT2,
            float(self.br) + float(self.bs2) * _SQRT2,
        )

    def __complex__(self):
        return self.to_complex()

    # -- arithmetic ------------------------------------------------------
    def __add__(self, other):
        if not isinstance(other, (ExactComplex, int, Fraction)):
            return NotImplemented
        o = ExactComplex.coerce(other)
        return ExactComplex(
            self.ar + o.ar, self.br + o.br, self.as2 + o.as2, self.bs2 + o.bs2
        )

    __radd__ = __add__

    def __neg__(self):
        return ExactComplex(-self.ar, -self.br, -self.as2, -self.bs2)

    def __sub__(self, other):
        if not isinstance(other, (ExactComplex, int, Fraction)):
            return NotImplemented
        return self + (-ExactComplex.coerce(other))

    def __rsub__(self, other):
        if not isinstance(other, (ExactComplex, int, Fraction)):
            return NotImplemented
        return ExactComplex.coerce(other) + (-self)

    def __mul__(self, other):
        if not isinstance(other, (ExactComplex, int, Fraction)):
            return NotImplemented
        o = ExactComplex.coerce(other)
        if not (self.as2 or self.bs2 or o.as2 or o.bs2):
            # both factors in Q(i): (a + bi)(c + di)
            a, b, c, d = self.ar, self.br, o.ar, o.br
            return ExactComplex(a * c - b * d, a * d + b * c)
        # (x + yi)(x' + y'i) with x, y in Q(sqrt2)
        xr, xs = _qmul(self.ar, self.as2, o.ar, o.as2)
        yr, ys = _qmul(self.br, self.bs2, o.br, o.bs2)
        ur, us = _qmul(self.ar, self.as2, o.br, o.bs2)
        vr, vs = _qmul(self.br, self.bs2, o.ar, o.as2)
        return ExactComplex(xr - yr, ur + vr, xs - ys, us + vs)

    __rmul__ = __mul__

    def inverse(self) -> "ExactComplex":
        # 1/(x + yi) = conj / (x^2 + y^2), norm taken in Q(sqrt2)
        n0a, n0b = _qmul(self.ar, self.as2, self.ar, self.as2)
        n1a, n1b = _qmul(self.br, self.bs2, self.br, self.bs2)
        na, nb = n0a + n1a, n0b + n1b
        ia, ib = _qinv(na, nb)
        c = self.conjugate()
        xr, xs = _qmul(c.ar, c.as2, ia, ib)
        yr, ys = _qmul(c.br, c.bs2, ia, ib)
        return ExactComplex(xr, yr, xs, ys)

    def __truediv__(self, other):
        return self * ExactComplex.coerce(other).inverse()

    def __rtruediv__(self, other):
        return ExactComplex.coerce(other) * self.inverse()

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers")
        out = EC_ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def abs_sq(self) -> "ExactComplex":
        return self * self.conjugate()

    # -- comparison ------------------------------------------------------
    def __eq__(self, other):
        try:
            o = ExactComplex.coerce(other)
        except TypeError:
            return NotImplemented
        return (
            self.ar == o.ar
            and self.as2 == o.as2
            and self.br == o.br
            and self.bs2 == o.bs2
        )

    def __hash__(self):
        return hash((self.ar, self.as2, self.br, self.bs2))

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        def q(r, s):
            if s == 0:
                return str(r)
            if r == 0:
                return f"{s}*sqrt2"
            return f"({r}+{s}*sqrt2)"

        re_s = q(self.ar, self.as2)
        im_s = q(self.br, self.bs2)
        if im_s == "0":
            return re_s
        if re_s == "0":
            return f"{im_s}*i"
        return f"({re_s}+{im_s}*i)"


EC_ZERO = ExactComplex(0)
EC_ONE = ExactComplex(1)
EC_I = ExactComplex(0, 1)
EC_SQRT2 = ExactComplex(0, 0, 1, 0)
EC_INV_SQRT2 = ExactComplex(0, 0, Fraction(1, 2), 0)


def rational_str(x) -> str:
    """Serialize an exact rational as 'p/q' (or 'p') for the JSON boundary."""
    if isinstance(x, ExactComplex):
        if not x.is_rational():
            raise ValueError(f"{x!r} is not rational")
        x = x.re
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def parse_rational(s) -> Fraction:
    """Parse 'p/q' strings (also accepts ints and Fractions)."""
    if isinstance(s, (int, Fraction)):
        return Fraction(s)
    return Fraction(str(s))
