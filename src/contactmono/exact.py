"""Exact scalars for the invariant calculus.

Values live in the field Q(i, sqrt2): z = (a + b*sqrt2) + (c + d*sqrt2)*i
with a, b, c, d rational.  Rationals are enough for the exterior algebra
and the pseudohermitian solve; sqrt2 enters only through the spinor basis
normalization, and keeping it symbolic makes every displayed matrix exact.

A value is stored as four integer numerators over one positive integer
denominator, in lowest terms (Cohen 1993, *A Course in Computational
Algebraic Number Theory*, ch. 4): one gcd per result instead of one
`Fraction` per part.  The form is unique, so equal values have equal parts.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Union

Rat = Union[int, Fraction]

_SQRT2 = 1.4142135623730951


def _fr(x: Rat) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


def _qsign(a0: Rat, a1: Rat) -> int:
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
    """Element of Q(i, sqrt2) with exact arithmetic and decidable equality.

    `_p` holds (a, b, c, d, n): the value ((a + b sqrt2) + (c + d sqrt2) i)/n
    with Python ints, n > 0 and gcd(a, b, c, d, n) = 1.
    """

    __slots__ = ("_p",)

    def __init__(self, re: Rat = 0, im: Rat = 0, re_s2: Rat = 0, im_s2: Rat = 0):
        if type(re) is int and type(im) is int and type(re_s2) is int and type(im_s2) is int:
            _store(self, (re, re_s2, im, im_s2, 1))
            return
        parts = (_fr(re), _fr(re_s2), _fr(im), _fr(im_s2))
        # over the lcm of the reduced denominators the numerators share no
        # factor with it, so the form is already in lowest terms
        n = lcm(*(x.denominator for x in parts))
        a, b, c, d = (x.numerator * (n // x.denominator) for x in parts)
        _store(self, (a, b, c, d, n))

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
        a, b, c, d, _ = self._p
        return not (a or b or c or d)

    def is_real(self) -> bool:
        _, _, c, d, _ = self._p
        return c == 0 and d == 0

    def is_rational(self) -> bool:
        _, b, c, d, _ = self._p
        return b == 0 and d == 0 and c == 0

    def real_sign(self) -> int:
        if not self.is_real():
            raise ValueError("real_sign of a non-real value")
        a, b, _, _, _ = self._p
        return _qsign(a, b)  # n > 0

    # -- accessors -----------------------------------------------------
    @property
    def ar(self) -> Fraction:
        return Fraction(self._p[0], self._p[4])

    @property
    def as2(self) -> Fraction:
        return Fraction(self._p[1], self._p[4])

    @property
    def br(self) -> Fraction:
        return Fraction(self._p[2], self._p[4])

    @property
    def bs2(self) -> Fraction:
        return Fraction(self._p[3], self._p[4])

    @property
    def re(self) -> Fraction:
        if self._p[1] != 0:
            raise ValueError("real part is irrational")
        return self.ar

    @property
    def im(self) -> Fraction:
        if self._p[3] != 0:
            raise ValueError("imaginary part is irrational")
        return self.br

    def conjugate(self) -> "ExactComplex":
        a, b, c, d, n = self._p
        return _raw((a, b, -c, -d, n))

    def to_complex(self) -> complex:
        # int true division rounds correctly: the float of each part is that
        # of its reduced Fraction
        a, b, c, d, n = self._p
        return complex(a / n + b / n * _SQRT2, c / n + d / n * _SQRT2)

    def __complex__(self):
        return self.to_complex()

    # -- arithmetic ------------------------------------------------------
    def __add__(self, other):
        o = _operand(other)
        if o is None:
            return NotImplemented
        a, b, c, d, n = self._p
        e, f, g, h, m = o
        if n == m:
            return _make(a + e, b + f, c + g, d + h, n)
        return _make(a * m + e * n, b * m + f * n, c * m + g * n, d * m + h * n, n * m)

    __radd__ = __add__

    def __neg__(self):
        a, b, c, d, n = self._p
        return _raw((-a, -b, -c, -d, n))

    def __sub__(self, other):
        o = _operand(other)
        if o is None:
            return NotImplemented
        a, b, c, d, n = self._p
        e, f, g, h, m = o
        if n == m:
            return _make(a - e, b - f, c - g, d - h, n)
        return _make(a * m - e * n, b * m - f * n, c * m - g * n, d * m - h * n, n * m)

    def __rsub__(self, other):
        o = _operand(other)
        if o is None:
            return NotImplemented
        return _raw(o) - self

    def __mul__(self, other):
        o = _operand(other)
        if o is None:
            return NotImplemented
        a, b, c, d, n = self._p
        e, f, g, h, m = o
        if not (b or d or f or h):
            # both factors in Q(i): (a + ci)(e + gi)
            return _make(a * e - c * g, 0, a * g + c * e, 0, n * m)
        # (x + yi)(x' + y'i) with x = a + b sqrt2, y = c + d sqrt2,
        # x' = e + f sqrt2, y' = g + h sqrt2
        return _make(
            a * e + 2 * b * f - c * g - 2 * d * h,
            a * f + b * e - c * h - d * g,
            a * g + 2 * b * h + c * e + 2 * d * f,
            a * h + b * g + c * f + d * e,
            n * m,
        )

    __rmul__ = __mul__

    def inverse(self) -> "ExactComplex":
        # 1/z = n (x - yi) / (x^2 + y^2) with x = a + b sqrt2, y = c + d sqrt2;
        # x^2 + y^2 = N0 + N1 sqrt2 and 1/(N0 + N1 sqrt2) = (N0 - N1 sqrt2)/D.
        # D = N0^2 - 2 N1^2 is the product of x^2 + y^2 and its Galois
        # conjugate, both positive unless z = 0, so D > 0 is the denominator.
        a, b, c, d, n = self._p
        n0 = a * a + 2 * b * b + c * c + 2 * d * d
        n1 = 2 * (a * b + c * d)
        den = n0 * n0 - 2 * n1 * n1
        if den == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt2)")
        return _make(
            n * (a * n0 - 2 * b * n1),
            n * (b * n0 - a * n1),
            n * (2 * d * n1 - c * n0),
            n * (c * n1 - d * n0),
            den,
        )

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
        o = _operand(other)
        if o is None:
            return NotImplemented
        return self._p == o

    def __hash__(self):
        return hash(self._p)

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


_new = object.__new__
_store = ExactComplex._p.__set__  # the slot's setter, past the immutability guard


def _raw(parts) -> ExactComplex:
    """An ExactComplex from parts already in lowest terms."""
    z = _new(ExactComplex)
    _store(z, parts)
    return z


def _make(a: int, b: int, c: int, d: int, n: int) -> ExactComplex:
    """((a + b sqrt2) + (c + d sqrt2) i)/n, n > 0, reduced to lowest terms."""
    if n != 1:
        g = gcd(a, b, c, d, n)
        if g != 1:
            a //= g
            b //= g
            c //= g
            d //= g
            n //= g
    z = _new(ExactComplex)
    _store(z, (a, b, c, d, n))
    return z


def _operand(x):
    """The parts of an ExactComplex, int or Fraction operand; None otherwise."""
    if isinstance(x, ExactComplex):
        return x._p
    if isinstance(x, int):
        return (int(x), 0, 0, 0, 1)
    if isinstance(x, Fraction):
        return (x.numerator, 0, 0, 0, x.denominator)
    return None


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
    """Parse 'p/q' strings (also accepts ints and Fractions, but no bool)."""
    if isinstance(s, bool):
        raise ValueError(f"{s!r} is not a rational")
    if isinstance(s, (int, Fraction)):
        return Fraction(s)
    return Fraction(str(s))
