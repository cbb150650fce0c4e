import math
import struct
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from contactmono.exact import (
    EC_I,
    EC_INV_SQRT2,
    EC_ONE,
    EC_SQRT2,
    ExactComplex,
    parse_rational,
    rational_str,
)

rationals = st.fractions(min_value=-8, max_value=8, max_denominator=12)


def ec(a=0, b=0, c=0, d=0):
    return ExactComplex(a, c, b, d)  # (a + b sqrt2) + (c + d sqrt2) i


scalars = st.builds(ExactComplex, rationals, rationals, rationals, rationals)


def test_sqrt2_squares_to_two():
    assert EC_SQRT2 * EC_SQRT2 == ExactComplex(2)
    assert EC_INV_SQRT2 * EC_SQRT2 == EC_ONE


def test_i_squares_to_minus_one():
    assert EC_I * EC_I == ExactComplex(-1)


def test_repr_shapes():
    assert repr(ExactComplex(Fraction(1, 2))) == "1/2"
    assert "sqrt2" in repr(EC_SQRT2)


@given(scalars, scalars, scalars)
@settings(max_examples=60, deadline=None)
def test_ring_axioms(x, y, z):
    assert (x + y) * z == x * z + y * z
    assert x * (y * z) == (x * y) * z
    assert x + y == y + x
    assert x * y == y * x


@given(scalars)
@settings(max_examples=60, deadline=None)
def test_inverse_roundtrip(x):
    if x.is_zero():
        with pytest.raises(ZeroDivisionError):
            x.inverse()
    else:
        assert x * x.inverse() == EC_ONE


@given(scalars)
@settings(max_examples=60, deadline=None)
def test_conjugation_and_norm(x):
    n = x.abs_sq()
    assert n.is_real()
    if not x.is_zero():
        assert n.real_sign() == 1


gaussian = st.builds(ExactComplex, rationals, rationals)  # Q(i): no sqrt2 parts


def _general_product(x, y):
    """(ar, br, as2, bs2) of x * y by the full Q(i, sqrt2) formula."""

    def qmul(a0, a1, b0, b1):  # (a0 + a1 sqrt2)(b0 + b1 sqrt2)
        return a0 * b0 + 2 * a1 * b1, a0 * b1 + a1 * b0

    xr, xs = qmul(x.ar, x.as2, y.ar, y.as2)
    yr, ys = qmul(x.br, x.bs2, y.br, y.bs2)
    ur, us = qmul(x.ar, x.as2, y.br, y.bs2)
    vr, vs = qmul(x.br, x.bs2, y.ar, y.as2)
    return xr - yr, ur + vr, xs - ys, us + vs


def _parts(z):
    return z.ar, z.br, z.as2, z.bs2


@given(gaussian, gaussian)
@settings(max_examples=100, deadline=None)
def test_rational_product_matches_general_formula(x, y):
    prod = x * y
    assert _parts(prod) == _general_product(x, y)
    assert prod.as2 == 0 and prod.bs2 == 0
    assert all(isinstance(p, Fraction) for p in _parts(prod))


@given(st.one_of(gaussian, scalars), scalars)
@settings(max_examples=100, deadline=None)
def test_mixed_product_matches_general_formula(x, y):
    assert _parts(x * y) == _general_product(x, y)
    assert _parts(y * x) == _general_product(y, x)


def test_real_sign_mixed_terms():
    # 3 - 2 sqrt2 > 0, 1 - sqrt2 < 0
    assert ExactComplex(3, 0, -2, 0).real_sign() == 1
    assert ExactComplex(1, 0, -1, 0).real_sign() == -1
    assert ExactComplex(0).real_sign() == 0


def test_float_embedding():
    z = ec(a=1, b=1, c=2, d=-1)  # (1 + sqrt2) + (2 - sqrt2) i
    w = z.to_complex()
    assert abs(w.real - (1 + 2**0.5)) < 1e-15
    assert abs(w.imag - (2 - 2**0.5)) < 1e-15


def test_rational_str_roundtrip():
    assert rational_str(Fraction(-3, 4)) == "-3/4"
    assert rational_str(Fraction(5)) == "5"
    assert parse_rational("-3/4") == Fraction(-3, 4)
    assert parse_rational(7) == Fraction(7)


# --- the integer form against an independent four-Fraction route -------------------


def _qmul(a0, a1, b0, b1):  # (a0 + a1 sqrt2)(b0 + b1 sqrt2)
    return a0 * b0 + 2 * a1 * b1, a0 * b1 + a1 * b0


class RefComplex:
    """(ar + as2 sqrt2) + (br + bs2 sqrt2) i with four Fraction parts.

    The textbook formulas, one Fraction per part, as the arithmetic was
    written before the integer form: the reference the integer form must
    reproduce part for part.
    """

    def __init__(self, ar=0, br=0, as2=0, bs2=0):
        self.ar, self.br, self.as2, self.bs2 = map(Fraction, (ar, br, as2, bs2))

    @classmethod
    def of(cls, z):
        if isinstance(z, (int, Fraction)):
            return cls(z)
        return cls(z.ar, z.br, z.as2, z.bs2)

    def parts(self):
        return self.ar, self.br, self.as2, self.bs2

    def __add__(self, o):
        return RefComplex(self.ar + o.ar, self.br + o.br, self.as2 + o.as2, self.bs2 + o.bs2)

    def __neg__(self):
        return RefComplex(-self.ar, -self.br, -self.as2, -self.bs2)

    def __sub__(self, o):
        return self + (-o)

    def __mul__(self, o):
        xr, xs = _qmul(self.ar, self.as2, o.ar, o.as2)
        yr, ys = _qmul(self.br, self.bs2, o.br, o.bs2)
        ur, us = _qmul(self.ar, self.as2, o.br, o.bs2)
        vr, vs = _qmul(self.br, self.bs2, o.ar, o.as2)
        return RefComplex(xr - yr, ur + vr, xs - ys, us + vs)

    def conjugate(self):
        return RefComplex(self.ar, -self.br, self.as2, -self.bs2)

    def inverse(self):
        # 1/(x + yi) = conj / (x^2 + y^2), the norm inverted in Q(sqrt2)
        n0a, n0b = _qmul(self.ar, self.as2, self.ar, self.as2)
        n1a, n1b = _qmul(self.br, self.bs2, self.br, self.bs2)
        na, nb = n0a + n1a, n0b + n1b
        norm = na * na - 2 * nb * nb
        if norm == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt2)")
        return self.conjugate() * RefComplex(na / norm, 0, -nb / norm)

    def __pow__(self, n):
        out = RefComplex(1)
        for _ in range(n):
            out = out * self
        return out

    def real_sign(self):
        a0, a1 = self.ar, self.as2
        if a0 == 0 and a1 == 0:
            return 0
        if a0 >= 0 and a1 >= 0:
            return 1
        if a0 <= 0 and a1 <= 0:
            return -1
        big_rational = a0 * a0 > 2 * a1 * a1
        if a0 > 0:
            return 1 if big_rational else -1
        return -1 if big_rational else 1

    def __repr__(self):
        def q(r, s):
            if s == 0:
                return str(r)
            if r == 0:
                return f"{s}*sqrt2"
            return f"({r}+{s}*sqrt2)"

        re_s, im_s = q(self.ar, self.as2), q(self.br, self.bs2)
        if im_s == "0":
            return re_s
        if re_s == "0":
            return f"{im_s}*i"
        return f"({re_s}+{im_s}*i)"

    def to_complex(self):
        return complex(
            float(self.ar) + float(self.as2) * 1.4142135623730951,
            float(self.br) + float(self.bs2) * 1.4142135623730951,
        )


def _check_form(z):
    """The stored form: ints over a positive denominator, in lowest terms."""
    a, b, c, d, n = z._p
    assert all(type(v) is int for v in z._p)
    assert n > 0 and math.gcd(a, b, c, d, n) == 1
    assert RefComplex.of(z).parts() == (
        Fraction(a, n), Fraction(c, n), Fraction(b, n), Fraction(d, n)
    )


def _same(z, ref):
    _check_form(z)
    assert (z.ar, z.br, z.as2, z.bs2) == ref.parts()
    assert all(isinstance(p, Fraction) for p in (z.ar, z.br, z.as2, z.bs2))


wide = st.fractions(min_value=-(10**18), max_value=10**18, max_denominator=10**20)
values = st.one_of(
    scalars,
    gaussian,
    st.builds(ExactComplex, wide, wide, wide, wide),
    st.builds(ExactComplex, st.integers(-50, 50), st.integers(-50, 50)),
)
plain = st.one_of(st.integers(-50, 50), rationals)  # int and Fraction operands


@given(values, values)
@settings(max_examples=150, deadline=None)
def test_ring_operations_match_fraction_reference(x, y):
    rx, ry = RefComplex.of(x), RefComplex.of(y)
    _same(x + y, rx + ry)
    _same(x - y, rx - ry)
    _same(-x, -rx)
    _same(x * y, rx * ry)
    _same(x.conjugate(), rx.conjugate())
    _same(x.abs_sq(), rx * rx.conjugate())
    if y.is_zero():
        with pytest.raises(ZeroDivisionError):
            y.inverse()
        with pytest.raises(ZeroDivisionError):
            x / y
    else:
        _same(y.inverse(), ry.inverse())
        _same(x / y, rx * ry.inverse())


@given(values, plain)
@settings(max_examples=100, deadline=None)
def test_mixed_operands_match_fraction_reference(x, k):
    rx, rk = RefComplex.of(x), RefComplex.of(k)
    _same(x + k, rx + rk)
    _same(k + x, rk + rx)
    _same(x - k, rx - rk)
    _same(k - x, rk - rx)
    _same(x * k, rx * rk)
    _same(k * x, rk * rx)
    assert (x == k) == (rx.parts() == rk.parts())
    if k != 0:
        _same(x / k, rx * rk.inverse())
    if not x.is_zero():
        _same(k / x, rk * rx.inverse())


@given(values, st.integers(0, 5))
@settings(max_examples=60, deadline=None)
def test_power_matches_fraction_reference(x, n):
    _same(x**n, RefComplex.of(x) ** n)


@given(values)
@settings(max_examples=150, deadline=None)
def test_repr_and_float_embedding_match_fraction_reference(x):
    ref = RefComplex.of(x)
    assert repr(x) == repr(ref)
    w, v = x.to_complex(), ref.to_complex()
    assert struct.pack("<dd", w.real, w.imag) == struct.pack("<dd", v.real, v.imag)


@given(st.integers(-(10**6), 10**6), st.integers(-(10**6), 10**6), rationals)
@settings(max_examples=150, deadline=None)
def test_real_sign_matches_fraction_reference(a, b, scale):
    # a + b sqrt2 with parts of opposite signs, near the cancellation a^2 = 2 b^2
    for x in (ExactComplex(a, 0, -b, 0), ExactComplex(a * scale, 0, b * scale, 0)):
        assert x.real_sign() == RefComplex.of(x).real_sign()


def test_real_sign_at_close_cancellation():
    # 99^2 = 9801 and 2 * 70^2 = 9800: 99 - 70 sqrt2 > 0 by 0.005
    assert ExactComplex(99, 0, -70, 0).real_sign() == 1
    assert ExactComplex(-99, 0, 70, 0).real_sign() == -1
    assert ExactComplex(140, 0, -99, 0).real_sign() == -1  # 19600 < 2 * 9801


def test_equal_values_share_one_form_and_hash():
    half = ExactComplex(Fraction(1, 2))
    routes = [
        ExactComplex(Fraction(1, 4)) + ExactComplex(Fraction(1, 4)),
        ExactComplex(2) * ExactComplex(Fraction(1, 4)),
        ExactComplex(3, 0, 2, 0) / ExactComplex(6, 0, 4, 0) * 1,
        (EC_SQRT2 * EC_INV_SQRT2) / 2,
        ExactComplex(Fraction(3, 4)) - Fraction(1, 4),
    ]
    for z in routes:
        _check_form(z)
        assert z == half and hash(z) == hash(half) and z._p == (1, 0, 0, 0, 2)
    assert len({*routes, half}) == 1
    zero = ExactComplex(Fraction(1, 3)) - Fraction(1, 3)
    assert zero._p == (0, 0, 0, 0, 1) and zero == 0 and not zero


def test_float_embedding_overflows_as_fraction_does():
    big = ExactComplex(Fraction(10**400, 3))
    with pytest.raises(OverflowError):
        big.to_complex()
    with pytest.raises(OverflowError):
        float(big.ar)
    tiny = ExactComplex(Fraction(1, 10**400))
    assert tiny.to_complex() == 0j == RefComplex.of(tiny).to_complex()
