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
