import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from contactmono.algebra import (
    MONOMIALS,
    InvariantForm,
    catalog_model,
    exterior_d,
    gen_model,
    hodge_star_eps,
    interior,
    is_heisenberg,
    make_model,
    model_from_json,
    theta,
    theta1,
    theta1bar,
    wedge,
)
from contactmono.errors import AdmissibilityError, DegreeError, JacobiError
from contactmono.exact import EC_I, ExactComplex
from references import form_inner_eps

rat = st.fractions(min_value=-4, max_value=4, max_denominator=4)

ALL_MONOMIALS = [k for d in range(4) for k in MONOMIALS[d]]
BASIS_FORMS = [InvariantForm.basis(*k) if k else InvariantForm.const(1) for k in ALL_MONOMIALS]


def form_strategy(degree):
    keys = MONOMIALS[degree]
    return st.lists(
        st.tuples(rat, rat), min_size=len(keys), max_size=len(keys)
    ).map(
        lambda vals: InvariantForm(
            degree,
            {k: ExactComplex(a, b) for k, (a, b) in zip(keys, vals)},
        )
    )


def test_basis_antisymmetry():
    assert InvariantForm.basis(1, 2) == -InvariantForm.basis(2, 1)
    assert InvariantForm.basis(1, 1).is_zero()


def test_wedge_basis_products():
    e1, e2 = InvariantForm.basis(1), InvariantForm.basis(2)
    assert wedge(e1, e2) == InvariantForm.basis(1, 2)
    assert wedge(e1, e1).is_zero()


def test_theta1_wedge_theta1bar():
    # theta1 ^ theta1bar = -2i e1^e2
    expect = InvariantForm(2, {(1, 2): ExactComplex(0, -2)})
    assert wedge(theta1(), theta1bar()) == expect


def test_wedge_degree_error():
    with pytest.raises(DegreeError):
        wedge(InvariantForm.basis(0, 1), InvariantForm.basis(1, 2))


def test_wedge_graded_commutativity_on_basis():
    for a, b in itertools.product(BASIS_FORMS, repeat=2):
        if a.degree + b.degree > 3:
            continue
        sign = (-1) ** (a.degree * b.degree)
        assert wedge(a, b) == ExactComplex(sign) * wedge(b, a)


def test_wedge_associativity_on_basis():
    for a, b, c in itertools.product(BASIS_FORMS, repeat=3):
        if a.degree + b.degree + c.degree > 3:
            continue
        assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


def test_interior_examples():
    assert interior(1, InvariantForm.basis(1, 2)) == InvariantForm.basis(2)
    assert interior(0, InvariantForm.basis(1, 2)).is_zero()
    assert interior(1, theta1bar()) == InvariantForm.const(1)
    with pytest.raises(DegreeError):
        interior(1, InvariantForm.const(1))


def test_interior_antiderivation():
    vol = InvariantForm.basis(0, 1, 2)
    assert interior(1, vol) == -InvariantForm.basis(0, 2)
    # iota(e1)(e1 ^ (e2^e0)) = e2^e0 - e1 ^ iota(e1)(e2^e0)
    a = InvariantForm.basis(1)
    b = InvariantForm.basis(2, 0)
    lhs = interior(1, wedge(a, b))
    rhs = b - wedge(a, interior(1, b))
    assert lhs == rhs


# --- models ----------------------------------------------------------------


def test_gen_model_valid_and_catalog():
    for name in ("heisenberg", "round-s3", "torsion"):
        m = catalog_model(name)
        assert m.name == name
    m = gen_model(Fraction(2, 3), Fraction(-1, 7))
    assert m.d_basis1(0) == InvariantForm(2, {(1, 2): ExactComplex(2)})


@given(rat, rat)
@settings(max_examples=40, deadline=None)
def test_gen_model_always_integrable(p, q):
    m = gen_model(p, q)
    for i in range(3):
        assert exterior_d(m.d_basis1(i), m).is_zero()


def test_admissibility_error():
    c = dict(gen_model(0, 0).c)
    c[(0, (1, 2))] = ExactComplex(1)
    with pytest.raises(AdmissibilityError):
        make_model(c)


def test_jacobi_error():
    # de1 = e0^e1, de2 = e0^e2 violates d(de0) = 0
    c = dict(gen_model(0, 0).c)
    c[(1, (0, 1))] = ExactComplex(1)
    c[(2, (0, 2))] = ExactComplex(1)
    with pytest.raises(JacobiError):
        make_model(c)


def test_model_from_json_forms():
    m1 = model_from_json({"name": "x", "p": "1/2", "q": "-1/3"})
    assert exterior_d(m1.d_basis1(1), m1).is_zero()
    m2 = model_from_json(
        {"name": "y", "c_0_12": "2", "c_1_02": "-2", "c_2_01": "2"}
    )
    assert m2.c[(1, (0, 2))] == ExactComplex(-2)


def test_exterior_d_examples():
    m = gen_model(1, 1)
    assert exterior_d(theta(), m) == InvariantForm(2, {(1, 2): ExactComplex(2)})
    # d(theta1) on gen(1,1) = 2i theta ^ theta1
    expect = ExactComplex(0, 2) * wedge(theta(), theta1())
    assert exterior_d(theta1(), m) == expect
    assert exterior_d(InvariantForm.const(5), m).is_zero()


@given(st.sampled_from([(0, 0), (1, 1), (1, -1), (2, 3)]), st.integers(0, 7))
@settings(max_examples=40, deadline=None)
def test_d_squared_zero_on_basis(pq, idx):
    m = gen_model(*pq)
    a = BASIS_FORMS[idx]
    if a.degree >= 3:
        return
    assert exterior_d(exterior_d(a, m), m).is_zero()


def test_leibniz_on_basis_pairs():
    m = gen_model(Fraction(1, 2), Fraction(-2, 3))
    for a, b in itertools.product(BASIS_FORMS, repeat=2):
        if a.degree + b.degree >= 3:
            continue
        lhs = exterior_d(wedge(a, b), m)
        rhs = wedge(exterior_d(a, m), b) + ExactComplex((-1) ** a.degree) * wedge(
            a, exterior_d(b, m)
        )
        assert lhs == rhs


# --- hodge -------------------------------------------------------------------


def test_hodge_examples():
    eps = Fraction(1, 3)
    e0 = InvariantForm.basis(0)
    assert hodge_star_eps(InvariantForm.basis(1, 2), eps) == ExactComplex(eps) * e0
    # star(theta1bar) = i theta1bar ^ (eps e0)
    lhs = hodge_star_eps(theta1bar(), eps)
    rhs = EC_I * wedge(theta1bar(), ExactComplex(eps) * e0)
    assert lhs == rhs
    assert hodge_star_eps(InvariantForm.const(1), Fraction(1)) == InvariantForm.basis(
        0, 1, 2
    )


@given(st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(3, 5), Fraction(2)]))
@settings(max_examples=10, deadline=None)
def test_hodge_involution(eps):
    for a in BASIS_FORMS:
        assert hodge_star_eps(hodge_star_eps(a, eps), eps) == a


def test_hodge_isometry_positive():
    eps = Fraction(1, 2)
    for a in BASIS_FORMS:
        n = form_inner_eps(a, a, eps)
        assert n.is_real()
        assert n.real_sign() == 1
    mixed = InvariantForm(1, {(0,): Fraction(1, 3), (1,): -2, (2,): Fraction(5, 7)})
    n = form_inner_eps(mixed, mixed, eps)
    assert n.real_sign() == 1


@given(
    st.integers(0, 3),
    st.lists(rat, min_size=3, max_size=3),
    st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(3, 4), Fraction(2)]),
)
@settings(max_examples=40, deadline=None)
def test_hodge_isometry_random_real_forms(degree, vals, eps):
    keys = MONOMIALS[degree]
    a = InvariantForm(
        degree, {k: ExactComplex(v) for k, v in zip(keys, vals)}
    )
    n = form_inner_eps(a, a, eps)
    assert n.is_real()
    if a.is_zero():
        assert n.real_sign() == 0
    else:
        assert n.real_sign() == 1


def test_is_heisenberg_compares_all_constants_exactly():
    assert is_heisenberg(catalog_model("heisenberg"))
    assert is_heisenberg(gen_model(0, 0, "other-name"))
    assert not is_heisenberg(catalog_model("round-s3"))
    # valid model (W = -1/2, omega = e1) that agrees with Heisenberg on c^1_02, c^2_01
    assert not is_heisenberg(model_from_json({"c_0_12": "2", "c_1_12": "1"}))
    # a constant that lowers to 0.0 as a float is still nonzero
    tiny = gen_model(Fraction(1, 10**400), 0)
    assert tiny.c_float(1, 0, 2) == 0.0
    assert not is_heisenberg(tiny)
