from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from contactmono.algebra import (
    InvariantForm,
    catalog_model,
    exterior_d,
    gen_model,
    theta,
    theta1,
    theta1bar,
    wedge,
)
from contactmono.clifford import (
    CliffordRep,
    clifford_axiom_check,
    compatibility_check,
    conn_coeffs,
    gamma_can,
    gamma_from_wedge_interior,
    mat2,
    rho_eps,
    unitarity_diagnostic,
)
from contactmono.errors import NotRealError
from contactmono.exact import EC_I, ExactComplex
from contactmono.pseudohermitian import derive_ph_invariants
from references import curvature_trace, half_trace, mat_apply, of_form

rat = st.fractions(min_value=-3, max_value=3, max_denominator=4)

PHI0 = (ExactComplex(1), ExactComplex(0))
PHI1 = (ExactComplex(0), ExactComplex(1))


def test_gamma_matrices_verbatim():
    g = gamma_can()
    assert g.mats["e1"] == mat2(0, -1, 1, 0)
    assert g.mats["e2"] == mat2(0, EC_I, EC_I, 0)


def test_gamma_matches_wedge_interior_construction():
    built = gamma_from_wedge_interior()
    ref = gamma_can()
    assert built.mats == ref.mats


def test_rho_matrices_verbatim():
    r = rho_eps(1)
    assert r.mats["e0"] == mat2(-EC_I, 0, 0, EC_I)
    assert r.mats["e1"] == mat2(0, 1, -1, 0)
    assert r.mats["e2"] == mat2(0, -EC_I, -EC_I, 0)
    # the unit-generator matrices do not depend on eps
    assert rho_eps(Fraction(1, 2)).mats == r.mats


def test_rho_action_examples():
    r = rho_eps(1)
    assert mat_apply(r.mats["e1"], PHI0) == (ExactComplex(0), ExactComplex(-1))
    # rho(eta) Phi0 = -2i Phi0 for eta = 2 e1^e2
    eta = ExactComplex(2) * InvariantForm.basis(1, 2)
    m = of_form(r, eta)
    assert mat_apply(m, PHI0) == (ExactComplex(0, -2), ExactComplex(0))
    assert mat_apply(m, PHI1) == (ExactComplex(0), ExactComplex(0, 2))


def test_rho_theta_products():
    for eps in (Fraction(1), Fraction(1, 2)):
        r = rho_eps(eps)
        inv = ExactComplex(Fraction(1) / eps)
        assert mat_apply(of_form(r, theta1()), PHI0) == (ExactComplex(0), ExactComplex(0))
        assert mat_apply(of_form(r, theta1bar()), PHI0) == (
            ExactComplex(0),
            ExactComplex(-2),
        )
        assert mat_apply(of_form(r, wedge(theta(), theta1())), PHI0) == (
            ExactComplex(0),
            ExactComplex(0),
        )
        assert mat_apply(of_form(r, wedge(theta(), theta1bar())), PHI0) == (
            ExactComplex(0),
            ExactComplex(0, -2) * inv,
        )


def test_axiom_check_passes():
    assert not clifford_axiom_check(gamma_can()).failures
    for eps in (Fraction(1), Fraction(1, 2), Fraction(1, 4)):
        assert not clifford_axiom_check(rho_eps(eps)).failures


def test_axiom_check_catches_corruption():
    bad = CliffordRep(
        kind="gamma-can",
        mats={"e1": mat2(0, -2, 2, 0), "e2": gamma_can().mats["e2"]},
    )
    rep = clifford_axiom_check(bad)
    assert rep.failures
    assert any("M*M" in f for f in rep.failures)


# --- connections ---------------------------------------------------------------


def test_conn_coeffs_levi_civita_round_s3():
    m = catalog_model("round-s3")
    ph = derive_ph_invariants(m)
    cc = conn_coeffs(ph, 1, InvariantForm.zero(1), "levi-civita")
    assert cc.base[0][1].is_zero() and cc.base[1][0].is_zero()
    assert cc.base[1][1] == -EC_I * theta()  # i(omega + theta) = -i theta
    assert half_trace(cc) == ExactComplex(0, Fraction(-1, 2)) * theta()


def test_conn_coeffs_torsion_offdiagonal():
    m = catalog_model("torsion")
    ph = derive_ph_invariants(m)
    cc = conn_coeffs(ph, Fraction(1, 2), InvariantForm.zero(1), "levi-civita")
    # (i/4) eps^-1 A11 theta1 with A11 = 2i, eps^-1 = 2: i*2i/2 = -1
    assert cc.base[0][1] == ExactComplex(-1) * theta1()
    # (i/sqrt2) eps^-1 A1b1b theta1 with A1b1b = -2i: i*(-2i)*2/sqrt2 = 4/sqrt2
    assert cc.base[1][0] == ExactComplex(0, 0, 2, 0) * theta1()  # 2*sqrt2
    ok, _ = unitarity_diagnostic(cc)
    assert not ok


def test_conn_coeffs_pseudohermitian_twist():
    m = catalog_model("heisenberg")
    ph = derive_ph_invariants(m)
    cc = conn_coeffs(ph, 1, theta(), "pseudohermitian")
    full = cc.full()
    assert full[0][0] == EC_I * theta()
    assert full[1][1] == EC_I * theta()  # omega = 0 here
    with pytest.raises(NotRealError):
        conn_coeffs(ph, 1, EC_I * theta(), "pseudohermitian")


def test_unitarity_ok_torsion_free():
    for name in ("heisenberg", "round-s3"):
        ph = derive_ph_invariants(catalog_model(name))
        cc = conn_coeffs(ph, Fraction(1, 2), InvariantForm.zero(1), "levi-civita")
        ok, _ = unitarity_diagnostic(cc)
        assert ok
        assert cc.base[0][1].is_zero() and cc.base[1][0].is_zero()


def test_curvature_trace_examples():
    # heisenberg, pseudohermitian flavor, a = e0/2: pi_xi part is i
    m = catalog_model("heisenberg")
    ph = derive_ph_invariants(m)
    cc = conn_coeffs(ph, 1, ExactComplex(Fraction(1, 2)) * theta(), "pseudohermitian")
    tr = curvature_trace(cc, m)
    assert tr.pi_xi_trace == EC_I
    # round-s3, levi-civita, a = 0, eps = 1: F12 = -1
    m = catalog_model("round-s3")
    ph = derive_ph_invariants(m)
    cc = conn_coeffs(ph, 1, InvariantForm.zero(1), "levi-civita")
    tr = curvature_trace(cc, m)
    assert tr.F12 == ExactComplex(-1)
    assert tr.F0.is_zero()


@given(st.sampled_from([(0, 0), (1, 1)]), st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(1, 4)]))
@settings(max_examples=12, deadline=None)
def test_curvature_trace_eps_linearity(pq, eps):
    # a = 0, torsion-free: F_b(e1,e2) - (i/2) d omega(e1,e2) = i eps
    m = gen_model(*pq)
    ph = derive_ph_invariants(m)
    cc = conn_coeffs(ph, eps, InvariantForm.zero(1), "levi-civita")
    tr = curvature_trace(cc, m)
    half_domega = ExactComplex(Fraction(1, 2)) * EC_I * exterior_d(ph.omega, m)
    gap = tr.F_b.coeff(1, 2) - half_domega.coeff(1, 2)
    assert gap == ExactComplex(0, eps)


@given(rat, rat, rat, st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(1, 3)]))
@settings(max_examples=25, deadline=None)
def test_rho_of_curvature_matches_component_layout(a0, a1, a2, eps):
    m = catalog_model("round-s3")
    ph = derive_ph_invariants(m)
    a = InvariantForm(1, {(0,): a0, (1,): a1, (2,): a2})
    cc = conn_coeffs(ph, eps, a, "levi-civita")
    tr = curvature_trace(cc, m)
    inv = ExactComplex(Fraction(1) / eps)
    expect = (
        (tr.F12, inv * tr.F0.conjugate()),
        (inv * tr.F0, -tr.F12),
    )
    assert of_form(rho_eps(eps), tr.F_b) == expect


def test_trace_half_identity():
    # the closed form that conn_coeffs displays, b = (i/2)(omega + eps theta)
    # + i a, against half the trace of the connection matrix itself
    for name in ("heisenberg", "round-s3", "torsion"):
        m = catalog_model(name)
        ph = derive_ph_invariants(m)
        for eps in (Fraction(1), Fraction(1, 2)):
            a = InvariantForm(1, {(0,): Fraction(1, 3), (1,): -2, (2,): Fraction(5, 7)})
            cc = conn_coeffs(ph, eps, a, "levi-civita")
            expect = ExactComplex(0, Fraction(1, 2)) * (
                ph.omega + ExactComplex(eps) * theta()
            ) + EC_I * a
            assert half_trace(cc) == expect


# --- compatibility ----------------------------------------------------------


def test_compatibility_pseudohermitian_all_models():
    a = InvariantForm(1, {(0,): Fraction(2, 3), (1,): -1, (2,): Fraction(1, 5)})
    for name in ("heisenberg", "round-s3", "torsion"):
        m = catalog_model(name)
        ph = derive_ph_invariants(m)
        rep = compatibility_check(m, ph, 1, a, "pseudohermitian", "rotation")
        assert not rep.failures, rep.failures


def test_compatibility_levi_civita_torsion_free():
    a = InvariantForm(1, {(0,): 1, (1,): Fraction(1, 2), (2,): -2})
    for name in ("heisenberg", "round-s3"):
        m = catalog_model(name)
        ph = derive_ph_invariants(m)
        for eps in (Fraction(1), Fraction(1, 2), Fraction(1, 4)):
            rep = compatibility_check(m, ph, eps, a, "levi-civita", "rotation")
            assert not rep.failures, rep.failures


def test_compatibility_levi_civita_vs_metric_connection_fails():
    # diagnostic: the displayed connection is not compatible with the literal
    # adapted-metric covariant derivative (the Reeb-mixing rows break it)
    m = catalog_model("heisenberg")
    ph = derive_ph_invariants(m)
    rep = compatibility_check(
        m, ph, 1, InvariantForm.zero(1), "levi-civita", "h-metric"
    )
    assert rep.failures
    assert "v=e2, w=e1" in rep.failures


def test_conn_coeffs_pseudohermitian_round_s3_twist():
    # a = theta: full connection diag(i theta, i(omega + theta))
    m = catalog_model("round-s3")
    ph = derive_ph_invariants(m)
    cc = conn_coeffs(ph, 1, theta(), "pseudohermitian")
    full = cc.full()
    assert full[0][0] == EC_I * theta()
    assert full[1][1] == EC_I * (ph.omega + theta())
    assert full[0][1].is_zero() and full[1][0].is_zero()
