from fractions import Fraction

import pytest

from contactmono.algebra import catalog_model, gen_model, model_from_json
from contactmono.errors import BackendMismatch, TorsionError, WrongModel
from contactmono.fields import (
    DIR_T,
    DIR_Z1,
    DIR_Z1BAR,
    GaugeField,
    HeisGridBackend,
    InvariantBackend,
    SpinorField,
    cov_deriv,
    dirac_eps,
    dirac_xi,
    gauge_curvature_components,
    sup_phi_sq,
)
from contactmono.pseudohermitian import derive_ph_invariants
from references import (
    adjoint_check,
    anticommutator_pair,
    divergence_check,
    l2_inner,
    zero_gauge,
)

HEIS = catalog_model("heisenberg")
S3 = catalog_model("round-s3")
TORSION = catalog_model("torsion")
PH = {m.name: derive_ph_invariants(m) for m in (HEIS, S3, TORSION)}


def backend(model):
    return InvariantBackend(model)


def test_cov_deriv_reeb_weight_round_s3():
    b = backend(S3)
    f = SpinorField(0j, 1 + 0j, b)
    d = cov_deriv(f, DIR_T, zero_gauge(b), PH["round-s3"])
    assert d.alpha == 0
    assert d.beta1bar == -2j  # i omega(T) = -2i


def test_cov_deriv_constants_have_no_horizontal_weight():
    for name in ("heisenberg", "round-s3", "torsion"):
        b = backend(catalog_model(name))
        f = SpinorField(1 + 0j, 0j, b)
        for direction in (DIR_Z1, DIR_Z1BAR):
            d = cov_deriv(f, direction, zero_gauge(b), PH[name])
            assert d.alpha == 0 and d.beta1bar == 0
        # e1 and e2 are operators 1 and 2 of the stencils, but no direction
        for direction in (1, 2):
            with pytest.raises(ValueError):
                cov_deriv(f, direction, zero_gauge(b), PH[name])


def test_cov_deriv_gauge_twist():
    b = backend(HEIS)
    a = GaugeField(0.5, 1.0, -2.0, b)
    f = SpinorField(1 + 0j, 0j, b)
    d = cov_deriv(f, DIR_Z1BAR, a, PH["heisenberg"])
    assert d.alpha == pytest.approx(1j * (1.0 + 1j * (-2.0)) / 2)  # i a(Z1bar)


def test_dirac_xi_examples():
    b = backend(S3)
    a = zero_gauge(b)
    f = SpinorField(3 - 1j, 0.5j, b)
    assert dirac_xi(f, a, PH["round-s3"]).alpha == 0
    # twist only: beta slot constant, a1 != 0
    b2 = backend(HEIS)
    a2 = GaugeField(0.0, 1.0, 0.0, b2)  # a(Z1) = 1/2
    f2 = SpinorField(0j, 1 + 0j, b2)
    d = dirac_xi(f2, a2, PH["heisenberg"])
    assert d.alpha == pytest.approx(-2 * 1j * 0.5)  # -2 i a(Z1) beta
    assert d.beta1bar == 0


def test_dirac_eps_eigenvector():
    for name in ("heisenberg", "round-s3"):
        b = backend(catalog_model(name))
        f = SpinorField(1 + 0j, 0j, b)
        for eps in (1.0, 0.5, 0.25):
            out = dirac_eps(f, zero_gauge(b), PH[name], eps)
            assert out.alpha == eps  # exactly
            assert out.beta1bar == 0


def test_dirac_eps_phi1_round_s3():
    b = backend(S3)
    f = SpinorField(0j, 1 + 0j, b)
    out = dirac_eps(f, zero_gauge(b), PH["round-s3"], 1.0)
    assert out.alpha == 0
    assert out.beta1bar == pytest.approx(2.0)  # i * (-2i)


def test_dirac_eps_torsion_error():
    b = backend(TORSION)
    f = SpinorField(1 + 0j, 0j, b)
    with pytest.raises(TorsionError):
        dirac_eps(f, zero_gauge(b), PH["torsion"], 1.0)


def test_l2_inner_normalization():
    b = backend(HEIS)
    phi0 = SpinorField(1 + 0j, 0j, b)
    phi1 = SpinorField(0j, 1 + 0j, b)
    assert l2_inner(phi0, phi0) == 2.0
    assert l2_inner(phi0, phi1) == 0.0
    assert sup_phi_sq(phi0) == 1.0


def test_backend_mismatch():
    b1, b2 = backend(HEIS), backend(S3)
    f = SpinorField(1 + 0j, 0j, b1)
    g = SpinorField(1 + 0j, 0j, b2)
    with pytest.raises(BackendMismatch):
        l2_inner(f, g)


def test_divergence_and_adjoint_invariant():
    b = backend(S3)
    assert divergence_check(1, b) == 0.0
    f = SpinorField(2 - 1j, 0.5 + 0.25j, b)
    g = SpinorField(-1 + 3j, 1j, b)
    a = GaugeField(0.3, -0.7, 0.1, b)
    for direction in (DIR_T, DIR_Z1, DIR_Z1BAR):
        rep = adjoint_check(f, g, direction, a, PH["round-s3"])
        assert rep.gap < 1e-14


def test_gauge_curvature_components_invariant():
    b = backend(HEIS)
    a = GaugeField(0.5, 0.0, 0.0, b)
    da01, da02, da12 = gauge_curvature_components(a, HEIS)
    assert (da01, da02) == (0.0, 0.0)
    assert da12 == pytest.approx(1.0)  # d(a0 e0) = 2 a0 e1^e2
    # round-s3 horizontal components feed the 0j pieces
    b2 = backend(S3)
    a2 = GaugeField(0.0, 1.0, 2.0, b2)
    da01, da02, da12 = gauge_curvature_components(a2, S3)
    assert da01 == pytest.approx(2 * 2.0)  # a2re * c^2_{01} = 2q a2re
    assert da02 == pytest.approx(-2 * 1.0)  # a1re * c^1_{02} = -2p a1re
    assert da12 == pytest.approx(0.0)


def test_anticommutator_invariant_closed_form_matches():
    # torsion-free invariant states: both routes give the F0 endomorphism,
    # which vanishes for invariant gauge fields on gen(p,p)
    for name in ("heisenberg", "round-s3"):
        m = catalog_model(name)
        b = backend(m)
        a = GaugeField(0.4, 0.8, -0.6, b)
        f = SpinorField(1.5 - 0.5j, 0.25j, b)
        direct, closed = anticommutator_pair(f, a, PH[name], m, 0.5)
        assert abs(direct.alpha - closed.alpha) < 1e-13
        assert abs(direct.beta1bar - closed.beta1bar) < 1e-13


def test_grid_backend_requires_heisenberg():
    with pytest.raises(WrongModel):
        HeisGridBackend(S3, 8)
    # agrees with Heisenberg on c^1_02 and c^2_01, the two constants once checked
    with pytest.raises(WrongModel):
        HeisGridBackend(model_from_json({"c_0_12": "2", "c_1_12": "1"}), 8)
    with pytest.raises(WrongModel):
        HeisGridBackend(gen_model(Fraction(1, 10**400), 0), 8)
    with pytest.raises(ValueError):
        HeisGridBackend(HEIS, 7)


def test_invariant_backend_is_the_grid_at_one_point():
    b = InvariantBackend(S3)
    assert (b.shape, b.n_points) == ((), 1)
    assert b.apply(0, 1.5 + 2j) == b.apply(1, 1.5 + 2j) == b.apply(2, 1.5 + 2j) == 0j
    a = zero_gauge(b)
    assert (a.a0, a.a1re, a.a2re) == (0.0, 0.0, 0.0)
    assert b.integrate(0.75) == 1.5 and b.sup(-3j) == 3.0
