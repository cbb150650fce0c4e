from functools import cached_property

import numpy as np
import pytest

from contactmono.algebra import catalog_model
from contactmono.fields import (
    DIR_T,
    DIR_Z1,
    DIR_Z1BAR,
    GaugeField,
    HeisGridBackend,
    SpinorField,
    _Stencil,
    adjoint_check,
    anticommutator_pair,
    cov_deriv,
    dirac_xi,
    divergence_check,
    gauge_transform,
    l2_inner,
    l2_norm_sq,
    zero_gauge,
)
from grid_states import constant_gauge, theta_state, trig_spinor
from contactmono.pseudohermitian import derive_ph_invariants

HEIS = catalog_model("heisenberg")
PH = derive_ph_invariants(HEIS)


@pytest.fixture(scope="module")
def grid16():
    return HeisGridBackend(HEIS, 16)


def test_twisted_wrap_consistency(grid16):
    # one full loop in y composes to a pure z-shift by -2i cells per x-slab
    b = grid16
    n = b.n
    arr = np.arange(n**3, dtype=float).reshape(n, n, n) + 0j
    out = arr
    for _ in range(n):
        out = out.ravel()[b.yp].reshape(out.shape)
    i, j, k = np.meshgrid(np.arange(n), np.arange(n), np.arange(n), indexing="ij")
    expect = arr.ravel()[((i * n + j) * n + (k - 2 * i) % n).ravel()].reshape(arr.shape)
    assert np.array_equal(out, expect)
    # and yp/ym are mutually inverse permutations
    assert np.array_equal(b.ym[b.yp], np.arange(n**3))


def test_theta_state_respects_identifications(grid16):
    # value above y = 1-h equals the twisted read f(x, 0, z - 2x)
    b = grid16
    n = b.n
    f = theta_state(b, m=1, sigma=0.2)
    i = np.arange(n)[:, None]
    k = np.arange(n)[None, :]
    x = (i * b.h).astype(float)
    z = (k * b.h).astype(float)
    smooth_above = np.zeros((n, n), dtype=complex)
    for nn in range(-5, 6):
        smooth_above += np.exp(-((1.0 - nn - 0.5) ** 2) / (2 * 0.2**2)) * np.exp(
            -4j * np.pi * nn * x
        )
    smooth_above *= np.exp(2j * np.pi * z)
    wrapped = f[i, np.zeros_like(i), (k - 2 * i) % n]
    assert np.max(np.abs(smooth_above - wrapped)) < 1e-14


def test_frame_derivative_plane_waves(grid16):
    b = grid16
    x, y, z = b.coords()
    ones = np.ones((b.n,) * 3)
    # T on exp(2 pi i z): discrete eigenvalue i sin(2 pi h)/h
    f = SpinorField(np.exp(2j * np.pi * z) * ones, b.zero(), b)
    d = cov_deriv(f, DIR_T, zero_gauge(b), PH)
    lam = 1j * np.sin(2 * np.pi * b.h) / b.h
    assert np.allclose(d.alpha, lam * f.alpha, atol=1e-12)
    assert abs(lam - 2j * np.pi) < 0.26  # O(h^2)
    # Z1bar on exp(2 pi i x): e1 sees only d/dx, e2 kills it
    g = np.exp(2j * np.pi * x) * ones
    f2 = SpinorField(g, b.zero(), b)
    d2 = cov_deriv(f2, DIR_Z1BAR, zero_gauge(b), PH)
    assert np.allclose(d2.alpha, 0.5 * lam * g, atol=1e-12)
    out = dirac_xi(f2, zero_gauge(b), PH)
    assert np.allclose(out.beta1bar, lam * g, atol=1e-12)
    assert np.allclose(out.alpha, 0.0, atol=1e-14)


def test_discrete_bracket_order():
    # || ([e1,e2] + 2T) f ||_inf = O(h^2) on a fixed smooth z-carrying state
    # localized away from the twisted seam (composed stencils lose one order
    # in a width-h layer at the seam; see test_bracket_seam_layer)
    defects = []
    for n in (16, 32, 64):
        b = HeisGridBackend(HEIS, n)
        f = theta_state(b, m=1, sigma=0.14)
        br = b.d_e1(b.d_e2(f)) - b.d_e2(b.d_e1(f)) + 2 * b.d_T(f)
        defects.append(float(np.max(np.abs(br))))
    order1 = np.log2(defects[0] / defects[1])
    order2 = np.log2(defects[1] / defects[2])
    assert order1 > 1.9 and order2 > 1.9


def test_bracket_seam_layer():
    # documentation of the seam behavior: a z-carrying state with mass at the
    # twisted boundary sees a first-order layer there, second order inside
    sup_seam, sup_inner = [], []
    for n in (16, 32, 64):
        b = HeisGridBackend(HEIS, n)
        f = theta_state(b, m=1, sigma=0.35)
        br = b.d_e1(b.d_e2(f)) - b.d_e2(b.d_e1(f)) + 2 * b.d_T(f)
        sup_seam.append(float(np.max(np.abs(br[:, [0, n - 1], :]))))
        sup_inner.append(float(np.max(np.abs(br[:, n // 4 : 3 * n // 4, :]))))
    seam_order = np.log2(sup_seam[1] / sup_seam[2])
    inner_order = np.log2(sup_inner[1] / sup_inner[2])
    assert 0.5 < seam_order < 1.6
    assert inner_order > 1.8


def test_bracket_exact_on_z_independent_states(grid16):
    b = grid16
    x, y, _ = b.coords()
    f = np.exp(2j * np.pi * (x + 2 * y)) * np.ones((b.n,) * 3)
    br = b.d_e1(b.d_e2(f)) - b.d_e2(b.d_e1(f)) + 2 * b.d_T(f)
    assert np.max(np.abs(br)) < 1e-12


def test_divergence_grid(grid16):
    for v in range(5):
        assert divergence_check(v, grid16) == 0.0


class DefectGrid(HeisGridBackend):
    """The grid with the T stencil's row at one point of x = 1/2 scaled by 3/2."""

    @cached_property
    def stencils(self):
        dz, *rest = super().stencils
        ((pair, coef),) = dz
        coef = np.full(self.n_points, coef)
        coef[(self.n // 2) * self.n**2] *= 1.5
        return (_Stencil(((pair, coef),)), *rest)


def test_divergence_sees_a_local_stencil_defect():
    # the row still annihilates constants, and the integrated derivative of a
    # test function that is constant along z at x = 1/2 misses it; the
    # column sums see it
    b = DefectGrid(HEIS, 8)
    n3 = b.n_points
    assert divergence_check(0, b) == 0.5 * (1 / (2 * b.h)) * b.volume / n3
    assert divergence_check(1, b) == divergence_check(2, b) == 0.0


def test_adjointness_exact(grid16):
    b = grid16
    rng = np.random.default_rng(7)
    f = trig_spinor(b, rng)
    g = trig_spinor(b, rng)
    a = constant_gauge(b, rng)
    # also a non-constant gauge field: adjointness only needs skewness
    x, y, z = b.coords()
    bumps = np.cos(2 * np.pi * x) * np.sin(2 * np.pi * y) * np.ones_like(f.alpha.real)
    a2 = GaugeField(bumps, -0.5 * bumps, 2 * bumps, b)
    for direction in (DIR_T, DIR_Z1, DIR_Z1BAR):
        for gauge in (a, a2):
            rep = adjoint_check(f, g, direction, gauge, PH)
            scale = 1 + abs(rep.lhs)
            assert rep.gap / scale < 1e-12


def test_dirac_self_adjoint(grid16):
    b = grid16
    rng = np.random.default_rng(3)
    f = trig_spinor(b, rng)
    g = trig_spinor(b, rng)
    a = constant_gauge(b, rng)
    lhs = l2_inner(dirac_xi(f, a, PH), g)
    rhs = l2_inner(f, dirac_xi(g, a, PH))
    assert abs(lhs - rhs) / (1 + abs(lhs)) < 1e-12


def test_l2_plane_wave(grid16):
    b = grid16
    z = b.coords()[2]
    f = SpinorField(np.exp(2j * np.pi * z) * np.ones((b.n,) * 3), b.zero(), b)
    assert l2_norm_sq(f) == pytest.approx(2.0, abs=1e-12)


def test_commutation_relation_with_gauge_curvature():
    # alpha_{,0 1bar} - alpha_{,1bar 0} = i(a_{0,1bar} - a_{1bar,0}) alpha + O(h^2)
    gaps = []
    for n in (16, 32):
        b = HeisGridBackend(HEIS, n)
        x, y, z = b.coords()
        ones = np.ones((n, n, n))
        alpha = np.exp(2j * np.pi * x) + 0.3 * theta_state(b, m=1, sigma=0.14)
        f = SpinorField(alpha * ones, b.zero(), b)
        a = GaugeField(
            np.sin(2 * np.pi * y) * ones, np.cos(2 * np.pi * x) * ones, 0.2 * ones, b
        )
        d0 = cov_deriv(f, DIR_T, a, PH)
        lhs = cov_deriv(d0, DIR_Z1BAR, a, PH).alpha - cov_deriv(
            cov_deriv(f, DIR_Z1BAR, a, PH), DIR_T, a, PH
        ).alpha
        a0 = a.a0 + 0j
        a1b = a.aZ1bar() + 0j
        half = 0.5 * (b.d_e1(a0) + 1j * b.d_e2(a0))
        rhs = 1j * (half - b.d_T(a1b)) * f.alpha
        gaps.append(float(np.max(np.abs(lhs - rhs))))
    assert gaps[0] / gaps[1] > 3.0  # O(h^2) decay


def test_anticommutator_grid_flat(grid16):
    b = grid16
    f = SpinorField(
        0.7 * theta_state(b, 1, 0.22) + 1.0,
        0.4 * theta_state(b, -1, 0.22),
        b,
    )
    a = zero_gauge(b)
    direct, closed = anticommutator_pair(f, a, PH, HEIS, 0.5)
    # A = 0 and F0 = 0: closed form is zero; direct is a flat commutator
    assert np.max(np.abs(closed.alpha)) == 0.0
    assert np.max(np.abs(direct.alpha)) < 1e-8 * max(1.0, np.max(np.abs(f.alpha)))


def test_gauge_transform_covariance_constant_chi(grid16):
    b = grid16
    rng = np.random.default_rng(11)
    f = trig_spinor(b, rng)
    a = constant_gauge(b, rng)
    chi = 0.37 * np.ones((b.n,) * 3)
    a2, f2 = gauge_transform(a, f, chi)
    d1 = dirac_xi(f, a, PH)
    d2 = dirac_xi(f2, a2, PH)
    phase = np.exp(1j * chi)
    assert np.allclose(d2.alpha, phase * d1.alpha, atol=1e-12)
    assert np.allclose(d2.beta1bar, phase * d1.beta1bar, atol=1e-12)


def test_anticommutator_grid_with_gauge_curvature():
    # nonzero F0 = F01 + i F02: the closed-form endomorphism matches the
    # composed covariant derivatives at second order (away from the seam)
    gaps, scales = [], []
    for n in (16, 32):
        b = HeisGridBackend(HEIS, n)
        x, y, _ = b.coords()
        ones = np.ones((n, n, n))
        phi = SpinorField(
            np.exp(2j * np.pi * x) * ones + 0.4 * theta_state(b, 1, 0.14),
            0.6 * np.exp(-2j * np.pi * y) * ones,
            b,
        )
        # z-independent gauge field with nonconstant a0 gives F0 != 0
        a = GaugeField(
            0.5 * np.sin(2 * np.pi * x) * ones,
            0.3 * np.cos(2 * np.pi * y) * ones,
            0.2 * ones,
            b,
        )
        direct, closed = anticommutator_pair(phi, a, PH, HEIS, 0.5)
        gap = max(
            float(np.max(np.abs(direct.alpha - closed.alpha))),
            float(np.max(np.abs(direct.beta1bar - closed.beta1bar))),
        )
        gaps.append(gap)
        scales.append(float(np.max(np.abs(closed.alpha))))
    assert scales[0] > 0.1  # the endomorphism is genuinely nonzero
    assert gaps[0] / gaps[1] > 3.0  # O(h^2)
