import dataclasses
import gc
import json
import math
import os
import subprocess
import sys
import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg as spla

from contactmono import algebra, cli, pseudohermitian
from contactmono import solver as solver_mod
from contactmono.algebra import InvariantForm, catalog_model, exterior_d, gen_model, theta
from contactmono.errors import (
    PreconditionError,
    TorsionError,
    WrongModel,
)
from contactmono.fields import (
    DIR_T,
    GaugeField,
    HeisGridBackend,
    InvariantBackend,
    SpinorField,
    b_curvature_components,
    cov_deriv,
    dirac_eps,
    dirac_xi,
    gauge_curvature_components,
    gauge_transform,
    scalar_l2_norm_sq,
)
from contactmono.exact import ExactComplex
from contactmono.pseudohermitian import derive_ph_invariants
from contactmono.solver import (
    HeisenbergFamily,
    MonopoleState,
    SolveOpts,
    loglog_slope,
    random_monopole_state,
    residual_contact,
    residual_sw,
    solve,
    sweep,
    sweep_diagnostics,
    vanishing_certificate,
)
from grid_states import constant_gauge, theta_state, trig_spinor
from references import weitzenbock_energy, z_blocks, zero_gauge

HEIS = catalog_model("heisenberg")
S3 = catalog_model("round-s3")
PH_HEIS = derive_ph_invariants(HEIS)
PH_S3 = derive_ph_invariants(S3)


def certificate(s, ph):
    """The certificate of s with its contact residual report."""
    return vanishing_certificate(s, residual_contact(s, ph), ph)


def inv_state(model, alpha, beta, a0, a1re=0.0, a2re=0.0, eps=None):
    b = InvariantBackend(model)
    return MonopoleState(
        a=GaugeField(a0, a1re, a2re, b),
        phi=SpinorField(complex(alpha), complex(beta), b),
        model=model,
        eps=eps,
    )


# --- residuals -------------------------------------------------------------------


def test_residual_contact_heisenberg_solution():
    s = inv_state(HEIS, 1.0, 0.0, 0.5)
    rr = residual_contact(s, PH_HEIS)
    assert rr.total == pytest.approx(0.0, abs=1e-15)
    # the Reeb constraint is violated for it: alpha^a_{,0} = i/2
    assert rr.r_constraint == pytest.approx(0.5 * math.sqrt(2.0))


def test_residual_contact_trivial_reducible():
    s = inv_state(HEIS, 0.0, 0.0, 0.0)
    rr = residual_contact(s, PH_HEIS)
    assert rr.total == 0.0 and rr.r_constraint == 0.0


def test_residual_contact_round_s3_value():
    s = inv_state(S3, 1.0, 0.0, 0.0)
    rr = residual_contact(s, PH_S3)
    # da = 0, W = 2, |alpha|^2 = 1: residual -3 over volume 2
    assert rr.r_curv == pytest.approx(3 * math.sqrt(2.0))
    assert rr.total == pytest.approx(3 * math.sqrt(2.0))


def test_residual_sw_background_scaling():
    for eps in (0.5, 0.25, 0.125):
        s = inv_state(HEIS, 0.0, 0.0, 0.0, eps=eps)
        rr = residual_sw(s, PH_HEIS)
        assert rr.r_curv == pytest.approx(eps * math.sqrt(2.0))
        assert rr.r_dirac == 0.0


def test_residual_sw_requires_eps_and_no_torsion():
    s = inv_state(HEIS, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        residual_sw(s, PH_HEIS)
    t = catalog_model("torsion")
    st = inv_state(t, 1.0, 0.0, 0.0, eps=0.5)
    with pytest.raises(TorsionError):
        residual_sw(st, derive_ph_invariants(t))
    with pytest.raises(TorsionError):  # the rows come from the same forms
        lin = solver_mod._system(st, derive_ph_invariants(t), False)
        solver_mod._invariant_jacobian(solver_mod._pack(st), st.backend, lin)


# --- energy identities -------------------------------------------------------------


def test_weitzenbock_round_s3_beta_state():
    s = inv_state(S3, 0.0, 1.0, 0.0)
    rep = weitzenbock_energy(s, PH_S3)
    assert rep.dirac_sq == pytest.approx(0.0, abs=1e-14)
    assert rep.grad_sq == pytest.approx(0.0, abs=1e-14)
    assert rep.webster_term == pytest.approx(8.0)
    assert rep.gauge_term == pytest.approx(0.0, abs=1e-14)
    assert rep.reeb_term == pytest.approx(-8.0)
    assert rep.gap < 1e-13


def test_weitzenbock_zero_state():
    s = inv_state(S3, 0.0, 0.0, 0.0)
    rep = weitzenbock_energy(s, PH_S3)
    assert rep.dirac_sq == rep.grad_sq == rep.webster_term == 0.0
    assert rep.gauge_term == rep.reeb_term == 0.0


def test_weitzenbock_exact_invariant_generic():
    # exact identity for generic invariant data on both catalog models
    for model, ph in ((HEIS, PH_HEIS), (S3, PH_S3)):
        s = inv_state(model, 0.75 - 0.25j, -0.5 + 1.25j, 0.375, 0.25, -0.125)
        rep = weitzenbock_energy(s, ph)
        assert rep.gap < 1e-13 * (1 + rep.dirac_sq)


def test_weitzenbock_grid_trig_states():
    b = HeisGridBackend(HEIS, 16)
    rng = np.random.default_rng(5)
    for _ in range(3):
        s = MonopoleState(
            a=constant_gauge(b, rng), phi=trig_spinor(b, rng), model=HEIS, eps=None
        )
        rep = weitzenbock_energy(s, PH_HEIS)
        assert rep.gap <= 1e-10 * (1 + abs(rep.dirac_sq))


def test_energy_identity_and_rejection():
    # reducible solution on round-s3 satisfies everything with value 0
    s = inv_state(S3, 0.0, 0.0, 1.0)
    assert certificate(s, PH_S3).energy == pytest.approx(0.0, abs=1e-14)
    # a contact solution from seed 1 violates the Reeb constraint: no energy
    init = random_monopole_state(S3, InvariantBackend(S3), seed=1)
    bad, info = solve(S3, None, init, ph=PH_S3)
    rr = residual_contact(bad, PH_S3)
    assert rr == info.report
    assert rr.total <= 1e-10 and rr.r_constraint > 1.0
    v = vanishing_certificate(bad, info.report, PH_S3)
    assert v.verdict == "not-a-solution" and v.energy is None


def test_certificate_energy_uses_the_weitzenbock_gradient_term():
    # the certificate's energy: the identity's gradient term plus
    # int W |Phi|^2 and int (|alpha|^2 - |beta|^2)^2
    for model, ph in ((HEIS, PH_HEIS), (S3, PH_S3)):
        s = inv_state(model, 0.75 - 0.25j, -0.5 + 1.25j, 0.375, 0.25, -0.125)
        grad_sq = weitzenbock_energy(s, ph).grad_sq
        alpha_sq, beta_sq = abs(s.phi.alpha) ** 2, abs(s.phi.beta1bar) ** 2
        rest = s.backend.volume * (
            ph.webster_float() * (alpha_sq + beta_sq) + (alpha_sq - beta_sq) ** 2
        )
        energy = solver_mod._energy(s, ph)
        assert grad_sq > 0
        assert energy == pytest.approx(grad_sq + rest, rel=1e-14)


@pytest.mark.parametrize("grid", [False, True])
@pytest.mark.parametrize("eps", [None, 0.25])
def test_reports_and_solver_share_one_residual(grid, eps):
    # the report blocks are the solver's residual fields: with the Reeb
    # constraint, |stacked residual|^2 = total^2 + r_constraint^2
    b = HeisGridBackend(HEIS, 8) if grid else InvariantBackend(HEIS)
    s = random_monopole_state(HEIS, b, seed=3, eps=eps)
    rep = residual_contact(s, PH_HEIS) if eps is None else residual_sw(s, PH_HEIS)
    x = solver_mod._pack(s)
    r = solver_mod._stack_residual(x, b, solver_mod._system(s, PH_HEIS, True))
    assert rep.total**2 + rep.r_constraint**2 == pytest.approx(float(r @ r), rel=1e-12)
    assert x.size == 7 * b.n_points
    assert np.array_equal(solver_mod._pack(solver_mod._unpack(x, HEIS, b, eps)), x)


# --- closed-form family ------------------------------------------------------------


def test_heisenberg_family_examples():
    fam = HeisenbergFamily(HEIS)
    # 2 a0 = |alpha|^2 - |beta|^2
    s = inv_state(HEIS, 1.0, 0.0, 0.5)
    assert fam.membership(s).member
    assert fam.membership(inv_state(HEIS, 0.0, 1.0, -0.5)).member
    s2 = inv_state(HEIS, 0.0, 0.0, 0.0, a1re=3.0)  # reducible: a1 free
    assert fam.membership(s2).member
    s3 = inv_state(HEIS, 1.0, 0.0, 0.3)
    rep = fam.membership(s3)
    assert not rep.member and rep.curvature_gap == pytest.approx(0.4)
    with pytest.raises(WrongModel):
        fam.membership(random_monopole_state(HEIS, HeisGridBackend(HEIS, 8), seed=0))
    with pytest.raises(WrongModel):
        HeisenbergFamily(S3)
    # c^1_02 = -2e-400 lowers to -0.0, which the float check took for zero
    with pytest.raises(WrongModel):
        HeisenbergFamily(gen_model(Fraction(1, 10**400), 0))


# --- solver ---------------------------------------------------------------------


def test_solve_contact_heisenberg_randomized():
    fam = HeisenbergFamily(HEIS)
    nontrivial = 0
    for seed in range(8):
        init = random_monopole_state(HEIS, InvariantBackend(HEIS), seed=seed)
        state, info = solve(HEIS, None, init, SolveOpts(seed=seed), ph=PH_HEIS)
        assert info.converged
        assert info.report.total <= 1e-10
        assert fam.membership(state).member
        if abs(state.phi.alpha) > 1e-3:
            nontrivial += 1
    assert nontrivial >= 4


def test_solve_fixed_point():
    s = inv_state(HEIS, 1.0, 0.0, 0.5)
    state, info = solve(HEIS, None, s, ph=PH_HEIS)
    assert info.iterations <= 2
    assert abs(state.phi.alpha - 1.0) < 1e-12 or abs(abs(state.phi.alpha) - 1.0) < 1e-12


def test_solve_constrained_round_s3_vanishing():
    for seed in range(6):
        init = random_monopole_state(S3, InvariantBackend(S3), seed=100 + seed)
        state, info = solve(
            S3, None, init, SolveOpts(seed=seed, constraint=True), ph=PH_S3
        )
        assert info.converged
        assert math.sqrt(abs(state.phi.alpha) ** 2 + abs(state.phi.beta1bar) ** 2) <= 1e-8
        assert abs(np.real(state.a.a0) - 1.0) <= 1e-8


def test_solve_sw_invariant_eps_half():
    init = random_monopole_state(HEIS, InvariantBackend(HEIS), seed=3, eps=0.5)
    state, info = solve(HEIS, 0.5, init, ph=PH_HEIS)
    assert info.converged and info.report.total <= 1e-12


def test_solve_sw_alpha_branch_small_eps():
    # below eps = 1/2 the invariant system has |alpha|^2 = 2 eps (1 - 2 eps)
    eps = 0.25
    b = InvariantBackend(HEIS)
    init = MonopoleState(
        a=GaugeField(-0.05, 0.0, 0.0, b),
        phi=SpinorField(0.5 + 0j, 0j, b),
        model=HEIS,
        eps=eps,
    )
    state, info = solve(HEIS, eps, init, ph=PH_HEIS)
    assert info.converged
    assert abs(state.phi.alpha) ** 2 == pytest.approx(2 * eps * (1 - 2 * eps), abs=1e-9)
    assert np.real(state.a.a0) == pytest.approx(-(eps**2), abs=1e-9)


def test_vanishing_certificate_paths():
    # solver output under the constraint: consistent
    init = random_monopole_state(S3, InvariantBackend(S3), seed=11)
    state, info = solve(S3, None, init, SolveOpts(constraint=True), ph=PH_S3)
    v = vanishing_certificate(state, info.report, PH_S3)
    assert v.verdict == "consistent-with-vanishing"
    # hand-built nonzero state off the solution set: rejected.  Its Reeb
    # derivative beta^a_{1b,0} = i(omega(T) + a0) beta vanishes at a0 = 2; its
    # contact residual is 3 sqrt2
    bad = inv_state(S3, 0.0, 1.0, 2.0)
    v2 = certificate(bad, PH_S3)
    assert v2.verdict == "not-a-solution"
    with pytest.raises(PreconditionError):
        certificate(inv_state(HEIS, 0.0, 0.0, 0.0), PH_HEIS)
    # the certificate reads the contact system only
    s = inv_state(S3, 0.0, 0.0, 1.0)
    rr = residual_contact(s, PH_S3)
    with pytest.raises(ValueError):
        vanishing_certificate(dataclasses.replace(s, eps=0.5), rr, PH_S3)


def test_certificate_evaluates_the_residual_once(monkeypatch):
    # a contact solve reports residual_contact of its final state, and the
    # certificate reads that report: one _residual_report per seed, none in
    # the certificate
    calls = []
    report = solver_mod._residual_report

    def counting(*args):
        calls.append(1)
        return report(*args)

    monkeypatch.setattr(solver_mod, "_residual_report", counting)
    s = inv_state(S3, 0.0, 0.0, 1.0)
    v = vanishing_certificate(s, report(s, PH_S3), PH_S3)
    assert v.verdict == "consistent-with-vanishing" and v.energy is not None
    assert calls == []
    cfg = cli.parse_config({"command": "solve", "model": "round-s3", "constraint": True})
    backend = InvariantBackend(S3)
    for seed in range(3):
        run = cli._solve_one(cfg, S3, PH_S3, backend, seed)
        assert run["certificate"]["verdict"] == "consistent-with-vanishing"
        assert len(calls) == seed + 1


def test_gauge_covariance_invariant_constant_phase():
    s = inv_state(HEIS, 0.8 - 0.2j, 0.1 + 0.4j, 0.37, -0.2, 0.9)
    rr = residual_contact(s, PH_HEIS)
    phase = np.exp(0.77j)
    s2 = inv_state(
        HEIS,
        s.phi.alpha * phase,
        s.phi.beta1bar * phase,
        0.37,
        -0.2,
        0.9,
    )
    rr2 = residual_contact(s2, PH_HEIS)
    assert rr2.total == pytest.approx(rr.total, abs=1e-13)
    assert rr2.r_constraint == pytest.approx(rr.r_constraint, abs=1e-13)


# --- sweep ----------------------------------------------------------------------


def test_sweep_requires_decreasing():
    with pytest.raises(ValueError):
        sweep(HEIS, [0.25, 0.5], backend=InvariantBackend(HEIS), ph=PH_HEIS)


def test_sweep_single_point():
    recs = sweep(HEIS, [0.5], seed=1, backend=InvariantBackend(HEIS), ph=PH_HEIS)
    assert len(recs) == 1
    assert recs[0].residual_limit is not None


def test_sweep_tracks_alpha_branch():
    eps_list = [2.0**-k for k in range(1, 7)]
    recs = sweep(HEIS, eps_list, seed=0, backend=InvariantBackend(HEIS), ph=PH_HEIS)
    assert all(r.converged for r in recs)
    # (4.27)-type identity holds on every converged state
    for r in recs:
        assert r.identity_gap <= 1e-9
    # the nontrivial branch appears below eps = 1/2 with its exact law
    for r in recs[1:]:
        expect = 2 * r.eps * (1 - 2 * r.eps)
        assert r.sup_phi_sq == pytest.approx(expect, abs=1e-8)
        assert r.norm_T_deriv_sq == pytest.approx(
            4 * r.eps**5 * (1 - 2 * r.eps), rel=1e-6, abs=1e-12
        )
    # limit candidate residual is eps_last * sqrt(2) (structural, linear decay)
    assert recs[-1].residual_limit == pytest.approx(
        eps_list[-1] * math.sqrt(2.0), abs=1e-7
    )


def test_sweep_matches_closed_form_branch():
    # independent of the solver: the branch state is built from its closed form
    eps_list = [2.0**-k for k in range(1, 7)]
    b = InvariantBackend(HEIS)
    for e in eps_list[1:]:
        s = MonopoleState(
            a=GaugeField(-(e**2), 0.0, 0.0, b),
            phi=SpinorField(complex(math.sqrt(2 * e * (1 - 2 * e))), 0j, b),
            model=HEIS,
            eps=e,
        )
        assert residual_sw(s, PH_HEIS).total <= 1e-15
    recs = sweep(HEIS, eps_list, seed=0, backend=InvariantBackend(HEIS), ph=PH_HEIS)
    for r in recs[1:]:
        assert r.sup_phi_sq == pytest.approx(2 * r.eps - 4 * r.eps**2, rel=1e-9)
        assert r.norm_T_deriv_sq == pytest.approx(
            4 * r.eps**5 * (1 - 2 * r.eps), rel=1e-9
        )
    assert recs[-1].residual_limit == pytest.approx(
        eps_list[-1] * math.sqrt(2.0), rel=1e-9
    )


def test_sweep_diagnostics_identity_on_exact_branch():
    eps = 0.125
    alpha = math.sqrt(2 * eps * (1 - 2 * eps))
    s = inv_state(HEIS, alpha, 0.0, -(eps**2), eps=eps)
    d = sweep_diagnostics(s, PH_HEIS)
    assert d["identity_gap"] < 1e-14
    assert d["norm_T_deriv_sq"] == pytest.approx(4 * eps**5 * (1 - 2 * eps))


def test_loglog_slope():
    xs = [0.5, 0.25, 0.125, 0.0625]
    ys = [4 * x**3 for x in xs]
    assert loglog_slope(xs, ys) == pytest.approx(3.0, abs=1e-12)
    assert loglog_slope(xs, [0, 0, 0, 0]) is None


def test_weitzenbock_grid_z_sector_second_order():
    # z-carrying smooth states with nonconstant gauge fields see the O(h^2)
    # Leibniz defect of central differences in the integrated identity
    gaps = []
    for n in (16, 32):
        b = HeisGridBackend(HEIS, n)
        x, y, _ = b.coords()
        ones = np.ones((n, n, n))
        phi = SpinorField(
            0.8 * theta_state(b, 1, 0.14) + np.exp(2j * np.pi * x) * ones,
            0.5 * theta_state(b, -1, 0.14),
            b,
        )
        a = GaugeField(
            0.3 * np.cos(2 * np.pi * y) * ones,
            0.4 * np.sin(2 * np.pi * x) * ones,
            0.2 * ones,
            b,
        )
        s = MonopoleState(a=a, phi=phi, model=HEIS, eps=None)
        rep = weitzenbock_energy(s, PH_HEIS)
        gaps.append(rep.gap / (1 + abs(rep.dirac_sq)))
    assert gaps[0] / gaps[1] > 3.0


def test_gauge_covariance_grid_residuals_second_order():
    # a -> a + d chi, Phi -> e^{i chi} Phi changes the discrete residual
    # report at O(h^2) for smooth nonconstant chi
    from contactmono.fields import gauge_transform

    diffs = []
    for n in (16, 32):
        b = HeisGridBackend(HEIS, n)
        rng = np.random.default_rng(17)
        phi = trig_spinor(b, rng)
        a = constant_gauge(b, rng)
        x, y, _ = b.coords()
        chi = 0.4 * np.sin(2 * np.pi * x) * np.ones((n, n, n)) + 0.2 * np.cos(
            2 * np.pi * y
        ) * np.ones((n, n, n))
        s = MonopoleState(a=a, phi=phi, model=HEIS, eps=None)
        rr = residual_contact(s, PH_HEIS)
        a2, phi2 = gauge_transform(a, phi, chi)
        rr2 = residual_contact(
            MonopoleState(a=a2, phi=phi2, model=HEIS, eps=None), PH_HEIS
        )
        diffs.append(
            abs(rr.total - rr2.total) + abs(rr.r_constraint - rr2.r_constraint)
        )
    assert diffs[0] / diffs[1] > 3.0


@pytest.mark.parametrize("eps", [None, 0.25])
def test_grid_residual_gauge_invariant_to_second_order(eps):
    # Phi -> e^{i chi} Phi, a -> a - d chi multiplies the Dirac and Reeb fields
    # by e^{i chi} and keeps the curvature fields (F01 + i F02 - conj(alpha) beta
    # included).  On the grid that holds to O(h^2) for smooth chi, so the
    # defect falls by (16/8)^2 and then by (24/16)^2; the O(h^4) term still
    # lowers the first ratio to about 3.5.  Phi and chi carry theta_state
    # z-modes, which cross the twisted seam.
    defects = []
    for n in (8, 16, 24):
        b = HeisGridBackend(HEIS, n)
        rng = np.random.default_rng(17)
        phi = trig_spinor(b, rng, kmax=1)
        phi = SpinorField(
            phi.alpha + 0.5 * theta_state(b, 1), phi.beta1bar + 0.3 * theta_state(b, -1), b
        )
        a = constant_gauge(b, rng)
        x, y, _ = b.coords()
        chi = 0.4 * np.sin(2 * np.pi * x) + 0.2 * np.cos(2 * np.pi * y)
        chi = chi + 0.3 * np.real(theta_state(b, 1))
        a2, phi2 = gauge_transform(a, phi, chi)
        before = solver_mod._residual_fields(MonopoleState(a, phi, HEIS, eps), PH_HEIS, True)
        after = solver_mod._residual_fields(MonopoleState(a2, phi2, HEIS, eps), PH_HEIS, True)
        sq = 0.0
        for k, ((kind, v), (_, w)) in enumerate(zip(before, after)):
            covariant = kind == "c" and not (eps is not None and k == 3)
            sq += scalar_l2_norm_sq(b, w - (np.exp(1j * chi) * v if covariant else v))
        defects.append(math.sqrt(sq))
    assert 3.3 <= defects[0] / defects[1] <= 4.4
    assert 2.0 <= defects[1] / defects[2] <= 2.5
    orders = [math.log(defects[0] / defects[1], 2), math.log(defects[1] / defects[2], 1.5)]
    assert orders[0] < orders[1] and abs(orders[1] - 2) <= 0.1


def test_grid_matches_invariant_on_constant_states():
    # a constant state evaluated on the grid must reproduce the invariant
    # backend's residuals and energies (volume weights, curvature components)
    b_inv = InvariantBackend(HEIS)
    b_grid = HeisGridBackend(HEIS, 8)
    shape = (8, 8, 8)
    alpha, beta = 0.3 - 0.6j, 0.2j
    a_vals = (0.1, -0.4, 0.25)
    s_inv = MonopoleState(
        a=GaugeField(*a_vals, b_inv),
        phi=SpinorField(alpha, beta, b_inv),
        model=HEIS,
        eps=0.5,
    )
    s_grid = MonopoleState(
        a=GaugeField(*(np.full(shape, v) for v in a_vals), b_grid),
        phi=SpinorField(np.full(shape, alpha), np.full(shape, beta), b_grid),
        model=HEIS,
        eps=0.5,
    )
    r_inv = residual_sw(s_inv, PH_HEIS)
    r_grid = residual_sw(s_grid, PH_HEIS)
    assert r_grid.total == pytest.approx(r_inv.total, abs=1e-13)
    assert r_grid.r_constraint == pytest.approx(r_inv.r_constraint, abs=1e-13)

    s_inv2 = MonopoleState(a=s_inv.a, phi=s_inv.phi, model=HEIS, eps=None)
    s_grid2 = MonopoleState(a=s_grid.a, phi=s_grid.phi, model=HEIS, eps=None)
    assert residual_contact(s_grid2, PH_HEIS).total == pytest.approx(
        residual_contact(s_inv2, PH_HEIS).total, abs=1e-13
    )
    w_inv = weitzenbock_energy(s_inv2, PH_HEIS)
    w_grid = weitzenbock_energy(s_grid2, PH_HEIS)
    for key in ("grad_sq", "webster_term", "gauge_term", "reeb_term", "dirac_sq"):
        assert getattr(w_grid, key) == pytest.approx(getattr(w_inv, key), abs=1e-12)


def test_dirac_eps_eigenvector_on_grid():
    b = HeisGridBackend(HEIS, 8)
    phi0 = SpinorField(np.ones((8, 8, 8), dtype=complex), np.zeros((8, 8, 8), dtype=complex), b)
    out = dirac_eps(phi0, zero_gauge(b), PH_HEIS, 0.25)
    assert np.max(np.abs(out.alpha - 0.25)) == 0.0
    assert np.max(np.abs(out.beta1bar)) == 0.0


# --- heis-grid inexact Gauss-Newton -------------------------------------------------


def _record_cgls(monkeypatch):
    """Wrap the solver's CGLS step; returns the list of its (stop, iterations)."""
    stops = []
    cgls = solver_mod._cgls_step

    def recording(*args):
        out = cgls(*args)
        stops.append(out[1:3])
        return out

    monkeypatch.setattr(solver_mod, "_cgls_step", recording)
    return stops


@pytest.mark.parametrize("angle", [0.0, 1.0, 2.5])
def test_grid_eps_solve_under_phase_rotation(monkeypatch, angle):
    # a constant phase is an exact symmetry; the solve must not depend on it
    b = HeisGridBackend(HEIS, 8)
    init = random_monopole_state(HEIS, b, seed=0, eps=0.5)
    rot = np.exp(1j * angle)
    init = MonopoleState(
        a=init.a,
        phi=SpinorField(init.phi.alpha * rot, init.phi.beta1bar * rot, b),
        model=HEIS,
        eps=0.5,
    )
    stops = _record_cgls(monkeypatch)
    state, info = solve(HEIS, 0.5, init, SolveOpts(seed=0), ph=PH_HEIS)
    assert info.converged and info.stop_reason == "converged"
    assert residual_sw(state, PH_HEIS).total <= 1e-6
    assert info.iterations <= 20
    assert stops and all(stop != 7 for stop, _ in stops)  # 7: stopped at the cap
    assert info.cgls_steps == stops
    # inexact steps: solving every step to roundoff takes over 10x as many
    assert sum(itn for _, itn in stops) <= 2000


def test_solve_reports_capped_lsqr_calls(monkeypatch):
    # a step whose CGLS stops at its iteration cap says so in SolveInfo: on
    # the eps system's plain loop and on the contact system's preconditioned
    # one, whose steps take a few iterations each
    for eps, cap in ((0.5, 5), (None, 2)):
        monkeypatch.setattr(solver_mod, "CGLS_ITER_LIM", cap)
        init = random_monopole_state(HEIS, HeisGridBackend(HEIS, 8), seed=0, eps=eps)
        stops = _record_cgls(monkeypatch)
        _, info = solve(HEIS, eps, init, SolveOpts(seed=0, max_iter=4), ph=PH_HEIS)
        assert info.cgls_steps == stops and all(itn <= cap for _, itn in stops)
        # the first steps meet the loose early forcing term within the cap
        assert stops[0][0] == 1 and sum(stop == 7 for stop, _ in info.cgls_steps) >= 1


@pytest.mark.parametrize("n", [8, 16])
def test_grid_contact_solve_seed0_converges(monkeypatch, n):
    b = HeisGridBackend(HEIS, n)
    init = random_monopole_state(HEIS, b, seed=0)
    opts = SolveOpts(seed=0)
    stops = _record_cgls(monkeypatch)
    state, info = solve(HEIS, None, init, opts, ph=PH_HEIS)
    assert info.converged
    assert info.iterations < opts.max_iter
    assert residual_contact(state, PH_HEIS).total <= 1e-6
    # with equal weights on all unknowns the N=16 end game stalls at the cap
    assert all(stop != 7 for stop, _ in stops)


def test_cgls_stops_at_a_least_squares_solution(monkeypatch):
    # the sixth step of the N=8 eps = 1/2 solve from seed 2 is inconsistent
    # below its forcing term: CGLS ends it on stop 2, |A^T r| at roundoff,
    # and without that test it would run to the cap
    init = random_monopole_state(HEIS, HeisGridBackend(HEIS, 8), seed=2, eps=0.5)
    _, info = solve(HEIS, 0.5, init, SolveOpts(max_iter=6), ph=PH_HEIS)
    stop, itn = info.cgls_steps[5]
    assert stop == 2 and 1000 < itn < solver_mod.CGLS_ITER_LIM
    assert all(stop == 1 for stop, _ in info.cgls_steps[:5])
    monkeypatch.setattr(solver_mod, "CGLS_ATOL", 0.0)
    _, info = solve(HEIS, 0.5, init, SolveOpts(max_iter=6), ph=PH_HEIS)
    assert info.cgls_steps[5] == (7, solver_mod.CGLS_ITER_LIM)


SOLVE_ONE_THREAD = """
import hashlib, json, sys
from contactmono.algebra import catalog_model
from contactmono.fields import HeisGridBackend
from contactmono.pseudohermitian import derive_ph_invariants
from contactmono.solver import SolveOpts, _pack, random_monopole_state, solve

n, seed, eps = json.loads(sys.argv[1])
m = catalog_model("heisenberg")
init = random_monopole_state(m, HeisGridBackend(m, n), seed=seed, eps=eps)
state, info = solve(m, eps, init, SolveOpts(seed=seed), ph=derive_ph_invariants(m))
state_sha256 = hashlib.sha256(_pack(state).tobytes()).hexdigest()
print(json.dumps([info.converged, info.stop_reason, info.cgls_steps, state_sha256]))
"""


def _solve_on_one_thread(n, seed, eps):
    """(converged, stop_reason, cgls_steps, sha256 of the packed final state)
    of a grid solve in a subprocess on one BLAS thread, as the benchmark runs
    it: BLAS threads split the dot products and move their roundoff."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    out = subprocess.run(
        [sys.executable, "-c", SOLVE_ONE_THREAD, json.dumps([n, seed, eps])],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(out.stdout)


def test_grid_eps_solve_keeps_plain_cgls():
    # the eps systems have at least as many rows as unknowns and run CGLS
    # without a preconditioner: the N=8 eps = 1/2 solve from seed 0 keeps its
    # Krylov sequence and its final state bit for bit
    converged, stop_reason, steps, state_sha256 = _solve_on_one_thread(8, 0, 0.5)
    assert converged and stop_reason == "converged"
    assert steps == [
        [1, 1], [1, 3], [1, 20], [1, 102], [1, 54], [1, 108], [1, 65], [1, 75],
        [1, 103], [1, 105],
    ]
    assert state_sha256 == "f6dbd4b7d7a02ce2a6354cb3b2e5c968dd024b7e24e035c7778055b6b8be6003"


def test_grid_contact_solve_keeps_its_path():
    # the benchmark's grid-contact solve, unrotated: the N=16 contact solve
    # from seed 0 keeps its Krylov sequence and its final state bit for bit
    converged, stop_reason, steps, state_sha256 = _solve_on_one_thread(16, 0, None)
    assert converged and stop_reason == "converged"
    assert steps == [[1, 2], [1, 2], [1, 2], [1, 5], [1, 3], [1, 6]]
    assert state_sha256 == "1ca1f49a580491a4b8adfde660cd2086ac899185675024a5f0856fde03f87781"


@pytest.mark.slow
def test_grid_contact_solve_seed5_steps():
    # N=16 contact from seed 5 was the longest Krylov path known, 9,977
    # CGLS iterations with its last three steps at CGLS_ITER_LIM; the
    # preconditioned loop takes a few iterations per step
    converged, stop_reason, steps, _ = _solve_on_one_thread(16, 5, None)
    assert converged and stop_reason == "converged"
    assert all(stop != 7 for stop, _ in steps)  # 7: stopped at the cap
    assert sum(itn for _, itn in steps) <= 100
    assert steps == [[1, 2], [1, 2], [1, 4], [1, 5], [1, 8], [1, 3]]


@pytest.mark.parametrize("eps", [None, 0.5])
def test_grid_jacobian_matches_directional_difference(eps):
    # the residual is quadratic, so central differences are exact up to roundoff
    b = HeisGridBackend(HEIS, 8)
    s = random_monopole_state(HEIS, b, seed=4, eps=eps)
    rng = np.random.default_rng(5)
    x = solver_mod._pack(s)
    v = rng.normal(size=x.size)
    lin = solver_mod._system(s, PH_HEIS, True)
    jac = solver_mod._grid_jacobian(x, b, lin)
    n3 = b.n**3
    assert jac.shape == (len(solver_mod._stack_residual(x, b, lin)) + n3, 7 * n3)

    def stacked(y):
        weight = math.sqrt(2.0 / n3)
        return np.concatenate(
            [
                solver_mod._stack_residual(y, b, lin),
                weight * solver_mod._grid_divergence(y, b),
            ]
        )

    t = 1e-3
    diff = (stacked(x + t * v) - stacked(x - t * v)) / (2 * t)
    assert np.max(np.abs(jac @ v - diff)) <= 1e-9 * np.max(np.abs(diff))


# omega = e1 + e2/2: connection weights along Z1 and Z1bar, zero torsion
OMEGA_MODEL = algebra.model_from_json({"c_0_12": "2", "c_1_12": "1", "c_2_12": "1/2"})
TORSION = catalog_model("torsion")


@pytest.mark.parametrize("constraint", [False, True])
@pytest.mark.parametrize(
    "model, eps",
    [
        (HEIS, None),
        (S3, None),
        (TORSION, None),
        (OMEGA_MODEL, None),
        (HEIS, 0.25),
        (S3, 0.25),
        (OMEGA_MODEL, 0.25),
    ],
    ids=["heis", "s3", "torsion", "omega", "heis-eps", "s3-eps", "omega-eps"],
)
def test_invariant_jacobian_matches_directional_difference(model, eps, constraint):
    # the grid rows at one point: omega weights and c^i_jk columns included
    ph = derive_ph_invariants(model)
    b = InvariantBackend(model)
    s = random_monopole_state(model, b, seed=4, eps=eps)
    x = solver_mod._pack(s)
    lin = solver_mod._system(s, ph, constraint)
    jac = solver_mod._invariant_jacobian(x, b, lin)

    def res(y):
        return solver_mod._stack_residual(y, b, lin)

    t = 1e-3
    diff = np.stack([(res(x + t * v) - res(x - t * v)) / (2 * t) for v in np.eye(7)], 1)
    assert jac.shape == diff.shape == (res(x).size, 7)
    assert np.max(np.abs(jac - diff)) <= 1e-9 * np.max(np.abs(diff))


def operator_fields(s, ph, constraint):
    """The equation fields composed from the `fields` operators."""
    alpha, beta = s.phi.alpha, s.phi.beta1bar
    sq = np.real(alpha * np.conj(alpha) - beta * np.conj(beta))
    if s.eps is None:
        d = dirac_xi(s.phi, s.a, ph)
        _, _, da12 = gauge_curvature_components(s.a, s.model)
        out = [d.alpha, d.beta1bar, da12 - ph.webster_float() - sq]
    else:
        d = dirac_eps(s.phi, s.a, ph, s.eps)
        f12, f01, f02 = b_curvature_components(s.a, ph, s.model, s.eps)
        f0 = (f01 + 1j * f02) / float(s.eps)
        out = [d.alpha, d.beta1bar, f12 - 0.5 * sq, f0 - np.conj(alpha) * beta]
    if constraint:
        d_t = cov_deriv(s.phi, DIR_T, s.a, ph)
        out += [d_t.alpha, d_t.beta1bar]
    return out


GRID8 = HeisGridBackend(HEIS, 8)


@pytest.mark.parametrize("constraint", [False, True])
@pytest.mark.parametrize(
    "model, backend, eps",
    [
        (HEIS, None, None),
        (HEIS, None, 0.25),
        (HEIS, None, 0.5),
        (S3, None, None),
        (S3, None, 0.25),
        (S3, None, 0.5),
        (TORSION, None, None),
        (OMEGA_MODEL, None, None),
        (OMEGA_MODEL, None, 0.25),
        (OMEGA_MODEL, None, 0.5),
        (HEIS, GRID8, None),
        (HEIS, GRID8, 0.25),
        (HEIS, GRID8, 0.5),
    ],
    ids=[
        "heis",
        "heis-eps1/4",
        "heis-eps1/2",
        "s3",
        "s3-eps1/4",
        "s3-eps1/2",
        "torsion",
        "omega",
        "omega-eps1/4",
        "omega-eps1/2",
        "grid8",
        "grid8-eps1/4",
        "grid8-eps1/2",
    ],
)
def test_forms_match_operator_route(model, backend, eps, constraint):
    # the forms yield both the residual and the Jacobian rows, so the two agree
    # by construction; the operators of `fields` are the independent route
    ph = derive_ph_invariants(model)
    for seed in range(3):
        s = random_monopole_state(model, backend or InvariantBackend(model), seed, eps)
        got = solver_mod._residual_fields(s, ph, constraint)
        want = operator_fields(s, ph, constraint)
        assert [kind for kind, _ in got] == [
            "c" if np.iscomplexobj(v) else "r" for v in want
        ]
        for (_, value), ref in zip(got, want):
            scale = np.max(np.abs(ref))
            assert np.max(np.abs(value - ref)) <= 1e-13 * scale


def test_solve_reports_max_iter_stop():
    init = random_monopole_state(S3, InvariantBackend(S3), seed=1)
    _, info = solve(S3, None, init, SolveOpts(max_iter=1), ph=PH_S3)
    assert info.iterations == 1 and info.stop_reason == "max-iter"


def test_solve_reports_line_search_stall(monkeypatch):
    # a zero Jacobian gives lstsq a zero step, which no halving lets lower the cost
    jacobian = solver_mod._invariant_jacobian
    monkeypatch.setattr(
        solver_mod, "_invariant_jacobian", lambda *args: np.zeros_like(jacobian(*args))
    )
    init = random_monopole_state(S3, InvariantBackend(S3), seed=1)
    _, info = solve(S3, None, init, SolveOpts(constraint=True), ph=PH_S3)
    assert info.stop_reason == "line-search-stalled" and not info.converged
    assert info.steps == 0 and info.iterations == 1


def test_jacobians_evaluate_no_residual(monkeypatch):
    point, grid = InvariantBackend(S3), HeisGridBackend(HEIS, 8)
    cases = [
        (jacobian, ph, random_monopole_state(m, b, seed=0, eps=eps))
        for jacobian, ph, m, b in (
            (solver_mod._invariant_jacobian, PH_S3, S3, point),
            (solver_mod._grid_jacobian, PH_HEIS, HEIS, grid),
        )
        for eps in (None, 0.25)
    ]

    def forbidden(*args, **kwargs):
        raise AssertionError("residual evaluated inside a Jacobian")

    monkeypatch.setattr(solver_mod, "_stack_residual", forbidden)
    monkeypatch.setattr(solver_mod, "_residual_fields", forbidden)
    for jacobian, ph, s in cases:
        for constraint in (False, True):
            lin = solver_mod._system(s, ph, constraint)
            jac = jacobian(solver_mod._pack(s), s.backend, lin)
            assert jac.shape[1] == 7 * s.backend.n_points


# --- the compiled linearisation ---------------------------------------------------


def fresh_jacobian(s, forms):
    """The Jacobian assembled from _Form.rows at s, term by term (the reference)."""
    u = solver_mod._slots(solver_mod._pack(s), s.backend)
    blocks = [f.rows(f.diagonal(u)) for f in forms]
    grid = s.backend.kind == "heis-grid"
    if grid:
        blocks.append(solver_mod._coulomb_form(s.backend).rows({}))
    triplets, shape, _ = solver_mod._assemble(blocks, s.backend)
    coo = scipy.sparse.coo_matrix(triplets, shape=shape)
    return coo.tocsr() if grid else coo.toarray()


def jacobian_bytes(jac):
    if isinstance(jac, np.ndarray):
        return jac.tobytes()
    return b"|".join(v.tobytes() for v in (jac.indptr, jac.indices, jac.data))


# the linearisation cases of scripts/report_digest.py: contact, and eps 1/4
# and 1/2 where the torsion vanishes
LINEARISATION_CASES = [
    (HEIS, "grid", eps) for eps in (None, 0.5, 0.25)
] + [
    (m, "invariant", eps)
    for m in (HEIS, S3, TORSION, OMEGA_MODEL)
    for eps in ((None, 0.25, 0.5) if m is not TORSION else (None,))
]


@pytest.mark.parametrize("constraint", [False, True])
@pytest.mark.parametrize(
    "model, kind, eps",
    LINEARISATION_CASES,
    ids=[f"{m.name}-{k}-{e}" for m, k, e in LINEARISATION_CASES],
)
def test_compiled_linearisation_matches_fresh_assembly(model, kind, eps, constraint):
    # one compiled structure serves successive states; a caller may rewrite
    # its own copy of a result (here: scale its columns), which must not
    # reach the next result.  On the grid J's entries off the marks keep the
    # linear part's values, and J^T, written with J, is J.T by bytes when
    # transpose() returns it, which gathers nothing
    ph = derive_ph_invariants(model)
    b = HeisGridBackend(model, 8) if kind == "grid" else InvariantBackend(model)
    states = [random_monopole_state(model, b, seed=seed, eps=eps) for seed in range(3)]
    forms = solver_mod._forms(states[0], ph, constraint)
    lin = solver_mod._Linearisation(forms)
    scale = np.random.default_rng(1).uniform(0.5, 2.0, size=7 * b.n_points)
    if kind == "grid":
        # the linear part alone, assembled without the diagonals
        blocks = [f.rows({}) for f in forms] + [solver_mod._coulomb_form(b).rows({})]
        triplets, shape, _ = solver_mod._assemble(blocks, b)
        linear = scipy.sparse.coo_matrix(triplets, shape=shape).tocsr()
    for s in states:
        jac = lin.jacobian(solver_mod._pack(s), b)
        want = fresh_jacobian(s, forms)
        assert jacobian_bytes(jac) == jacobian_bytes(want)
        if kind == "grid":
            comp = lin._compiled
            off = np.ones(jac.nnz, dtype=bool)
            for fm in (fm for chunks in comp.forms for fm in chunks):
                off[fm.at] = False
            assert 0 < off.sum() < jac.nnz
            rows = np.repeat(np.arange(jac.shape[0]), np.diff(jac.indptr))
            expected = np.asarray(linear[rows[off], jac.indices[off]]).ravel()
            assert jac.data[off].tobytes() == expected.tobytes()
            written = comp.jac_t.data.tobytes()
            assert lin.transpose(jac) is comp.jac_t and comp.jac_t.data.tobytes() == written
            assert jacobian_bytes(comp.jac_t) == jacobian_bytes(jac.T.tocsr())
            jac = jac.copy()
            jac.data *= scale[jac.indices]
        else:
            jac *= scale


@pytest.mark.parametrize("eps", [None, 0.5])
def test_grid_jacobian_is_evaluated_in_place(eps):
    # a grid system owns its J and J^T and writes their marked entries: the
    # second state's Jacobian is the first's matrix, equal to a fresh
    # assembly at the second state (no marked entry of the first left), and
    # J^T, written with it, is its transpose.  Both are read-only: a caller
    # scales a copy, which neither sees, and transpose takes only J itself
    b = HeisGridBackend(HEIS, 8)
    first, second = (random_monopole_state(HEIS, b, seed=seed, eps=eps) for seed in (0, 1))
    lin = solver_mod._system(first, PH_HEIS, False)
    jac = lin.jacobian(solver_mod._pack(first), b)
    at_first = jac.data.copy()
    jac_t = lin.transpose(jac)
    assert lin.jacobian(solver_mod._pack(second), b) is jac
    assert not np.array_equal(jac.data, at_first)
    at_second = fresh_jacobian(second, lin.forms)
    assert jacobian_bytes(jac) == jacobian_bytes(at_second)
    assert lin.transpose(jac) is jac_t
    assert jacobian_bytes(jac_t) == jacobian_bytes(jac.T.tocsr())
    for matrix in (jac, jac_t):
        with pytest.raises(ValueError):
            matrix.data *= 2.0
    scaled = jac.copy()
    scaled.data *= np.random.default_rng(1).uniform(0.5, 2.0, size=7 * b.n_points)[jac.indices]
    assert jacobian_bytes(jac) == jacobian_bytes(at_second)
    assert jacobian_bytes(jac_t) == jacobian_bytes(jac.T.tocsr())
    with pytest.raises(ValueError):
        lin.transpose(scaled)


def test_contact_step_allocates_no_jacobian_sized_array():
    # a warm contact step (preconditioner, Jacobian, transpose) allocates
    # less than one float per entry of the marks, which are 41% of the
    # Jacobian's nnz: J and J^T are the compiled system's own, and only
    # their marked entries are evaluated, a chunk at a time
    b, lin, _ = _contact_system(16)
    n_marks = sum(len(fm.parts) for chunks in lin._compiled.forms for fm in chunks)
    x = solver_mod._pack(random_monopole_state(HEIS, b, seed=1))

    def step():
        lin.preconditioner(b)
        jac = solver_mod._grid_jacobian(x, b, lin)
        return lin.transpose(jac).nnz

    nnz = step()
    tracemalloc.start()
    try:
        step()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * n_marks * b.n_points < 4 * nnz


def _step_scale(b):
    """The contact system's step scale S: HORIZONTAL_GAUGE_SCALE on the
    a1re and a2re slots, 1 elsewhere."""
    scale = np.ones(7 * b.n_points)
    scale[5 * b.n_points :] = solver_mod.HORIZONTAL_GAUGE_SCALE
    return scale


# the slot ranges of the preconditioner's diagonal blocks: (Re alpha, Im
# alpha), (Re beta, Im beta), a0, a1 and a2
PRECOND_SLOTS = [(0, 2), (2, 4), (4, 5), (5, 6), (6, 7)]


def _point_preconditioner(lin, b):
    """P = S J0^T J0 S + w^2 I assembled in point space, for J0 the Jacobian
    of lin at x = 0, S the step scale and w^2 = volume / n_points, on
    PRECOND_SLOTS' diagonal blocks, as CSC."""
    n3 = b.n_points
    j0 = lin.jacobian(np.zeros(7 * n3), b)
    s = scipy.sparse.diags(_step_scale(b))
    p = (s @ (j0.T @ j0) @ s).tocoo()
    group = np.repeat([k for k, (lo, hi) in enumerate(PRECOND_SLOTS) for _ in range(lo, hi)], n3)
    keep = group[p.row] == group[p.col]
    p = scipy.sparse.csc_matrix((p.data[keep], (p.row[keep], p.col[keep])), shape=p.shape)
    return p + (b.volume / n3) * scipy.sparse.identity(7 * n3, format="csc")


def _min_p_norm_solution(a, rhs, p, b):
    """The solution of the consistent grid step system a q = rhs of least
    P-norm, by dense Cholesky factors: q = P^-1 A'^T (A' P^-1 A'^T)^-1 rhs',
    where A' and rhs' drop the Coulomb row of one point per class of
    (x, y, z) mod 2.  Each class's Coulomb rows sum to zero (the parity modes
    are the kernel of the frame gradient), so A' has full row rank."""
    n, n3 = b.n, b.n_points
    drop = [5 * n3 + (x * n + y) * n + z for x in (0, 1) for y in (0, 1) for z in (0, 1)]
    rows = np.setdiff1d(np.arange(a.shape[0]), drop)
    a_rows, rhs_rows = a.tocsr()[rows].tocsc(), rhs[rows]
    gram = np.zeros((len(rows),) * 2)
    blocks = []
    for lo, hi in PRECOND_SLOTS:
        cols = slice(lo * n3, hi * n3)
        a_g = a_rows[:, cols]
        chol = scipy.linalg.cho_factor(p[cols, cols].toarray())
        gram += a_g @ scipy.linalg.cho_solve(chol, a_g.T.toarray())
        blocks.append((cols, a_g, chol))
    y = scipy.linalg.cho_solve(scipy.linalg.cho_factor(gram), rhs_rows)
    q = np.zeros(a.shape[1])
    for cols, a_g, chol in blocks:
        q[cols] = scipy.linalg.cho_solve(chol, a_g.T @ y)
    return q


@pytest.mark.parametrize("eps", [None, 0.5])
def test_lsqr_step_matches_lsqr_on_the_matrix(monkeypatch, eps):
    # CGLS on the step systems of the first six N=8 steps from seed 0 meets
    # its forcing term.  On the eps system it runs plain, stops where scipy's
    # lsqr does, and both walk to the minimum-norm solution.  On the contact
    # system it is preconditioned by S P^-1 S and walks to S q, for q the
    # solution of J S q = rhs of least P-norm, which a dense route computes
    systems = []
    cgls = solver_mod._cgls_step

    def recording(jac, jac_t, *args):
        systems.append((jac.copy(), jac_t.copy(), *args))
        return cgls(jac, jac_t, *args)

    monkeypatch.setattr(solver_mod, "_cgls_step", recording)
    b = HeisGridBackend(HEIS, 8)
    init = random_monopole_state(HEIS, b, seed=0, eps=eps)
    solve(HEIS, eps, init, SolveOpts(max_iter=6), ph=PH_HEIS)
    assert len(systems) == 6
    for jac, jac_t, rhs, eta, precond in systems:
        assert (precond is None) == (eps is not None)
        p, stop, itn, r_norm = cgls(jac, jac_t, rhs, eta, precond)
        true_norm = np.linalg.norm(rhs - jac @ p)
        assert stop == 1 and true_norm <= eta * np.linalg.norm(rhs)
        assert abs(r_norm - true_norm) <= 1e-10 * true_norm
        if precond is None:
            want = spla.lsqr(jac, rhs, atol=solver_mod.CGLS_ATOL, btol=eta, iter_lim=3000)
            assert want[1] == 1 and abs(itn - want[2]) <= 2
    if eps is None:
        assert itn <= 10
        p, stop, *_ = cgls(jac, jac_t, rhs, 1e-10, precond)
        assert stop == 1
        lin = b.systems[PH_HEIS, None, False]
        scale = _step_scale(b)
        scaled = jac @ scipy.sparse.diags(scale)
        want = scale * _min_p_norm_solution(scaled, rhs, _point_preconditioner(lin, b), b)
        assert np.linalg.norm(jac @ want - rhs) <= 1e-10 * np.linalg.norm(rhs)
    else:
        assert itn > 40
        p = cgls(jac, jac_t, rhs, 1e-10)[0]
        want = spla.lsqr(jac, rhs, atol=solver_mod.CGLS_ATOL, btol=1e-10, iter_lim=3000)[0]
    assert np.linalg.norm(p - want) <= 1e-8 * np.linalg.norm(want)


def _contact_system(n):
    """(backend, system, step scale) of the N=n contact system, compiled
    by one step from seed 0."""
    b = HeisGridBackend(HEIS, n)
    init = random_monopole_state(HEIS, b, seed=0)
    solve(HEIS, None, init, SolveOpts(max_iter=1), ph=PH_HEIS)
    return b, b.systems[PH_HEIS, None, False], _step_scale(b)


def test_preconditioner_solves_the_point_space_system():
    # the contact step's preconditioner is v -> S P^-1 (S v)
    b, lin, scale = _contact_system(8)
    v = np.random.default_rng(1).normal(size=7 * b.n_points)
    want = scale * spla.spsolve(_point_preconditioner(lin, b), scale * v)
    got = lin.preconditioner(b)(v)
    assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


def test_preconditioner_is_built_from_the_linear_part():
    # P is built from J with its marks put back to the linear part, also
    # when a Jacobian at a state was evaluated first: its solves equal, bit
    # for bit, those of the P built before any Jacobian
    b, built_first, _ = _contact_system(8)
    v = np.random.default_rng(1).normal(size=7 * b.n_points)
    want = built_first.preconditioner(b)(v)
    late = HeisGridBackend(HEIS, 8)
    init = random_monopole_state(HEIS, late, seed=1)
    lin = solver_mod._system(init, PH_HEIS, False)
    lin.jacobian(solver_mod._pack(init), late)
    assert lin.preconditioner(late)(v).tobytes() == want.tobytes()


def test_preconditioner_blocks_are_the_x_dft_of_the_z_blocks():
    # each (slot, slot) block of P at kz is F B F^-1, for B its z-Fourier
    # block (references.z_blocks) and F the DFT over x, formed densely;
    # blocks between slot groups are zero
    b, lin, _ = _contact_system(8)
    n, n3, m = b.n, b.n_points, b.n**2
    blocks = list(solver_mod._preconditioner_blocks(lin.jacobian(np.zeros(7 * n3), b), b))
    point = _point_preconditioner(lin, b).tocsr()
    f = np.kron(np.fft.fft(np.eye(n)), np.eye(n))  # (x, y) -> (kx, y)
    f_inv = np.linalg.inv(f)
    tol = 1e-10 * abs(point).max()
    group = {s: k for k, (lo, hi) in enumerate(PRECOND_SLOTS) for s in range(lo, hi)}
    for s in range(7):
        for t in range(7):
            zb = z_blocks(b, point[s * n3 : (s + 1) * n3, t * n3 : (t + 1) * n3])
            for kz in range(n // 2 + 1):
                got = blocks[kz][s * m : (s + 1) * m, t * m : (t + 1) * m].toarray()
                if group[s] != group[t]:
                    assert not got.any()
                    continue
                want = f @ zb[kz * m : (kz + 1) * m, kz * m : (kz + 1) * m].toarray() @ f_inv
                assert np.max(np.abs(got - want)) <= tol


def test_contact_krylov_count_does_not_grow_with_n():
    # preconditioned, the contact solve from seed 0 takes about as many CGLS
    # iterations at N=16 and 24 as at N=8 (plain CGLS: 366, 579 and 1,450)
    totals = []
    for n in (8, 16, 24):
        init = random_monopole_state(HEIS, HeisGridBackend(HEIS, n), seed=0)
        _, info = solve(HEIS, None, init, SolveOpts(seed=0), ph=PH_HEIS)
        assert info.converged
        totals.append(sum(itn for _, itn in info.cgls_steps))
    assert max(totals) <= 1.5 * totals[0] and totals[0] <= 40


def test_preconditioner_lives_with_the_compiled_jacobian(monkeypatch):
    # built at the first contact step of a backend, shared by a batch of
    # seeds, released with the compiled Jacobian, and never built for an eps
    # system
    calls = []
    blocks = solver_mod._preconditioner_blocks

    def counting(*args):
        calls.append(1)
        return blocks(*args)

    monkeypatch.setattr(solver_mod, "_preconditioner_blocks", counting)
    b = HeisGridBackend(HEIS, 8)
    assert not calls
    for seed in (0, 1):
        init = random_monopole_state(HEIS, b, seed=seed)
        solve(HEIS, None, init, SolveOpts(max_iter=2), ph=PH_HEIS)
    contact = b.systems[PH_HEIS, None, False]
    comp = contact._compiled
    assert len(calls) == 1 and comp.precond is not None
    # the matrices that each step rewrites are kept with it, and released
    # with it too
    kept = [weakref.ref(a) for a in (comp.jac, comp.jac_t)]
    del comp
    init = random_monopole_state(HEIS, b, seed=0, eps=0.5)
    solve(HEIS, 0.5, init, SolveOpts(max_iter=2), ph=PH_HEIS)
    assert len(calls) == 1 and contact._compiled is None
    gc.collect()
    assert all(ref() is None for ref in kept)
    eps_system = b.systems[PH_HEIS, 0.5, False]
    assert eps_system._compiled.precond is None and eps_system.preconditioner(b) is None


def test_step_scale_is_exact_on_the_jacobian():
    # CGLS on J preconditioned by S P^-1 S is CGLS on J S preconditioned by
    # P, bit for bit, because S is a power of two: scaling by it is exact,
    # so (J S) d = J (S d) and (J S)^T r = S (J^T r)
    assert math.frexp(solver_mod.HORIZONTAL_GAUGE_SCALE)[0] == 0.5
    b, lin, scale = _contact_system(8)
    jac = lin.jacobian(solver_mod._pack(random_monopole_state(HEIS, b, seed=1)), b).copy()
    rng = np.random.default_rng(2)
    d, r = rng.normal(size=jac.shape[1]), rng.normal(size=jac.shape[0])
    # J S with J's entries in J's order: scipy's jac @ diags(scale) drops
    # J's stored zeros and reverses each row, which sums in another order
    scaled = jac.copy()
    scaled.data *= scale[scaled.indices]
    assert (scaled @ d).tobytes() == (jac @ (scale * d)).tobytes()
    assert (scaled.T @ r).tobytes() == (scale * (jac.T @ r)).tobytes()


def _array_bytes(obj, seen):
    """Bytes of the arrays in obj (an array, a sparse matrix or a sequence of
    them), each buffer counted once."""
    if scipy.sparse.issparse(obj):
        return sum(_array_bytes(a, seen) for a in (obj.data, obj.indices, obj.indptr))
    if isinstance(obj, np.ndarray):
        owner = obj if obj.base is None else obj.base
        if id(owner) in seen:
            return 0
        seen.add(id(owner))
        return owner.nbytes
    if isinstance(obj, (list, tuple)):
        return sum(_array_bytes(v, seen) for v in obj)
    return 0


def test_compiled_contact_system_keeps_at_most_32_bytes_per_nonzero():
    # the compiled N=8 contact system's arrays and CSR matrices (J, J^T, and
    # per group of marks its positions in both, and its linear part where
    # that is not -0.0), but not P's factors, hold at most 32 bytes per
    # nonzero of J: 31.1 here, against 45.0 with a copy of the linear part
    # and J^T's gather as intp, and 4 more with any int32 array of J's nnz
    b, lin, _ = _contact_system(8)
    comp = lin._compiled
    seen = set()
    total = sum(_array_bytes(v, seen) for name, v in vars(comp).items() if name != "precond")
    assert total <= 32 * comp.jac.nnz


@pytest.mark.parametrize("grid", [False, True])
def test_solve_assembles_linear_part_once(monkeypatch, grid):
    calls = []
    assemble = solver_mod._assemble

    def counting(*args):
        calls.append(1)
        return assemble(*args)

    monkeypatch.setattr(solver_mod, "_assemble", counting)
    if grid:
        init = random_monopole_state(HEIS, HeisGridBackend(HEIS, 8), seed=0, eps=0.5)
        _, info = solve(HEIS, 0.5, init, SolveOpts(seed=0), ph=PH_HEIS)
        steps = len(info.cgls_steps)
    else:
        init = random_monopole_state(S3, InvariantBackend(S3), seed=1)
        _, info = solve(S3, None, init, SolveOpts(constraint=True), ph=PH_S3)
        steps = info.iterations - 1  # a converged stop reads one more
    assert info.converged and steps >= 3
    assert len(calls) == 1


# --- the backend's equation systems -------------------------------------------------


def _count_assemble(monkeypatch):
    calls = []
    assemble = solver_mod._assemble

    def counting(*args):
        calls.append(1)
        return assemble(*args)

    monkeypatch.setattr(solver_mod, "_assemble", counting)
    return calls


def _cli_runs(doc):
    from contactmono.cli import parse_config, run

    code, report = run(parse_config(dict(doc, output=os.devnull)))
    return [json.dumps(r, sort_keys=True) for r in report["result"]["runs"]]


@pytest.mark.parametrize(
    "doc",
    [
        {"model": "round-s3", "seeds": 4, "seed": 3, "constraint": True},
        {"model": "heisenberg", "backend": "heis-grid", "N": 8, "seeds": 2},
    ],
    ids=["round-s3", "grid8"],
)
def test_batch_shares_one_system_and_keeps_the_bytes(monkeypatch, doc):
    # the solves of a batch share their backend's system, compiled once, and
    # each gives the report of the same seed solved alone on a fresh backend
    doc = dict(doc, command="solve")
    calls = _count_assemble(monkeypatch)
    batch = _cli_runs(doc)
    assert len(calls) == 1 and len(batch) == doc["seeds"]
    seeds = range(doc.get("seed", 0), doc.get("seed", 0) + doc["seeds"])
    alone = [_cli_runs(dict(doc, seed=seed, seeds=1))[0] for seed in seeds]
    assert batch == alone
    assert all('"steps"' not in run for run in batch)  # SolveInfo.steps stays out


def test_backend_builds_one_system_per_key(monkeypatch):
    # eps and the Reeb rows are part of the key: eps 1/4, then 1/2, then 1/2
    # with the Reeb rows compile three systems (the reports read the
    # constrained forms without compiling them), and each solve gives the
    # bytes of the same solve on a fresh backend
    cases = [(0.25, False), (0.5, False), (0.5, True)]
    b = InvariantBackend(HEIS)
    calls = _count_assemble(monkeypatch)
    shared = []
    for eps, constraint in cases:
        init = random_monopole_state(HEIS, b, seed=2, eps=eps)
        shared.append(solve(HEIS, eps, init, SolveOpts(constraint=constraint), ph=PH_HEIS))
    assert len(calls) == 3
    assert set(b.systems) == {(PH_HEIS, e, c) for e in (0.25, 0.5) for c in (False, True)}
    for (eps, constraint), (state, info) in zip(cases, shared):
        init = random_monopole_state(HEIS, InvariantBackend(HEIS), seed=2, eps=eps)
        fresh, fresh_info = solve(HEIS, eps, init, SolveOpts(constraint=constraint), ph=PH_HEIS)
        assert solver_mod._pack(state).tobytes() == solver_mod._pack(fresh).tobytes()
        assert info == fresh_info


def test_grid_backend_keeps_one_compiled_linearisation():
    b = HeisGridBackend(HEIS, 8)
    for eps in (0.5, None):
        init = random_monopole_state(HEIS, b, seed=0, eps=eps)
        solve(HEIS, eps, init, SolveOpts(seed=0, max_iter=2), ph=PH_HEIS)
    compiled = [lin for lin in b.systems.values() if lin._compiled is not None]
    assert len(b.systems) == 4
    assert compiled == [b.systems[PH_HEIS, None, False]]


def test_solve_info_counts_accepted_steps():
    init = random_monopole_state(HEIS, HeisGridBackend(HEIS, 8), seed=0, eps=0.5)
    _, info = solve(HEIS, 0.5, init, SolveOpts(seed=0), ph=PH_HEIS)
    assert info.stop_reason == "converged"
    assert info.steps == len(info.cgls_steps) == 10 and info.iterations == 11
    init = random_monopole_state(S3, InvariantBackend(S3), seed=1)
    _, info = solve(S3, None, init, SolveOpts(constraint=True), ph=PH_S3)
    assert info.stop_reason == "converged" and info.steps == info.iterations - 1 >= 3
    _, info = solve(S3, None, init, SolveOpts(max_iter=1), ph=PH_S3)
    assert info.stop_reason == "max-iter" and info.steps == info.iterations == 1


def test_solve_builds_no_state_per_evaluation(monkeypatch):
    # inside a solve a state is its packed vector: fields are built for the
    # final state only, never per residual, Jacobian or gauge evaluation
    calls = []
    unpack = solver_mod._unpack

    def counting(*args):
        calls.append(1)
        return unpack(*args)

    monkeypatch.setattr(solver_mod, "_unpack", counting)
    init = random_monopole_state(S3, InvariantBackend(S3), seed=1)
    _, info = solve(S3, None, init, SolveOpts(constraint=True), ph=PH_S3)
    assert info.converged and info.steps >= 3
    assert len(calls) == 1
    calls.clear()
    init = random_monopole_state(HEIS, HeisGridBackend(HEIS, 8), seed=0, eps=0.5)
    _, info = solve(HEIS, 0.5, init, SolveOpts(seed=0), ph=PH_HEIS)
    assert info.converged and info.steps >= 3
    assert len(calls) == 1


@pytest.mark.parametrize("grid", [False, True])
def test_solve_rejects_backend_of_another_model(grid):
    backend = HeisGridBackend(HEIS, 8) if grid else InvariantBackend(HEIS)
    init = random_monopole_state(HEIS, backend, seed=0)
    with pytest.raises(WrongModel):
        solve(S3, None, init, ph=PH_S3)


def test_solve_compares_backend_model_by_value():
    # catalog_model builds a fresh object per call, and inline models share a name
    init = random_monopole_state(HEIS, InvariantBackend(HEIS), seed=0)
    inline = algebra.model_from_json({"c_0_12": "2"})
    for model in (catalog_model("heisenberg"), inline):
        _, info = solve(model, None, init, ph=derive_ph_invariants(model))
        assert info.converged


def test_grid_jacobian_coulomb_block_is_divergence():
    b = HeisGridBackend(HEIS, 8)
    n3 = b.n**3
    s = random_monopole_state(HEIS, b, seed=6, eps=0.5)
    x = solver_mod._pack(s)
    jac = solver_mod._grid_jacobian(x, b, solver_mod._system(s, PH_HEIS, False))
    coulomb = jac[-n3:]
    assert not coulomb[:, : 4 * n3].toarray().any()  # no spinor columns
    rng = np.random.default_rng(7)
    # a gauge direction: zero in the spinor slots
    v = np.concatenate([np.zeros(4 * n3), rng.normal(size=3 * n3)])

    def div_at(t):
        return solver_mod._grid_divergence(x + t * v, b)

    t = 0.25
    directional = (div_at(t) - div_at(-t)) / (2 * t)
    weight = math.sqrt(2.0 / n3)
    assert np.allclose(coulomb @ v, weight * directional, rtol=0, atol=1e-12)


def test_coulomb_projection_is_a_gauge_transformation():
    # a -> a - d chi zeroes div(a); Phi -> e^{i chi} Phi and the base-point
    # phase keep |alpha| and conj(alpha) beta at every point
    b = HeisGridBackend(HEIS, 8)
    x = solver_mod._pack(random_monopole_state(HEIS, b, seed=0, eps=0.5))
    y = solver_mod._coulomb_project_grid(x, b)
    before, after = solver_mod._grid_divergence(x, b), solver_mod._grid_divergence(y, b)
    assert np.max(np.abs(after)) <= 1e-12 * np.max(np.abs(before))
    (alpha, _, beta, _, *a), (alpha2, _, beta2, _, *a2) = (
        solver_mod._slots(v, b) for v in (x, y)
    )
    assert np.allclose(abs(alpha2), abs(alpha), rtol=1e-13, atol=0)
    assert np.allclose(np.conj(alpha2) * beta2, np.conj(alpha) * beta, rtol=1e-13, atol=0)
    assert alpha2[0].real > 0 and abs(alpha2[0].imag) <= 1e-15 * alpha2[0].real
    # the phase Phi gained relative to point 0 (below pi here, so np.angle
    # returns it unwrapped) is the chi whose gauge_transform moved a
    chi = np.angle(alpha2 / alpha * (alpha[0] / alpha2[0]))
    a_t, _ = gauge_transform(GaugeField(*a, b), SpinorField(alpha, beta, b), chi)
    assert np.allclose([a_t.a0, a_t.a1re, a_t.a2re], a2, rtol=0, atol=1e-13)


def _dense_laplacian(b):
    """div(grad) = sum_{k<3} S_k S_k as a dense matrix, column by column
    through the stencils' apply."""
    n3 = b.n_points
    cols = []
    for j in range(n3):
        e = np.zeros(n3)
        e[j] = 1.0
        cols.append(sum(op.apply(op.apply(e)) for op in b.stencils[:3]))
    return np.array(cols).T


@pytest.mark.parametrize("n", [4, 6, 8, 10])
def test_coulomb_projection_matches_dense_minimum_norm(n):
    # the direct kz-block solve against least squares on the dense Laplacian:
    # the same minimum-norm chi, and the projection moves a by -grad chi
    b = HeisGridBackend(HEIS, n)
    rng = np.random.default_rng(11)
    s = random_monopole_state(HEIS, b, seed=1)
    x = solver_mod._pack(s)
    x[4 * b.n_points :] += rng.normal(size=3 * b.n_points)  # a rough gauge field
    div = solver_mod._grid_divergence(x, b)
    lap = _dense_laplacian(b)
    assert np.linalg.matrix_rank(lap, tol=1e-8 * np.abs(lap).max()) == b.n_points - 8
    want = np.linalg.lstsq(lap, div, rcond=1e-8)[0]
    chi = b.laplacian_solve(div)
    assert np.linalg.norm(chi - want) <= 1e-10 * np.linalg.norm(want)
    y = solver_mod._coulomb_project_grid(x, b)
    a_want = [a - op.apply(want) for a, op in zip(x.reshape(7, -1)[4:], b.stencils[:3])]
    assert np.allclose(y.reshape(7, -1)[4:], a_want, rtol=0, atol=1e-10)


def test_laplacian_factor_is_built_once_at_the_first_projection(monkeypatch):
    # never at set-up, and one factor per backend for a batch of seeds
    calls = []
    splu = spla.splu

    def counting(*args, **kwargs):
        calls.append(1)
        return splu(*args, **kwargs)

    monkeypatch.setattr(spla, "splu", counting)
    b = HeisGridBackend(HEIS, 8)
    init = random_monopole_state(HEIS, b, seed=0)
    assert not calls
    solver_mod._coulomb_project_grid(solver_mod._pack(init), b)
    solver_mod._coulomb_project_grid(solver_mod._pack(init), b)
    # one factor per kz block
    assert len(calls) == b.n // 2 + 1
    calls.clear()
    runs = _cli_runs({"command": "solve", "backend": "heis-grid", "N": 8, "seeds": 3})
    # the Laplacian's factors, and the contact system's preconditioner's,
    # one per kz block each
    assert len(runs) == 3 and len(calls) == 2 * (b.n // 2 + 1)


def test_laplacian_factors_stay_small():
    # the Laplacian's kz blocks in the x-DFT layout, factored without
    # relaxed supernodes: 13,040 L+U nonzeros at N=16, against 95,738 for
    # one factor of its z-only (x, y) blocks
    b = HeisGridBackend(HEIS, 16)
    assert sum(f.L.nnz + f.U.nnz for f in b._laplacian_lu) <= 20_000


def test_lowered_background_keeps_curvature_bit_identical():
    b = HeisGridBackend(HEIS, 8)
    s = random_monopole_state(HEIS, b, seed=2, eps=0.25)
    s3_gauge = inv_state(S3, 1, 2, 0.5, 0.1, -0.2).a
    for m, ph, a in ((HEIS, PH_HEIS, s.a), (S3, PH_S3, s3_gauge)):
        # the background term as derived exactly from the forms on every call
        domega = exterior_d(ph.omega, m)
        dtheta = exterior_d(theta(), m)
        da01, da02, da12 = gauge_curvature_components(a, m)
        for eps in (0.5, 0.25, 1.0 / 64):
            got = b_curvature_components(a, ph, m, eps)
            for f, (j, k), da in zip(got, ((1, 2), (0, 1), (0, 2)), (da12, da01, da02)):
                background = 0.5 * (
                    domega.coeff(j, k).to_complex().real
                    + eps * dtheta.coeff(j, k).to_complex().real
                )
                assert np.array_equal(f, background + da)


EXACT_ARITHMETIC = (
    "__add__",
    "__radd__",
    "__sub__",
    "__rsub__",
    "__neg__",
    "__mul__",
    "__rmul__",
    "__truediv__",
    "__rtruediv__",
    "__pow__",
    "inverse",
    "to_complex",
)


def test_float_solves_run_no_exact_arithmetic(monkeypatch):
    # models, invariants, backends and initial states are built first; the
    # float solves after them must read lowered floats only
    grid = HeisGridBackend(HEIS, 8)
    grid_states = [
        random_monopole_state(HEIS, grid, seed=0, eps=eps) for eps in (None, 0.5)
    ]
    s3_init = random_monopole_state(S3, InvariantBackend(S3), seed=1)
    heis_init = random_monopole_state(HEIS, InvariantBackend(HEIS), seed=0, eps=0.25)

    def forbidden(*args, **kwargs):
        raise AssertionError("exact arithmetic inside a float solve")

    for name in EXACT_ARITHMETIC:
        monkeypatch.setattr(ExactComplex, name, forbidden)
    monkeypatch.setattr(InvariantForm, "coeff", forbidden)
    for module in (algebra, pseudohermitian):
        monkeypatch.setattr(module, "exterior_d", forbidden)

    state, info = solve(S3, None, s3_init, SolveOpts(constraint=True), ph=PH_S3)
    assert info.converged
    cert = vanishing_certificate(state, info.report, PH_S3)
    assert cert.verdict == "consistent-with-vanishing"
    _, info = solve(HEIS, 0.25, heis_init, ph=PH_HEIS)
    assert info.converged
    recs = sweep(HEIS, [0.5, 0.25], backend=InvariantBackend(HEIS), ph=PH_HEIS)
    assert all(r.converged for r in recs)
    for s in grid_states:
        x = solver_mod._pack(s)
        for constraint in (False, True):
            lin = solver_mod._system(s, PH_HEIS, constraint)
            r = solver_mod._stack_residual(x, grid, lin)
            jac = solver_mod._grid_jacobian(x, grid, lin)
            assert jac.shape[0] == r.size + grid.n_points
