import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from contactmono import algebra, pseudohermitian
from contactmono import solver as solver_mod
from contactmono.algebra import InvariantForm, catalog_model, exterior_d, gen_model, theta
from contactmono.errors import (
    NotASolution,
    PreconditionError,
    SolveError,
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
)
from contactmono.exact import ExactComplex
from contactmono.pseudohermitian import derive_ph_invariants
from contactmono.solver import (
    HeisenbergFamily,
    MonopoleState,
    SolveOpts,
    energy_identity,
    loglog_slope,
    random_monopole_state,
    residual_contact,
    residual_sw,
    solve,
    sweep,
    sweep_diagnostics,
    vanishing_certificate,
    weitzenbock_energy,
)
from grid_states import constant_gauge, theta_state, trig_spinor

HEIS = catalog_model("heisenberg")
S3 = catalog_model("round-s3")
PH_HEIS = derive_ph_invariants(HEIS)
PH_S3 = derive_ph_invariants(S3)


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
        solver_mod._invariant_jacobian(st, derive_ph_invariants(t), False)


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
    assert energy_identity(s, PH_S3) == pytest.approx(0.0, abs=1e-14)
    # the Heisenberg alpha-solution violates the Reeb constraint
    bad = inv_state(HEIS, 1.0, 0.0, 0.5)
    with pytest.raises(NotASolution):
        energy_identity(bad, PH_HEIS)


@pytest.mark.parametrize("grid", [False, True])
@pytest.mark.parametrize("eps", [None, 0.25])
def test_reports_and_solver_share_one_residual(grid, eps):
    # the report blocks are the solver's residual fields: with the Reeb
    # constraint, |stacked residual|^2 = total^2 + r_constraint^2
    b = HeisGridBackend(HEIS, 8) if grid else InvariantBackend(HEIS)
    s = random_monopole_state(HEIS, b, seed=3, eps=eps)
    rep = residual_contact(s, PH_HEIS) if eps is None else residual_sw(s, PH_HEIS)
    r = solver_mod._stack_residual(s, PH_HEIS, True)
    assert rep.total**2 + rep.r_constraint**2 == pytest.approx(float(r @ r), rel=1e-12)
    x = solver_mod._pack(s)
    assert x.size == 7 * b.n_points
    assert np.array_equal(solver_mod._pack(solver_mod._unpack(x, HEIS, b, eps)), x)


# --- closed-form family ------------------------------------------------------------


def test_heisenberg_family_examples():
    fam = HeisenbergFamily(HEIS)
    assert fam.a0_for(1.0, 0.0) == pytest.approx(0.5)
    assert fam.a0_for(0.0, 1.0) == pytest.approx(-0.5)
    s = inv_state(HEIS, 1.0, 0.0, 0.5)
    assert fam.membership(s).member
    s2 = inv_state(HEIS, 0.0, 0.0, 0.0, a1re=3.0)  # reducible: a1 free
    assert fam.membership(s2).member
    s3 = inv_state(HEIS, 1.0, 0.0, 0.3)
    rep = fam.membership(s3)
    assert not rep.member and rep.curvature_gap == pytest.approx(0.4)
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
        state, info = solve(HEIS, None, init, SolveOpts(seed=seed, tol=1e-13))
        assert info.converged
        assert info.report.total <= 1e-10
        assert fam.membership(state, tol=1e-10).member
        if abs(state.phi.alpha) > 1e-3:
            nontrivial += 1
    assert nontrivial >= 4


def test_solve_fixed_point():
    s = inv_state(HEIS, 1.0, 0.0, 0.5)
    state, info = solve(HEIS, None, s, SolveOpts(tol=1e-13))
    assert info.iterations <= 2
    assert abs(state.phi.alpha - 1.0) < 1e-12 or abs(abs(state.phi.alpha) - 1.0) < 1e-12


def test_solve_constrained_round_s3_vanishing():
    for seed in range(6):
        init = random_monopole_state(S3, InvariantBackend(S3), seed=100 + seed)
        state, info = solve(
            S3, None, init, SolveOpts(seed=seed, constraint=True, tol=1e-13)
        )
        assert info.converged
        assert math.sqrt(abs(state.phi.alpha) ** 2 + abs(state.phi.beta1bar) ** 2) <= 1e-8
        assert abs(np.real(state.a.a0) - 1.0) <= 1e-8


def test_solve_sw_invariant_eps_half():
    init = random_monopole_state(HEIS, InvariantBackend(HEIS), seed=3, eps=0.5)
    state, info = solve(HEIS, 0.5, init, SolveOpts(tol=1e-13))
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
    state, info = solve(HEIS, eps, init, SolveOpts(tol=1e-13))
    assert info.converged
    assert abs(state.phi.alpha) ** 2 == pytest.approx(2 * eps * (1 - 2 * eps), abs=1e-9)
    assert np.real(state.a.a0) == pytest.approx(-(eps**2), abs=1e-9)


def test_vanishing_certificate_paths():
    # solver output under the constraint: consistent
    init = random_monopole_state(S3, InvariantBackend(S3), seed=11)
    state, _ = solve(S3, None, init, SolveOpts(constraint=True, tol=1e-13))
    v = vanishing_certificate(S3, state)
    assert v.verdict == "consistent-with-vanishing"
    # hand-built nonzero state violating the constraint: rejected
    bad = inv_state(S3, 0.0, 1.0, 2.0)  # beta^a_{1b,0} = -2i beta != 0
    v2 = vanishing_certificate(S3, bad)
    assert v2.verdict == "not-a-solution"
    with pytest.raises(PreconditionError):
        vanishing_certificate(HEIS, inv_state(HEIS, 0.0, 0.0, 0.0))


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
        sweep(HEIS, [0.25, 0.5])


def test_sweep_single_point():
    recs = sweep(HEIS, [0.5], seed=1)
    assert len(recs) == 1
    assert recs[0].residual_limit is not None


def test_sweep_tracks_alpha_branch():
    eps_list = [2.0**-k for k in range(1, 7)]
    recs = sweep(HEIS, eps_list, seed=0)
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
    recs = sweep(HEIS, eps_list, seed=0)
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
    from contactmono.fields import dirac_eps, zero_gauge

    b = HeisGridBackend(HEIS, 8)
    phi0 = SpinorField(np.ones((8, 8, 8), dtype=complex), b.zero(), b)
    out = dirac_eps(phi0, zero_gauge(b), PH_HEIS, 0.25)
    assert np.max(np.abs(out.alpha - 0.25)) == 0.0
    assert np.max(np.abs(out.beta1bar)) == 0.0


# --- heis-grid inexact Gauss-Newton -------------------------------------------------


def _record_lsqr(monkeypatch):
    """Wrap scipy's lsqr; returns the list of its (istop, iterations)."""
    stops = []
    lsqr = spla.lsqr

    def recording(*args, **kwargs):
        out = lsqr(*args, **kwargs)
        stops.append((out[1], out[2]))
        return out

    monkeypatch.setattr(spla, "lsqr", recording)
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
    stops = _record_lsqr(monkeypatch)
    state, info = solve(HEIS, 0.5, init, SolveOpts(seed=0), ph=PH_HEIS)
    assert info.converged and info.stop_reason == "converged"
    assert residual_sw(state, PH_HEIS).total <= 1e-6
    assert info.iterations <= 20
    assert stops and all(istop != 7 for istop, _ in stops)  # 7: stopped at iter_lim
    assert info.lsqr_steps == stops and info.lsqr_capped == 0
    # inexact steps: solving every step to roundoff takes over 10x as many
    assert sum(itn for _, itn in stops) <= 2000


def test_solve_reports_capped_lsqr_calls(monkeypatch):
    # a step whose lsqr stops at its iteration cap says so in SolveInfo
    monkeypatch.setattr(solver_mod, "LSQR_ITER_LIM", 5)
    b = HeisGridBackend(HEIS, 8)
    init = random_monopole_state(HEIS, b, seed=0)
    stops = _record_lsqr(monkeypatch)
    _, info = solve(HEIS, None, init, SolveOpts(seed=0, max_iter=3), ph=PH_HEIS)
    assert info.lsqr_steps == stops and all(itn <= 5 for _, itn in stops)
    # the first steps meet the loose early forcing term within the cap
    assert info.lsqr_capped == sum(istop == 7 for istop, _ in stops) >= 1


@pytest.mark.parametrize("n", [8, 16])
def test_grid_contact_solve_seed0_converges(monkeypatch, n):
    b = HeisGridBackend(HEIS, n)
    init = random_monopole_state(HEIS, b, seed=0)
    opts = SolveOpts(seed=0)
    stops = _record_lsqr(monkeypatch)
    state, info = solve(HEIS, None, init, opts, ph=PH_HEIS)
    assert info.converged
    assert info.iterations < opts.max_iter
    assert residual_contact(state, PH_HEIS).total <= 1e-6
    # with equal weights on all unknowns the N=16 end game stalls at the cap
    assert all(istop != 7 for istop, _ in stops)


SEED5_SOLVE = """
import json
from contactmono.algebra import catalog_model
from contactmono.fields import HeisGridBackend
from contactmono.solver import SolveOpts, random_monopole_state, solve

m = catalog_model("heisenberg")
init = random_monopole_state(m, HeisGridBackend(m, 16), seed=5)
_, info = solve(m, None, init, SolveOpts(seed=5))
print(json.dumps([info.converged, info.stop_reason, info.lsqr_steps, info.lsqr_capped]))
"""


@pytest.mark.slow
def test_grid_contact_solve_seed5_capped_steps():
    # the longest lsqr path known, N=16 contact from seed 5: its last two
    # steps stop at LSQR_ITER_LIM.  BLAS threads split lsqr's dot products and
    # move its roundoff (with two threads it takes 10 steps, 3 capped), so it
    # runs on one thread, as the benchmark does.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    out = subprocess.run(
        [sys.executable, "-c", SEED5_SOLVE], env=env, capture_output=True, text=True, check=True
    )
    converged, stop_reason, steps, capped = json.loads(out.stdout)
    assert converged and stop_reason == "converged"
    assert steps == [[1, 2], [1, 6], [1, 30], [1, 59], [1, 58], [1, 77], [7, 3000], [7, 3000]]
    assert capped == 2


@pytest.mark.parametrize("eps", [None, 0.5])
def test_grid_jacobian_matches_directional_difference(eps):
    # the residual is quadratic, so central differences are exact up to roundoff
    b = HeisGridBackend(HEIS, 8)
    s = random_monopole_state(HEIS, b, seed=4, eps=eps)
    rng = np.random.default_rng(5)
    x = solver_mod._pack(s)
    v = rng.normal(size=x.size)
    jac = solver_mod._grid_jacobian(s, PH_HEIS, True)
    n3 = b.n**3
    assert jac.shape == (len(solver_mod._stack_residual(s, PH_HEIS, True)) + n3, 7 * n3)

    def stacked(y):
        st = solver_mod._unpack(y, HEIS, b, eps)
        weight = math.sqrt(2.0 / n3)
        return np.concatenate(
            [
                solver_mod._stack_residual(st, PH_HEIS, True),
                weight * solver_mod._grid_divergence(st.a).ravel(),
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
    jac = solver_mod._invariant_jacobian(s, ph, constraint)

    def res(y):
        st = solver_mod._unpack(y, model, b, eps)
        return solver_mod._stack_residual(st, ph, constraint)

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
            assert jacobian(s, ph, constraint).shape[1] == 7 * s.backend.n_points


# --- the compiled linearisation ---------------------------------------------------


def fresh_jacobian(s, forms):
    """The Jacobian assembled from _Form.rows at s, term by term (the reference)."""
    u = solver_mod._slots(s)
    blocks = [f.rows(f.diagonal(u)) for f in forms]
    grid = s.backend.kind == "heis-grid"
    if grid:
        blocks.append(solver_mod._coulomb_form(s.backend).rows({}))
    coo, _ = solver_mod._assemble(blocks, s.backend)
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
    # one compiled structure serves successive states; solve scales each
    # result's columns in place, which must not reach the next result
    ph = derive_ph_invariants(model)
    b = HeisGridBackend(model, 8) if kind == "grid" else InvariantBackend(model)
    states = [random_monopole_state(model, b, seed=seed, eps=eps) for seed in range(3)]
    forms = solver_mod._forms(states[0], ph, constraint)
    lin = solver_mod._Linearisation(forms, b)
    scale = np.random.default_rng(1).uniform(0.5, 2.0, size=7 * b.n_points)
    for s in states:
        jac = lin.jacobian(s)
        want = fresh_jacobian(s, forms)
        assert jacobian_bytes(jac) == jacobian_bytes(want)
        if kind == "grid":
            jac.data *= scale[jac.indices]
            assert jacobian_bytes(lin.transpose(jac)) == jacobian_bytes(jac.T.tocsr())
        else:
            jac *= scale


@pytest.mark.parametrize("eps", [None, 0.5])
def test_lsqr_step_matches_lsqr_on_the_matrix(eps):
    # the CSR transpose gives lsqr the same products as scipy's CSC kernel
    b = HeisGridBackend(HEIS, 8)
    s = random_monopole_state(HEIS, b, seed=3, eps=eps)
    lin = solver_mod._Linearisation(solver_mod._forms(s, PH_HEIS, False), b)
    rhs = np.random.default_rng(2).normal(size=lin.jacobian(s).shape[0])
    scale = np.full(7 * b.n_points, 0.5)
    jac = lin.jacobian(s)
    jac.data *= scale[jac.indices]
    want = spla.lsqr(jac, rhs, damp=1e-12, atol=1e-14, btol=1e-6, iter_lim=3000)
    got = solver_mod._lsqr_step(lin.jacobian(s), lin, rhs, 1e-6, scale)
    assert got[1:4] == want[1:4] and got[2] > 10
    assert got[0].tobytes() == want[0].tobytes()


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
        steps = len(info.lsqr_steps)
    else:
        init = random_monopole_state(S3, InvariantBackend(S3), seed=1)
        _, info = solve(S3, None, init, SolveOpts(constraint=True), ph=PH_S3)
        steps = info.iterations - 1  # a converged stop reads one more
    assert info.converged and steps >= 3
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
        _, info = solve(model, None, init)
        assert info.converged


def test_grid_jacobian_coulomb_block_is_divergence():
    b = HeisGridBackend(HEIS, 8)
    n3 = b.n**3
    s = random_monopole_state(HEIS, b, seed=6, eps=0.5)
    jac = solver_mod._grid_jacobian(s, PH_HEIS, False)
    coulomb = jac[-n3:]
    assert not coulomb[:, : 4 * n3].toarray().any()  # no spinor columns
    rng = np.random.default_rng(7)
    shape = (b.n,) * 3
    va = GaugeField(*(rng.normal(size=shape) for _ in range(3)), b)
    a = s.a

    def div_at(t):
        moved = GaugeField(a.a0 + t * va.a0, a.a1re + t * va.a1re, a.a2re + t * va.a2re, b)
        return solver_mod._grid_divergence(moved).ravel()

    t = 0.25
    directional = (div_at(t) - div_at(-t)) / (2 * t)
    v = np.concatenate([np.zeros(4 * n3), va.a0.ravel(), va.a1re.ravel(), va.a2re.ravel()])
    weight = math.sqrt(2.0 / n3)
    assert np.allclose(coulomb @ v, weight * directional, rtol=0, atol=1e-12)


def test_coulomb_projection_fails_loudly(monkeypatch):
    b = HeisGridBackend(HEIS, 8)
    s = random_monopole_state(HEIS, b, seed=0, eps=0.5)
    monkeypatch.setattr(
        spla, "cg", lambda op, rhs, **kw: (np.zeros_like(rhs), 1)
    )
    with pytest.raises(SolveError):
        solver_mod._coulomb_project_grid(s)
    with pytest.raises(SolveError):
        solve(HEIS, 0.5, s, SolveOpts(seed=0), ph=PH_HEIS)


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
    cert = vanishing_certificate(S3, state, PH_S3)
    assert cert.verdict == "consistent-with-vanishing"
    _, info = solve(HEIS, 0.25, heis_init, ph=PH_HEIS)
    assert info.converged
    recs = sweep(HEIS, [0.5, 0.25], ph=PH_HEIS)
    assert all(r.converged for r in recs)
    for s in grid_states:
        for constraint in (False, True):
            r = solver_mod._stack_residual(s, PH_HEIS, constraint)
            jac = solver_mod._grid_jacobian(s, PH_HEIS, constraint)
            assert jac.shape[0] == r.size + grid.n_points
