"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Criterion 7 checks the adiabatic limit eps -> 0 of the eps-family on the
Heisenberg model, swept over the dyadic ladder 2^-1..2^-6 in the invariant
sector.  There the sweep follows the exact solution branch

    |alpha|^2 = 2 eps (1 - 2 eps),  a0 = -eps^2,  a(Z1) = 0,  beta = 0,

on which Phi itself collapses, so every raw quantity carries extra powers of
eps: sup|Phi|^2 = 2 eps - 4 eps^2, ||nabla_T Phi||^2 = 4 eps^5 (1 - 2 eps),
||nabla_Xi Phi||^2 = 0 and the limit residual is eps * sqrt(2).  The
sub-criteria therefore state their laws as limits of the sweep, normalised
by the size of Phi:

  7a  the energy-balance identity holds on every converged state;
  7b  the bounds the identity gives, ||nabla_T Phi||^2 <= vol eps^4 sup|Phi|^2
      and ||nabla_Xi Phi||^2 <= vol eps^2 sup|Phi|^2, hold on every record,
      and the ratios to sup|Phi|^2 decay with slopes 4 and 2 (Xi only where
      it is not identically zero);
  7c  sup|Phi|^2 <= max(2 eps (1 - 2 eps), 0), the law of every invariant
      solution (derivation in check_sup_bound);
  7d  the residual of the rescaled candidate Phi/sqrt2 in the contact system
      decreases along the ladder prefixes like the final eps.

The abstract in PAPER.md does not fix the normalisation of the paper's
eps-family; these windows hold for the equations as solver.py states them.
"""

import json
import math
import time
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from contactmono.algebra import catalog_model, exterior_d, gen_model, theta, theta1, theta1bar, wedge
from contactmono.cli import parse_config, run
from contactmono.clifford import (
    clifford_axiom_check,
    gamma_can,
    gamma_from_wedge_interior,
    mat2,
    rho_eps,
)
from contactmono.exact import EC_I, ExactComplex
from contactmono.fields import (
    GaugeField,
    HeisGridBackend,
    InvariantBackend,
    SpinorField,
    dirac_eps,
    DIR_T,
    DIR_Z1,
    DIR_Z1BAR,
)
from contactmono.pseudohermitian import (
    compare_scalar_curvature,
    derive_ph_invariants,
)
from contactmono.solver import (
    HeisenbergFamily,
    MonopoleState,
    SolveOpts,
    loglog_slope,
    random_monopole_state,
    solve,
    sweep,
    vanishing_certificate,
)
from grid_states import constant_gauge, theta_state, trig_spinor
from references import adjoint_check, gen_closed_forms, weitzenbock_energy, zero_gauge

HEIS = catalog_model("heisenberg")
S3 = catalog_model("round-s3")
PH_HEIS = derive_ph_invariants(HEIS)
PH_S3 = derive_ph_invariants(S3)

EPS_SWEEP = [2.0**-k for k in range(1, 7)]


def _line(tag, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {tag}: {status}{(' :: ' + detail) if detail else ''}")
    return ok


# -- 1 -----------------------------------------------------------------------


def test_criterion_1_structural_suite():
    # budgets 1-3 are CPU time: time spent descheduled on a busy host does not count
    t0 = time.process_time()
    rng = np.random.default_rng(20240817)
    models = [HEIS, S3, catalog_model("torsion")]
    params = [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(1)), (Fraction(1), Fraction(-1))]
    while len(models) < 103:
        p = Fraction(int(rng.integers(-20, 21)), int(rng.integers(1, 11)))
        q = Fraction(int(rng.integers(-20, 21)), int(rng.integers(1, 11)))
        models.append(gen_model(p, q))
        params.append((p, q))
    ok = True
    for m, (p, q) in zip(models, params):
        ph = derive_ph_invariants(m)
        omega, torsion, w = gen_closed_forms(p, q)
        ok &= ph.omega == omega and ph.torsion == torsion and ph.tw_curv == w
        # defining equation round-trip, exactly
        lhs = exterior_d(theta1(), m)
        rhs = wedge(theta1(), EC_I * ph.omega) + ph.torsion * wedge(theta(), theta1bar())
        ok &= lhs == rhs
        # curvature extraction: d(omega)(e1, e2) = -2 W exactly
        ok &= exterior_d(ph.omega, m).coeff(1, 2) == ExactComplex(-2) * ph.tw_curv
    dt = time.process_time() - t0
    assert _line("1 structural suite (exact, 103 models)", ok, f"{dt:.2f}s")
    assert dt < 1.0


# -- 2 -----------------------------------------------------------------------


def test_criterion_2_clifford_dirac_suite():
    t0 = time.process_time()
    ok = not clifford_axiom_check(gamma_can()).failures
    ok &= gamma_from_wedge_interior().mats == gamma_can().mats
    g = gamma_can()
    ok &= g.mats["e1"] == mat2(0, -1, 1, 0)
    ok &= g.mats["e2"] == mat2(0, EC_I, EC_I, 0)
    for e in (Fraction(1), Fraction(1, 2), Fraction(1, 4)):
        r = rho_eps(e)
        ok &= not clifford_axiom_check(r).failures
        ok &= r.mats["e0"] == mat2(-EC_I, 0, 0, EC_I)
        ok &= r.mats["e1"] == mat2(0, 1, -1, 0)
        ok &= r.mats["e2"] == mat2(0, -EC_I, -EC_I, 0)
    # eigen-identity of the canonical section, exactly, torsion-free models
    for model, ph in ((HEIS, PH_HEIS), (S3, PH_S3)):
        b = InvariantBackend(model)
        phi0 = SpinorField(1 + 0j, 0j, b)
        for eps in (1.0, 0.5, 0.25):
            out = dirac_eps(phi0, zero_gauge(b), ph, eps)
            ok &= out.alpha == eps and out.beta1bar == 0
    dt = time.process_time() - t0
    assert _line("2 Clifford/Dirac suite (exact)", ok, f"{dt:.2f}s")
    assert dt < 1.0


# -- 3 -----------------------------------------------------------------------


def test_criterion_3_curvature_comparator():
    t0 = time.process_time()
    models = [gen_model(*pq) for pq in [(0, 0), (1, 1), (1, -1), (2, 3), (-1, 2), (Fraction(1, 2), Fraction(1, 3))]]
    eps_set = [Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)]
    samples = [(m, e) for m in models for e in eps_set]
    ok = True
    for m, e in samples:
        ph = derive_ph_invariants(m)
        cmp = compare_scalar_curvature(m, ph, e)
        # the oracle is R = 4W - 2 eps^2 - 2 eps^{-2}|A|^2 exactly: the leading
        # Webster term as in the closed form, both lower-order terms doubled
        a_sq = ph.torsion.abs_sq()
        ok &= cmp.oracle == (
            ExactComplex(4) * ph.tw_curv
            - ExactComplex(2 * e * e)
            - ExactComplex(Fraction(2) / (e * e)) * a_sq
        )
        # reported gap: closed form minus oracle is eps^2 + eps^{-2}|A|^2
        expected_gap = ExactComplex(e * e) + ExactComplex(Fraction(1) / (e * e)) * a_sq
        ok &= cmp.gap == expected_gap
    dt = time.process_time() - t0
    assert _line(
        "3 curvature comparator",
        ok,
        f"R = 4W - 2eps^2 - 2eps^-2|A|^2 on all {len(samples)} samples; {dt:.2f}s",
    )
    assert dt < 1.0


# -- 4 -----------------------------------------------------------------------


def test_criterion_4_weitzenbock_invariant_exact():
    ok = True
    basis = [(1, 0), (0, 1), (1, 1), (1, 1j), (0.5, -0.25j)]
    gauges = [(0.0, 0.0, 0.0), (0.5, 0.0, 0.0), (0.25, 0.5, -0.75)]
    for model, ph in ((S3, PH_S3), (HEIS, PH_HEIS)):
        b = InvariantBackend(model)
        for alpha, beta in basis:
            for a0, a1, a2 in gauges:
                s = MonopoleState(
                    a=GaugeField(a0, a1, a2, b),
                    phi=SpinorField(complex(alpha), complex(beta), b),
                    model=model,
                )
                rep = weitzenbock_energy(s, ph)
                ok &= rep.gap == 0.0  # dyadic data: identity holds exactly
    assert _line("4a Weitzenbock identity, invariant backend (exact)", ok)


def test_criterion_4_weitzenbock_grid():
    t0 = time.perf_counter()
    b = HeisGridBackend(HEIS, 32)
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(20):
        s = MonopoleState(
            a=constant_gauge(b, rng), phi=trig_spinor(b, rng), model=HEIS
        )
        rep = weitzenbock_energy(s, PH_HEIS)
        rel = rep.gap / (1 + abs(rep.dirac_sq))
        worst = max(worst, rel)
    ok = worst <= 1e-5
    dt = time.perf_counter() - t0
    assert _line(
        "4b Weitzenbock identity, heis-grid N=32 (20 seeded states)",
        ok,
        f"worst relative gap {worst:.2e}; {dt:.1f}s",
    )
    assert dt < 30.0


# -- 5 -----------------------------------------------------------------------


def test_criterion_5_vanishing_certificate():
    t0 = time.perf_counter()
    b = InvariantBackend(S3)
    ok = True
    for seed in range(20):
        init = random_monopole_state(S3, b, seed=1000 + seed)
        state, info = solve(
            S3, None, init, SolveOpts(seed=seed, constraint=True), ph=PH_S3
        )
        sup_phi = math.sqrt(
            abs(state.phi.alpha) ** 2 + abs(state.phi.beta1bar) ** 2
        )
        ok &= info.converged and sup_phi <= 1e-8
        ok &= abs(float(np.real(state.a.a0)) - 1.0) <= 1e-8
        v = vanishing_certificate(state, info.report, PH_S3)
        ok &= v.verdict == "consistent-with-vanishing"
    dt = time.perf_counter() - t0
    assert _line("5 vanishing certificate (20 constrained runs)", ok, f"{dt:.1f}s")
    assert dt < 10.0


# -- 6 -----------------------------------------------------------------------


def test_criterion_6_heisenberg_family():
    t0 = time.perf_counter()
    fam = HeisenbergFamily(HEIS)
    b = InvariantBackend(HEIS)
    ok = True
    nontrivial = 0
    for seed in range(20):
        init = random_monopole_state(HEIS, b, seed=2000 + seed)
        state, info = solve(HEIS, None, init, SolveOpts(seed=seed), ph=PH_HEIS)
        ok &= info.converged
        ok &= fam.membership(state).member
        if abs(state.phi.alpha) > 1e-3:
            nontrivial += 1
    ok &= nontrivial >= 5
    dt = time.perf_counter() - t0
    assert _line(
        "6 Heisenberg solution family (20 seeds)",
        ok,
        f"{nontrivial}/20 nontrivial; {dt:.1f}s",
    )
    assert dt < 5.0


# -- 7 -----------------------------------------------------------------------


@pytest.fixture(scope="module")
def sweep_records():
    return sweep(HEIS, EPS_SWEEP, seed=0, backend=InvariantBackend(HEIS), ph=PH_HEIS)


def test_criterion_7a_sweep_energy_identity(sweep_records):
    recs = sweep_records
    ok = all(r.converged for r in recs)
    worst = max(r.identity_gap for r in recs)
    ok &= worst <= 1e-9
    assert _line(
        "7a adiabatic sweep: energy-balance identity on converged states",
        ok,
        f"worst gap {worst:.2e}",
    )


# Bounds that the energy-balance identity puts on any eps-family solution:
#   eps^2 ||alpha||^2 = ||nabla_T Phi||^2 / eps^2 + ||nabla_Xi Phi||^2 + 2 cross
# with every term >= 0 and ||alpha||^2 <= vol * sup|Phi|^2, so
#   ||nabla_T Phi||^2 <= vol eps^4 sup|Phi|^2,  ||nabla_Xi Phi||^2 <= vol eps^2 sup|Phi|^2,
# each up to the record's own identity gap (times eps^2 for T).
SWEEP_VOLUME = InvariantBackend(HEIS).volume
BOUND_SLACK = 1e-9  # relative
PHI_FLOOR = 1e-12  # sup|Phi|^2 and rate ratios at or below it are numerical zeros


def _fmt(x):
    return "None" if x is None else f"{x:.3f}"


def check_decay_rates(recs):
    """7b on a record list: the identity's bounds, then the normalised slopes.

    Returns (ok, detail).  The rates are those of the derivatives relative to
    the size of Phi: ||nabla_T Phi||^2 / sup|Phi|^2 ~ eps^4 and
    ||nabla_Xi Phi||^2 / sup|Phi|^2 ~ eps^2.
    """
    ok = True
    for r in recs:
        alpha_bound = SWEEP_VOLUME * r.sup_phi_sq * (1 + BOUND_SLACK)
        ok &= r.norm_T_deriv_sq <= r.eps**4 * alpha_bound + r.eps**2 * r.identity_gap
        ok &= r.norm_Xi_deriv_sq <= r.eps**2 * alpha_bound + r.identity_gap
    live = [r for r in recs if r.sup_phi_sq > PHI_FLOOR]
    eps = [r.eps for r in live]
    t_ratio = [r.norm_T_deriv_sq / r.sup_phi_sq for r in live]
    xi_ratio = [r.norm_Xi_deriv_sq / r.sup_phi_sq for r in live]
    slope_t = loglog_slope(eps, t_ratio, floor=PHI_FLOOR)
    ok &= slope_t is not None and abs(slope_t - 4.0) <= 0.5
    # Xi vanishes identically on the invariant branch: there is no rate to fit
    slope_xi = loglog_slope(eps, xi_ratio, floor=PHI_FLOOR)
    ok &= slope_xi is None or abs(slope_xi - 2.0) <= 0.5
    if slope_xi is None:
        xi_detail = f"Xi ratio <= {max(xi_ratio, default=0.0):.1e}: vanishes on this branch, no slope"
    else:
        xi_detail = f"Xi ratio slope {_fmt(slope_xi)} (window 2.0±0.5)"
    worst_t = max(
        (r.norm_T_deriv_sq / (SWEEP_VOLUME * r.eps**4 * r.sup_phi_sq) for r in live),
        default=0.0,
    )
    detail = (
        f"T ratio slope {_fmt(slope_t)} (window 4.0±0.5), "
        f"max T / bound {worst_t:.10f}; {xi_detail}"
    )
    return ok, detail


def check_sup_bound(recs):
    """7c on a record list: sup|Phi|^2 <= max(2 eps (1 - 2 eps), 0) + 1e-9.

    Invariant sector of the Heisenberg model (W = 0), where the sweep runs.
    With the background term (i/2) eps dtheta the curvature lines read
    F12 = eps + 2 a0 = (|alpha|^2 - |beta|^2)/2 and (F01 + i F02)/eps =
    conj(alpha) beta, and F01 = F02 = 0 on invariant states, so
    conj(alpha) beta = 0.  With alpha = 0 the Dirac equations force a0 = 0,
    and F12 = eps > 0 contradicts -|beta|^2/2 <= 0.  With beta = 0 they force
    a0 = -eps^2 and a(Z1) = 0, so |alpha|^2 = 2 eps (1 - 2 eps).  Every
    invariant solution therefore has Phi = 0 or sup|Phi|^2 = 2 eps (1 - 2 eps).
    The C^0 constant for non-invariant (grid) states is not settled here.
    """
    law = {r.eps: max(2 * r.eps * (1 - 2 * r.eps), 0.0) for r in recs}
    viol = [r for r in recs if r.sup_phi_sq > law[r.eps] + 1e-9]
    if not viol:
        return True, "sup|Phi|^2 <= max(2 eps (1 - 2 eps), 0) on every record"
    r = viol[0]
    return False, (
        f"violated at {len(viol)} eps values, "
        f"e.g. eps={r.eps}: {r.sup_phi_sq:.4f} > {law[r.eps]:.4f}"
    )


def _without_limit(r):
    d = r.as_dict()
    del d["residual_limit"], d["constraint_limit"]
    return d


def check_limit_residual(prefixes, full):
    """7d on the sweeps of the ladder prefixes: the limit residual -> 0 like eps.

    Each prefix must reproduce the full sweep's records; the rescaled
    candidate's residual must strictly decrease along the prefixes, with
    log-log slope 1.0 ± 0.25 against the final eps.
    """
    ok = all(
        [_without_limit(r) for r in p] == [_without_limit(r) for r in full[: len(p)]]
        for p in prefixes
    )
    final_eps = [p[-1].eps for p in prefixes]
    res = [p[-1].residual_limit for p in prefixes]
    ok &= None not in res and all(b < a for a, b in zip(res, res[1:]))
    slope = None if None in res else loglog_slope(final_eps, res)
    ok &= slope is not None and abs(slope - 1.0) <= 0.25
    detail = (
        f"residual {', '.join(f'{x:.3e}' for x in res if x is not None)} "
        f"at final eps {final_eps}; slope {_fmt(slope)} (window 1.0±0.25)"
    )
    return ok, detail


def test_criterion_7b_sweep_slopes(sweep_records):
    ok, detail = check_decay_rates(sweep_records)
    assert _line("7b adiabatic sweep: decay slopes", ok, detail)


def test_criterion_7c_sweep_sup_bound(sweep_records):
    ok, detail = check_sup_bound(sweep_records)
    assert _line("7c adiabatic sweep: sup bound with W = 0", ok, detail)


def test_criterion_7d_sweep_limit_residual(sweep_records):
    # prefixes of the ladder ending at 2^-2 .. 2^-6; the last is the full sweep
    prefixes = [
        sweep(HEIS, EPS_SWEEP[:k], seed=0, backend=InvariantBackend(HEIS), ph=PH_HEIS)
        for k in range(2, len(EPS_SWEEP))
    ] + [sweep_records]
    ok, detail = check_limit_residual(prefixes, sweep_records)
    assert _line("7d adiabatic sweep: rescaled limit-candidate residual", ok, detail)


def test_criterion_7_checks_reject_broken_laws(sweep_records):
    # each check turns red on a record list that breaks its law
    recs = sweep_records
    i = 2  # eps = 1/8, on the nontrivial branch
    faster = list(recs)
    faster[i] = replace(recs[i], norm_T_deriv_sq=4 * recs[i].eps**3 * recs[i].sup_phi_sq)
    assert not check_decay_rates(faster)[0]
    larger = list(recs)
    larger[i] = replace(recs[i], sup_phi_sq=3 * recs[i].eps)
    assert not check_sup_bound(larger)[0]
    flat = [list(recs[:k]) for k in range(2, len(recs) + 1)]
    for p in flat:
        p[-1] = replace(p[-1], residual_limit=recs[-1].residual_limit)
    assert not check_limit_residual(flat, recs)[0]


# -- 8 -----------------------------------------------------------------------


def test_criterion_8_backend_quality():
    t0 = time.perf_counter()
    sizes = (16, 32, 64)
    defects = []
    adj_worst = 0.0
    for n in sizes:
        b = HeisGridBackend(HEIS, n)
        f = theta_state(b, m=1, sigma=0.14)
        br = b.apply(1, b.apply(2, f)) - b.apply(2, b.apply(1, f)) + 2 * b.apply(0, f)
        defects.append(float(np.max(np.abs(br))))
        rng = np.random.default_rng(n)
        u = trig_spinor(b, rng, kmax=1)
        v = trig_spinor(b, rng, kmax=1)
        a = constant_gauge(b, rng)
        for direction in (DIR_T, DIR_Z1, DIR_Z1BAR):
            rep = adjoint_check(u, v, direction, a, PH_HEIS)
            adj_worst = max(adj_worst, rep.gap / (1 + abs(rep.lhs)))
    orders = [math.log2(defects[i] / defects[i + 1]) for i in range(2)]
    ok = all(o >= 1.9 for o in orders)
    ok &= adj_worst <= 1e-12  # adjointness is exact by summation by parts
    dt = time.perf_counter() - t0
    assert _line(
        "8 backend quality (N in {16,32,64})",
        ok,
        f"bracket orders {[round(o, 2) for o in orders]}, adjointness worst {adj_worst:.1e}; {dt:.1f}s",
    )
    assert dt < 60.0


# -- 9 -----------------------------------------------------------------------


def test_criterion_9_determinism():
    doc = {
        "command": "sweep",
        "model": "heisenberg",
        "eps_list": ["1/2", "1/4", "1/8", "1/16"],
        "seed": 12,
    }
    _, rep1 = run(parse_config(dict(doc)))
    _, rep2 = run(parse_config(dict(doc)))
    text1 = json.dumps(rep1, sort_keys=True, indent=2)
    text2 = json.dumps(rep2, sort_keys=True, indent=2)
    ok = text1 == text2
    doc2 = {"command": "solve", "model": "round-s3", "seeds": 4, "seed": 3, "constraint": True}
    _, rep3 = run(parse_config(dict(doc2)))
    _, rep4 = run(parse_config(dict(doc2)))
    ok &= json.dumps(rep3, sort_keys=True) == json.dumps(rep4, sort_keys=True)
    assert _line("9 determinism (byte-identical reports)", ok)
