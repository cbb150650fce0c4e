"""Reference checks and closed forms that the tests compare the program against.

None of these runs in the program: each is an independent route to a value
the program computes (the gen(p, q) invariants, the Hodge inner product,
the Clifford action of a form, the half-trace curvature) or a check of the
grid discretisation (divergence, adjointness, the anticommutator identity).
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

import numpy as np

from contactmono.algebra import InvariantForm, ModelStructure, exterior_d, hodge_star_eps, wedge
from contactmono.clifford import MAT_ID, MAT_ZERO, CliffordRep, ConnCoeffs, Mat2, mat_add, mat_mul, mat_scale
from contactmono.errors import DegreeError
from contactmono.exact import EC_I, ExactComplex
from contactmono.fields import (
    DIR_T,
    DIR_Z1,
    DIR_Z1BAR,
    Backend,
    GaugeField,
    SpinorField,
    b_curvature_components,
    cov_deriv,
    l2_inner,
)
from contactmono.pseudohermitian import PhInvariants


# --- exact invariants and forms ----------------------------------------------------


def gen_closed_forms(p, q) -> Tuple[InvariantForm, ExactComplex, ExactComplex]:
    """Closed forms for gen(p,q): omega = -(p+q) theta, A = i(q-p), W = p+q."""
    p, q = Fraction(p), Fraction(q)
    omega = InvariantForm(1, {(0,): ExactComplex(-(p + q))})
    return omega, ExactComplex(0, q - p), ExactComplex(p + q)


def form_inner_eps(a: InvariantForm, b: InvariantForm, eps: Fraction) -> ExactComplex:
    """<a, b>_eps via a ^ star(conj b) against the volume form."""
    if a.degree != b.degree:
        raise DegreeError("inner product of mixed degrees")
    vol_coeff = ExactComplex(Fraction(eps))  # vol = eps * e0^e1^e2
    top = wedge(a, hodge_star_eps(b.conjugate(), eps))
    return top.coeff(0, 1, 2) / vol_coeff


# --- Clifford action and half-trace curvature ---------------------------------------


def mat_apply(x: Mat2, v):
    return (
        x[0][0] * v[0] + x[0][1] * v[1],
        x[1][0] * v[0] + x[1][1] * v[1],
    )


def of_form(rep: CliffordRep, a: InvariantForm) -> Mat2:
    """Clifford action of an invariant form (degree 0..3).

    For rho-eps the stored matrix belongs to the unit covector eps*e0,
    so a bare e0 factor picks up eps^{-1}.
    """
    out = MAT_ZERO
    for key, coeff in a.coeffs.items():
        m = MAT_ID
        for idx in key:
            label = f"e{idx}"
            if label not in rep.mats:
                raise KeyError(f"{rep.kind} has no generator {label}")
            m = mat_mul(m, rep.mats[label])
        scale = coeff
        if rep.kind == "rho-eps" and 0 in key:
            scale = scale * ExactComplex(Fraction(1) / rep.eps)
        out = mat_add(out, mat_scale(scale, m))
    return out


@dataclass(frozen=True)
class CurvatureTrace:
    F_b: InvariantForm  # d(trace_half), a 2-form
    F12: ExactComplex  # real: F_b = i(F12 e1^e2 + F01 e0^e1 + F02 e0^e2)
    F0: ExactComplex  # F01 + i F02
    pi_xi_trace: ExactComplex  # F_b(e_1, e_2), imaginary


def curvature_trace(cc: ConnCoeffs, m: ModelStructure) -> CurvatureTrace:
    """Half-trace curvature F_b = d(b) and its frame components."""
    f_b = exterior_d(cc.trace_half, m)
    minus_i = -EC_I
    f12 = minus_i * f_b.coeff(1, 2)
    f01 = minus_i * f_b.coeff(0, 1)
    f02 = minus_i * f_b.coeff(0, 2)
    return CurvatureTrace(
        F_b=f_b,
        F12=f12,
        F0=f01 + EC_I * f02,
        pi_xi_trace=f_b.coeff(1, 2),
    )


# --- field-level checks of the discretisation ----------------------------------------


def zero_gauge(backend: Backend) -> GaugeField:
    return GaugeField(*(np.zeros(backend.shape)[()] for _ in range(3)), backend)


def divergence_check(v_idx: int, backend: Backend) -> float:
    """max over grid points j of |integral of e_v(delta_j)|, delta_j the
    indicator of point j.

    These are the column sums of stencil v (V^T 1) times volume / n_points,
    the discrete -div(e_v).  They all vanish exactly when the integral of
    e_v(f) vanishes for every field f.  Central differences over the
    index-permutation wraps give 0; so does the invariant backend, which has
    no frame derivatives.
    """
    n = backend.n_points
    sums = np.zeros(n, dtype=complex)
    for idx, coef in backend.stencils[v_idx].entries():
        np.add.at(sums, np.arange(n) if idx is None else idx, np.broadcast_to(coef, n))
    return float(np.max(np.abs(sums))) * backend.volume / n


@dataclass(frozen=True)
class AdjointReport:
    lhs: complex
    rhs: complex

    @property
    def gap(self) -> float:
        return abs(self.lhs - self.rhs)


def adjoint_check(
    f: SpinorField,
    g: SpinorField,
    direction: int,
    a: GaugeField,
    ph: PhInvariants,
) -> AdjointReport:
    """<nabla_v f, g> against <f, -nabla_vbar g>; div(v) = 0 on these backends.

    The formal adjoint of nabla_v is -nabla_{conj(v)}: T is real while
    Z1* = -Z1bar.  l2_inner rejects f and g on different backends.
    """
    conj_dir = {DIR_T: DIR_T, DIR_Z1: DIR_Z1BAR, DIR_Z1BAR: DIR_Z1}[direction]
    lhs = l2_inner(cov_deriv(f, direction, a, ph), g)
    rhs = -l2_inner(f, cov_deriv(g, conj_dir, a, ph))
    return AdjointReport(lhs=lhs, rhs=rhs)


def anticommutator_pair(
    f: SpinorField, a: GaugeField, ph: PhInvariants, m: ModelStructure, eps
):
    """{nabla_T-block, nabla_Xi-block} applied to f, twice.

    Returns (direct, closed): direct composes covariant derivatives; closed
    evaluates the displayed endomorphism built from the torsion and the
    half-trace curvature component F0 = F01 + i F02.  The two agree for
    vanishing torsion (exactly modulo discretization).
    """

    def nabla_T(s: SpinorField) -> SpinorField:
        d = cov_deriv(s, DIR_T, a, ph)
        return SpinorField(-1j * d.alpha, 1j * d.beta1bar, s.backend)

    def nabla_Xi(s: SpinorField) -> SpinorField:
        dz1 = cov_deriv(s, DIR_Z1, a, ph)
        dz1b = cov_deriv(s, DIR_Z1BAR, a, ph)
        return SpinorField(2 * dz1.beta1bar, -2 * dz1b.alpha, s.backend)

    t_xi, xi_t = nabla_T(nabla_Xi(f)), nabla_Xi(nabla_T(f))
    direct_f = SpinorField(t_xi.alpha + xi_t.alpha, t_xi.beta1bar + xi_t.beta1bar, f.backend)

    f12, f01, f02 = b_curvature_components(a, ph, m, eps)
    f0 = f01 + 1j * f02
    a11 = ph.a11.to_complex()
    a1b1b = ph.torsion.to_complex()
    # the covariant derivative of the constant torsion vanishes on these
    # homogeneous models, so only the displayed terms below survive
    d_beta_1b = cov_deriv(f, DIR_Z1BAR, a, ph).beta1bar
    d_alpha_1 = cov_deriv(f, DIR_Z1, a, ph).alpha
    row0 = (
        2j * a11 * d_beta_1b
        + np.conj(f0) * f.beta1bar
        - 2 * a11 * a.aZ1bar() * f.beta1bar
    )
    row1 = 2j * a1b1b * d_alpha_1 + f0 * f.alpha - 2 * a1b1b * a.aZ1() * f.alpha
    closed_f = SpinorField(row0, row1, f.backend)
    return direct_f, closed_f
