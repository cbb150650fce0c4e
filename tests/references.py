"""Reference checks and closed forms that the tests compare the program against.

None of these runs in the program: each is an independent route to a value
the program computes (the gen(p, q) invariants, the Hodge inner product,
the Clifford action of a form, the half-trace curvature), a check of the
grid discretisation (divergence, adjointness, the anticommutator identity,
the z-only Fourier blocks that the program's (kz, kx) blocks are checked
against) or the five terms of the Weitzenbock identity that the
certificate's energy rests on.
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
    _check_same_backend,
    _conj,
    b_curvature_components,
    cov_deriv,
    dirac_xi,
    gauge_curvature_components,
    scalar_l2_norm_sq,
)
from contactmono.pseudohermitian import PhInvariants
from contactmono.solver import MonopoleState


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


def half_trace(cc: ConnCoeffs) -> InvariantForm:
    """b = (1/2) tr(base + i a I), read off the full connection matrix."""
    full = cc.full()
    return ExactComplex(Fraction(1, 2)) * (full[0][0] + full[1][1])


@dataclass(frozen=True)
class CurvatureTrace:
    F_b: InvariantForm  # d(b) for b the half trace, a 2-form
    F12: ExactComplex  # real: F_b = i(F12 e1^e2 + F01 e0^e1 + F02 e0^e2)
    F0: ExactComplex  # F01 + i F02
    pi_xi_trace: ExactComplex  # F_b(e_1, e_2), imaginary


def curvature_trace(cc: ConnCoeffs, m: ModelStructure) -> CurvatureTrace:
    """Half-trace curvature F_b = d(b) and its frame components."""
    f_b = exterior_d(half_trace(cc), m)
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


def l2_inner(f: SpinorField, g: SpinorField) -> complex:
    """Hermitian L^2 pairing with volume density 2 on the fundamental domain."""
    _check_same_backend(f, g)
    integrand = f.alpha * _conj(g.alpha) + f.beta1bar * _conj(g.beta1bar)
    return f.backend.integrate(integrand)


def l2_norm_sq(f: SpinorField) -> float:
    return l2_inner(f, f).real


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


# --- z-Fourier blocks of grid operators ----------------------------------------------

# z wraps without a twist and the y-seam shifts z by 2x, so every frame
# stencil commutes with z-translations: a real DFT in z alone splits an
# operator built from them into N/2+1 independent (x, y) blocks of N^2
# unknowns, one per kz.  The program works in HeisGridBackend.xz_fourier,
# which also takes the DFT over x; these are its independent reference.


def z_fourier(b, u):
    """The z-Fourier blocks of the real field u on grid b: row kz of the
    (N/2+1, N^2) result is its rfft over z at kz, in (x, y) order."""
    n = b.n
    return np.fft.rfft(np.reshape(u, b.shape), axis=2).reshape(n * n, -1).T


def z_fourier_inverse(b, blocks):
    """The flat real field whose z_fourier is blocks."""
    n = b.n
    return np.fft.irfft(blocks.T.reshape(n, n, -1), n=n, axis=2).ravel()


def z_blocks(b, op):
    """The z-Fourier blocks of a sparse N^3 operator on grid b that commutes
    with z-translations, as one block-diagonal CSC matrix acting on
    z_fourier(b, u).ravel(): block kz has the entries
    sum_z' op[(x, y, 0), (x', y', z')] exp(2 pi i kz z' / N)."""
    import scipy.sparse as sp

    n, m = b.n, b.n**2
    top = op.tocsr()[::n].tocoo()  # the rows at z = 0
    col, z = np.divmod(top.col, n)
    kz = np.arange(n // 2 + 1)[:, None]
    vals = np.exp(2j * np.pi * (kz * z % n) / n) * top.data
    rows, cols = kz * m + top.row, kz * m + col
    return sp.csc_matrix(
        (vals.ravel(), (rows.ravel(), cols.ravel())), shape=(len(kz) * m,) * 2
    )


# --- the Weitzenbock identity --------------------------------------------------------


@dataclass(frozen=True)
class WeitzenbockReport:
    grad_sq: float  # sum_j ||nabla_{e_j} Phi||^2
    webster_term: float  # 2 int W |beta|^2
    gauge_term: float  # int da(e1,e2) (|alpha|^2 - |beta|^2)
    reeb_term: float  # 2i int (alpha^a_{,0} conj(alpha) - beta^a_{1b,0} beta_1)
    dirac_sq: float  # ||D_xi Phi||^2, computed independently

    @property
    def rhs(self):
        return self.grad_sq + self.webster_term + self.gauge_term + self.reeb_term

    @property
    def gap(self):
        return abs(self.dirac_sq - self.rhs)


def weitzenbock_energy(s: MonopoleState, ph: PhInvariants) -> WeitzenbockReport:
    """The four energy summands against an independent Dirac norm.

    grad_sq sums in the order of the certificate's gradient energy
    (solver._energy), so the two agree bit for bit.
    """
    a, phi, b = s.a, s.phi, s.backend
    d_z1 = cov_deriv(phi, DIR_Z1, a, ph)
    d_z1b = cov_deriv(phi, DIR_Z1BAR, a, ph)
    # real frame directions: e1 = Z1 + Z1bar, e2 = i(Z1 - Z1bar)
    grad_sq = 0.0
    for comp in ("alpha", "beta1bar"):
        u, v = getattr(d_z1, comp), getattr(d_z1b, comp)
        grad_sq += scalar_l2_norm_sq(b, u + v)
        grad_sq += scalar_l2_norm_sq(b, 1j * (u - v))
    w = ph.webster_float()
    abs_b_sq = phi.beta1bar * np.conj(phi.beta1bar)
    webster_term = 2 * w * float(np.real(b.integrate(abs_b_sq)))
    _, _, da12 = gauge_curvature_components(a, s.model)
    dens = phi.alpha * np.conj(phi.alpha) - abs_b_sq
    gauge_term = float(np.real(b.integrate(da12 * dens)))
    d_t = cov_deriv(phi, DIR_T, a, ph)
    reeb_integrand = d_t.alpha * np.conj(phi.alpha) - d_t.beta1bar * np.conj(
        phi.beta1bar
    )
    reeb_term = float(np.real(2j * b.integrate(reeb_integrand)))
    dirac_sq = l2_norm_sq(dirac_xi(phi, a, ph))
    return WeitzenbockReport(
        grad_sq=grad_sq,
        webster_term=webster_term,
        gauge_term=gauge_term,
        reeb_term=reeb_term,
        dirac_sq=dirac_sq,
    )
