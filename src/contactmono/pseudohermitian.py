"""Pseudohermitian invariants and adapted-metric Riemannian data.

From a validated model this derives the connection 1-form omega (with
omega_1^1 = i*omega real-normalized), the constant torsion A^1_{1bar},
and the Webster scalar curvature W, all exactly.  The Riemannian side
solves the first structural equations in the eps-orthonormal coframe
(eps*e0, e1, e2) and computes scalar curvature from the curvature
2-forms; that route is kept independent of the closed-form relation
R = 4W - eps^2 - eps^{-2}|A|^2, which is treated as a comparator only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Dict, Tuple

from .algebra import (
    PAIRS,
    InvariantForm,
    ModelStructure,
    Z1,
    Z1BAR,
    T_VEC,
    exterior_d,
    theta,
    theta1,
    theta1bar,
    wedge,
)
from .errors import SolveError
from .exact import EC_I, EC_ONE, EC_ZERO, ExactComplex

_HALF = Fraction(1, 2)


@dataclass(frozen=True)
class PhInvariants:
    """omega real 1-form, torsion A^1_{1bar} (constant), Webster curvature W.

    omega, W and d(omega) are lowered to floats once, when the invariants are
    built; the float accessors below read those values.
    """

    omega: InvariantForm
    torsion: ExactComplex  # A^1_{1bar} = A_{1bar 1bar}
    tw_curv: ExactComplex  # W, real
    domega: InvariantForm  # d(omega)
    _omega_float: Tuple = field(init=False, repr=False, compare=False)
    _webster_float: float = field(init=False, repr=False, compare=False)
    _domega_float: Dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        omega = tuple(float(self.omega.coeff(i).to_complex().real) for i in range(3))
        domega = {(j, k): self.domega.coeff(j, k).to_complex().real for (j, k) in PAIRS}
        object.__setattr__(self, "_omega_float", omega)
        object.__setattr__(self, "_webster_float", float(self.tw_curv.to_complex().real))
        object.__setattr__(self, "_domega_float", domega)

    def __hash__(self):
        return self._hash

    @cached_property
    def _hash(self) -> int:
        """The hash of the compared fields, computed once: the solver keys its
        equation systems by the invariants (fields.Backend.systems)."""
        return hash((self.omega, self.torsion, self.tw_curv, self.domega))

    @property
    def a11(self) -> ExactComplex:
        return self.torsion.conjugate()

    def omega_float(self) -> Tuple[float, float, float]:
        return self._omega_float

    def webster_float(self) -> float:
        return self._webster_float

    def domega_float(self, j: int, k: int) -> float:
        """d(omega)_jk for j < k."""
        return self._domega_float[(j, k)]


def _complex_2form_parts(f: InvariantForm):
    """Decompose a 2-form as q1 theta^theta1 + q2 theta^theta1bar + q3 theta1^theta1bar."""
    x = f.coeff(0, 1)
    y = f.coeff(0, 2)
    z = f.coeff(1, 2)
    half = ExactComplex(_HALF)
    q1 = (x - EC_I * y) * half
    q2 = (x + EC_I * y) * half
    q3 = EC_I * z * half
    return q1, q2, q3


def derive_ph_invariants(m: ModelStructure) -> PhInvariants:
    """Solve d(theta1) = theta1 ^ (i omega) + A theta ^ theta1bar exactly."""
    dtheta1 = exterior_d(theta1(), m)
    q1, q2, q3 = _complex_2form_parts(dtheta1)

    # theta1 ^ (i omega) = -i w0 theta^theta1 + i conj(w) theta1^theta1bar
    # with omega = w0 e0 + w1 e1 + w2 e2 and w = (w1 - i w2)/2.
    w0 = EC_I * q1
    if not w0.is_real():
        raise SolveError("inconsistent structural equation: omega_0 not real")
    w = (-EC_I * q3).conjugate()
    w1 = w + w.conjugate()
    w2 = EC_I * (w - w.conjugate())
    if not (w1.is_real() and w2.is_real()):
        raise SolveError("inconsistent structural equation: omega not real")
    omega = InvariantForm(1, {(0,): w0, (1,): w1, (2,): w2})
    torsion = q2

    # exact round-trip of the defining equation
    lhs = dtheta1
    rhs = wedge(theta1(), EC_I * omega) + torsion * wedge(theta(), theta1bar())
    if lhs != rhs:
        raise SolveError("round-trip of the structural equation failed")

    domega = exterior_d(omega, m)
    tw = -domega.coeff(1, 2) * ExactComplex(_HALF)
    if not tw.is_real():
        raise SolveError("Webster curvature came out non-real")

    # cross-check: theta1^theta1bar coefficient of d(i omega) equals W
    _, _, q3x = _complex_2form_parts(EC_I * domega)
    if q3x != tw:
        raise SolveError("curvature extraction routes disagree")
    return PhInvariants(omega=omega, torsion=torsion, tw_curv=tw, domega=domega)


@dataclass(frozen=True)
class RiemannData:
    """Connection forms of h_eps in the coframe (eps e0, e1, e2)."""

    conn: Dict[Tuple[int, int], InvariantForm]  # (lower j, upper i) for j < i
    eps: Fraction
    model: ModelStructure

    def form(self, j: int, i: int) -> InvariantForm:
        """omega_j^i with antisymmetry omega_j^i = -omega_i^j."""
        if j == i:
            return InvariantForm.zero(1)
        if j < i:
            return self.conn[(j, i)]
        return -self.conn[(i, j)]

    @cached_property
    def scalar(self) -> ExactComplex:
        """Scalar curvature via the second structural equation.

        Omega^i_j = d omega_j^i + omega_k^i ^ omega_j^k; sectional curvature
        K_ij = Omega^i_j(f_i, f_j) with Omega^i_j(X,Y) = <R(X,Y) f_j, f^i>,
        and R = 2 * (K_01 + K_02 + K_12).  Computed at the first read.
        """
        f = _frame_vectors(self.eps)
        total = EC_ZERO
        for (i, j) in PAIRS:  # pairs (i < j); K(f_i, f_j) = Omega^i_j(f_i, f_j)
            curv = exterior_d(self.form(j, i), self.model)
            for k in range(3):
                curv = curv + wedge(self.form(k, i), self.form(j, k))
            total = total + curv.eval_vectors(f[i], f[j])
        return ExactComplex(2) * total


def _frame_vectors(eps: Fraction):
    inv = ExactComplex(Fraction(1, 1) / eps)
    return (
        (inv, EC_ZERO, EC_ZERO),  # f_0 = eps^{-1} e_0
        (EC_ZERO, EC_ONE, EC_ZERO),
        (EC_ZERO, EC_ZERO, EC_ONE),
    )


def _eps_coframe_constants(m: ModelStructure, eps: Fraction):
    """Structure constants in the orthonormal coframe f = (eps e0, e1, e2)."""
    scale_up = {0: ExactComplex(eps), 1: ExactComplex(1), 2: ExactComplex(1)}
    inv = {0: ExactComplex(1) / ExactComplex(eps), 1: ExactComplex(1), 2: ExactComplex(1)}
    c_hat: Dict[Tuple[int, Tuple[int, int]], ExactComplex] = {}
    for i in range(3):
        for (j, k) in PAIRS:
            c_hat[(i, (j, k))] = scale_up[i] * inv[j] * inv[k] * m.c[(i, (j, k))]
    return c_hat


def riemannian_connection(m: ModelStructure, eps) -> RiemannData:
    """Solve de^i = e^j ^ omega_j^i with omega_j^i + omega_i^j = 0 exactly."""
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    c_hat = _eps_coframe_constants(m, eps)

    def s(i, j, k):  # antisymmetric extension of c_hat^i_{jk}
        if j == k:
            return EC_ZERO
        return c_hat[(i, (j, k))] if j < k else -c_hat[(i, (k, j))]

    half = ExactComplex(_HALF)

    def gamma(i, j, k):  # coefficient of omega_j^i along f^k
        return half * (s(i, j, k) - s(j, i, k) + s(k, j, i))

    # express omega_j^i back in the e-coframe: f^0 = eps e0
    f_basis = {
        0: InvariantForm(1, {(0,): ExactComplex(eps)}),
        1: InvariantForm.basis(1),
        2: InvariantForm.basis(2),
    }
    conn: Dict[Tuple[int, int], InvariantForm] = {}
    for (j, i) in PAIRS:
        form = InvariantForm.zero(1)
        for k in range(3):
            form = form + gamma(i, j, k) * f_basis[k]
        conn[(j, i)] = form

    return RiemannData(conn=conn, eps=eps, model=m)


def scalar_curvature(m: ModelStructure, eps) -> ExactComplex:
    """Scalar curvature of h_eps, exact for rational inputs."""
    return riemannian_connection(m, eps).scalar


@dataclass(frozen=True)
class CurvatureComparison:
    closed_form: ExactComplex  # 4W - eps^2 - eps^{-2}|A|^2
    oracle: ExactComplex  # from the structural-equation route
    gap: ExactComplex  # closed_form - oracle
    riemann: RiemannData  # the metric connection the oracle was computed from


def compare_scalar_curvature(m: ModelStructure, ph: PhInvariants, eps) -> CurvatureComparison:
    """Report the closed-form relation against the independent curvature route.

    ph holds m's invariants.  Never asserts equality: on the gen family the
    oracle doubles both lower-order coefficients, R = 4W - 2 eps^2 - 2 eps^{-2}|A|^2.
    """
    eps = Fraction(eps)
    a_sq = ph.torsion.abs_sq()
    closed = (
        ExactComplex(4) * ph.tw_curv
        - ExactComplex(eps * eps)
        - ExactComplex(Fraction(1, 1) / (eps * eps)) * a_sq
    )
    rd = riemannian_connection(m, eps)
    return CurvatureComparison(
        closed_form=closed, oracle=rd.scalar, gap=closed - rd.scalar, riemann=rd
    )


@dataclass(frozen=True)
class BracketReport:
    horizontal_ok: bool  # [Z1bar, Z1] identity
    reeb_ok: bool


def _complex_bracket(m: ModelStructure, v, w):
    """Bracket of complex frame fields given as coefficient triples."""
    out = [ExactComplex(0)] * 3
    for j in range(3):
        for k in range(3):
            if v[j].is_zero() or w[k].is_zero():
                continue
            bjk = m.bracket(j, k)
            for i in range(3):
                out[i] = out[i] + v[j] * w[k] * bjk[i]
    return tuple(out)


def frame_bracket_check(m: ModelStructure, ph: PhInvariants) -> BracketReport:
    """Check the two commutation identities of the invariant frame with m's
    invariants ph.

    [Z1bar, Z1] = iT + omega_1^1(Z1bar) Z1 - omega_1bar^1bar(Z1) Z1bar
    [Z1bar, T]  = A^1_{1bar} Z1 - omega_1bar^1bar(T) Z1bar
    """
    om11 = EC_I * ph.omega  # omega_1^1
    om1b = -om11  # omega_1bar^1bar

    def add(u, v):
        return tuple(a + b for a, b in zip(u, v))

    def smul(s, v):
        return tuple(s * a for a in v)

    lhs_h = _complex_bracket(m, Z1BAR, Z1)
    rhs_h = add(
        add(smul(EC_I, T_VEC), smul(om11.eval_vectors(Z1BAR), Z1)),
        smul(-om1b.eval_vectors(Z1), Z1BAR),
    )
    gap_h = tuple(a - b for a, b in zip(lhs_h, rhs_h))

    lhs_r = _complex_bracket(m, Z1BAR, T_VEC)
    rhs_r = add(
        smul(ph.torsion, Z1), smul(-om1b.eval_vectors(T_VEC), Z1BAR)
    )
    gap_r = tuple(a - b for a, b in zip(lhs_r, rhs_r))

    return BracketReport(
        horizontal_ok=all(g.is_zero() for g in gap_h),
        reeb_ok=all(g.is_zero() for g in gap_r),
    )
