"""Canonical spin-c bundle, Clifford representations, and compatible connections.

The bundle is W = C + Lambda^{0,1} with ordered basis {Phi0 = (1,0),
Phi1 = theta1bar/sqrt2}.  Two representations act on it: gamma (built from
wedge/interior on the dual contact bundle) and rho (which also sees the
Reeb covector, with the eps-scaled e0 as unit generator).  Connections come
in two flavors; the levi-civita flavor carries the displayed coefficient
matrix verbatim, including its asymmetric off-diagonal torsion entries,
and a unitarity diagnostic instead of a silent correction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .algebra import (
    InvariantForm,
    ModelStructure,
    interior,
    theta,
    theta1,
    theta1bar,
    wedge,
)
from .errors import NotRealError
from .exact import EC_I, EC_INV_SQRT2, EC_ONE, EC_SQRT2, ExactComplex
from .pseudohermitian import PhInvariants

Mat2 = Tuple[Tuple[ExactComplex, ExactComplex], Tuple[ExactComplex, ExactComplex]]


def mat2(a, b, c, d) -> Mat2:
    e = ExactComplex.coerce
    return ((e(a), e(b)), (e(c), e(d)))


MAT_ZERO = mat2(0, 0, 0, 0)
MAT_ID = mat2(1, 0, 0, 1)


def mat_add(x: Mat2, y: Mat2) -> Mat2:
    """Entrywise sum; with mat_dagger it also serves FormMat entries."""
    return tuple(
        tuple(a + b for a, b in zip(rx, ry)) for rx, ry in zip(x, y)
    )


def mat_scale(s, x: Mat2) -> Mat2:
    s = ExactComplex.coerce(s)
    return tuple(tuple(s * a for a in r) for r in x)


def mat_mul(x: Mat2, y: Mat2) -> Mat2:
    return tuple(
        tuple(x[i][0] * y[0][j] + x[i][1] * y[1][j] for j in range(2)) for i in range(2)
    )


def mat_dagger(x: Mat2) -> Mat2:
    return tuple(
        tuple(x[j][i].conjugate() for j in range(2)) for i in range(2)
    )


def mat_is_zero(x: Mat2) -> bool:
    return all(a.is_zero() for r in x for a in r)


@dataclass(frozen=True)
class CliffordRep:
    """2x2 matrices of the generators in the basis {Phi0, Phi1}."""

    kind: str  # "gamma-can" | "rho-eps"
    mats: Dict[str, Mat2]
    eps: Optional[Fraction] = None

    def generators(self) -> List[str]:
        return list(self.mats)


def gamma_can() -> CliffordRep:
    """Contact Clifford action: Gamma(e1) = [[0,-1],[1,0]], Gamma(e2) = [[0,i],[i,0]]."""
    return CliffordRep(
        kind="gamma-can",
        mats={
            "e1": mat2(0, -1, 1, 0),
            "e2": mat2(0, EC_I, EC_I, 0),
        },
    )


def gamma_from_wedge_interior() -> CliffordRep:
    """Rebuild the gamma matrices from their defining wedge/interior action.

    Gamma(e1) tau = (1/sqrt2) theta1bar ^ tau - sqrt2 iota(e_1) tau and the
    analogous formula for e2 with an extra i on the wedge part, evaluated on
    the basis {Phi0 = 1, Phi1 = theta1bar/sqrt2}.
    """

    def act(j: int, spinor):
        # spinor = (scalar part, (0,1)-form part); theta1bar ^ form vanishes
        # identically because the (0,1) bundle is the line spanned by theta1bar
        s, form = spinor
        wedge_part = ExactComplex.coerce(s) * theta1bar()
        pref = EC_INV_SQRT2 if j == 1 else EC_INV_SQRT2 * EC_I
        new_form = pref * wedge_part
        contr = interior(j, form) if not form.is_zero() else InvariantForm.zero(0)
        new_scalar = -EC_SQRT2 * contr.coeff()
        return new_scalar, new_form

    phi0 = (EC_ONE, InvariantForm.zero(1))
    phi1 = (ExactComplex(0), EC_INV_SQRT2 * theta1bar())

    def column(j, spinor):
        s, form = act(j, spinor)
        # decompose the form part along theta1bar/sqrt2
        lam = form.eval_vectors(
            (ExactComplex(0), ExactComplex(Fraction(1, 2)), ExactComplex(0, Fraction(1, 2)))
        )  # form(Z1bar)
        rem = form - lam * theta1bar()
        if not rem.is_zero():
            raise ValueError("action left the canonical bundle")
        return s, lam * EC_SQRT2

    cols = {}
    for j in (1, 2):
        c0 = column(j, phi0)
        c1 = column(j, phi1)
        cols[f"e{j}"] = ((c0[0], c1[0]), (c0[1], c1[1]))
    return CliffordRep(kind="gamma-can", mats=cols)


def rho_eps(eps) -> CliffordRep:
    """Three-generator action with rho(eps*e0) = [[-i,0],[0,i]]."""
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    return CliffordRep(
        kind="rho-eps",
        eps=eps,
        mats={
            "e0": mat2(-EC_I, 0, 0, EC_I),
            "e1": mat2(0, 1, -1, 0),
            "e2": mat2(0, -EC_I, -EC_I, 0),
        },
    )


@dataclass(frozen=True)
class AxiomReport:
    failures: List[str]


def clifford_axiom_check(rep: CliffordRep) -> AxiomReport:
    """Skew-adjointness, unit norm, and anticommutation of all generators."""
    failures = []
    gens = rep.generators()
    for g in gens:
        m = rep.mats[g]
        if not mat_is_zero(mat_add(mat_dagger(m), m)):
            failures.append(f"{g}: not skew-adjoint")
        prod = mat_mul(mat_dagger(m), m)
        if prod != MAT_ID:
            failures.append(f"{g}: M*M != I")
    for i, gi in enumerate(gens):
        for gj in gens[i + 1 :]:
            anti = mat_add(
                mat_mul(rep.mats[gi], rep.mats[gj]),
                mat_mul(rep.mats[gj], rep.mats[gi]),
            )
            if not mat_is_zero(anti):
                failures.append(f"{gi},{gj}: anticommutator != 0")
    # splitting: Gamma(e2 e1) = diag(i, -i) fixes Phi0 in W+, Phi1 in W-
    vol_elt = mat_mul(rep.mats["e2"], rep.mats["e1"])
    if vol_elt != mat2(EC_I, 0, 0, -EC_I):
        failures.append("e2*e1 element does not split W as diag(i,-i)")
    return AxiomReport(failures=failures)


FormMat = Tuple[Tuple[InvariantForm, InvariantForm], Tuple[InvariantForm, InvariantForm]]


def _form_mat(a00, a01, a10, a11) -> FormMat:
    return ((a00, a01), (a10, a11))


def form_mat_eval(x: FormMat, vec) -> Mat2:
    """Evaluate every entry on a frame vector triple."""
    return tuple(
        tuple(
            entry.eval_vectors(vec) if not entry.is_zero() else ExactComplex(0)
            for entry in row
        )
        for row in x
    )


@dataclass(frozen=True)
class ConnCoeffs:
    """Connection coefficient matrix and its U(1) twist."""

    base: FormMat
    twist: InvariantForm  # the real 1-form a; enters as + i a I
    flavor: str  # "pseudohermitian" | "levi-civita"
    eps: Fraction

    def full(self) -> FormMat:
        ia = EC_I * self.twist
        return mat_add(
            self.base,
            _form_mat(ia, InvariantForm.zero(1), InvariantForm.zero(1), ia),
        )

    def evaluate(self, vec) -> Mat2:
        return form_mat_eval(self.full(), vec)


def conn_coeffs(ph: PhInvariants, eps, a: InvariantForm, flavor: str) -> ConnCoeffs:
    """Connection coefficients in the basis {Phi0, Phi1}.

    pseudohermitian: diag(ia, i(omega + a)).
    levi-civita: the displayed eps-family matrix
        [[0, (i/4) e^-1 A11 theta1], [(i/sqrt2) e^-1 A1b1b theta1, i(omega + eps theta)]]
    plus i a I; its half trace is b = (i/2)(omega + eps theta) + i a.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    if a.degree != 1 or not a.is_real():
        raise NotRealError("twist must be a real 1-form")
    zero1 = InvariantForm.zero(1)
    if flavor == "pseudohermitian":
        base = _form_mat(zero1, zero1, zero1, EC_I * ph.omega)
    elif flavor == "levi-civita":
        inv_eps = ExactComplex(Fraction(1) / eps)
        omega_eps = ph.omega + ExactComplex(eps) * theta()
        a11 = ph.a11
        a1b1b = ph.torsion
        base = _form_mat(
            zero1,
            (EC_I * ExactComplex(Fraction(1, 4)) * inv_eps * a11) * theta1(),
            (EC_I * EC_INV_SQRT2 * inv_eps * a1b1b) * theta1(),
            EC_I * omega_eps,
        )
    else:
        raise ValueError(f"unknown connection flavor {flavor!r}")
    return ConnCoeffs(base=base, twist=a, flavor=flavor, eps=eps)


def unitarity_diagnostic(cc: ConnCoeffs) -> Tuple[bool, FormMat]:
    """Is base + base^dagger = 0?  (Fails for the displayed torsion entries.)"""
    s = mat_add(cc.base, mat_dagger(cc.base))
    ok = all(entry.is_zero() for row in s for entry in row)
    return ok, s


# --- compatibility suite ------------------------------------------------------

FRAME_VECS = (
    (EC_ONE, ExactComplex(0), ExactComplex(0)),
    (ExactComplex(0), EC_ONE, ExactComplex(0)),
    (ExactComplex(0), ExactComplex(0), EC_ONE),
)


def _coframe_derivatives(
    reference: str, flavor: str, ph: PhInvariants, eps: Fraction, m: ModelStructure
):
    """nabla_{e_v} e^w as invariant 1-form combinations, per reference.

    reference "rotation": nabla e1 = s e2, nabla e2 = -s e1, nabla e0 = 0,
    with s = omega (pseudohermitian flavor) or omega + eps theta (levi-civita).
    reference "h-metric": the literal adapted-metric connection forms.
    Returns {(w, v): {covector index: coefficient}} where index 0 refers to
    the eps-scaled e0.
    """
    if reference == "rotation":
        s = ph.omega if flavor == "pseudohermitian" else ph.omega + ExactComplex(eps) * theta()
        out = {}
        for v in range(3):
            sval = s.eval_vectors(FRAME_VECS[v])
            out[0, v], out[1, v], out[2, v] = {}, {2: sval}, {1: -sval}
        return out
    if reference == "h-metric":
        from .pseudohermitian import riemannian_connection

        rd = riemannian_connection(m, eps)
        # nabla e^w = - omega^w_j otimes e^j_eps; covector index j
        out = {}
        for w in range(3):
            for v in range(3):
                vals = {j: rd.form(j, w).eval_vectors(FRAME_VECS[v]) for j in range(3)}
                out[w, v] = {j: -val for j, val in vals.items() if not val.is_zero()}
        return out
    raise ValueError(f"unknown reference {reference!r}")


@dataclass(frozen=True)
class CompatReport:
    flavor: str
    reference: str
    failures: List[str]


def compatibility_check(
    m: ModelStructure,
    ph: PhInvariants,
    eps,
    a: InvariantForm,
    flavor: str,
    reference: str,
) -> CompatReport:
    """Check nabla_v(G(w)Phi) = G(w) nabla_v Phi + G(nabla_v w) Phi on the basis.

    All objects are invariant, so both sides reduce to exact 2x2 matrix
    identities [A(v), G(w)] = G(nabla_v w) per direction v and generator w.
    """
    eps = Fraction(eps)
    cc = conn_coeffs(ph, eps, a, flavor)
    rep = gamma_can() if flavor == "pseudohermitian" else rho_eps(eps)
    gens = [1, 2] if flavor == "pseudohermitian" else [0, 1, 2]
    derivs = _coframe_derivatives(reference, flavor, ph, eps, m)
    failures = []
    for v in range(3):
        a_v = cc.evaluate(FRAME_VECS[v])
        for w in gens:
            g_w = rep.mats[f"e{w}"]
            lhs = mat_add(mat_mul(a_v, g_w), mat_scale(-1, mat_mul(g_w, a_v)))
            rhs = MAT_ZERO
            for j, coeff in derivs[w, v].items():
                rhs = mat_add(rhs, mat_scale(coeff, rep.mats[f"e{j}"]))
            if lhs != rhs:
                failures.append(f"v=e{v}, w=e{w}")
    return CompatReport(flavor=flavor, reference=reference, failures=failures)
