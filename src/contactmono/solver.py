"""Monopole residuals, energy identities, Gauss-Newton solver, and the sweep.

Two coupled systems are handled over a chosen backend:

  contact system (eps is None):
      -2 beta^a_{1b,1} = 0,   2 alpha^a_{,1b} = 0,
      da(e1,e2) - W = |alpha|^2 - |beta|^2

  eps family (eps set, torsion-free models only):
      2 beta^a_{1b,1} - (i/eps) alpha^a_{,0} + eps alpha = 0,
      (i/eps) beta^a_{1b,0} - 2 alpha^a_{,1b} = 0,
      F12 = (|alpha|^2 - |beta|^2)/2,   (1/eps)(F01 + i F02) = conj(alpha) beta

with F the curvature of the half-trace form b = (i/2)(omega + eps theta) + i a.
Gauss-Newton on the stacked weighted residual; the optional Reeb constraint
(alpha^a_{,0} = beta^a_{1b,0} = 0) joins the residual when requested.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

# scipy.sparse is imported where a float solve first needs it, so that the
# exact commands (derive, curvature, check) never load it: it is about half
# the memory and start-up time of a process that imports contactmono
if TYPE_CHECKING:
    import scipy.sparse as sp

from .algebra import ModelStructure, is_heisenberg
from .errors import NotASolution, PreconditionError, SolveError, TorsionError, WrongModel
from .fields import (
    DIR_T,
    DIR_Z1,
    DIR_Z1BAR,
    GaugeField,
    InvariantBackend,
    SpinorField,
    _Stencil,
    _connection_weight,
    cov_deriv,
    dirac_xi,
    gauge_curvature_components,
    gauge_transform,
    l2_norm_sq,
    scalar_l2_norm_sq,
    sup_phi_sq,
)
from .pseudohermitian import PhInvariants, derive_ph_invariants


@dataclass
class MonopoleState:
    a: GaugeField
    phi: SpinorField
    model: ModelStructure
    eps: Optional[float] = None

    @property
    def backend(self):
        return self.phi.backend


@dataclass(frozen=True)
class ResidualReport:
    r_dirac: float
    r_curv: float
    r_constraint: float
    total: float

    def as_dict(self):
        return asdict(self)


def _residual_report(s: MonopoleState, ph: PhInvariants) -> ResidualReport:
    """L^2 norms of the blocks of _residual_fields, Reeb constraint included.

    The first two fields are the Dirac rows and the last two the constraint;
    the curvature rows lie between them.
    """
    sq = [
        scalar_l2_norm_sq(s.backend, vals)
        for _, vals in _residual_fields(s, ph, constraint=True)
    ]
    dirac, curv, constraint = sum(sq[:2]), sum(sq[2:-2]), sum(sq[-2:])
    return ResidualReport(
        r_dirac=math.sqrt(dirac),
        r_curv=math.sqrt(curv),
        r_constraint=math.sqrt(constraint),
        total=math.sqrt(dirac + curv),
    )


def residual_contact(s: MonopoleState, ph: PhInvariants) -> ResidualReport:
    """Residual of the contact monopole system (eps-free)."""
    if s.eps is not None:
        raise ValueError("state carries eps; use residual_sw")
    return _residual_report(s, ph)


def residual_sw(s: MonopoleState, ph: PhInvariants) -> ResidualReport:
    """Residual of the eps-family system (both curvature lines included)."""
    if s.eps is None:
        raise ValueError("state carries no eps; use residual_contact")
    return _residual_report(s, ph)


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

    def as_dict(self):
        return asdict(self)


def weitzenbock_energy(s: MonopoleState, ph: PhInvariants) -> WeitzenbockReport:
    """The four energy summands against an independent Dirac norm."""
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


def energy_identity(s: MonopoleState, ph: PhInvariants, tol: float = 1e-9) -> float:
    """grad energy + int W |Phi|^2 + int (|alpha|^2-|beta|^2)^2 for solutions.

    Preconditions: the contact residual and the Reeb constraint both pass tol.
    For positive Webster curvature a genuine solution forces this to vanish,
    which in turn forces Phi = 0.
    """
    rr = residual_contact(s, ph)
    if rr.total > tol or rr.r_constraint > tol:
        raise NotASolution(
            f"state is not a constrained solution: total={rr.total:.3e}, "
            f"constraint={rr.r_constraint:.3e}"
        )
    rep = weitzenbock_energy(s, ph)
    b = s.backend
    phi_sq = s.phi.pointwise_sq()
    w = ph.webster_float()
    term_w = w * float(np.real(b.integrate(phi_sq)))
    dens = s.phi.alpha * np.conj(s.phi.alpha) - s.phi.beta1bar * np.conj(
        s.phi.beta1bar
    )
    term_q = float(np.real(b.integrate(dens * np.conj(dens))))
    return rep.grad_sq + term_w + term_q


# --- Heisenberg closed-form family ---------------------------------------------


@dataclass(frozen=True)
class FamilyMembership:
    member: bool
    curvature_gap: float
    dirac_gap: float

    def as_dict(self):
        return asdict(self)


class HeisenbergFamily:
    """Exact invariant solution family of the contact system on gen(0,0).

    2 a0 = |alpha|^2 - |beta|^2, and a(Z1) must annihilate the spinor:
    a1 beta = 0 and conj(a1) alpha = 0 (a1 is free only on reducibles).
    """

    def __init__(self, model: ModelStructure):
        if not is_heisenberg(model):
            raise WrongModel("closed form is specific to the Heisenberg model")
        self.model = model

    @staticmethod
    def a0_for(alpha: complex, beta1bar: complex) -> float:
        return (abs(alpha) ** 2 - abs(beta1bar) ** 2) / 2.0

    def membership(self, s: MonopoleState, tol: float = 1e-10) -> FamilyMembership:
        if s.backend.kind != "invariant":
            raise WrongModel("closed form describes the invariant sector")
        alpha, beta = complex(s.phi.alpha), complex(s.phi.beta1bar)
        a0 = float(np.real(s.a.a0))
        a1 = complex(s.a.aZ1())
        curvature_gap = abs(2 * a0 - abs(alpha) ** 2 + abs(beta) ** 2)
        dirac_gap = 2 * math.hypot(abs(a1 * beta), abs(a1 * alpha))
        return FamilyMembership(
            member=(curvature_gap <= tol and dirac_gap <= tol),
            curvature_gap=curvature_gap,
            dirac_gap=dirac_gap,
        )


# --- packing / residual vectors -------------------------------------------------


def _pack(s: MonopoleState) -> np.ndarray:
    """[Re alpha, Im alpha, Re beta, Im beta, a0, a1re, a2re], n_points each."""
    phi, a = s.phi, s.a
    parts = (
        phi.alpha.real,
        phi.alpha.imag,
        phi.beta1bar.real,
        phi.beta1bar.imag,
        a.a0,
        a.a1re,
        a.a2re,
    )
    return np.concatenate([np.ravel(np.real(v)) for v in parts])


def _unpack(x: np.ndarray, model, backend, eps) -> MonopoleState:
    parts = x.reshape((7,) + backend.shape)
    phi = SpinorField(parts[0] + 1j * parts[1], parts[2] + 1j * parts[3], backend)
    a = GaugeField(parts[4], parts[5], parts[6], backend)
    return MonopoleState(a=a, phi=phi, model=model, eps=eps)


# --- the equations as quadratic forms ----------------------------------------------

# A form reads seven slots: the spinor and its conjugate, then the gauge field.
ALPHA, ALPHA_BAR, BETA, BETA_BAR, A0, A1, A2 = range(7)
_EYE = _Stencil(((None, 1.0),))


@dataclass(frozen=True)
class _Form:
    """One equation field: const + sum_s lin[s] u_s + sum_(s,t) quad[s, t] u_s u_t.

    u are the slot values, lin[s] a _Stencil and quad[s, t] a pointwise
    coefficient; kind is "c" for a complex field and "r" for a real one.
    """

    kind: str
    const: complex = 0.0
    lin: dict = field(default_factory=dict)
    quad: dict = field(default_factory=dict)

    def value(self, u):
        out = self.const + sum(op.apply(u[s]) for s, op in self.lin.items())
        out = out + sum(q * u[s] * u[t] for (s, t), q in self.quad.items())
        return out if self.kind == "c" else np.real(out)

    def diagonal(self, u):
        """{slot s: the sum over the quadratic terms in s of the coefficient
        times the other factor}, the state-dependent part of the linearisation at u."""
        diag = {}
        for (s, t), q in self.quad.items():
            for slot, other in ((s, t), (t, s)):
                term = q * u[other]
                diag[slot] = diag[slot] + term if slot in diag else term
        return diag

    def rows(self, diag):
        """Row block of the linearisation, in the format _assemble reads.

        Slot s holds lin[s] and diag[s] on the diagonal: diag is diagonal(u)
        at a state u, or a _Diag placeholder per slot.
        """
        rows = [self.lin.get(s, _Stencil()) for s in range(7)]
        for s, coef in diag.items():
            rows[s] = rows[s] + _Stencil(((None, coef),))
        return (*rows, self.kind)


def _slots(s: MonopoleState):
    """Slot values: flat for the grid's stencils, cheap numpy scalars at one point."""
    alpha, beta = s.phi.alpha, s.phi.beta1bar
    u = (alpha, np.conj(alpha), beta, np.conj(beta), s.a.a0, s.a.a1re, s.a.a2re)
    return u if s.backend.kind == "invariant" else tuple(np.ravel(v) for v in u)


def _forms(s: MonopoleState, ph: PhInvariants, constraint: bool) -> List[_Form]:
    """The equation fields of s's system, in the order of the stacked residual.

    They do not depend on the state, so a solve builds them once.  The beta
    slot carries i*omega(T) and i*omega(Z1), and da_jk sum_i a_i c^i_jk, so
    they hold for every model.
    """
    dz, de1, de2, z1, z1b = s.backend.stencils
    w_t, w_z1 = _connection_weight(ph, DIR_T), _connection_weight(ph, DIR_Z1)
    c = s.model.c_float

    def da(j, k):
        """Gauge slots of da_jk = e_j(a_k) - e_k(a_j) + sum_i a_i c^i_jk."""
        cols = [c(i, j, k) * _EYE for i in range(3)]
        frame = (dz, de1, de2)
        cols[k] = frame[j] + cols[k]
        cols[j] = cols[j] - frame[k]
        return dict(zip((A0, A1, A2), cols))

    sq = {(ALPHA, ALPHA_BAR): -1.0, (BETA, BETA_BAR): 1.0}  # |beta|^2 - |alpha|^2
    if s.eps is None:
        forms = [
            # E1 = -2 (Z1 + i omega(Z1) + i aZ1) beta, with 2i aZ1 = i a1 + a2
            _Form(
                "c",
                lin={BETA: -2 * (z1 + w_z1 * _EYE)},
                quad={(BETA, A1): -1j, (BETA, A2): -1.0},
            ),
            # E2 = 2 (Z1b + i aZ1b) alpha, with 2i aZ1b = i a1 - a2
            _Form("c", lin={ALPHA: 2 * z1b}, quad={(ALPHA, A1): 1j, (ALPHA, A2): -1.0}),
            # E3 = da12 - W - |alpha|^2 + |beta|^2
            _Form("r", const=-ph.webster_float(), lin=da(1, 2), quad=sq),
        ]
    else:
        if not ph.torsion.is_zero():
            raise TorsionError("eps-family system requires zero torsion")
        e = float(s.eps)

        def background(j, k):  # of F_b: (1/2)(d omega + eps d theta)_jk
            return 0.5 * (ph.domega_float(j, k) + e * c(0, j, k))

        da01, da02 = da(0, 1), da(0, 2)
        forms = [
            # E1 = 2 (Z1 + i omega(Z1) + i aZ1) beta - (i/e)(dz + i a0) alpha + e alpha
            _Form(
                "c",
                lin={ALPHA: -(1j / e) * dz + e * _EYE, BETA: 2 * (z1 + w_z1 * _EYE)},
                quad={(ALPHA, A0): 1 / e, (BETA, A1): 1j, (BETA, A2): 1.0},
            ),
            # E2 = (i/e)(dz + i omega(T) + i a0) beta - 2 (Z1b + i aZ1b) alpha
            _Form(
                "c",
                lin={ALPHA: -2 * z1b, BETA: (1j / e) * (dz + w_t * _EYE)},
                quad={(BETA, A0): -1 / e, (ALPHA, A1): -1j, (ALPHA, A2): 1.0},
            ),
            # E3 = F12 - (|alpha|^2 - |beta|^2)/2, F12 = background + da12
            _Form(
                "r",
                const=background(1, 2),
                lin=da(1, 2),
                quad={st: 0.5 * q for st, q in sq.items()},
            ),
            # E4 = (1/e)(F01 + i F02) - conj(alpha) beta
            _Form(
                "c",
                const=(1 / e) * (background(0, 1) + 1j * background(0, 2)),
                lin={k: (1 / e) * (da01[k] + 1j * da02[k]) for k in da01},
                quad={(ALPHA_BAR, BETA): -1.0},
            ),
        ]
    if constraint:
        # (dz + i a0) alpha and (dz + i omega(T) + i a0) beta
        forms += [
            _Form("c", lin={ALPHA: dz}, quad={(ALPHA, A0): 1j}),
            _Form("c", lin={BETA: dz + w_t * _EYE}, quad={(BETA, A0): 1j}),
        ]
    return forms


def _residual_fields(s: MonopoleState, ph: PhInvariants, constraint: bool, forms=None):
    """List of (complex_or_real, values) equation fields defining the target."""
    u = _slots(s)
    forms = forms or _forms(s, ph, constraint)
    return [(f.kind, np.reshape(f.value(u), s.backend.shape)) for f in forms]


def _stack_residual(
    s: MonopoleState, ph: PhInvariants, constraint: bool, forms=None
) -> np.ndarray:
    weight = math.sqrt(s.backend.volume / s.backend.n_points)
    rows = []
    for kind, vals in _residual_fields(s, ph, constraint, forms):
        arr = np.asarray(vals)
        if kind == "c":
            rows.append(arr.real.ravel() * weight)
            rows.append(arr.imag.ravel() * weight)
        else:
            rows.append(np.real(arr).ravel() * weight)
    return np.concatenate([np.atleast_1d(r) for r in rows])


class _Diag(NamedTuple):
    """Placeholder for diagonal k of a _Linearisation, complex unless real by type."""

    k: int
    complex: bool


class _Mark(NamedTuple):
    """An entry of diagonal k: sign times its real (imag 0) or imaginary part."""

    k: int
    imag: int
    sign: int = 1

    def __rmul__(self, factor):
        return self._replace(sign=factor * self.sign)


def _re_im(v):
    """(Re v, Im v), with 0.0 for a vanishing imaginary part (no stored zeros).

    A _Diag splits into _Marks, and has an imaginary part when it is complex.
    """
    if isinstance(v, _Diag):
        return _Mark(v.k, 0), (_Mark(v.k, 1) if v.complex else 0.0)
    if np.iscomplexobj(v) and np.any(v.imag):
        return v.real, v.imag
    return np.real(v), 0.0


def _assemble(blocks, backend):
    """The real matrix of the row blocks times the residual weight, as COO,
    and the list of its placeholder entries.

    Realify: a complex row block is a block of real parts followed by one of
    imaginary parts, and so is a complex column block.  coef * u has
    [[Re, -Im], [Im, Re]] and coef * conj(u) has [[Re, Im], [Im, -Re]].  A
    _Diag coefficient is stored as -0.0, the identity of addition, in each of
    its realified entries, and each is listed as (row block, column block,
    _Mark).
    """
    n3 = backend.n_points
    entries = []  # (row block, column block, idx, real coefficient or _Mark)

    def add(row, col, idx, coef):
        if isinstance(coef, _Mark) or np.ndim(coef) or coef != 0:
            entries.append((row, col, idx, coef))

    row = 0
    for (la, ba, lb, bb, d0, d1, d2, kind) in blocks:
        im_row = row + 1 if kind == "c" else None
        for col, lin, bar in ((0, la, ba), (2, lb, bb)):
            for sign, op in ((1, lin), (-1, bar)):
                for idx, coef in op.entries():
                    re, im = _re_im(coef)
                    add(row, col, idx, re)
                    add(row, col + 1, idx, -sign * im)
                    if im_row is not None:
                        add(im_row, col, idx, im)
                        add(im_row, col + 1, idx, sign * re)
        for col, op in ((4, d0), (5, d1), (6, d2)):
            for idx, coef in op.entries():
                re, im = _re_im(coef)
                add(row, col, idx, re)
                if im_row is not None:
                    add(im_row, col, idx, im)
        row += 2 if kind == "c" else 1

    local = np.arange(n3)
    rows = np.empty(len(entries) * n3, dtype=np.int32)
    cols = np.empty_like(rows)
    vals = np.empty(len(entries) * n3)
    marks = []
    for k, (r, c, idx, coef) in enumerate(entries):
        part = slice(k * n3, (k + 1) * n3)
        rows[part] = r * n3 + local
        cols[part] = c * n3 + (local if idx is None else idx)
        if isinstance(coef, _Mark):
            marks.append((r, c, coef))
            coef = -0.0
        vals[part] = coef
    vals *= math.sqrt(backend.volume / n3)
    import scipy.sparse as sp

    return sp.coo_matrix((vals, (rows, cols)), shape=(row * n3, 7 * n3)), marks


def _coulomb_form(backend) -> _Form:
    """div(a) = dz a0 + de1 a1 + de2 a2 with the backend's frame stencils."""
    return _Form("r", lin=dict(zip((A0, A1, A2), backend.stencils[:3])))


class _Linearisation:
    """The Jacobian of a list of forms, compiled once and evaluated per state.

    The forms' linear part does not depend on the state, and their quadratic
    part only adds _Form.diagonal(u) on the diagonal.  The first jacobian call
    compiles: _assemble builds the weighted, realified matrix of the linear
    part (with the Coulomb rows on the grid) once, with a _Diag placeholder
    per diagonal, and the positions of the placeholders' entries in its data
    are kept.  Each call then evaluates the diagonals and adds them, scaled
    and signed, at those positions to a copy of the data.

    A fresh assembly at u sums each entry's terms in its own order; here the
    diagonals come last.  Both agree bit for bit when no entry sums more than
    two nonzero terms, as in every system of _forms.
    """

    def __init__(self, forms: Sequence[_Form], backend):
        self.forms = forms
        self.backend = backend
        self._data = None

    def _compile(self):
        b = self.backend
        n3 = b.n_points
        grid = b.kind == "heis-grid"
        probe = [np.zeros(1, complex)] * 4 + [np.zeros(1)] * 3  # slot types
        blocks, k = [], 0
        for f in self.forms:
            diag = {}
            for slot, coef in f.diagonal(probe).items():
                diag[slot] = _Diag(k, np.iscomplexobj(coef))
                k += 1
            blocks.append(f.rows(diag))
        if grid:
            blocks.append(_coulomb_form(b).rows({}))
        coo, marks = _assemble(blocks, b)
        n_rows, n_cols = self._shape = coo.shape
        # a mark (r, c, _) has the entries (r n3 + i, c n3 + i), and an entry
        # (row, col) the key row * n_cols + col
        keys = np.array([(r * n_cols + c) * n3 for r, c, _ in marks])[:, None]
        keys = keys + np.arange(n3) * (n_cols + 1)
        if grid:
            import scipy.sparse as sp

            jac = coo.tocsr()
            del coo
            nnz_keys = np.repeat(np.arange(n_rows) * n_cols, np.diff(jac.indptr))
            nnz_keys += jac.indices
            keys = np.searchsorted(nnz_keys, keys)
            del nnz_keys
            self._data, self._indices, self._indptr = jac.data, jac.indices, jac.indptr
            # J^T in CSR: the CSC arrays of J, with each entry's index in J's data
            order = sp.csr_matrix(
                (np.arange(jac.nnz, dtype=np.int32), jac.indices, jac.indptr), shape=jac.shape
            ).tocsc()
            self._perm, self._t_indices, self._t_indptr = order.data, order.indices, order.indptr
        else:
            self._data = coo.toarray().ravel()
        # marks that share entries go to successive layers, so that the
        # entries within a layer are distinct
        seen = Counter()
        layer = []
        for r, c, _ in marks:
            layer.append(seen[r, c])
            seen[r, c] += 1
        order = np.argsort(layer, kind="stable")
        bounds = np.cumsum([0, *np.bincount(layer)])
        self._layers = [slice(a, z) for a, z in zip(bounds[:-1], bounds[1:])]
        self._pos = keys[order].astype(np.int32)
        ordered = [marks[i][2] for i in order]
        self._diag = np.array([m.k for m in ordered])
        self._imag = np.array([m.imag for m in ordered])
        weight = math.sqrt(b.volume / n3)
        self._scale = np.array([[m.sign * weight] for m in ordered])

    def jacobian(self, s: MonopoleState):
        """The Jacobian at s: CSR with the Coulomb rows on the grid, dense at
        one point.  Its data is a fresh array, and the caller may scale it."""
        if self._data is None:
            self._compile()
        u = _slots(s)
        d = np.array([v for f in self.forms for v in f.diagonal(u).values()], dtype=complex)
        d = d.reshape(len(d), -1)
        vals = np.stack((d.real, d.imag))[self._imag, self._diag]
        vals *= self._scale
        data = self._data.copy()
        for layer in self._layers:
            data[self._pos[layer]] += vals[layer]
        if self.backend.kind != "heis-grid":
            return data.reshape(self._shape)
        import scipy.sparse as sp

        return sp.csr_matrix((data, self._indices, self._indptr), shape=self._shape)

    def transpose(self, jac):
        """The transpose of a grid jacobian() (scaled or not) as CSR."""
        import scipy.sparse as sp

        return sp.csr_matrix(
            (jac.data[self._perm], self._t_indices, self._t_indptr), shape=jac.shape[::-1]
        )


def _grid_jacobian(
    s: MonopoleState, ph: PhInvariants, constraint: bool, lin=None
) -> sp.csr_matrix:
    """Jacobian of the stacked real residual, plus the Coulomb rows, as CSR.

    The last N^3 rows are the rows of _coulomb_form with the residual weight;
    solve pairs them with -div(a), which fixes the gauge directions of the
    step.  lin is the solve's _Linearisation; without it one is compiled
    for this call.
    """
    return (lin or _Linearisation(_forms(s, ph, constraint), s.backend)).jacobian(s)


def _invariant_jacobian(
    s: MonopoleState, ph: PhInvariants, constraint: bool, lin=None
) -> np.ndarray:
    """Dense 7-column Jacobian of the stacked residual: the rows at one point.

    lin is the solve's _Linearisation; without it one is compiled for this
    call.
    """
    return (lin or _Linearisation(_forms(s, ph, constraint), s.backend)).jacobian(s)


# --- gauge fixing ---------------------------------------------------------------


def _phase_fix_invariant(x: np.ndarray) -> np.ndarray:
    alpha = x[0] + 1j * x[1]
    beta = x[2] + 1j * x[3]
    ref = alpha if abs(alpha) >= abs(beta) else beta
    if abs(ref) < 1e-300:
        return x
    phase = ref / abs(ref)
    alpha, beta = alpha / phase, beta / phase
    out = x.copy()
    out[0], out[1], out[2], out[3] = alpha.real, alpha.imag, beta.real, beta.imag
    return out


def _grid_divergence(a: GaugeField) -> np.ndarray:
    """div(a), flat: the value of _coulomb_form, whose rows _grid_jacobian holds."""
    u = dict(zip((A0, A1, A2), (np.ravel(v) for v in (a.a0, a.a1re, a.a2re))))
    return _coulomb_form(a.backend).value(u)


def _coulomb_project_grid(s: MonopoleState) -> MonopoleState:
    """Project a to the discrete Coulomb slice and fix the base-point phase.

    Solves the frame Laplacian div(grad chi) = div(a) by conjugate gradients,
    with the frame stencils as grad and _coulomb_form as div, and applies
    gauge_transform(a, Phi, chi).  Raises SolveError when CG does not
    converge.
    """
    b = s.backend
    n3 = b.n_points
    div = _coulomb_form(b)
    rhs = _grid_divergence(s.a)
    rhs = rhs - rhs.mean()

    def lap(v):
        return div.value({slot: op.apply(v) for slot, op in div.lin.items()})

    import scipy.sparse.linalg as spla

    op = spla.LinearOperator((n3, n3), matvec=lap, dtype=float)
    chi, info = spla.cg(op, rhs, rtol=1e-12, atol=1e-14, maxiter=300)
    if info != 0:
        raise SolveError(f"Coulomb gauge projection: CG stopped with info={info}")
    a_new, phi_new = gauge_transform(s.a, s.phi, (chi - chi.mean()).reshape(b.shape))
    # base-point phase fix
    ref = phi_new.alpha.ravel()[0]
    if abs(ref) > 1e-12:
        rot = np.conj(ref) / abs(ref)
        phi_new = SpinorField(phi_new.alpha * rot, phi_new.beta1bar * rot, b)
    return MonopoleState(a=a_new, phi=phi_new, model=s.model, eps=s.eps)


# --- Gauss-Newton ---------------------------------------------------------------

# The grid steps are inexact: lsqr stops once the linear residual is below
# eta_k times the nonlinear one, with the forcing term eta_k of Eisenstat &
# Walker (1996), choice 1, safeguarded and clamped.  atol and iter_lim guard
# lsqr itself.
ETA_START = 0.5
ETA_MIN, ETA_MAX = 1e-6, 0.5
ETA_SAFEGUARD = 0.1
LSQR_ATOL = 1e-14
LSQR_DAMP = 1e-12
LSQR_ITER_LIM = 3000
LSQR_ISTOP_ITER_LIM = 7  # lsqr's istop when it stops at iter_lim
_GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0

# A grid system with fewer rows than unknowns (the contact system without the
# Reeb constraint: six real equations per point, Coulomb row included, for
# seven unknowns) has a minimum-norm step, and the norm decides which solution
# Gauss-Newton walks to.  lsqr runs on J S with S = HORIZONTAL_GAUGE_SCALE on
# the a1re, a2re columns and 1 elsewhere, and the step is S q: horizontal
# gauge moves count twice.  With S = 1 the contact solves end near solutions
# whose Dirac rows barely couple to the gauge field, where lsqr stalls at its
# cap (README, "Numerical backends").
HORIZONTAL_GAUGE_SCALE = 0.5


def _forcing_term(
    eta_prev: float, fnorm: float, fnorm_prev: float, lin_prev: float, tol: float
) -> float:
    """eta_k = | |F_k| - |F_{k-1} + J_{k-1} p_{k-1}| | / |F_{k-1}|, safeguarded.

    The safeguard keeps eta_k >= eta_{k-1}^((1+sqrt5)/2) while that power
    exceeds ETA_SAFEGUARD, so one lucky step does not force an over-solve;
    eta_k >= tol / (2 |F_k|) keeps the last step from solving past the loop
    tolerance (Kelley 1995, sec. 6.3).
    """
    eta = abs(fnorm - lin_prev) / fnorm_prev
    floor = eta_prev**_GOLDEN
    if floor > ETA_SAFEGUARD:
        eta = max(eta, floor)
    eta = max(eta, 0.5 * tol / fnorm)
    return min(max(eta, ETA_MIN), ETA_MAX)


def _lsqr_step(jac, lin: _Linearisation, rhs: np.ndarray, eta: float, step_scale):
    """lsqr on jac S, for S the diagonal step_scale (None for 1).

    jac's columns are scaled in place.  lsqr's transpose products run on the
    CSR matrix lin.transpose(jac), which gives the same sums in the same
    order as the CSC kernel of jac.T and is faster.
    """
    if step_scale is not None:
        jac.data *= step_scale[jac.indices]
    jac_t = lin.transpose(jac)
    import scipy.sparse.linalg as spla

    op = spla.LinearOperator(jac.shape, matvec=jac.dot, rmatvec=jac_t.dot, dtype=float)
    return spla.lsqr(
        op, rhs, damp=LSQR_DAMP, atol=LSQR_ATOL, btol=eta, iter_lim=LSQR_ITER_LIM
    )


# a solve has converged when its residual norm is below these
CONVERGED_INVARIANT = 1e-10
CONVERGED_GRID = 1e-6


@dataclass
class SolveOpts:
    max_iter: int = 80
    tol: float = 1e-12
    constraint: bool = False
    seed: int = 0
    gauge_fix: bool = True


@dataclass
class SolveInfo:
    converged: bool
    iterations: int
    report: ResidualReport
    seed: int
    # converged: the cost reached the loop tolerance; line-search-stalled: no
    # halving decreased the cost; max-iter: the loop ran out of steps
    stop_reason: str
    # (istop, iterations) of the lsqr call of each grid step; empty for the
    # invariant sector, whose steps are dense least squares
    lsqr_steps: List[Tuple[int, int]] = field(default_factory=list)

    @property
    def lsqr_capped(self) -> int:
        """Grid steps whose lsqr call stopped at LSQR_ITER_LIM."""
        return sum(istop == LSQR_ISTOP_ITER_LIM for istop, _ in self.lsqr_steps)


def random_monopole_state(
    model: ModelStructure, backend, seed: int, eps=None, scale: float = 0.6
) -> MonopoleState:
    rng = np.random.default_rng(seed)
    if backend.kind == "invariant":
        vals = rng.normal(scale=scale, size=7)
        phi = SpinorField(vals[0] + 1j * vals[1], vals[2] + 1j * vals[3], backend)
        a = GaugeField(vals[4], vals[5], vals[6], backend)
    else:
        shape = (backend.n,) * 3
        x, y, _ = backend.coords()

        def smooth():
            out = np.zeros(shape, dtype=complex)
            for k in range(-1, 2):
                for l in range(-1, 2):
                    c = rng.normal(scale=scale / (1 + k * k + l * l)) + 1j * rng.normal(
                        scale=scale / (1 + k * k + l * l)
                    )
                    out += c * np.exp(2j * np.pi * (k * x + l * y))
            return out

        phi = SpinorField(smooth(), smooth(), backend)
        a = GaugeField(smooth().real, smooth().real, smooth().real, backend)
    return MonopoleState(a=a, phi=phi, model=model, eps=eps)


def solve(
    model: ModelStructure,
    eps,
    init: MonopoleState,
    opts: SolveOpts = SolveOpts(),
    ph: Optional[PhInvariants] = None,
) -> Tuple[MonopoleState, SolveInfo]:
    """Damped Gauss-Newton on the stacked residual, with gauge fixing.

    Invariant sector: exact least-squares steps.  Grid: inexact steps by
    lsqr on the Jacobian with the Coulomb rows appended (see _forcing_term
    and HORIZONTAL_GAUGE_SCALE).  The forms are built and their Jacobian is
    compiled once per solve (_Linearisation); a step only evaluates it.
    """
    ph = ph or derive_ph_invariants(model)
    if eps is not None and not ph.torsion.is_zero():
        raise TorsionError("eps-family system requires zero torsion")
    backend = init.backend
    if backend.model.c != model.c:  # by value: equal models may be distinct objects
        raise WrongModel(f"{backend!r} was built for another model")
    state = MonopoleState(a=init.a, phi=init.phi, model=model, eps=eps)
    grid = backend.kind == "heis-grid"

    def to_state(x):
        return _unpack(x, model, backend, eps)

    coulomb_weight = math.sqrt(backend.volume / backend.n_points)
    forms = _forms(state, ph, opts.constraint)
    lin = _Linearisation(forms, backend)

    def res(x):
        return _stack_residual(to_state(x), ph, opts.constraint, forms)

    def gauge(x):
        if not opts.gauge_fix:
            return x
        if grid:
            return _pack(_coulomb_project_grid(to_state(x)))
        return _phase_fix_invariant(x)

    x = gauge(_pack(state))
    r = res(x)
    cost = float(r @ r)
    iterations = 0
    loop_tol = opts.tol if not grid else max(opts.tol, 1e-8)
    step_scale = None
    if grid and r.size + backend.n_points < x.size:  # underdetermined: see above
        step_scale = np.ones(x.size)
        step_scale[5 * backend.n_points :] = HORIZONTAL_GAUGE_SCALE
    eta, prev = ETA_START, None  # prev: (|F|, |F + J p|) of the last grid step
    stalled = False
    lsqr_steps = []
    for iterations in range(1, opts.max_iter + 1):
        if math.sqrt(cost) <= loop_tol:
            break
        if grid:
            st = to_state(x)
            rhs = -np.concatenate([r, coulomb_weight * _grid_divergence(st.a)])
            fnorm = float(np.linalg.norm(rhs))
            if prev is not None:
                eta = _forcing_term(eta, fnorm, *prev, loop_tol)
            jac = _grid_jacobian(st, ph, opts.constraint, lin)
            result = _lsqr_step(jac, lin, rhs, eta, step_scale)
            del jac  # freed before the next step builds its own
            p = result[0] if step_scale is None else step_scale * result[0]
            prev = (fnorm, float(result[3]))
            lsqr_steps.append((int(result[1]), int(result[2])))
        else:
            jac = _invariant_jacobian(to_state(x), ph, opts.constraint, lin)
            p, *_ = np.linalg.lstsq(jac, -r, rcond=None)
        step = 1.0
        accepted = False
        while step >= 2.0**-30:
            # trial steps are compared before re-gauging; the projection is
            # applied to accepted iterates only (it is not exactly residual
            # neutral on the grid and would otherwise defeat the line search)
            x_try = x + step * p
            r_try = res(x_try)
            cost_try = float(r_try @ r_try)
            if cost_try < cost:
                x = gauge(x_try)
                r = res(x)
                cost = float(r @ r)
                accepted = True
                break
            step *= 0.5
        if not accepted:
            stalled = True
            break
    final = to_state(x)
    rep = (
        residual_contact(final, ph) if eps is None else residual_sw(final, ph)
    )
    threshold = CONVERGED_GRID if grid else CONVERGED_INVARIANT
    converged = math.sqrt(cost) <= max(opts.tol, threshold)
    if math.sqrt(cost) <= loop_tol:
        stop_reason = "converged"
    else:
        stop_reason = "line-search-stalled" if stalled else "max-iter"
    return final, SolveInfo(
        converged=converged,
        iterations=iterations,
        report=rep,
        seed=opts.seed,
        stop_reason=stop_reason,
        lsqr_steps=lsqr_steps,
    )


# --- certificates and sweeps ------------------------------------------------------


@dataclass(frozen=True)
class CertificateVerdict:
    verdict: str  # consistent-with-vanishing | counterexample-candidate | not-a-solution
    sup_phi: float
    energy: Optional[float]
    report: ResidualReport

    def as_dict(self):
        return {
            "verdict": self.verdict,
            "sup_phi": self.sup_phi,
            "energy": self.energy,
            "residuals": self.report.as_dict(),
        }


# a certificate reads a state as a solution when its contact residual and
# Reeb constraint are below CERT_TOL_RESIDUAL, and Phi as vanishing when
# sup|Phi| is below CERT_TOL_PHI
CERT_TOL_RESIDUAL = 1e-8
CERT_TOL_PHI = 1e-8


def vanishing_certificate(
    model: ModelStructure, s: MonopoleState, ph: Optional[PhInvariants] = None
) -> CertificateVerdict:
    """Check the positive-curvature vanishing mechanism on a candidate state."""
    ph = ph or derive_ph_invariants(model)
    if not (ph.tw_curv.is_real() and ph.tw_curv.real_sign() > 0):
        raise PreconditionError("certificate requires positive Webster curvature")
    rr = residual_contact(s, ph)
    if rr.total > CERT_TOL_RESIDUAL or rr.r_constraint > CERT_TOL_RESIDUAL:
        return CertificateVerdict(
            verdict="not-a-solution",
            sup_phi=math.sqrt(sup_phi_sq(s.phi)),
            energy=None,
            report=rr,
        )
    energy = energy_identity(s, ph, tol=CERT_TOL_RESIDUAL)
    sup_phi = math.sqrt(sup_phi_sq(s.phi))
    verdict = (
        "consistent-with-vanishing"
        if sup_phi <= CERT_TOL_PHI
        else "counterexample-candidate"
    )
    return CertificateVerdict(
        verdict=verdict, sup_phi=sup_phi, energy=energy, report=rr
    )


@dataclass
class SweepRecord:
    eps: float
    sup_phi_sq: float
    norm_T_deriv_sq: float
    norm_Xi_deriv_sq: float
    norm_alpha_beta_cross: float
    identity_gap: float
    iterations: int
    converged: bool
    residual_limit: Optional[float] = None
    constraint_limit: Optional[float] = None

    def as_dict(self):
        return asdict(self)


# A sweep draws its initial state at SWEEP_PHI_SCALE, and it redraws Phi
# before a step whose warm start has sup|Phi|^2 below SWEEP_PHI_FLOOR.
SWEEP_PHI_FLOOR = 1e-6
SWEEP_PHI_SCALE = 0.5


def sweep_diagnostics(s: MonopoleState, ph: PhInvariants) -> dict:
    """Adiabatic diagnostics of a state for one eps."""
    b = s.backend
    e = float(s.eps)
    d_t = cov_deriv(s.phi, DIR_T, s.a, ph)
    t_sq = scalar_l2_norm_sq(b, d_t.alpha) + scalar_l2_norm_sq(b, d_t.beta1bar)
    d_z1 = cov_deriv(s.phi, DIR_Z1, s.a, ph)
    d_z1b = cov_deriv(s.phi, DIR_Z1BAR, s.a, ph)
    xi_sq = 4 * (
        scalar_l2_norm_sq(b, d_z1.beta1bar) + scalar_l2_norm_sq(b, d_z1b.alpha)
    )
    cross = float(
        np.real(
            b.integrate(
                s.phi.alpha
                * np.conj(s.phi.alpha)
                * s.phi.beta1bar
                * np.conj(s.phi.beta1bar)
            )
        )
    )
    alpha_sq = scalar_l2_norm_sq(b, s.phi.alpha)
    identity_gap = abs(e**2 * alpha_sq - (t_sq / e**2 + xi_sq + 2 * cross))
    return {
        "sup_phi_sq": sup_phi_sq(s.phi),
        "norm_T_deriv_sq": t_sq,
        "norm_Xi_deriv_sq": xi_sq,
        "norm_alpha_beta_cross": cross,
        "identity_gap": identity_gap,
    }


def sweep(
    model: ModelStructure,
    eps_list: Sequence[float],
    seed: int = 0,
    backend=None,
    ph: Optional[PhInvariants] = None,
) -> List[SweepRecord]:
    """Solve the eps-family along a decreasing eps list, warm-starting each step."""
    eps_values = [float(e) for e in eps_list]
    if any(b >= a for a, b in zip(eps_values, eps_values[1:])):
        raise ValueError("eps_list must be strictly decreasing")
    ph = ph or derive_ph_invariants(model)
    backend = backend or InvariantBackend(model)
    rng = np.random.default_rng(seed)
    state = random_monopole_state(
        model, backend, seed=seed, eps=eps_values[0], scale=SWEEP_PHI_SCALE
    )
    records: List[SweepRecord] = []
    for e in eps_values:
        state = MonopoleState(a=state.a, phi=state.phi, model=model, eps=e)
        if sup_phi_sq(state.phi) < SWEEP_PHI_FLOOR:
            fresh = random_monopole_state(
                model,
                backend,
                seed=int(rng.integers(0, 2**31)),
                eps=e,
                scale=SWEEP_PHI_SCALE,
            )
            state = MonopoleState(a=state.a, phi=fresh.phi, model=model, eps=e)
        state, info = solve(model, e, state, ph=ph)
        diag = sweep_diagnostics(state, ph)
        records.append(
            SweepRecord(
                eps=e,
                iterations=info.iterations,
                converged=info.converged,
                **diag,
            )
        )
    # limit candidate: Phi/sqrt2 with the final gauge field
    limit = MonopoleState(
        a=state.a,
        phi=SpinorField(
            state.phi.alpha / math.sqrt(2.0),
            state.phi.beta1bar / math.sqrt(2.0),
            state.backend,
        ),
        model=model,
        eps=None,
    )
    rr = residual_contact(limit, ph)
    records[-1].residual_limit = rr.total
    records[-1].constraint_limit = rr.r_constraint
    return records


def loglog_slope(
    xs: Sequence[float], ys: Sequence[float], floor: float = 1e-250
) -> Optional[float]:
    """Least-squares slope of log(y) against log(x); None if degenerate.

    Values at or below the floor are treated as numerical zeros and dropped
    (diagnostics of reducible states are roundoff noise, not data).
    """
    pts = [(x, y) for x, y in zip(xs, ys) if x > 0 and y > floor]
    if len(pts) < 2:
        return None
    lx = np.log([p[0] for p in pts])
    ly = np.log([p[1] for p in pts])
    lx = lx - lx.mean()
    denom = float(lx @ lx)
    if denom == 0:
        return None
    return float((lx @ (ly - ly.mean())) / denom)
