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
from dataclasses import asdict, dataclass, field
from types import SimpleNamespace
from typing import TYPE_CHECKING, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

# scipy.sparse is imported where a grid solve first needs it, so that the
# exact commands (derive, curvature, check) and the invariant sector never
# load it: it is about half the memory and start-up time of a process that
# imports contactmono
if TYPE_CHECKING:
    import scipy.sparse as sp

from .algebra import ModelStructure, is_heisenberg
from .errors import PreconditionError, TorsionError, WrongModel
from .fields import (
    DIR_T,
    DIR_Z1,
    DIR_Z1BAR,
    GaugeField,
    SpinorField,
    _Stencil,
    _connection_weight,
    cov_deriv,
    factor_blocks,
    gauge_transform,
    scalar_l2_norm_sq,
    sup_phi_sq,
)
from .pseudohermitian import PhInvariants


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
    the curvature rows lie between them.  The forms are the backend's
    (_system), so a batch of reports builds them once.
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


def _energy(s: MonopoleState, ph: PhInvariants) -> float:
    """grad energy + int W |Phi|^2 + int (|alpha|^2-|beta|^2)^2 of a state.

    On a constrained solution with positive Webster curvature every term is
    non-negative and the sum vanishes, which forces Phi = 0.  The grad
    energy is sum_j ||nabla_{e_j} Phi||^2 over the real frame directions
    e1 = Z1 + Z1bar and e2 = i(Z1 - Z1bar).
    """
    b, phi = s.backend, s.phi
    d_z1 = cov_deriv(phi, DIR_Z1, s.a, ph)
    d_z1b = cov_deriv(phi, DIR_Z1BAR, s.a, ph)
    grad_sq = 0.0
    for comp in ("alpha", "beta1bar"):
        u, v = getattr(d_z1, comp), getattr(d_z1b, comp)
        grad_sq += scalar_l2_norm_sq(b, u + v)
        grad_sq += scalar_l2_norm_sq(b, 1j * (u - v))
    term_w = ph.webster_float() * float(np.real(b.integrate(phi.pointwise_sq())))
    dens = phi.alpha * np.conj(phi.alpha) - phi.beta1bar * np.conj(phi.beta1bar)
    term_q = float(np.real(b.integrate(dens * np.conj(dens))))
    return grad_sq + term_w + term_q


# --- Heisenberg closed-form family ---------------------------------------------


@dataclass(frozen=True)
class FamilyMembership:
    member: bool
    curvature_gap: float
    dirac_gap: float

    def as_dict(self):
        return asdict(self)


# a state is in the family when both gaps are below FAMILY_TOL
FAMILY_TOL = 1e-10


class HeisenbergFamily:
    """Exact invariant solution family of the contact system on gen(0,0).

    2 a0 = |alpha|^2 - |beta|^2, and a(Z1) must annihilate the spinor:
    a1 beta = 0 and conj(a1) alpha = 0 (a1 is free only on reducibles).
    """

    def __init__(self, model: ModelStructure):
        if not is_heisenberg(model):
            raise WrongModel("closed form is specific to the Heisenberg model")
        self.model = model

    def membership(self, s: MonopoleState) -> FamilyMembership:
        if s.backend.kind != "invariant":
            raise WrongModel("closed form describes the invariant sector")
        alpha, beta = complex(s.phi.alpha), complex(s.phi.beta1bar)
        a0 = float(np.real(s.a.a0))
        a1 = complex(s.a.aZ1())
        curvature_gap = abs(2 * a0 - abs(alpha) ** 2 + abs(beta) ** 2)
        dirac_gap = 2 * math.hypot(abs(a1 * beta), abs(a1 * alpha))
        return FamilyMembership(
            member=(curvature_gap <= FAMILY_TOL and dirac_gap <= FAMILY_TOL),
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
    return np.real(np.array(parts)).ravel()


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


def _slots(x: np.ndarray, b):
    """Slot values of the packed vector x on backend b: flat views of x for
    the grid's stencils, cheap numpy scalars at one point."""
    p = x if b.kind == "invariant" else x.reshape(7, -1)
    alpha, beta = p[0] + 1j * p[1], p[2] + 1j * p[3]
    return alpha, np.conj(alpha), beta, np.conj(beta), p[4], p[5], p[6]


def _forms(s: MonopoleState, ph: PhInvariants, constraint: bool) -> List[_Form]:
    """The equation fields of s's system, in the order of the stacked residual.

    They do not depend on the state, so a backend keeps them (_system).  The
    beta slot carries i*omega(T) and i*omega(Z1), and da_jk sum_i a_i c^i_jk,
    so they hold for every model.
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


def _system(s: MonopoleState, ph: PhInvariants, constraint: bool) -> _Linearisation:
    """The equation system of s's backend for (ph, s.eps, constraint).

    Its forms are built at the first use of the key and kept in
    Backend.systems, and their linearisation compiles at its first Jacobian.
    The key holds everything the forms read but the model, which must be
    the backend's (compared by value).
    """
    b = s.backend
    # by value: equal models may be distinct objects
    if s.model is not b.model and s.model.c != b.model.c:
        raise WrongModel(f"{b!r} was built for another model")
    key = (ph, s.eps, constraint)
    lin = b.systems.get(key)
    if lin is None:
        lin = b.systems[key] = _Linearisation(_forms(s, ph, constraint))
    return lin


def _residual_fields(s: MonopoleState, ph: PhInvariants, constraint: bool):
    """List of (complex_or_real, values) equation fields defining the target."""
    u = _slots(_pack(s), s.backend)
    forms = _system(s, ph, constraint).forms
    return [(f.kind, np.reshape(f.value(u), s.backend.shape)) for f in forms]


def _stack_residual(x: np.ndarray, b, lin: _Linearisation) -> np.ndarray:
    """The weighted real residual of system lin at the packed vector x on
    backend b: Re and Im of each complex field, then the real ones, in the
    order of the forms.

    At one point each form's value is a scalar, stacked as it is.
    """
    u = _slots(x, b)
    weight = math.sqrt(b.volume / b.n_points)
    rows = []
    for f in lin.forms:
        v = f.value(u)
        if f.kind == "c":
            rows += (v.real * weight, v.imag * weight)
        else:
            rows.append(np.real(v) * weight)
    return np.array(rows) if b.kind == "invariant" else np.concatenate(rows)


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
    """The real matrix of the row blocks times the residual weight: its COO
    triplets in the (data, (row, col)) form of scipy's coo_matrix, its shape
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
    return (vals, (rows, cols)), (row * n3, 7 * n3), marks


def _coulomb_form(backend) -> _Form:
    """div(a) = dz a0 + de1 a1 + de2 a2 with the backend's frame stencils."""
    return _Form("r", lin=dict(zip((A0, A1, A2), backend.stencils[:3])))


# the slot group of each slot in the preconditioner's diagonal blocks:
# (Re alpha, Im alpha), (Re beta, Im beta), a0, a1 and a2
_PRECOND_GROUPS = np.array([0, 0, 1, 1, 2, 3, 4])

# A grid system with fewer rows than unknowns (the contact system without the
# Reeb constraint: six real equations per point, Coulomb row included, for
# seven unknowns) has a minimum-norm step, and the norm decides which solution
# Gauss-Newton walks to.  Its CGLS on J is preconditioned by v -> S P^-1 (S v)
# (_Linearisation.preconditioner), for P = S J0^T J0 S + w^2 I and S the
# diagonal of _SLOT_SCALE: HORIZONTAL_GAUGE_SCALE on the a1re and a2re slots
# and 1 elsewhere.  The step is then the one of least
# (J0^T J0 + w^2 S^-2)-norm, in which horizontal gauge moves count twice.
# With S = 1 the N=8 contact solves from seeds 0-9 take up to 80 steps, and
# seed 9 runs to max-iter (README, "Numerical backends").  Systems with at
# least as many rows as unknowns (the eps family) run plain CGLS.  S is a
# power of two, so scaling by it is exact.
HORIZONTAL_GAUGE_SCALE = 0.5
_SLOT_SCALE = np.array([1.0] * 5 + [HORIZONTAL_GAUGE_SCALE] * 2)


# the most mark entries that one write of a grid Jacobian call evaluates at
# once (_Linearisation.jacobian): each form's marks are written in chunks of
# whole groups, so the call holds about as much as the form's diagonals
MARK_CHUNK = 2**14


class _FormMarks(NamedTuple):
    """A chunk of the marks of one form on the grid, written by
    _Linearisation.jacobian.

    The marks of one (row block, column block), a group, share their N^3
    entries.  Row i of the chunk's values is part parts[i] = (index into the
    form's diagonals, real or imaginary part) of a diagonal times scale[i],
    the mark's sign times the residual weight.  The first len(at) rows are
    the first mark of each group; the rows (lo, hi) of layers[j] are the
    (j + 2)-th marks of the first hi - lo groups, which are sorted by size.
    base holds the linear part at the entries of the first len(base)
    groups; the entries of the others hold -0.0 there.  at and at_t are
    each group's positions in the data of J and J^T.
    """

    parts: tuple
    scale: np.ndarray
    layers: tuple
    base: np.ndarray
    at: np.ndarray
    at_t: np.ndarray


def _group_positions(mat, pairs, n3):
    """The positions in the data of the CSR matrix mat, whose indices are
    sorted, of the entries (r n3 + i, c n3 + i), i < n3, of each (r, c) in
    pairs: one row per pair, searched one row block of mat at a time."""
    out = np.empty((len(pairs), n3), dtype=np.intp)
    points = np.arange(n3)
    for r in np.unique(pairs[:, 0]):
        lo, hi = mat.indptr[r * n3], mat.indptr[(r + 1) * n3]
        # the entry (r n3 + i, col) has the key i * n_cols + col
        keys = np.repeat(points * mat.shape[1], np.diff(mat.indptr[r * n3 : (r + 1) * n3 + 1]))
        keys += mat.indices[lo:hi]
        mine = pairs[:, 0] == r
        want = (pairs[mine, 1] * n3)[:, None] + points * (mat.shape[1] + 1)
        out[mine] = lo + np.searchsorted(keys, want)
    return out


def _form_marks(groups, based, marks, lo, weight, at, at_t, data) -> _FormMarks:
    """The _FormMarks of a chunk of the groups of the form whose diagonals
    start at lo, sorted by size, those that need their base (based) first
    among equals: marks are the _Marks, at and at_t the groups' positions
    in the data of J and J^T, and data J's data (the linear part)."""
    n_base = max((j + 1 for j, b in enumerate(based) if b), default=0)
    rows = [g[0] for g in groups]
    layers = []
    for j in range(1, len(groups[0])):
        layers.append((len(rows), len(rows) + sum(len(g) > j for g in groups)))
        rows += [g[j] for g in groups if len(g) > j]
    return _FormMarks(
        parts=tuple((marks[i].k - lo, marks[i].imag) for i in rows),
        scale=np.array([[marks[i].sign * weight] for i in rows]),
        layers=tuple(layers),
        base=data[at[:n_base]],
        at=at,
        at_t=at_t,
    )


class _Linearisation:
    """An equation system: its forms, and their Jacobian, compiled once and
    evaluated per state.

    The forms' linear part does not depend on the state, and their quadratic
    part only adds _Form.diagonal(u) on the diagonal.  The first jacobian call
    compiles: _assemble builds the weighted, realified matrix of the linear
    part (with the Coulomb rows on the grid) once, with a _Diag placeholder
    per diagonal, whose entries (the marks') hold -0.0 there.

    At one point each call adds the scaled, signed diagonals at the marks'
    positions to a copy of the dense linear part.  On the grid the system
    owns J and J^T as CSR matrices, which hold the linear part off the
    marks, and each call writes only the marks' entries of both, form by
    form (_FormMarks): -0.0 is the identity of addition, so an entry of one
    mark whose linear part is -0.0 (all of the contact system's, and all
    but one in twenty of an eps system's) is the mark's value as it is.  A
    Gauss-Newton step allocates no array of J's size.  The grid J and J^T
    are read-only for callers, and valid until the next jacobian or
    preconditioner call on the system.

    A backend keeps one system per key (_system) but at most one compiled
    Jacobian: a compile first releases the compiled arrays of every system
    in Backend.systems, with J, J^T and the preconditioner kept with them,
    so memory does not grow with the eps values or seeds solved on one
    backend.  The linearisation is given its backend with each vector, so
    the backend's systems hold no reference back to it.

    A fresh assembly at u sums each entry's terms in its own order; here the
    diagonals come last, in mark order.  Both agree bit for bit when no
    entry sums more than two nonzero terms, as in every system of _forms.
    """

    def __init__(self, forms: Sequence[_Form]):
        self.forms = forms
        self._compiled = None

    def _compile(self, b) -> SimpleNamespace:
        comp = SimpleNamespace()
        n3 = b.n_points
        grid = b.kind == "heis-grid"
        probe = [np.zeros(1, complex)] * 4 + [np.zeros(1)] * 3  # slot types
        blocks, k, first = [], 0, []
        for f in self.forms:
            first.append(k)
            diag = {}
            for slot, coef in f.diagonal(probe).items():
                diag[slot] = _Diag(k, np.iscomplexobj(coef))
                k += 1
            blocks.append(f.rows(diag))
        if grid:
            blocks.append(_coulomb_form(b).rows({}))
        triplets, shape, marks = _assemble(blocks, b)
        comp.shape = shape
        weight = math.sqrt(b.volume / n3)
        comp.precond = None
        if not grid:
            # the sums of coo_matrix.toarray, in entry order, without
            # loading scipy.sparse for the invariant sector
            vals, entry = triplets
            dense = np.zeros(shape)
            np.add.at(dense, entry, vals)
            comp.data = dense.ravel()
            # the data positions of the marks' entries, in mark order
            comp.pos = np.array([r * shape[1] + c for r, c, _ in marks])
            comp.diag = np.array([m.k for _, _, m in marks])
            comp.imag = np.array([m.imag for _, _, m in marks])
            comp.scale = np.array([m.sign * weight for _, _, m in marks])
            return comp
        import scipy.sparse as sp

        jac = sp.coo_matrix(triplets, shape=shape).tocsr()
        del triplets
        # the marks that share an entry share all N^3 of theirs: the marks of
        # one (row block, column block), a group
        groups = {}
        for i, (r, c, _) in enumerate(marks):
            groups.setdefault((r, c), []).append(i)
        pairs, groups = np.array(list(groups)).reshape(-1, 2), list(groups.values())
        at = _group_positions(jac, pairs, n3)
        # a group needs its base unless its entries hold -0.0 in J
        based = [not np.all(np.signbit(v) & (v == 0)) for v in jac.data[at]]
        # each form's groups, sorted by size and those with a base first
        # among equals, in chunks of at most MARK_CHUNK entries
        forms, order = [], []
        for lo, hi in zip(first, first[1:] + [k]):
            mine = [j for j, g in enumerate(groups) if lo <= marks[g[0]][2].k < hi]
            mine.sort(key=lambda j: (-len(groups[j]), not based[j]))
            chunks = []
            for j in mine:
                if not chunks or size + len(groups[j]) * n3 > MARK_CHUNK:
                    chunks.append([])
                    size = 0
                chunks[-1].append(j)
                size += len(groups[j]) * n3
            forms.append((lo, chunks))
            order += mine
        at = at[order]
        # J^T in CSR: J's CSC arrays, with the linear part
        jac_t = jac.T.tocsr()
        at_t = _group_positions(jac_t, pairs[order, ::-1], n3)
        # jacobian() writes the data of J and J^T, which callers only read
        comp.data, comp.data_t = jac.data, jac_t.data
        for m in (jac, jac_t):
            m.data = m.data.view()
            m.data.flags.writeable = False
        comp.jac, comp.jac_t = jac, jac_t
        comp.forms, start, mark_of = [], 0, [m for _, _, m in marks]
        for lo, chunks in forms:
            comp.forms.append([])
            for chunk in chunks:
                end = start + len(chunk)
                comp.forms[-1].append(
                    _form_marks(
                        [groups[j] for j in chunk],
                        [based[j] for j in chunk],
                        mark_of,
                        lo,
                        weight,
                        at[start:end],
                        at_t[start:end],
                        comp.data,
                    )
                )
                start = end
        return comp

    def _compiled_on(self, b) -> SimpleNamespace:
        """The compiled arrays, compiled on backend b if they are not."""
        if self._compiled is None:
            for other in b.systems.values():
                other._compiled = None
            self._compiled = self._compile(b)
        return self._compiled

    def jacobian(self, x: np.ndarray, b):
        """The Jacobian at the packed vector x on backend b: dense at one
        point, a fresh array; on the grid the system's own CSR matrix with
        the Coulomb rows, its marked entries and J^T's written in place.  A
        grid Jacobian is read-only, and valid until the next jacobian or
        preconditioner call on this system."""
        comp = self._compiled_on(b)
        u = _slots(x, b)
        if b.kind != "heis-grid":
            d = np.array([v for f in self.forms for v in f.diagonal(u).values()], dtype=complex)
            # (diagonal, real or imaginary part), gathered by mark
            vals = d.view(float).reshape(len(d), 2)[comp.diag, comp.imag]
            vals *= comp.scale
            data = comp.data.copy()
            # marks that share an entry add to it in mark order
            np.add.at(data, comp.pos, vals)
            return data.reshape(comp.shape)
        for f, chunks in zip(self.forms, comp.forms):
            diag = list(f.diagonal(u).values())
            for fm in chunks:
                vals = np.array([diag[k].imag if imag else diag[k].real for k, imag in fm.parts])
                vals *= fm.scale
                # the linear part first, then each entry's marks in mark order
                vals[: len(fm.base)] += fm.base
                for lo, hi in fm.layers:
                    vals[: hi - lo] += vals[lo:hi]
                comp.data[fm.at] = comp.data_t[fm.at_t] = vals[: len(fm.at)]
                del vals
            del diag  # before the next form's diagonals
        return comp.jac

    def transpose(self, jac):
        """J^T of the grid jac, which must be this system's last jacobian():
        the system's own CSR matrix, written with J."""
        comp = self._compiled
        if comp is None or jac is not comp.jac:
            raise ValueError("transpose takes this system's last grid Jacobian")
        return comp.jac_t

    def preconditioner(self, b):
        """v -> S P^-1 (S v) for the CGLS of a grid step on J (_cgls_step),
        P of _preconditioner_blocks and S the diagonal of _SLOT_SCALE over
        the points; None for a system with at least as many rows as
        unknowns, which runs plain CGLS (HORIZONTAL_GAUGE_SCALE).

        CGLS on J so preconditioned is CGLS on J S preconditioned by P with
        its iterates multiplied by S, bit for bit: S is a power of two.
        P is factored one kz block at a time (fields.factor_blocks), built
        at the first call after a compile from J with its marks put back to
        the linear part, and released with the compiled Jacobian; P^-1 runs
        in HeisGridBackend.xz_fourier.
        """
        comp = self._compiled_on(b)
        if comp.shape[0] >= comp.shape[1]:
            return None
        if comp.precond is None:
            for fm in (fm for chunks in comp.forms for fm in chunks):
                comp.data[fm.at] = -0.0
                comp.data[fm.at[: len(fm.base)]] = fm.base
            comp.precond = factor_blocks(_preconditioner_blocks(comp.jac, b))
        factors = comp.precond
        scale = _SLOT_SCALE[:, None]

        def solve(v):
            blocks = b.xz_fourier(scale * np.reshape(v, (7, -1)))
            u = b.xz_fourier_inverse(np.array([f.solve(w) for f, w in zip(factors, blocks)]))
            return (scale * u.reshape(7, -1)).ravel()

        return solve


def _preconditioner_blocks(j0, b):
    """P = S J0^T J0 S + w^2 I in (kz, kx) blocks: yields, for kz = 0..N/2,
    its block as CSC acting on row kz of HeisGridBackend.xz_fourier(v) for
    v the seven slots.  J0 is the Jacobian at x = 0 with the Coulomb rows
    (the compiled linear part), S the diagonal of _SLOT_SCALE over the
    points and w^2 = volume / n_points.  P keeps only its five diagonal
    blocks of slots, _PRECOND_GROUPS.

    J0 is built from the frame stencils, so its blocks are
    HeisGridBackend.xz_blocks(J0), and P's are products of them, one kz at
    a time: the 7 N^3 product J0^T J0 is never formed.
    """
    import scipy.sparse as sp

    m = b.n**2
    scale = np.repeat(_SLOT_SCALE, m)
    group = np.repeat(_PRECOND_GROUPS, m)
    for j in b.xz_blocks(j0):
        j.data *= scale[j.indices]
        p = (j.conj().T @ j).tocoo()
        keep = group[p.row] == group[p.col]
        p = sp.csc_matrix((p.data[keep], (p.row[keep], p.col[keep])), shape=p.shape)
        yield p + (b.volume / b.n_points) * sp.identity(7 * m, format="csc")


def _grid_jacobian(x: np.ndarray, b, lin: _Linearisation) -> sp.csr_matrix:
    """Jacobian of the stacked real residual of lin at x, plus the Coulomb
    rows, as lin's own read-only CSR matrix (valid until lin's next
    Jacobian or preconditioner).

    The last N^3 rows are the rows of _coulomb_form with the residual weight;
    solve pairs them with -div(a), which fixes the gauge directions of the
    step.
    """
    return lin.jacobian(x, b)


def _invariant_jacobian(x: np.ndarray, b, lin: _Linearisation) -> np.ndarray:
    """Dense 7-column Jacobian of the stacked residual of lin at x: the rows
    at one point."""
    return lin.jacobian(x, b)


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


def _grid_divergence(x: np.ndarray, b) -> np.ndarray:
    """div(a) of the packed vector x, flat: the value of _coulomb_form, whose
    rows _grid_jacobian holds."""
    return _coulomb_form(b).value(dict(zip((A0, A1, A2), x.reshape(7, -1)[4:])))


def _coulomb_project_grid(x: np.ndarray, b) -> np.ndarray:
    """The packed vector x with a projected to the discrete Coulomb slice and
    the base-point phase fixed.

    Solves the frame Laplacian div(grad chi) = div(a), with the frame
    stencils as grad and _coulomb_form as div, directly in (kz, kx) blocks
    (HeisGridBackend.laplacian_solve, the minimum-norm chi), and applies
    gauge_transform with chi to x's slots.
    """
    chi = b.laplacian_solve(_grid_divergence(x, b))
    alpha, _, beta, _, *a = _slots(x, b)
    a, phi = gauge_transform(GaugeField(*a, b), SpinorField(alpha, beta, b), chi)
    alpha, beta = phi.alpha, phi.beta1bar
    # base-point phase fix
    ref = alpha[0]
    if abs(ref) > 1e-12:
        rot = np.conj(ref) / abs(ref)
        alpha, beta = alpha * rot, beta * rot
    return np.array(
        [alpha.real, alpha.imag, beta.real, beta.imag, a.a0, a.a1re, a.a2re]
    ).ravel()


# --- Gauss-Newton ---------------------------------------------------------------

# The grid steps are inexact: CGLS stops once the linear residual is below
# eta_k times the nonlinear one, with the forcing term eta_k of Eisenstat &
# Walker (1996), choice 1, safeguarded and clamped.  CGLS_ATOL and
# CGLS_ITER_LIM guard CGLS itself (_cgls_step).
ETA_START = 0.5
ETA_MIN, ETA_MAX = 1e-6, 0.5
ETA_SAFEGUARD = 0.1
CGLS_ATOL = 1e-14
CGLS_ITER_LIM = 3000
_GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


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


def _cgls_step(jac, jac_t, rhs: np.ndarray, eta: float, precond=None):
    """CGLS (Bjorck 1996, sec. 7.4) on jac from p = 0, with jac_t its
    transpose and the preconditioner v -> M^-1 v (None for M = I), which
    returns v itself or an array the step may overwrite:
    (p, stop, iterations, |rhs - jac p|).

    The search directions are M^-1 J^T r (CG on the normal equations
    preconditioned by M).  From p = 0 the iterates stay in M^-1 times the
    range of J^T, so the step of a consistent underdetermined system is the
    one of least M-norm.  The stop codes are lsqr's: 1 when
    |r| <= eta |rhs|, 2 when |J^T r| <= CGLS_ATOL ||J||_F |r| (p solves the
    least-squares problem to roundoff), 7 after CGLS_ITER_LIM iterations,
    and 0 when J^T rhs = 0 and p = 0 is the solution.
    """
    a_norm = float(np.linalg.norm(jac.data))
    p = np.zeros(jac.shape[1])
    r = rhs.copy()
    s = jac_t @ r
    z = s if precond is None else precond(s)
    d = z.copy()  # z is reused below for step * d, and d is updated in place
    gamma = float(s @ z)
    r_norm = rhs_norm = float(np.linalg.norm(rhs))
    stop, itn = 0, 0
    while gamma > 0:
        itn += 1
        t = jac @ d
        step = gamma / float(t @ t)
        # step * d and step * t go to z and t, which are not read again
        # before they are recomputed: no array is allocated for them
        p += np.multiply(step, d, out=z)
        t *= step
        r -= t
        s = jac_t @ r
        z = s if precond is None else precond(s)
        gamma_prev, gamma = gamma, float(s @ z)
        r_norm = float(np.linalg.norm(r))
        if r_norm <= eta * rhs_norm:
            stop = 1
        # |J^T r|: gamma is its square when there is no preconditioner
        elif math.sqrt(gamma if precond is None else float(s @ s)) <= CGLS_ATOL * a_norm * r_norm:
            stop = 2
        elif itn >= CGLS_ITER_LIM:
            stop = 7
        if stop:
            break
        d *= gamma / gamma_prev
        d += z
    return p, stop, itn, r_norm


# the loop stops once the residual norm is below LOOP_TOL_*, and a solve has
# converged when it is below CONVERGED_*
LOOP_TOL_INVARIANT = 1e-12
LOOP_TOL_GRID = 1e-8
CONVERGED_INVARIANT = 1e-10
CONVERGED_GRID = 1e-6


@dataclass
class SolveOpts:
    max_iter: int = 80
    constraint: bool = False
    seed: int = 0
    gauge_fix: bool = True


@dataclass
class SolveInfo:
    converged: bool
    iterations: int  # the loop index: steps + 1 on a converged stop
    report: ResidualReport
    # converged: the cost reached the loop tolerance; line-search-stalled: no
    # halving decreased the cost; max-iter: the loop ran out of steps
    stop_reason: str
    # (stop, iterations) of the CGLS call of each grid step (_cgls_step);
    # empty for the invariant sector, whose steps are dense least squares
    cgls_steps: List[Tuple[int, int]] = field(default_factory=list)
    # accepted Gauss-Newton steps; reports do not carry it
    steps: int = 0


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
    *,
    ph: PhInvariants,
) -> Tuple[MonopoleState, SolveInfo]:
    """Damped Gauss-Newton on the stacked residual, with gauge fixing.

    Invariant sector: exact least-squares steps.  Grid: inexact steps by
    CGLS on the Jacobian with the Coulomb rows appended, preconditioned by
    _Linearisation.preconditioner on the contact system (see _forcing_term
    and HORIZONTAL_GAUGE_SCALE).  The equation system is the backend's
    (_system), so the solves of a batch share it: its forms are built at the
    first use of (ph, eps, constraint) on the backend, and its Jacobian
    compiles only when another system was compiled on the backend since.  A
    step only evaluates the Jacobian.  Inside the loop a state is its packed
    vector (_pack), which the residual, the Jacobian and the gauge fix read
    through _slots; fields are built only for the final state.  The
    report is the residual report of the final state: residual_contact or
    residual_sw of it.
    """
    backend = init.backend
    state = MonopoleState(a=init.a, phi=init.phi, model=model, eps=eps)
    # raises WrongModel for another model, and TorsionError for eps with torsion
    lin = _system(state, ph, opts.constraint)
    grid = backend.kind == "heis-grid"
    coulomb_weight = math.sqrt(backend.volume / backend.n_points)

    def res(x):
        return _stack_residual(x, backend, lin)

    def gauge(x):
        if not opts.gauge_fix:
            return x
        if grid:
            return _coulomb_project_grid(x, backend)
        return _phase_fix_invariant(x)

    x = gauge(_pack(state))
    r = res(x)
    cost = float(r @ r)
    iterations = 0
    loop_tol = LOOP_TOL_GRID if grid else LOOP_TOL_INVARIANT
    eta, prev = ETA_START, None  # prev: (|F|, |F + J p|) of the last grid step
    stalled = False
    cgls_steps = []
    steps = 0
    for iterations in range(1, opts.max_iter + 1):
        if math.sqrt(cost) <= loop_tol:
            break
        if grid:
            rhs = -np.concatenate([r, coulomb_weight * _grid_divergence(x, backend)])
            fnorm = float(np.linalg.norm(rhs))
            if prev is not None:
                eta = _forcing_term(eta, fnorm, *prev, loop_tol)
            # built before the Jacobian, into the memory its compile freed
            precond = lin.preconditioner(backend)
            jac = _grid_jacobian(x, backend, lin)
            p, stop, itn, lin_norm = _cgls_step(jac, lin.transpose(jac), rhs, eta, precond)
            prev = (fnorm, lin_norm)
            cgls_steps.append((stop, itn))
        else:
            jac = _invariant_jacobian(x, backend, lin)
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
        steps += 1
    final = _unpack(x, model, backend, eps)
    converged = math.sqrt(cost) <= (CONVERGED_GRID if grid else CONVERGED_INVARIANT)
    if math.sqrt(cost) <= loop_tol:
        stop_reason = "converged"
    else:
        stop_reason = "line-search-stalled" if stalled else "max-iter"
    return final, SolveInfo(
        converged=converged,
        iterations=iterations,
        report=_residual_report(final, ph),
        stop_reason=stop_reason,
        cgls_steps=cgls_steps,
        steps=steps,
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
    s: MonopoleState, rr: ResidualReport, ph: PhInvariants
) -> CertificateVerdict:
    """Check the positive-curvature vanishing mechanism on a candidate state.

    rr is residual_contact(s, ph), which a contact solve reports as
    SolveInfo.report.
    """
    if not (ph.tw_curv.is_real() and ph.tw_curv.real_sign() > 0):
        raise PreconditionError("certificate requires positive Webster curvature")
    if s.eps is not None:
        raise ValueError("state carries eps; a certificate reads the contact system")
    if rr.total > CERT_TOL_RESIDUAL or rr.r_constraint > CERT_TOL_RESIDUAL:
        return CertificateVerdict(
            verdict="not-a-solution",
            sup_phi=math.sqrt(sup_phi_sq(s.phi)),
            energy=None,
            report=rr,
        )
    energy = _energy(s, ph)  # a solution's energy: the check above passed
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
    # the rung solve's SolveInfo.stop_reason; reports do not carry it
    stop_reason: Optional[str] = None

    def as_dict(self):
        out = asdict(self)
        del out["stop_reason"]
        return out


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
    *,
    backend,
    ph: PhInvariants,
) -> List[SweepRecord]:
    """Solve the eps-family along a decreasing eps list, warm-starting each step.

    The states live on backend, and ph holds model's invariants.
    """
    eps_values = [float(e) for e in eps_list]
    if any(b >= a for a, b in zip(eps_values, eps_values[1:])):
        raise ValueError("eps_list must be strictly decreasing")
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
                stop_reason=info.stop_reason,
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
