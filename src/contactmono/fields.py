"""Field backends: exact invariant sector and the Heisenberg nilmanifold grid.

The invariant backend stores one coefficient per field component; frame
derivatives vanish identically, so it is exact and finite dimensional.
The grid backend discretizes the nilmanifold obtained from [0,1)^3 with
identifications (x,y,z) ~ (x+1,y,z) ~ (x,y+1,z+2x) ~ (x,y,z+1), on which
T = d/dz, e1 = d/dx + 2y d/dz, e2 = d/dy realize [e1,e2] = -2T globally.
Second-order central differences; every boundary wrap is an index
permutation, so the discrete frame operators are exactly skew-adjoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Tuple

import numpy as np

from .algebra import ModelStructure, is_heisenberg
from .errors import BackendMismatch, TorsionError, WrongModel
from .pseudohermitian import PhInvariants

DIR_T = "0"
DIR_Z1 = "1"
DIR_Z1BAR = "1bar"


class _Stencil(tuple):
    """A grid operator as a tuple of terms (idx, coef).

    Row i of the operator applied to u is the sum over its terms of
    coef[i] * u[idx[i]]; coef is a scalar or an N^3 array, and idx None is the
    identity.  A term whose idx is a pair (plus, minus) is a difference,
    coef[i] * (u[plus[i]] - u[minus[i]]): it is taken before it is scaled, so
    a smooth field loses no digits to the 1/h of a central difference.  Sums
    concatenate terms and scalar (or row) factors scale the coefficients, so
    the Jacobian is assembled from COO triplets in one pass.
    """

    def apply(self, u):
        """The operator applied to the flat array u."""
        out = 0
        for idx, coef in self:
            if isinstance(idx, tuple):
                out = out + coef * (u[idx[0]] - u[idx[1]])
            else:
                out = out + coef * (u if idx is None else u[idx])
        return out

    def entries(self):
        """(idx, coef) per matrix entry: a difference gives two."""
        for idx, coef in self:
            if isinstance(idx, tuple):
                yield idx[0], coef
                yield idx[1], -coef
            else:
                yield idx, coef

    def __add__(self, other):
        return _Stencil(tuple.__add__(self, other))

    def __sub__(self, other):
        return self + -other

    def __mul__(self, factor):
        return _Stencil((idx, factor * coef) for idx, coef in self)

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1


class Backend:
    """What the field operators need of a backend.

    A backend has `shape` (the array shape of one field component), `n_points`
    and `stencils`, the frame operators (T, e1, e2, Z1, Z1bar) as _Stencil
    rows: the one definition of its discretisation, which `apply` runs on a
    field and the solver's equation forms assemble into the Jacobian.
    Integrals are point sums weighted by volume / n_points.
    """

    volume = 2.0  # contact volume of the unit fundamental domain

    def apply(self, k: int, arr):
        """Frame operator k of `stencils` applied to a field."""
        return self.stencils[k].apply(np.ravel(arr)).reshape(np.shape(arr))

    def d_T(self, arr):
        return self.apply(0, arr)

    def d_e1(self, arr):
        return self.apply(1, arr)

    def d_e2(self, arr):
        return self.apply(2, arr)

    def zero(self):
        return np.zeros(self.shape, dtype=complex)[()]

    def integrate(self, values):
        return complex(np.sum(values)) * (self.volume / self.n_points)

    def sup(self, values):
        return float(np.max(np.abs(values)))


class InvariantBackend(Backend):
    """Constant-coefficient fields: the grid at one point, no frame derivatives."""

    kind = "invariant"
    shape = ()
    n_points = 1
    stencils = (_Stencil(),) * 5

    def __init__(self, model: ModelStructure):
        self.model = model

    def apply(self, k: int, arr):
        return 0j

    def __repr__(self):
        return f"InvariantBackend({self.model.name})"


class HeisGridBackend(Backend):
    """N^3 grid on the Heisenberg nilmanifold with the twisted y-wrap."""

    kind = "heis-grid"

    def __init__(self, model: ModelStructure, n: int):
        if not is_heisenberg(model):
            raise WrongModel("grid backend supports the Heisenberg model only")
        if n % 2 != 0 or n <= 0:
            raise ValueError("grid size N must be even and positive")
        self.model = model
        self.n = n
        self.h = 1.0 / n
        self.shape = (n, n, n)
        self.n_points = n**3
        self._build_wraps(n)

    def _build_wraps(self, n: int):
        i, j, k = np.meshgrid(
            np.arange(n), np.arange(n), np.arange(n), indexing="ij"
        )

        def flat(ii, jj, kk):
            return (ii * n + jj) * n + kk

        self.xp = flat((i + 1) % n, j, k).ravel()
        self.xm = flat((i - 1) % n, j, k).ravel()
        self.zp = flat(i, j, (k + 1) % n).ravel()
        self.zm = flat(i, j, (k - 1) % n).ravel()
        # y-wrap twists z by 2x: f(x,1,z) = f(x,0,z-2x), so crossing y = 1
        # upward reads index k - 2i (and downward k + 2i)
        up_k = np.where(j == n - 1, (k - 2 * i) % n, k)
        dn_k = np.where(j == 0, (k + 2 * i) % n, k)
        self.yp = flat(i, (j + 1) % n, up_k).ravel()
        self.ym = flat(i, (j - 1) % n, dn_k).ravel()

    @cached_property
    def stencils(self):
        """T, e1, e2 and Z1, Z1bar = (e1 -+ i e2)/2: central differences over the wraps."""
        inv2h = 1.0 / (2 * self.h)

        def central(plus, minus):
            return _Stencil((((plus, minus), inv2h),))

        dz = central(self.zp, self.zm)
        dx = central(self.xp, self.xm)
        y = np.broadcast_to(self.coords()[1], self.shape).ravel()
        de1 = dx + dz * (2 * y)  # the factor 2y scales the rows of dz
        de2 = central(self.yp, self.ym)
        return dz, de1, de2, 0.5 * (de1 - 1j * de2), 0.5 * (de1 + 1j * de2)

    def coords(self):
        n = self.n
        x = (np.arange(n) * self.h)[:, None, None]
        y = (np.arange(n) * self.h)[None, :, None]
        z = (np.arange(n) * self.h)[None, None, :]
        return x, y, z

    def __repr__(self):
        return f"HeisGridBackend(N={self.n})"


def _check_same_backend(*objs):
    backends = {id(o.backend) for o in objs}
    if len(backends) > 1:
        raise BackendMismatch("fields live on different backends")


def _conj(x):
    return x.conjugate()


@dataclass
class SpinorField:
    """Section of the canonical bundle: (alpha, beta1bar / sqrt2-slot)."""

    alpha: object
    beta1bar: object
    backend: Backend

    def __add__(self, other):
        _check_same_backend(self, other)
        return SpinorField(
            self.alpha + other.alpha, self.beta1bar + other.beta1bar, self.backend
        )

    def __sub__(self, other):
        _check_same_backend(self, other)
        return SpinorField(
            self.alpha - other.alpha, self.beta1bar - other.beta1bar, self.backend
        )

    def __mul__(self, scalar):
        return SpinorField(self.alpha * scalar, self.beta1bar * scalar, self.backend)

    __rmul__ = __mul__

    def pointwise_sq(self):
        return self.alpha * _conj(self.alpha) + self.beta1bar * _conj(self.beta1bar)


@dataclass
class GaugeField:
    """Real 1-form a = a0 e0 + a1re e1 + a2re e2 on a backend."""

    a0: object
    a1re: object
    a2re: object
    backend: Backend

    def aZ1(self):
        return (self.a1re - 1j * self.a2re) * 0.5

    def aZ1bar(self):
        return (self.a1re + 1j * self.a2re) * 0.5


def zero_gauge(backend: Backend) -> GaugeField:
    return GaugeField(*(np.zeros(backend.shape)[()] for _ in range(3)), backend)


def _connection_weight(ph: PhInvariants, direction: str):
    """i*omega(direction): the connection weight of the beta slot."""
    w0, w1, w2 = ph.omega_float()
    if direction == DIR_T:
        return 1j * w0
    if direction == DIR_Z1:
        return 1j * (w1 - 1j * w2) * 0.5
    if direction == DIR_Z1BAR:
        return 1j * (w1 + 1j * w2) * 0.5
    raise ValueError(f"unknown direction {direction!r}")


# each direction's operator in Backend.stencils
_STENCIL_OF = {DIR_T: 0, DIR_Z1: 3, DIR_Z1BAR: 4}


def _frame_derivative(backend: Backend, direction: str, arr):
    if direction not in _STENCIL_OF:
        raise ValueError(f"unknown direction {direction!r}")
    return backend.apply(_STENCIL_OF[direction], arr)


def cov_deriv(
    f: SpinorField, direction: str, a: Optional[GaugeField], ph: PhInvariants
) -> SpinorField:
    """Gauge-twisted pseudohermitian covariant derivative, component-wise.

    alpha carries no connection weight; the beta slot carries i*omega(dir);
    both carry +i a(dir).
    """
    weight = _connection_weight(ph, direction)
    if a is None:
        twist = 0j
    else:
        _check_same_backend(f, a)
        along = {DIR_T: lambda: a.a0, DIR_Z1: a.aZ1, DIR_Z1BAR: a.aZ1bar}[direction]
        twist = 1j * along()  # a(direction), built for this direction only
    alpha = _frame_derivative(f.backend, direction, f.alpha) + twist * f.alpha
    beta = (
        _frame_derivative(f.backend, direction, f.beta1bar)
        + (weight + twist) * f.beta1bar
    )
    return SpinorField(alpha, beta, f.backend)


def dirac_xi(f: SpinorField, a: Optional[GaugeField], ph: PhInvariants) -> SpinorField:
    """Contact Dirac operator: components (-2 beta^a_{1b,1}, 2 alpha^a_{,1b})."""
    d_beta = cov_deriv(f, DIR_Z1, a, ph).beta1bar
    d_alpha = cov_deriv(f, DIR_Z1BAR, a, ph).alpha
    return SpinorField(-2 * d_beta, 2 * d_alpha, f.backend)


def dirac_eps(
    f: SpinorField, a: Optional[GaugeField], ph: PhInvariants, eps
) -> SpinorField:
    """eps-family Dirac operator, valid only for vanishing torsion.

    components: (2 beta^a_{1b,1} - i/eps alpha^a_{,0} + eps alpha,
                 i/eps beta^a_{1b,0} - 2 alpha^a_{,1b})
    """
    if not ph.torsion.is_zero():
        raise TorsionError("eps-family Dirac operator requires zero torsion")
    e = float(eps)
    d_beta_1 = cov_deriv(f, DIR_Z1, a, ph).beta1bar
    d_0 = cov_deriv(f, DIR_T, a, ph)
    d_alpha_1b = cov_deriv(f, DIR_Z1BAR, a, ph).alpha
    comp0 = 2 * d_beta_1 - (1j / e) * d_0.alpha + e * f.alpha
    comp1 = (1j / e) * d_0.beta1bar - 2 * d_alpha_1b
    return SpinorField(comp0, comp1, f.backend)


def l2_inner(f: SpinorField, g: SpinorField) -> complex:
    """Hermitian L^2 pairing with volume density 2 on the fundamental domain."""
    _check_same_backend(f, g)
    integrand = f.alpha * _conj(g.alpha) + f.beta1bar * _conj(g.beta1bar)
    return f.backend.integrate(integrand)


def l2_norm_sq(f: SpinorField) -> float:
    val = l2_inner(f, f)
    return float(val.real if isinstance(val, complex) else val)


def scalar_l2_norm_sq(backend: Backend, values) -> float:
    out = backend.integrate(values * _conj(values))
    return float(out.real if isinstance(out, complex) else out)


def sup_phi_sq(f: SpinorField) -> float:
    return float(f.backend.sup(f.pointwise_sq()))


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
    direction: str,
    a: Optional[GaugeField],
    ph: PhInvariants,
) -> AdjointReport:
    """<nabla_v f, g> against <f, -nabla_vbar g>; div(v) = 0 on these backends.

    The formal adjoint of nabla_v is -nabla_{conj(v)}: T is real while
    Z1* = -Z1bar.
    """
    _check_same_backend(f, g)
    conj_dir = {DIR_T: DIR_T, DIR_Z1: DIR_Z1BAR, DIR_Z1BAR: DIR_Z1}[direction]
    lhs = l2_inner(cov_deriv(f, direction, a, ph), g)
    rhs = -l2_inner(f, cov_deriv(g, conj_dir, a, ph))
    return AdjointReport(lhs=lhs, rhs=rhs)


def gauge_curvature_components(a: GaugeField, m: ModelStructure):
    """(da_01, da_02, da_12) of the gauge 1-form in the frame coframe.

    da_jk = e_j(a_k) - e_k(a_j) + sum_i a_i c^i_{jk}; frame derivatives
    vanish on the invariant backend.
    """
    b = a.backend
    comps = (a.a0, a.a1re, a.a2re)

    def deriv(j, k):
        return b.apply(j, comps[k] + 0j).real

    out = []
    for (j, k) in ((0, 1), (0, 2), (1, 2)):
        struct = sum(comps[i] * m.c_float(i, j, k) for i in range(3))
        out.append(deriv(j, k) - deriv(k, j) + struct)
    return tuple(out)


def b_curvature_components(a: GaugeField, ph: PhInvariants, m: ModelStructure, eps):
    """(F12, F01, F02) of F_b = (i/2) d(omega + eps theta) + i da.

    Components follow the layout F_b = i(F12 e1^e2 + F01 e0^e1 + F02 e0^e2);
    d(theta)_jk = c^0_jk.
    """
    e = float(eps)

    def background(j, k):
        return 0.5 * (ph.domega_float(j, k) + e * m.c_float(0, j, k))

    da01, da02, da12 = gauge_curvature_components(a, m)
    return (
        background(1, 2) + da12,
        background(0, 1) + da01,
        background(0, 2) + da02,
    )


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

    direct_f = nabla_T(nabla_Xi(f)) + nabla_Xi(nabla_T(f))

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


def gauge_transform(a: GaugeField, f: SpinorField, chi) -> Tuple[GaugeField, SpinorField]:
    """Phi -> exp(i chi) Phi, a -> a - d(chi).

    With the +i a(X) twist in the covariant derivative this pairing is the
    residual-preserving gauge action (exactly for constant chi, O(h^2) on
    the grid for smooth chi).
    """
    b = a.backend
    d0, d1, d2 = (b.apply(k, chi + 0j).real for k in range(3))
    a_new = GaugeField(a.a0 - d0, a.a1re - d1, a.a2re - d2, b)
    phase = np.exp(1j * chi)
    f_new = SpinorField(f.alpha * phase, f.beta1bar * phase, b)
    return a_new, f_new
