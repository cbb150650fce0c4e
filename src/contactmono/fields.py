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
from typing import Tuple

import numpy as np

from .algebra import ModelStructure, is_heisenberg
from .errors import BackendMismatch, TorsionError, WrongModel
from .pseudohermitian import PhInvariants

# a direction is the index of its frame operator in Backend.stencils
DIR_T, DIR_Z1, DIR_Z1BAR = 0, 3, 4


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

    def matrix(self, n_points: int):
        """The operator as a scipy CSR matrix on n_points values."""
        import scipy.sparse as sp

        local = np.arange(n_points)
        entries = list(self.entries())
        rows = np.tile(local, len(entries))
        cols = np.concatenate([local if idx is None else idx for idx, _ in entries])
        vals = np.concatenate([np.broadcast_to(coef, n_points) for _, coef in entries])
        return sp.csr_matrix((vals, (rows, cols)), shape=(n_points, n_points))

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

    @cached_property
    def systems(self) -> dict:
        """The solver's equation systems on this backend, by (ph, eps, constraint).

        solver._system fills it at the first use of a key, never at set-up.
        """
        return {}

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
        # at n = 2, x + 1 = x - 1 and the seam shift 2x = 0 (mod 2): each
        # central difference reads one point twice and the stencils vanish
        if n % 2 != 0 or n < 4:
            raise ValueError(f"grid size N must be even and at least 4, got {n}")
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

    # x and z wrap without a twist and the y-seam shifts z by 2x, so every
    # frame stencil commutes with z-translations: a real DFT in z splits an
    # operator built from them into N/2+1 independent blocks, one per kz.  A
    # stencil term that crosses the y-seam upward reads z - 2x: in a kz block
    # it carries the phase exp(-4 pi i kz x / N), which a DFT in x turns into
    # a shift of kx by 2kz.  So after a DFT in x as well, a kz block couples
    # kx only to kx + 2 s kz, s the net number of seam crossings of its terms.

    def xz_fourier(self, u):
        """The (kz, kx) Fourier blocks of real fields u, flat one after
        another: row kz of the (N/2+1, c N^2) result holds, field by field,
        the DFT over x of their rfft over z at kz, in (kx, y) order."""
        n = self.n
        f = np.fft.fft(np.fft.rfft(np.reshape(u, (-1, n, n, n)), axis=3), axis=1)
        return f.transpose(3, 0, 1, 2).reshape(n // 2 + 1, -1)

    def xz_fourier_inverse(self, blocks):
        """The flat real fields whose xz_fourier is blocks."""
        n = self.n
        f = np.reshape(blocks, (n // 2 + 1, -1, n, n)).transpose(1, 2, 3, 0)
        return np.fft.irfft(np.fft.ifft(f, axis=1), n=n, axis=3).ravel()

    def xz_blocks(self, op):
        """The (kz, kx) Fourier blocks of a sparse operator from c fields to
        r fields (shape (r N^3, c N^3)) built from `stencils`, with a reach
        in y below N/2: yields, for kz = 0..N/2, its block as CSR acting on
        row kz of xz_fourier(u).

        Such an operator is fixed by its rows at x = z = 0.  An entry there,
        (0, y, 0) -> (x', y + dy, z') with value v and s net upward seam
        crossings, gives in block kz the entry (kx, y) -> (kx + 2 s kz, y + dy)
        with value v exp(2 pi i (kz z' + (kx + 2 s kz) x') / N).
        """
        import scipy.sparse as sp

        n, m, n3 = self.n, self.n**2, self.n_points
        r, c = op.shape[0] // n3, op.shape[1] // n3
        top = op.tocsr()[(np.arange(r)[:, None] * n3 + np.arange(n) * n).ravel()].tocoo()
        r_field, y = np.divmod(top.row, n)
        c_field, col = np.divmod(top.col, n3)
        x_col, col = np.divmod(col, m)
        y_col, z_col = np.divmod(col, n)
        crossings = (y + (y_col - y + n // 2) % n - n // 2) // n
        kx = np.arange(n)[:, None]
        rows = np.broadcast_to(r_field * m + kx * n + y, (n, len(y))).ravel()
        for kz in range(n // 2 + 1):
            kx_col = (kx + 2 * crossings * kz) % n
            vals = np.exp(2j * np.pi * ((kz * z_col + kx_col * x_col) % n) / n) * top.data
            cols = c_field * m + kx_col * n + y_col
            yield sp.csr_matrix((vals.ravel(), (rows, cols.ravel())), shape=(r * m, c * m))

    @cached_property
    def _laplacian_pins(self):
        """One (kx, y) per (kx, y mod 2) class of the kernel, (kx, y) in
        {0, N/2} x {0, 1}, as indices into a row of xz_fourier(u)."""
        n = self.n
        return np.array([kx * n + y for kx in (0, n // 2) for y in (0, 1)])

    @cached_property
    def _laplacian_lu(self):
        """factor_blocks of the (kz, kx) blocks of the frame Laplacian
        L = sum_{k<3} S_k S_k over `stencils`, with the pinned points' rows
        and columns replaced by the identity in the blocks kz = 0 and N/2.
        Built at the first laplacian_solve.

        Block kz of L is the sum of the squares of the S_k's blocks at kz
        (xz_blocks): L's own reach in y is 2, which xz_blocks cannot read at
        N = 4.  The blocks kz = 0 and N/2 are singular: the kernel of each is
        kx in {0, N/2} times the two y mod 2 classes, which with z mod 2 are
        the 8 parity modes that central differences annihilate.  L is
        symmetric and negative semidefinite, so with one point per class
        pinned every block is regular.
        """
        import scipy.sparse as sp

        n = self.n
        keep = np.ones(n * n)
        keep[self._laplacian_pins] = 0.0
        pin = sp.diags(keep)
        blocks = []
        frame = [self.xz_blocks(s.matrix(self.n_points)) for s in self.stencils[:3]]
        for kz, per_stencil in enumerate(zip(*frame)):
            lap = sum(blk @ blk for blk in per_stencil)
            if kz in (0, n // 2):
                lap = pin @ lap @ pin + sp.diags(1.0 - keep)
            blocks.append(lap.tocsc())
        return factor_blocks(blocks)

    def laplacian_solve(self, rhs):
        """The minimum-norm chi with L chi = rhs, flat, for rhs in the range
        of L (orthogonal to the parity modes), as div(a) is.

        The pinned points solve to zero, and the singular blocks then lose
        their (kx, y mod 2) class means, which leaves chi orthogonal to the
        kernel.
        """
        n = self.n
        ends = np.array([0, n // 2])
        blocks = self.xz_fourier(rhs)
        blocks[np.ix_(ends, self._laplacian_pins)] = 0.0
        chi = np.array([f.solve(w) for f, w in zip(self._laplacian_lu, blocks)])
        chi = chi.reshape(n // 2 + 1, n, n // 2, 2)
        # the classes: kz and kx both in {0, N/2}, and y mod 2
        chi[np.ix_(ends, ends)] -= chi[np.ix_(ends, ends)].mean(axis=2, keepdims=True)
        return self.xz_fourier_inverse(chi.reshape(n // 2 + 1, -1))

    def coords(self):
        n = self.n
        x = (np.arange(n) * self.h)[:, None, None]
        y = (np.arange(n) * self.h)[None, :, None]
        z = (np.arange(n) * self.h)[None, None, :]
        return x, y, z

    def __repr__(self):
        return f"HeisGridBackend(N={self.n})"


def factor_blocks(blocks):
    """splu of each sparse CSC block, one factor per block.

    SuperLU's relaxed supernodes and panels hold dense workspace: without
    them the N=16 preconditioner factors keep 2.5 MB of resident memory,
    against 11.5 MB with scipy's defaults and 4.8 MB as one factor of all
    the blocks.  Every block is built before the first factor: factors
    allocated between the freed arrays of the next blocks' builds fragment
    the heap, and the N=48 preconditioner then kept 162 MiB resident for
    its 3.04M factor nonzeros, against 52 MiB built first.
    """
    import scipy.sparse.linalg as spla

    blocks = list(blocks)
    return [spla.splu(p, relax=1, panel_size=1) for p in blocks]


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


def _connection_weight(ph: PhInvariants, direction: int):
    """i*omega(direction): the connection weight of the beta slot."""
    w0, w1, w2 = ph.omega_float()
    if direction == DIR_T:
        return 1j * w0
    if direction == DIR_Z1:
        return 1j * (w1 - 1j * w2) * 0.5
    if direction == DIR_Z1BAR:
        return 1j * (w1 + 1j * w2) * 0.5
    raise ValueError(f"unknown direction {direction!r}")


def cov_deriv(f: SpinorField, direction: int, a: GaugeField, ph: PhInvariants) -> SpinorField:
    """Gauge-twisted pseudohermitian covariant derivative, component-wise.

    alpha carries no connection weight; the beta slot carries i*omega(dir);
    both carry +i a(dir).
    """
    weight = _connection_weight(ph, direction)
    _check_same_backend(f, a)
    along = {DIR_T: lambda: a.a0, DIR_Z1: a.aZ1, DIR_Z1BAR: a.aZ1bar}[direction]
    twist = 1j * along()  # a(direction), built for this direction only
    b = f.backend
    alpha = b.apply(direction, f.alpha) + twist * f.alpha
    beta = b.apply(direction, f.beta1bar) + (weight + twist) * f.beta1bar
    return SpinorField(alpha, beta, b)


def dirac_xi(f: SpinorField, a: GaugeField, ph: PhInvariants) -> SpinorField:
    """Contact Dirac operator: components (-2 beta^a_{1b,1}, 2 alpha^a_{,1b})."""
    d_beta = cov_deriv(f, DIR_Z1, a, ph).beta1bar
    d_alpha = cov_deriv(f, DIR_Z1BAR, a, ph).alpha
    return SpinorField(-2 * d_beta, 2 * d_alpha, f.backend)


def dirac_eps(f: SpinorField, a: GaugeField, ph: PhInvariants, eps) -> SpinorField:
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


def scalar_l2_norm_sq(backend: Backend, values) -> float:
    return backend.integrate(values * _conj(values)).real


def sup_phi_sq(f: SpinorField) -> float:
    return float(f.backend.sup(f.pointwise_sq()))


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
