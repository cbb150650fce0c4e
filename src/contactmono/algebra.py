"""Exact invariant exterior calculus over a global coframe {e0, e1, e2}.

A homogeneous model is given by constant structure coefficients
de^i = sum_{j<k} c^i_{jk} e^j ^ e^k.  All invariant forms live in the
8-dimensional algebra spanned by 1; e0, e1, e2; e0^e1, e0^e2, e1^e2;
e0^e1^e2, with coefficients in Q(i, sqrt2).  Everything here is exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterable, Mapping, Tuple

from .errors import AdmissibilityError, DegreeError, JacobiError
from .exact import EC_I, EC_ONE, EC_ZERO, ExactComplex, parse_rational

Monomial = Tuple[int, ...]

MONOMIALS = {
    0: ((),),
    1: ((0,), (1,), (2,)),
    2: ((0, 1), (0, 2), (1, 2)),
    3: ((0, 1, 2),),
}

PAIRS = ((0, 1), (0, 2), (1, 2))


def _sort_sign(idx: Iterable[int]):
    """Sort indices, returning (sign, tuple) or (0, ()) on repetition."""
    seq = list(idx)
    sign = 1
    for i in range(len(seq)):
        for j in range(len(seq) - 1, i, -1):
            if seq[j] < seq[j - 1]:
                seq[j], seq[j - 1] = seq[j - 1], seq[j]
                sign = -sign
            elif seq[j] == seq[j - 1]:
                return 0, ()
    return sign, tuple(seq)


class InvariantForm:
    """Pure-degree invariant form with exact coefficients."""

    __slots__ = ("degree", "coeffs")

    def __init__(self, degree: int, coeffs: Mapping[Monomial, ExactComplex] = ()):
        if degree not in (0, 1, 2, 3):
            raise DegreeError(f"degree {degree} out of range")
        clean: Dict[Monomial, ExactComplex] = {}
        for k, v in dict(coeffs).items():
            v = ExactComplex.coerce(v)
            if k not in MONOMIALS[degree]:
                raise DegreeError(f"monomial {k} not of degree {degree}")
            if not v.is_zero():
                clean[k] = v
        self.degree = degree
        self.coeffs = clean

    # -- constructors ---------------------------------------------------
    @staticmethod
    def zero(degree: int) -> "InvariantForm":
        return InvariantForm(degree, {})

    @staticmethod
    def const(c) -> "InvariantForm":
        return InvariantForm(0, {(): ExactComplex.coerce(c)})

    @staticmethod
    def basis(*idx: int) -> "InvariantForm":
        sign, key = _sort_sign(idx)
        if sign == 0:
            return InvariantForm(len(idx), {})
        return InvariantForm(len(idx), {key: ExactComplex(sign)})

    # -- coefficient access ----------------------------------------------
    def coeff(self, *idx: int) -> ExactComplex:
        sign, key = _sort_sign(idx)
        if sign == 0:
            return EC_ZERO
        v = self.coeffs.get(key, EC_ZERO)
        return v if sign > 0 else -v

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_real(self) -> bool:
        return all(v.is_real() for v in self.coeffs.values())

    def conjugate(self) -> "InvariantForm":
        return InvariantForm(
            self.degree, {k: v.conjugate() for k, v in self.coeffs.items()}
        )

    # -- evaluation --------------------------------------------------------
    def eval_vectors(self, *vectors) -> ExactComplex:
        """Evaluate on complex frame-vector triples (v0, v1, v2).

        Degree 1 and 2 are what the workbench needs (Z1, Z1bar, T pairings).
        """
        vs = [tuple(ExactComplex.coerce(c) for c in v) for v in vectors]
        if self.degree == 1:
            (v,) = vs
            return sum((self.coeff(i) * v[i] for i in range(3)), EC_ZERO)
        if self.degree == 2:
            v, w = vs
            total = EC_ZERO
            for j, k in PAIRS:
                total = total + self.coeff(j, k) * (v[j] * w[k] - v[k] * w[j])
            return total
        raise DegreeError("eval_vectors supports degrees 1 and 2")

    # -- linear structure ---------------------------------------------------
    def __add__(self, other: "InvariantForm") -> "InvariantForm":
        if self.degree != other.degree:
            if self.is_zero():
                return other
            if other.is_zero():
                return self
            raise DegreeError("degree mismatch in addition")
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, EC_ZERO) + v
        return InvariantForm(self.degree, out)

    def __neg__(self):
        return InvariantForm(self.degree, {k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, scalar) -> "InvariantForm":
        s = ExactComplex.coerce(scalar)
        return InvariantForm(self.degree, {k: v * s for k, v in self.coeffs.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, InvariantForm):
            return NotImplemented
        if self.is_zero() and other.is_zero():
            return True
        return self.degree == other.degree and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.degree, tuple(sorted(self.coeffs.items(), key=str))))

    def __repr__(self):
        if not self.coeffs:
            return f"InvariantForm({self.degree}, 0)"
        names = {(): "1"}
        parts = []
        for k in MONOMIALS[self.degree]:
            if k in self.coeffs:
                label = names.get(k) or "^".join(f"e{i}" for i in k)
                parts.append(f"({self.coeffs[k]!r})*{label}")
        return " + ".join(parts)


# canonical complex coframe pieces
def theta() -> InvariantForm:
    return InvariantForm.basis(0)


def theta1() -> InvariantForm:
    return InvariantForm(1, {(1,): EC_ONE, (2,): EC_I})


def theta1bar() -> InvariantForm:
    return InvariantForm(1, {(1,): EC_ONE, (2,): -EC_I})


# complex frame vectors as coefficient triples over (e0, e1, e2)
Z1 = (ExactComplex(0), ExactComplex(Fraction(1, 2)), ExactComplex(0, Fraction(-1, 2)))
Z1BAR = (ExactComplex(0), ExactComplex(Fraction(1, 2)), ExactComplex(0, Fraction(1, 2)))
T_VEC = (EC_ONE, EC_ZERO, EC_ZERO)


def wedge(a: InvariantForm, b: InvariantForm) -> InvariantForm:
    """Exterior product; graded-antisymmetric, exact."""
    deg = a.degree + b.degree
    if deg > 3:
        raise DegreeError(f"wedge of degrees {a.degree}+{b.degree} exceeds 3")
    out: Dict[Monomial, ExactComplex] = {}
    for ka, va in a.coeffs.items():
        for kb, vb in b.coeffs.items():
            sign, key = _sort_sign(ka + kb)
            if sign == 0:
                continue
            term = va * vb if sign > 0 else -(va * vb)
            out[key] = out.get(key, EC_ZERO) + term
    return InvariantForm(deg, out)


def interior(idx: int, a: InvariantForm) -> InvariantForm:
    """Interior product with the frame vector e_idx (an antiderivation)."""
    if a.degree == 0:
        raise DegreeError("interior product of a 0-form")
    out: Dict[Monomial, ExactComplex] = {}
    for key, v in a.coeffs.items():
        for pos, i in enumerate(key):
            if i == idx:
                rest = key[:pos] + key[pos + 1 :]
                out[rest] = out.get(rest, EC_ZERO) + (v if pos % 2 == 0 else -v)
                break
    return InvariantForm(a.degree - 1, out)


@dataclass(frozen=True)
class ModelStructure:
    """Homogeneous contact model: validated constant structure coefficients.

    The float table that c_float reads is lowered once, when the model is built.
    """

    c: Mapping[Tuple[int, Tuple[int, int]], ExactComplex]
    name: str = "model"
    _c_float: Dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        table = {(i, j, j): 0.0 for i in range(3) for j in range(3)}
        for (i, (j, k)), v in self.c.items():
            try:
                x = float(v.to_complex().real)
            except OverflowError:
                raise ValueError(f"structure constant c^{i}_{j}{k} does not fit a float") from None
            table[(i, j, k)], table[(i, k, j)] = x, -x
        object.__setattr__(self, "_c_float", table)

    def d_basis1(self, i: int) -> InvariantForm:
        """de^i from the structure constants."""
        return InvariantForm(
            2, {(j, k): self.c[(i, (j, k))] for (j, k) in PAIRS}
        )

    def bracket(self, j: int, k: int):
        """[e_j, e_k] as a frame-coefficient triple; de^i(X,Y) = -e^i([X,Y])."""
        if j == k:
            return (EC_ZERO,) * 3
        if j < k:
            return tuple(-self.c[(i, (j, k))] for i in range(3))
        return tuple(self.c[(i, (k, j))] for i in range(3))

    def c_float(self, i: int, j: int, k: int) -> float:
        """c^i_jk as a float, antisymmetric in (j, k)."""
        return self._c_float[(i, j, k)]


def exterior_d(a: InvariantForm, m: ModelStructure) -> InvariantForm:
    """Exterior derivative of an invariant form (constant coefficients)."""
    if a.degree == 0:
        return InvariantForm.zero(1)
    if a.degree == 3:
        # top degree: image is identically zero
        return InvariantForm.zero(3)
    out = InvariantForm.zero(a.degree + 1)
    for key, v in a.coeffs.items():
        if a.degree == 1:
            out = out + v * m.d_basis1(key[0])
        else:  # degree 2: d(e^j ^ e^k) = de^j ^ e^k - e^j ^ de^k
            j, k = key
            out = out + v * (
                wedge(m.d_basis1(j), InvariantForm.basis(k))
                - wedge(InvariantForm.basis(j), m.d_basis1(k))
            )
    return out


_STAR_TABLE = {
    # monomial -> (eps power, target monomial, sign)
    (): (1, (0, 1, 2), 1),
    (0,): (-1, (1, 2), 1),
    (1,): (1, (0, 2), -1),
    (2,): (1, (0, 1), 1),
    (0, 1): (-1, (2,), 1),
    (0, 2): (-1, (1,), -1),
    (1, 2): (1, (0,), 1),
    (0, 1, 2): (-1, (), 1),
}


def hodge_star_eps(a: InvariantForm, eps: Fraction) -> InvariantForm:
    """Hodge star of h_eps = (eps e0)^2 + (e1)^2 + (e2)^2, orientation e0^e1^e2."""
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    out: Dict[Monomial, ExactComplex] = {}
    for key, v in a.coeffs.items():
        p, target, sign = _STAR_TABLE[key]
        factor = ExactComplex(sign * (eps if p == 1 else Fraction(1, 1) / eps))
        out[target] = out.get(target, EC_ZERO) + v * factor
    return InvariantForm(3 - a.degree, out)


def make_model(c, name: str = "model") -> ModelStructure:
    """Validate structure constants: admissibility and d(de^i) = 0."""
    table: Dict[Tuple[int, Tuple[int, int]], ExactComplex] = {}
    for i in range(3):
        for pair in PAIRS:
            if (i, pair) not in c:
                raise KeyError(f"missing structure constant c^{i}_{pair}")
            v = ExactComplex.coerce(c[(i, pair)])
            if not v.is_real():
                raise ValueError("structure constants must be real")
            table[(i, pair)] = v
    if (
        table[(0, (1, 2))] != ExactComplex(2)
        or not table[(0, (0, 1))].is_zero()
        or not table[(0, (0, 2))].is_zero()
    ):
        raise AdmissibilityError("de^0 must equal 2 e1^e2")
    m = ModelStructure(c=table, name=name)
    for i in range(3):
        dd = exterior_d(m.d_basis1(i), m)
        if not dd.is_zero():
            raise JacobiError(f"d(de^{i}) != 0: {dd!r}")
    return m


def gen_model(p, q, name: str | None = None) -> ModelStructure:
    """gen(p, q): de^1 = 2p e2^e0, de^2 = 2q e0^e1, de^0 = 2 e1^e2."""
    p = parse_rational(p)
    q = parse_rational(q)
    z = ExactComplex(0)
    c = {
        (0, (0, 1)): z,
        (0, (0, 2)): z,
        (0, (1, 2)): ExactComplex(2),
        (1, (0, 1)): z,
        (1, (0, 2)): ExactComplex(-2 * p),
        (1, (1, 2)): z,
        (2, (0, 1)): ExactComplex(2 * q),
        (2, (0, 2)): z,
        (2, (1, 2)): z,
    }
    return make_model(c, name or f"gen({p},{q})")


CATALOG_PARAMS = {
    "heisenberg": (Fraction(0), Fraction(0)),
    "round-s3": (Fraction(1), Fraction(1)),
    "torsion": (Fraction(1), Fraction(-1)),
}


def catalog_model(name: str) -> ModelStructure:
    if name not in CATALOG_PARAMS:
        raise KeyError(f"unknown catalog model {name!r}")
    p, q = CATALOG_PARAMS[name]
    return gen_model(p, q, name)


def is_heisenberg(m: ModelStructure) -> bool:
    """All nine structure constants, compared exactly, are those of gen(0, 0)."""
    heisenberg = {(0, (1, 2)): ExactComplex(2)}
    return all(
        m.c[(i, pair)] == heisenberg.get((i, pair), ExactComplex(0))
        for i in range(3)
        for pair in PAIRS
    )


def model_from_json(doc: Mapping) -> ModelStructure:
    """Load a model from {'name', 'p', 'q'} or a full 'c_i_jk' table."""
    name = doc.get("name", "model")
    if "p" in doc and "q" in doc:
        return gen_model(parse_rational(doc["p"]), parse_rational(doc["q"]), name)
    c = {}
    for i in range(3):
        for (j, k) in PAIRS:
            key = f"c_{i}_{j}{k}"
            c[(i, (j, k))] = ExactComplex(parse_rational(doc.get(key, 0)))
    return make_model(c, name)


