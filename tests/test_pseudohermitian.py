from fractions import Fraction

from hypothesis import given, settings, strategies as st

from contactmono.algebra import (
    InvariantForm,
    catalog_model,
    exterior_d,
    gen_model,
    theta,
    theta1,
    theta1bar,
    wedge,
)
from contactmono.exact import EC_I, ExactComplex
from contactmono.pseudohermitian import (
    compare_scalar_curvature,
    derive_ph_invariants,
    frame_bracket_check,
    riemannian_connection,
    scalar_curvature,
)
from references import gen_closed_forms

rat = st.fractions(min_value=-5, max_value=5, max_denominator=6)

EPS_SET = [Fraction(1), Fraction(1, 2), Fraction(1, 4)]


def koszul_scalar_curvature(m, eps):
    """Independent oracle: Koszul brackets in the eps-orthonormal frame.

    Frame F_i with F_0 = eps^{-1} e_0; K(F_i,F_j) = <R(F_i,F_j)F_j,F_i> via
    nabla coefficients 2<nabla_X Y, Z> = <[X,Y],Z> - <[Y,Z],X> + <[Z,X],Y>.
    """
    inv = ExactComplex(Fraction(1) / eps)
    one = ExactComplex(1)
    scale = [inv, one, one]

    def bracket(i, j):
        # [F_i, F_j] in F-frame components
        raw = m.bracket(i, j)
        return [scale[i] * scale[j] / scale[k] * raw[k] for k in range(3)]

    def ip(u, v):
        return sum((u[k] * v[k] for k in range(3)), ExactComplex(0))

    def basis(k):
        return [ExactComplex(1 if i == k else 0) for i in range(3)]

    def nabla(i, j):
        # nabla_{F_i} F_j, components via Koszul
        out = []
        for k in range(3):
            val = (
                ip(bracket(i, j), basis(k))
                - ip(bracket(j, k), basis(i))
                + ip(bracket(k, i), basis(j))
            ) / 2
            out.append(val)
        return out

    def nabla_vec(i, v):
        out = [ExactComplex(0)] * 3
        for j in range(3):
            nj = nabla(i, j)
            for k in range(3):
                out[k] = out[k] + v[j] * nj[k]
        return out

    def riemann(i, j):
        # R(F_i,F_j)F_j = nabla_i nabla_j F_j - nabla_j nabla_i F_j - nabla_{[F_i,F_j]} F_j
        a = nabla_vec(i, nabla(j, j))
        b = nabla_vec(j, nabla(i, j))
        br = bracket(i, j)
        c = [ExactComplex(0)] * 3
        for l in range(3):
            nl = nabla(l, j)
            for k in range(3):
                c[k] = c[k] + br[l] * nl[k]
        return [a[k] - b[k] - c[k] for k in range(3)]

    total = ExactComplex(0)
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            total = total + riemann(i, j)[i]
    return total


def test_catalog_invariants():
    # heisenberg
    ph = derive_ph_invariants(catalog_model("heisenberg"))
    assert ph.omega.is_zero()
    assert ph.torsion.is_zero()
    assert ph.tw_curv.is_zero()
    # round-s3: omega = -2 theta, A = 0, W = 2
    ph = derive_ph_invariants(catalog_model("round-s3"))
    assert ph.omega == ExactComplex(-2) * theta()
    assert ph.torsion.is_zero()
    assert ph.tw_curv == ExactComplex(2)
    # torsion: omega = 0, A = -2i, W = 0
    ph = derive_ph_invariants(catalog_model("torsion"))
    assert ph.omega.is_zero()
    assert ph.torsion == ExactComplex(0, -2)
    assert ph.tw_curv.is_zero()


@given(rat, rat)
@settings(max_examples=60, deadline=None)
def test_gen_closed_forms_match_solver(p, q):
    m = gen_model(p, q)
    ph = derive_ph_invariants(m)
    omega, torsion, w = gen_closed_forms(p, q)
    assert ph.omega == omega
    assert ph.torsion == torsion
    assert ph.tw_curv == w


@given(rat, rat)
@settings(max_examples=40, deadline=None)
def test_structural_equation_roundtrip(p, q):
    m = gen_model(p, q)
    ph = derive_ph_invariants(m)
    lhs = exterior_d(theta1(), m)
    rhs = wedge(theta1(), EC_I * ph.omega) + ph.torsion * wedge(theta(), theta1bar())
    assert lhs == rhs
    domega = exterior_d(ph.omega, m)
    assert domega.coeff(1, 2) == ExactComplex(-2) * ph.tw_curv


def test_riemannian_connection_at_eps1():
    # round-s3: omega_1^2 = omega + theta = -theta
    rd = riemannian_connection(catalog_model("round-s3"), 1)
    assert rd.form(1, 2) == ExactComplex(-1) * theta()
    # heisenberg: omega_0^1 = -e2, omega_0^2 = e1
    rd = riemannian_connection(catalog_model("heisenberg"), 1)
    assert rd.form(0, 1) == -InvariantForm.basis(2)
    assert rd.form(0, 2) == InvariantForm.basis(1)
    # torsion: omega_0^1 = -3 e2, omega_0^2 = -e1
    rd = riemannian_connection(catalog_model("torsion"), 1)
    assert rd.form(0, 1) == ExactComplex(-3) * InvariantForm.basis(2)
    assert rd.form(0, 2) == -InvariantForm.basis(1)


@given(rat, rat, st.sampled_from(EPS_SET))
@settings(max_examples=30, deadline=None)
def test_first_structural_equation(p, q, eps):
    m = gen_model(p, q)
    rd = riemannian_connection(m, eps)
    f = {
        0: InvariantForm(1, {(0,): ExactComplex(eps)}),
        1: InvariantForm.basis(1),
        2: InvariantForm.basis(2),
    }
    for i in range(3):
        de = exterior_d(f[i], m)
        rhs = InvariantForm.zero(2)
        for j in range(3):
            rhs = rhs + wedge(f[j], rd.form(j, i))
        assert de == rhs


def test_scalar_curvature_examples():
    assert scalar_curvature(catalog_model("round-s3"), 1) == ExactComplex(6)
    assert scalar_curvature(catalog_model("torsion"), 1) == ExactComplex(-10)
    for eps in EPS_SET:
        assert scalar_curvature(catalog_model("heisenberg"), eps) == ExactComplex(
            -2 * eps * eps
        )


@given(rat, rat, st.sampled_from(EPS_SET))
@settings(max_examples=20, deadline=None)
def test_scalar_curvature_against_koszul(p, q, eps):
    m = gen_model(p, q)
    assert scalar_curvature(m, eps) == koszul_scalar_curvature(m, eps)


@given(rat, rat, st.sampled_from(EPS_SET))
@settings(max_examples=30, deadline=None)
def test_curvature_closed_form_on_family(p, q, eps):
    # independent route gives R = 4W - 2 eps^2 - 2 eps^{-2} |A|^2 on gen(p,q)
    m = gen_model(p, q)
    ph = derive_ph_invariants(m)
    expect = (
        ExactComplex(4) * ph.tw_curv
        - ExactComplex(2 * eps * eps)
        - ExactComplex(Fraction(2) / (eps * eps)) * ph.torsion.abs_sq()
    )
    assert scalar_curvature(m, eps) == expect


def test_compare_scalar_curvature_values():
    s3 = catalog_model("round-s3")
    cmp1 = compare_scalar_curvature(s3, derive_ph_invariants(s3), 1)
    assert cmp1.closed_form == ExactComplex(7)
    assert cmp1.oracle == ExactComplex(6)
    assert cmp1.gap == ExactComplex(1)
    heis = catalog_model("heisenberg")
    cmp2 = compare_scalar_curvature(heis, derive_ph_invariants(heis), 1)
    assert cmp2.closed_form == ExactComplex(-1)
    assert cmp2.oracle == ExactComplex(-2)
    assert cmp2.gap == ExactComplex(1)


@given(st.sampled_from([(0, 0), (1, 1), (2, 2)]), st.sampled_from(EPS_SET))
@settings(max_examples=12, deadline=None)
def test_gap_is_eps_squared_when_torsion_free(pq, eps):
    m = gen_model(*pq)
    cmp = compare_scalar_curvature(m, derive_ph_invariants(m), eps)
    assert cmp.gap == ExactComplex(eps * eps)


def test_frame_bracket_check_catalog():
    for name in ("heisenberg", "round-s3", "torsion"):
        m = catalog_model(name)
        rep = frame_bracket_check(m, derive_ph_invariants(m))
        assert rep.horizontal_ok and rep.reeb_ok, (name, rep)


@given(rat, rat)
@settings(max_examples=30, deadline=None)
def test_frame_bracket_check_family(p, q):
    m = gen_model(p, q)
    rep = frame_bracket_check(m, derive_ph_invariants(m))
    assert rep.horizontal_ok and rep.reeb_ok


def test_reeb_bracket_value_round_s3():
    # [Z1bar, T] = -2i Z1bar on gen(1,1): components (0, 0, -2i) against
    # the (T, e1, e2) frame after expanding Z1bar = (e1 + i e2)/2
    from contactmono.pseudohermitian import _complex_bracket
    from contactmono.algebra import Z1BAR, T_VEC

    m = catalog_model("round-s3")
    lhs = _complex_bracket(m, Z1BAR, T_VEC)
    expect = tuple(ExactComplex(0, -2) * c for c in Z1BAR)
    assert lhs == expect


def test_reeb_bracket_torsion_term():
    # gen(1,-1): [Z1bar, T] = A^1_{1bar} Z1 with A = -2i and omega = 0
    from contactmono.pseudohermitian import _complex_bracket
    from contactmono.algebra import Z1, Z1BAR, T_VEC

    m = catalog_model("torsion")
    lhs = _complex_bracket(m, Z1BAR, T_VEC)
    expect = tuple(ExactComplex(0, -2) * c for c in Z1)
    assert lhs == expect
