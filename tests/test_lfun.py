"""Local factors, symmetric powers, Euler products: frozen values and
independent-route cross checks."""

import pytest

from klsym.cyclo import CycInt
from klsym.errors import (
    FunctionalEquationFindingError,
    IntegralityFindingError,
    SignConventionFindingError,
    UsageError,
)
from klsym.expsum import KloostermanEvaluator
from klsym.ff import closed_points, make_field, points_up_to
from klsym.lfun import (
    GlobalSeries,
    LocalSeries,
    elementary_from_power_sums,
    eigen_power_sums,
    euler_product,
    local_factor,
    sym_inf_local,
    symk_local,
    unit_root_local,
)
from klsym.padic import PadicCyc, PadicExponent
from oracles import (
    from_rational,
    inverse_factor_series,
    sym_inf_local_hsum,
    sym_k_factor,
    sym_k_factor_berkowitz,
    trace_sums_route,
)


def _ev(p=3, k=1):
    return KloostermanEvaluator(make_field(p, k))


def _pt(base, rep, d=1):
    for pt in closed_points(base, max(d, 1)):
        if pt.degree == d and pt.rep == rep:
            return pt
    raise AssertionError


def _ints(p, *vals):
    return [CycInt.from_int(p, v) for v in vals]


# ---------------------------------------------------------------------------
# Newton identities


def test_elementary_from_power_sums_matches_hand_formulas():
    # roots 1, 2, 3: p = (6, 14, 36), e = (6, 11, 6)
    p = 7
    p1, p2, p3 = _ints(p, 6, 14, 36)
    e1, e2, e3 = elementary_from_power_sums([p1, p2, p3], 3)
    assert e1.as_integer() == 6
    assert e2.as_integer() == (6 * 6 - 14) // 2
    assert e3.as_integer() == (6 ** 3 - 3 * 6 * 14 + 2 * 36) // 6


def test_power_sums_roundtrip_random_roots():
    # freeze roots, expand prod (1 - r T), recover power sums both ways
    import random

    rng = random.Random(5)
    p = 5
    for _ in range(10):
        roots = [rng.randrange(-6, 7) for _ in range(4)]
        coeffs = [1, 0, 0, 0, 0]
        for r in roots:
            coeffs = [coeffs[i] - (r * coeffs[i - 1] if i else 0) for i in range(5)]
        cc = _ints(p, *coeffs)
        ps = eigen_power_sums(cc, 6)
        for m in range(1, 7):
            assert ps[m - 1].as_integer() == sum(r ** m for r in roots)
        es = elementary_from_power_sums(ps, 4)
        for i, e in enumerate(es, start=1):
            assert e == (cc[i] if i % 2 == 0 else -cc[i])


def test_frozen_power_sums_of_first_factor():
    ps = eigen_power_sums(_ints(3, 1, -1, 3), 2)
    assert ps[0].as_integer() == 1
    assert ps[1].as_integer() == -5


# ---------------------------------------------------------------------------
# local factors


def test_local_factor_frozen_p3_n1():
    base = make_field(3, 1)
    ev = _ev()
    lf1 = local_factor(ev, 1, _pt(base, (1,)))
    assert [c.as_integer() for c in lf1.coeffs] == [1, -1, 3]
    assert lf1.sign == 1
    lf2 = local_factor(ev, 1, _pt(base, (2,)))
    assert [c.as_integer() for c in lf2.coeffs] == [1, 2, 3]


def test_local_factor_n2_leading_and_first():
    base = make_field(3, 1)
    lf = local_factor(_ev(), 2, _pt(base, (1,)))
    assert len(lf.coeffs) == 4
    # a_1 = -p_1 = -Kl_2(1,1) = -(1 + 3 zeta^2)
    assert lf.coeffs[1] == -CycInt(3, (-2, -3))
    assert lf.coeffs[3].as_integer() == -27
    assert lf.sign == 1


def test_local_factor_degree_two_point():
    base = make_field(3, 1)
    pts = [pt for pt in closed_points(base, 2) if pt.degree == 2]
    for pt in pts:
        lf = local_factor(_ev(), 1, pt)
        assert lf.coeffs[2].as_integer() == 9  # q_t = 9, sign +


def test_local_factor_extends_to_higher_power_sums():
    # the factor's eigenvalues reproduce sums beyond those used to build it
    base = make_field(3, 1)
    ev = _ev()
    for rep in [(1,), (2,)]:
        for n in (1, 2):
            pt = _pt(base, rep)
            lf = local_factor(ev, n, pt)
            ps = eigen_power_sums(list(lf.coeffs), n + 3)
            sgn = -1 if n % 2 else 1
            for m in range(n + 2, n + 4):
                assert ps[m - 1] == ev.kloosterman(n, pt, m) * sgn


def test_sign_convention_finding_surfaces():
    base = make_field(3, 1)

    class Flipped(KloostermanEvaluator):
        def sums_for_factor(self, n, point):
            return [-v for v in super().sums_for_factor(n, point)]

    with pytest.raises(SignConventionFindingError):
        local_factor(Flipped(base), 1, _pt(base, (1,)))


def test_functional_equation_finding_surfaces():
    base = make_field(3, 1)

    class Broken(KloostermanEvaluator):
        def sums_for_factor(self, n, point):
            vals = super().sums_for_factor(n, point)
            vals[1] = vals[1] + CycInt.from_int(3, 3)
            return vals

    with pytest.raises(FunctionalEquationFindingError):
        local_factor(Broken(base), 1, _pt(base, (1,)))


# ---------------------------------------------------------------------------
# finite symmetric powers


def test_sym_k_frozen_example():
    base = make_field(3, 1)
    lf = local_factor(_ev(), 1, _pt(base, (1,)))
    got = [c.as_integer() for c in sym_k_factor(lf, 2)]
    assert got == [1, 2, -6, -27]


def test_sym_one_is_identity_and_sym_zero_trivial():
    base = make_field(3, 1)
    lf = local_factor(_ev(), 1, _pt(base, (2,)))
    assert sym_k_factor(lf, 1) == list(lf.coeffs)
    assert [c.as_integer() for c in sym_k_factor(lf, 0)] == [1]


def test_sym_k_against_symmetric_function_algebra():
    # a_1 of Sym^k is -h_k(pi_0, pi_1); compute h_k from e_1 = 1, e_2 = 3
    base = make_field(3, 1)
    lf = local_factor(_ev(), 1, _pt(base, (1,)))
    h = [1, 1]  # h_0, h_1 with e_1 = 1
    for _ in range(2, 6):
        h.append(h[-1] * 1 - h[-2] * 3)
    for k in (2, 3, 4):
        coeffs = sym_k_factor(lf, k)
        assert coeffs[1].as_integer() == -h[k]
        lead = coeffs[-1].as_integer()
        assert lead == (-1) ** (k + 1) * 3 ** (k * (k + 1) // 2)


def test_sym_k_against_sympy_algebraic_roots():
    sympy = pytest.importorskip("sympy")
    T, x = sympy.symbols("T x")
    base = make_field(3, 1)
    for rep, poly in [((1,), x ** 2 - x + 3), ((2,), x ** 2 + 2 * x + 3)]:
        roots = sympy.roots(sympy.Poly(poly, x))
        (r0, r1) = list(roots)
        lf = local_factor(_ev(), 1, _pt(base, rep))
        for k in (2, 3):
            expr = sympy.prod(
                1 - r0 ** (k - i) * r1 ** i * T for i in range(k + 1))
            want = sympy.Poly(sympy.expand(expr), T).all_coeffs()[::-1]
            got = [c.as_integer() for c in sym_k_factor(lf, k)]
            assert [sympy.simplify(w) for w in want] == got


@pytest.mark.parametrize("p,a,n,k,D", [
    (3, 1, 2, 3, 2), (3, 1, 3, 3, 1), (5, 1, 1, 3, 2), (3, 2, 1, 3, 1)])
def test_sym_k_matches_berkowitz_oracle(p, a, n, k, D):
    ev = _ev(p, a)
    for pt in points_up_to(ev.base, D):
        lf = local_factor(ev, n, pt)
        assert sym_k_factor(lf, k) == sym_k_factor_berkowitz(lf, k)


@pytest.mark.parametrize("p,a,n,k,D", [
    (3, 1, 1, 0, 3), (3, 1, 1, 1, 3), (3, 1, 1, 2, 3), (3, 1, 1, 6, 3),
    (3, 1, 2, 0, 2), (3, 1, 2, 1, 2), (3, 1, 2, 2, 2), (3, 1, 2, 6, 2),
    (3, 1, 3, 3, 1), (3, 2, 1, 3, 2), (3, 1, 1, 20, 2)])
def test_symk_local_matches_inverse_of_whole_factor(p, a, n, k, D):
    ev = _ev(p, a)
    for pt in points_up_to(ev.base, D):
        lf = local_factor(ev, n, pt)
        R = D // pt.degree
        ls = symk_local(lf, k, R)
        assert ls.point == pt and ls.cert is None
        assert ls.coeffs == inverse_factor_series(sym_k_factor(lf, k), R)


def test_symk_local_edge_cases():
    base = make_field(3, 1)
    lf = local_factor(_ev(), 1, _pt(base, (1,)))
    # Sym^0 keeps the inverse of the empty product
    assert [c.as_integer() for c in symk_local(lf, 0, 3).coeffs] == [1, 0, 0, 0]
    assert [c.as_integer() for c in symk_local(lf, 4, 0).coeffs] == [1]
    with pytest.raises(UsageError, match="nonnegative"):
        symk_local(lf, -1, 2)


def test_inverse_factor_series():
    cs = inverse_factor_series(_ints(3, 1, -1, 3), 4)
    # 1/(1 - T + 3T^2) = 1 + T - 2T^2 - 5T^3 + T^4 + ...
    assert [c.as_integer() for c in cs] == [1, 1, -2, -5, 1]


# ---------------------------------------------------------------------------
# infinite symmetric power local series


def test_sym_inf_frozen_coefficient_kappa_two():
    base = make_field(3, 1)
    lf = local_factor(_ev(), 1, _pt(base, (1,)))
    ls = sym_inf_local(lf, PadicExponent.exact(3, 2), V=8, R=2, a=1)
    c1 = ls.coeffs[1].rep
    assert (c1 - CycInt.from_int(3, 7)).pi_val() >= 4  # 7 mod 9
    assert ls.cert >= 6
    assert ls.coeffs[0].rep.as_integer() == 1


def test_sym_inf_agrees_with_hsum_route():
    base = make_field(3, 1)
    for rep in [(1,), (2,)]:
        lf = local_factor(_ev(), 1, _pt(base, rep))
        for kappa in (PadicExponent.exact(3, 2),
                      from_rational(3, 1, 2, 6),
                      PadicExponent.exact(3, -1)):
            a_route = sym_inf_local(lf, kappa, V=10, R=4, a=1)
            b_route = sym_inf_local_hsum(lf, kappa, V=10, R=4, a=1)
            joint = min(a_route.cert, b_route.cert)
            assert joint >= 6
            for x, y in zip(a_route.coeffs, b_route.coeffs):
                d = (x.rep - y.rep).pi_val()
                assert d is None or d >= joint


def test_sym_inf_at_integer_kappa_matches_finite_power():
    # extra eigenvalues beyond Sym^k have weight >= k+1, so the two series
    # agree below pi^((p-1) a d (k+1))
    base = make_field(3, 1)
    for rep in [(1,), (2,)]:
        lf = local_factor(_ev(), 1, _pt(base, rep))
        for k in (1, 2, 3):
            ls = sym_inf_local(lf, PadicExponent.exact(3, k), V=12, R=3, a=1)
            finite = inverse_factor_series(sym_k_factor(lf, k), 3)
            bound = min(ls.cert, 2 * (k + 1))
            for x, y in zip(ls.coeffs, finite):
                d = (x.rep - PadicCyc.embed(y, x.N).rep).pi_val()
                assert d is None or d >= bound


def test_sym_inf_on_degree_two_point():
    base = make_field(3, 1)
    pt = [q for q in closed_points(base, 2) if q.degree == 2][0]
    lf = local_factor(_ev(), 1, pt)
    a_route = sym_inf_local(lf, from_rational(3, 1, 2, 5), V=9, R=2, a=1)
    b_route = sym_inf_local_hsum(lf, from_rational(3, 1, 2, 5), V=9, R=2, a=1)
    joint = min(a_route.cert, b_route.cert)
    for x, y in zip(a_route.coeffs, b_route.coeffs):
        d = (x.rep - y.rep).pi_val()
        assert d is None or d >= joint


def test_unit_root_series_is_weight_zero_truncation():
    base = make_field(3, 1)
    lf = local_factor(_ev(), 1, _pt(base, (1,)))
    kappa = from_rational(3, 1, 2, 4)
    unit = unit_root_local(lf, kappa, V=8, R=3)
    # with V <= a d (p-1) the infinite power keeps only the weight-0 tuple
    small = sym_inf_local(lf, kappa, V=2, R=3, a=1)
    for x, y in zip(unit.coeffs, small.coeffs):
        d = (x.rep - y.rep).pi_val()
        assert d is None or d >= small.cert
    # and c_1 is pi_0^kappa itself: square it against pi_0
    c1 = unit.coeffs[1]
    from klsym.padic import hensel_unit_root

    pi0 = hensel_unit_root(list(lf.coeffs), 5)
    d = (c1 * c1 - pi0.with_precision(c1.N)).rep.pi_val()
    assert d is None or d >= min(unit.cert, pi0.vcert)


# ---------------------------------------------------------------------------
# Euler products


def _exact_contribs(ev, n, k, D):
    base = ev.base
    out = []
    for pt in points_up_to(base, D):
        lf = local_factor(ev, n, pt)
        R = D // pt.degree
        out.append(LocalSeries(pt, inverse_factor_series(sym_k_factor(lf, k), R)))
    return out


def test_euler_product_sym1_frozen_c1():
    ev = _ev()
    gs = euler_product(ev.base, _exact_contribs(ev, 1, 1, 3), 3,
                       points_up_to(ev.base, 3))
    assert gs.integers[0] == 1
    assert gs.integers[1] == -1


@pytest.mark.parametrize("n,k,D", [(1, 1, 3), (1, 2, 2), (2, 1, 2)])
def test_euler_product_matches_trace_sums(n, k, D):
    ev = _ev()
    gs = euler_product(ev.base, _exact_contribs(ev, n, k, D), D,
                       points_up_to(ev.base, D))
    oracle = trace_sums_route(ev, n, k, D)
    assert [c.as_integer() for c in oracle] == gs.integers


def test_euler_product_coverage_errors():
    ev = _ev()
    contribs = _exact_contribs(ev, 1, 1, 2)
    points = points_up_to(ev.base, 2)
    with pytest.raises(UsageError, match="missing"):
        euler_product(ev.base, contribs[:-1], 2, points)
    with pytest.raises(UsageError, match="duplicate"):
        euler_product(ev.base, contribs + [contribs[0]], 2, points)
    with pytest.raises(UsageError, match="extra"):
        euler_product(ev.base, contribs, 2, points[:-1])


def test_euler_product_integrality_finding():
    ev = _ev()
    contribs = _exact_contribs(ev, 1, 1, 2)
    z = CycInt.from_powers(3, [(1, 1)])
    bad = [LocalSeries(ls.point, [c * 1 for c in ls.coeffs]) for ls in contribs]
    bad[0].coeffs[1] = bad[0].coeffs[1] + z  # breaks Galois descent
    with pytest.raises(IntegralityFindingError):
        euler_product(ev.base, bad, 2, points_up_to(ev.base, 2))


def test_euler_product_padic_mode_and_galois_check():
    ev = _ev()
    base = ev.base
    kappa = from_rational(3, 1, 2, 6)
    contribs = []
    for pt in points_up_to(base, 2):
        lf = local_factor(ev, 1, pt)
        contribs.append(sym_inf_local(lf, kappa, V=10, R=2 // pt.degree, a=1))
    gs = euler_product(base, contribs, 2, points_up_to(base, 2))
    assert gs.cert is not None and gs.cert >= 6
    assert gs.integers is None
    # order of contributions must not matter
    gs2 = euler_product(base, list(reversed(contribs)), 2, points_up_to(base, 2))
    for x, y in zip(gs.coeffs, gs2.coeffs):
        assert x.rep == y.rep and x.vcert == y.vcert


def test_euler_product_padic_integrality_finding():
    ev = _ev()
    base = ev.base
    kappa = PadicExponent.exact(3, 2)
    contribs = []
    for pt in closed_points(base, 1):
        lf = local_factor(ev, 1, pt)
        contribs.append(sym_inf_local(lf, kappa, V=8, R=1, a=1))
    z = PadicCyc.embed(CycInt.from_powers(3, [(1, 1)]), contribs[0].coeffs[1].N)
    contribs[0].coeffs[1] = contribs[0].coeffs[1] + z
    with pytest.raises(IntegralityFindingError):
        euler_product(base, contribs, 1, points_up_to(base, 1))


def test_euler_product_rejects_mixed_modes():
    ev = _ev()
    exact = _exact_contribs(ev, 1, 1, 1)
    kappa = PadicExponent.exact(3, 1)
    lf = local_factor(ev, 1, exact[0].point)
    mixed = [exact[0], sym_inf_local(lf, kappa, V=6, R=1, a=1)]
    mixed[1].point = exact[1].point if len(exact) > 1 else mixed[1].point
    with pytest.raises(UsageError):
        euler_product(ev.base, mixed, 1, points_up_to(ev.base, 1))
