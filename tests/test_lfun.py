"""Local factors, symmetric powers, Euler products: frozen values and
independent-route cross checks."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from klsym import cli, lfun
from klsym.cli import _ring_products, console_main
from klsym.cyclo import CycInt
from klsym.errors import (
    FunctionalEquationFindingError,
    IntegralityFindingError,
    SignConventionFindingError,
    UsageError,
)
from klsym.expsum import KloostermanEvaluator
from klsym.ff import MAX_FIELD_SIZE, _mult_data, closed_points, make_field, points_up_to
from klsym.lfun import (
    LocalFactor,
    Series,
    _inverse_series,
    elementary_from_power_sums,
    eigen_power_sums,
    euler_product,
    local_factor,
    power_sum_series,
    reach,
    sums_read,
    sym_inf_local,
    symk_local,
    unit_root_local,
)
from klsym.padic import PadicCyc, PadicExponent
import oracles
from oracles import (
    _factor_from_power_sums,
    cyc_of,
    eigen_power_sums_cyc,
    elementary_from_power_sums_cyc,
    embed_cyc,
    euler_product_reference,
    exact_euler_product,
    from_rational,
    inverse_factor_series,
    inverse_series_reference,
    series_per_point,
    sym_inf_local_hsum,
    sym_k_factor,
    sym_k_factor_berkowitz,
    trace_sums_by_transform,
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


def _coords(p, *vals):
    return [c.coords for c in _ints(p, *vals)]


# ---------------------------------------------------------------------------
# Newton identities


def test_elementary_from_power_sums_matches_hand_formulas():
    # roots 1, 2, 3: p = (6, 14, 36), e = (6, 11, 6)
    p = 7
    e0, e1, e2, e3 = elementary_from_power_sums(p, _coords(p, 6, 14, 36), 3)
    assert e0 == (1, 0, 0, 0, 0, 0)
    assert e1 == (6, 0, 0, 0, 0, 0)
    assert e2 == ((6 * 6 - 14) // 2, 0, 0, 0, 0, 0)
    assert e3 == ((6 ** 3 - 3 * 6 * 14 + 2 * 36) // 6, 0, 0, 0, 0, 0)


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
        cc = _coords(p, *coeffs)
        ps = eigen_power_sums(cc, 6)
        for m in range(1, 7):
            assert ps[m - 1] == (sum(r ** m for r in roots), 0, 0, 0)
        es = elementary_from_power_sums(p, ps, 4)
        for i, e in enumerate(es):
            assert e == (cc[i] if i % 2 == 0 else tuple(-c for c in cc[i]))


def test_frozen_power_sums_of_first_factor():
    ps = eigen_power_sums(_coords(3, 1, -1, 3), 2)
    assert ps[0] == (1, 0)
    assert ps[1] == (-5, 0)


# ---------------------------------------------------------------------------
# local factors


def test_local_factor_frozen_p3_n1():
    base = make_field(3, 1)
    ev = _ev()
    lf1 = local_factor(ev, 1, _pt(base, (1,)))
    assert [c.as_integer() for c in lf1.coeffs] == [1, -1, 3]
    assert lf1.coeffs[-1].as_integer() == 3  # (-1)^(n+1) q^(n(n+1)/2)
    lf2 = local_factor(ev, 1, _pt(base, (2,)))
    assert [c.as_integer() for c in lf2.coeffs] == [1, 2, 3]


def test_local_factor_n2_leading_and_first():
    base = make_field(3, 1)
    lf = local_factor(_ev(), 2, _pt(base, (1,)))
    assert len(lf.coeffs) == 4
    # a_1 = -p_1 = -Kl_2(1,1) = -(1 + 3 zeta^2)
    assert lf.coeffs[1] == -CycInt(3, (-2, -3))
    assert lf.coeffs[-1].as_integer() == -27  # (-1)^(n+1) q^(n(n+1)/2)


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
            ps = eigen_power_sums([c.coords for c in lf.coeffs], n + 3)
            sgn = -1 if n % 2 else 1
            for m in range(n + 2, n + 4):
                assert ps[m - 1] == (ev.kloosterman(n, pt, m) * sgn).coords


def test_sign_convention_finding_surfaces():
    base = make_field(3, 1)

    class Flipped(KloostermanEvaluator):
        def kloosterman(self, n, point, m):
            return -super().kloosterman(n, point, m)

    with pytest.raises(SignConventionFindingError):
        local_factor(Flipped(base), 1, _pt(base, (1,)))


def test_functional_equation_finding_surfaces():
    base = make_field(3, 1)

    class Broken(KloostermanEvaluator):
        def kloosterman(self, n, point, m):
            value = super().kloosterman(n, point, m)
            return value + CycInt.from_int(3, 3) if m == 2 else value

    with pytest.raises(FunctionalEquationFindingError):
        local_factor(Broken(base), 1, _pt(base, (1,)))


class _Memo(KloostermanEvaluator):
    """Each sum computed once, whichever route asks for it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.memo = {}

    def kloosterman(self, n, point, m):
        key = (n, point.sort_key(), m)
        if key not in self.memo:
            self.memo[key] = super().kloosterman(n, point, m)
        return self.memo[key]


# every (p, a, n) with p in {3, 5, 7}, a in {1, 2}, n <= 3 that has a point of
# degree <= 2 whose full route fits the field cap and takes at most 80^2
# vectorised passes per sum
@pytest.mark.parametrize("p,a,n", [
    (3, 1, 1), (3, 1, 2), (3, 1, 3), (3, 2, 1), (3, 2, 2),
    (5, 1, 1), (5, 1, 2), (5, 2, 1), (7, 1, 1), (7, 1, 2), (7, 2, 1),
])
def test_half_route_equals_full_route(p, a, n):
    # both reaches against the Newton identities on all n+1 signed sums; max_degree
    # h = ceil((n+1)/2) reads Kl(t, 1..h) alone at every point
    base = make_field(p, a)
    ev = _Memo(base, budget=10 ** 9)
    pts = [pt for pt in points_up_to(base, 2)
           if base.size ** (pt.degree * (n + 1)) <= MAX_FIELD_SIZE
           and (base.size ** (pt.degree * (n + 1)) - 1) ** (n - 1) <= 80 ** 2]
    assert pts
    for pt in pts:
        want = _factor_from_power_sums(
            [ev.kloosterman(n, pt, m) * (-1) ** n for m in range(1, n + 2)])
        full = local_factor(ev, n, pt)
        half = local_factor(ev, n, pt, max_degree=(n + 2) // 2)
        assert (full.route, half.route) == ("full", "half")
        assert list(full.coeffs) == list(half.coeffs) == want
        q_t = base.size ** pt.degree
        assert want[-1].as_integer() == (-1) ** (n + 1) * q_t ** (n * (n + 1) // 2)


def test_local_factor_routes_by_max_degree():
    # at n = 1 a degree-d point's full route sums in F_3^(2d)
    base = make_field(3, 1)
    ev = KloostermanEvaluator(base)
    routes = {pt.degree: local_factor(ev, 1, pt, max_degree=3).route
              for pt in points_up_to(base, 2)}
    assert routes == {1: "full", 2: "half"}
    assert {local_factor(ev, 1, pt, max_degree=4).route
            for pt in points_up_to(base, 2)} == {"full"}


def _corrupt(base, h, bump):
    """An evaluator whose Kl(t, h) is off by bump."""

    class Corrupt(KloostermanEvaluator):
        def kloosterman(self, n, point, m):
            value = super().kloosterman(n, point, m)
            return value + bump if m == h else value

    return Corrupt(base)


@pytest.mark.parametrize("n,bump", [
    (1, CycInt.from_powers(3, [(1, 1)])),  # Kl(t, 1) + zeta: e_1 is no longer real
    (2, CycInt.from_int(3, 2)),  # Kl(t, 2) + 2: e_2 moves by 1, still integral
    (3, CycInt.from_powers(3, [(1, 2)])),  # Kl(t, 2) + 2 zeta: e_2 moves by zeta
])
def test_half_route_finding_surfaces(n, bump):
    base = make_field(3, 1)
    h = (n + 2) // 2
    pt = _pt(base, (1,))
    local_factor(KloostermanEvaluator(base), n, pt, max_degree=h)
    with pytest.raises(FunctionalEquationFindingError, match=f"e_{h} at"):
        local_factor(_corrupt(base, h, bump), n, pt, max_degree=h)


def test_a_real_error_where_a_sum_in_reach_checks_it_is_a_finding(monkeypatch):
    # Kl_3(t, 2) + 2 at the three degree-2 points of symk -p 3 -n 3 -k 1 -D 3: e_2
    # moves by 1, which sigma_(-1) fixes and the Weil bound allows; but Kl(t, 3) lives
    # in F_(3^6), within reach(3, 3) = 6, so those points read it and e_3 disagrees
    real = KloostermanEvaluator.kloosterman

    def bumped(self, n, point, m):
        value = real(self, n, point, m)
        return value + CycInt.from_int(3, 2) if (point.degree, m) == (2, 2) else value

    monkeypatch.delenv(cli.CACHE_ENV, raising=False)
    monkeypatch.setattr(KloostermanEvaluator, "kloosterman", bumped)
    with pytest.raises(FunctionalEquationFindingError,
                       match=r"e_3 at \(0, 1\) differs from its image"):
        cli.run(cli.RunConfig(p=3, n=3, mode="symk", k=1, D=3, budget=10 ** 9))


def test_half_route_non_exact_newton_division_surfaces():
    # Kl(t, 2) + 1 at n = 2 leaves 2 e_2 odd
    base = make_field(3, 1)
    with pytest.raises(FunctionalEquationFindingError, match="non-integral"):
        local_factor(_corrupt(base, 2, CycInt.from_int(3, 1)), 2, _pt(base, (1,)),
                     max_degree=2)


@pytest.mark.parametrize("p,n,m,bump", [
    (3, 1, 2, -4 * 3), (5, 1, 2, -4 * 5), (3, 2, 3, -6 * 3 ** 3)])
def test_wrong_determinant_sign_is_a_finding(p, n, m, bump):
    # moves e_(n+1) from q^(n(n+1)/2) to its negative, leaving e_1..e_n alone
    base = make_field(p, 1)
    pt = _pt(base, (1,))
    local_factor(KloostermanEvaluator(base), n, pt)
    with pytest.raises(FunctionalEquationFindingError, match=f"e_{n + 1} at"):
        local_factor(_corrupt(base, m, CycInt.from_int(p, bump)), n, pt)


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
    # Sym^0 is the trivial rank-1 sheaf: one eigenvalue, 1
    for route in (sym_k_factor, sym_k_factor_berkowitz):
        assert [c.as_integer() for c in route(lf, 0)] == [1, -1]


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
    (3, 1, 3, 3, 1), (3, 2, 1, 3, 2), (3, 1, 1, 20, 2),
    # large k, and k = n+1 (no recurrence step), n+2 (the first) and beyond at n = 2, 3
    (3, 1, 1, 40, 2), (5, 1, 1, 25, 1), (3, 1, 2, 12, 1), (3, 1, 2, 3, 2), (3, 1, 2, 4, 2),
    (3, 1, 3, 4, 1), (3, 1, 3, 6, 1), (3, 2, 1, 7, 1)])
def test_symk_local_matches_inverse_of_whole_factor(p, a, n, k, D):
    # the power sums of the whole Sym^k factor, and the per-point series from them
    ev = _ev(p, a)
    for pt in points_up_to(ev.base, D):
        lf = local_factor(ev, n, pt)
        R = D // pt.degree
        whole = sym_k_factor(lf, k)
        assert symk_local(lf, k, R) == [c.coords for c in eigen_power_sums_cyc(whole, R)]
        ls = oracles.symk_local(lf, k, R)
        assert lf.point == pt and ls.cert is None
        assert ls.coeffs == inverse_factor_series(whole, R)


# above k = 3, sym_k_factor runs its own k-step Newton route (e_k of the signed power
# sums); the division-free Berkowitz charpoly of the Sym^k matrix is independent of
# both it and symk_local's order-(n+1) recurrence
@pytest.mark.parametrize("p,a,n,k,D", [
    (3, 1, 1, 12, 2), (5, 1, 1, 6, 2), (3, 1, 2, 4, 2), (3, 1, 2, 6, 1), (3, 2, 1, 6, 1),
    (7, 1, 1, 8, 1)])
def test_symk_local_matches_berkowitz_above_k_3(p, a, n, k, D):
    ev = _ev(p, a)
    for pt in points_up_to(ev.base, D):
        lf = local_factor(ev, n, pt)
        R = D // pt.degree
        want = eigen_power_sums_cyc(sym_k_factor_berkowitz(lf, k), R)
        assert symk_local(lf, k, R) == [c.coords for c in want], pt.rep


@pytest.mark.parametrize("n,k,R,most", [
    # no more products than the k-step Newton route made (as many at k <= n+1)
    (1, 2, 10, 67), (2, 3, 2, 24), (3, 4, 1, 16), (1, 3, 4, 45), (2, 6, 2, 72),
    # linear in k: that route made 20,497 and 7,197 products here
    (1, 200, 1, 1200), (1, 40, 8, 1920),
    # at m = 1 the factor's own coefficients run the recurrence from h_1, with no
    # power sums or Newton divisions: the route through them made 9, 24 and 16
    (1, 3, 1, 5), (2, 6, 1, 15), (3, 4, 1, 10)])
def test_symk_local_product_count(monkeypatch, n, k, R, most):
    lf = local_factor(_ev(), n, _pt(make_field(3, 1), (1,)))
    calls = []
    real = lfun.mul_coords
    monkeypatch.setattr(lfun, "mul_coords", lambda *args: calls.append(1) or real(*args))
    symk_local(lf, k, R)
    assert 0 < len(calls) <= most


def test_symk_local_edge_cases():
    base = make_field(3, 1)
    lf = local_factor(_ev(), 1, _pt(base, (1,)))
    # Sym^0 is 1 / (1 - T^d): every power sum is 1
    assert symk_local(lf, 0, 3) == [(1, 0)] * 3
    assert symk_local(lf, 0, 0) == symk_local(lf, 4, 0) == []
    assert [c.as_integer() for c in oracles.symk_local(lf, 0, 3).coeffs] == [1, 1, 1, 1]
    assert [c.as_integer() for c in oracles.symk_local(lf, 0, 0).coeffs] == [1]
    assert [c.as_integer() for c in oracles.symk_local(lf, 4, 0).coeffs] == [1]
    for route in (symk_local, oracles.symk_local):
        with pytest.raises(UsageError, match="nonnegative"):
            route(lf, -1, 2)


def test_inverse_factor_series():
    cs = inverse_factor_series(_ints(3, 1, -1, 3), 4)
    # 1/(1 - T + 3T^2) = 1 + T - 2T^2 - 5T^3 + T^4 + ...
    assert [c.as_integer() for c in cs] == [1, 1, -2, -5, 1]


# ---------------------------------------------------------------------------
# infinite symmetric power local series


def test_sym_inf_frozen_coefficient_kappa_two():
    base = make_field(3, 1)
    lf = local_factor(_ev(), 1, _pt(base, (1,)))
    ls = sym_inf_local(lf, PadicExponent.exact(3, 2), V=8, R=2)
    c1 = cyc_of(ls.coeffs[1])
    assert (c1 - CycInt.from_int(3, 7)).pi_val() >= 4  # 7 mod 9
    assert ls.cert >= 6
    assert cyc_of(ls.coeffs[0]).as_integer() == 1


def test_sym_inf_agrees_with_hsum_route():
    base = make_field(3, 1)
    for rep in [(1,), (2,)]:
        lf = local_factor(_ev(), 1, _pt(base, rep))
        for kappa in (PadicExponent.exact(3, 2),
                      from_rational(3, 1, 2, 6),
                      PadicExponent.exact(3, -1)):
            a_route = sym_inf_local(lf, kappa, V=10, R=4)
            b_route = sym_inf_local_hsum(lf, kappa, V=10, R=4, a=1)
            joint = min(a_route.cert, b_route.cert)
            assert joint >= 6
            for x, y in zip(a_route.coeffs, b_route.coeffs):
                d = (cyc_of(x) - cyc_of(y)).pi_val()
                assert d is None or d >= joint


def test_sym_inf_at_integer_kappa_matches_finite_power():
    # extra eigenvalues beyond Sym^k have weight >= k+1, so the two series
    # agree below pi^((p-1) a d (k+1))
    base = make_field(3, 1)
    for rep in [(1,), (2,)]:
        lf = local_factor(_ev(), 1, _pt(base, rep))
        for k in (1, 2, 3):
            ls = sym_inf_local(lf, PadicExponent.exact(3, k), V=12, R=3)
            finite = inverse_factor_series(sym_k_factor(lf, k), 3)
            bound = min(ls.cert, 2 * (k + 1))
            for x, y in zip(ls.coeffs, finite):
                d = (cyc_of(x) - cyc_of(embed_cyc(y, x.N))).pi_val()
                assert d is None or d >= bound


def test_sym_inf_on_degree_two_point():
    base = make_field(3, 1)
    pt = [q for q in closed_points(base, 2) if q.degree == 2][0]
    lf = local_factor(_ev(), 1, pt)
    a_route = sym_inf_local(lf, from_rational(3, 1, 2, 5), V=9, R=2)
    b_route = sym_inf_local_hsum(lf, from_rational(3, 1, 2, 5), V=9, R=2, a=1)
    joint = min(a_route.cert, b_route.cert)
    for x, y in zip(a_route.coeffs, b_route.coeffs):
        d = (cyc_of(x) - cyc_of(y)).pi_val()
        assert d is None or d >= joint


def test_unit_root_series_is_weight_zero_truncation():
    base = make_field(3, 1)
    lf = local_factor(_ev(), 1, _pt(base, (1,)))
    kappa = from_rational(3, 1, 2, 4)
    unit = unit_root_local(lf, kappa, V=8, R=3)
    # with V <= a d (p-1) the infinite power keeps only the weight-0 tuple
    small = sym_inf_local(lf, kappa, V=2, R=3)
    for x, y in zip(unit.coeffs, small.coeffs):
        d = (cyc_of(x) - cyc_of(y)).pi_val()
        assert d is None or d >= small.cert
    # and c_1 is pi_0^kappa itself: square it against pi_0
    c1 = unit.coeffs[1]
    from klsym.padic import hensel_unit_root

    pi0 = hensel_unit_root(list(lf.coeffs), 5)
    d = cyc_of(c1 * c1 - pi0.with_precision(c1.N)).pi_val()
    assert d is None or d >= min(unit.cert, pi0.vcert)


# ---------------------------------------------------------------------------
# Euler products


def _exact_contribs(ev, n, k, D):
    base = ev.base
    out = []
    for pt in points_up_to(base, D):
        lf = local_factor(ev, n, pt)
        R = D // pt.degree
        out.append((pt, Series(inverse_factor_series(sym_k_factor(lf, k), R))))
    return out


def _members(contribs):
    """euler_product's (point, c, series) triples from (point, series) pairs: each
    point its own representative."""
    return [(pt, 1, ls) for pt, ls in contribs]


def test_euler_product_sym1_frozen_c1():
    ev = _ev()
    gs = exact_euler_product(ev.base, _exact_contribs(ev, 1, 1, 3), 3)
    assert [c.as_integer() for c in gs.coeffs[:2]] == [1, -1]


@pytest.mark.parametrize("n,k,D", [(1, 1, 3), (1, 2, 2), (2, 1, 2)])
def test_euler_product_matches_trace_sums(n, k, D):
    ev = _ev()
    gs = exact_euler_product(ev.base, _exact_contribs(ev, n, k, D), D)
    oracle = trace_sums_route(ev, n, k, D)
    assert [c.as_integer() for c in oracle] == [c.as_integer() for c in gs.coeffs]


def test_euler_product_runs_only_the_products_the_budget_counts(monkeypatch):
    # sum over r <= D of r // d products at a point of degree d, none by the constant
    # term 1; the budget adds M(M+1)/2 Newton products for the M sums a point reads
    ev, n, D = _ev(), 1, 4
    contribs = _exact_contribs(ev, n, 2, D)
    calls = []
    real = CycInt.__mul__

    def counting(x, y):
        calls.append(1)
        return real(x, y)

    monkeypatch.setattr(CycInt, "__mul__", counting)
    exact_euler_product(ev.base, contribs, D)
    monkeypatch.undo()
    runs = sum(r // pt.degree for pt, _ in contribs for r in range(D + 1))
    assert len(calls) == runs == 66
    max_degree = reach(n, D)
    newton = sum(M * (M + 1) // 2
                 for M in (sums_read(n, pt.degree, max_degree) for pt, _ in contribs))
    assert _ring_products(3, n, D, max_degree) == runs + newton


def test_euler_product_coverage_errors():
    ev = _ev()
    contribs = _exact_contribs(ev, 1, 1, 2)
    # a missing point, a duplicate, and the 8 extra points of degree 3 at D = 2
    with pytest.raises(UsageError, match="at degree 2: 2 closed points, not 3"):
        exact_euler_product(ev.base, contribs[:-1], 2)
    with pytest.raises(UsageError, match="duplicate"):
        exact_euler_product(ev.base, contribs + [contribs[0]], 2)
    with pytest.raises(UsageError, match="at degree 3: 8 closed points, not 0"):
        exact_euler_product(ev.base, _exact_contribs(ev, 1, 1, 3), 2)
    # the product runs on the terms j >= 1 alone, so a constant term other than 1 is refused
    bad = [(pt, Series(list(ls.coeffs))) for pt, ls in contribs]
    bad[0][1].coeffs[0] = CycInt.from_int(3, 2)
    with pytest.raises(UsageError, match="does not start with 1"):
        exact_euler_product(ev.base, bad, 2)
    # a p-adic constant term known to be 1 only up to O(pi) is refused too
    kappa = PadicExponent.exact(3, 2)
    padic = [(pt, sym_inf_local(local_factor(ev, 1, pt), kappa, V=8, R=1))
             for pt in points_up_to(ev.base, 1)]
    one = padic[0][1].coeffs[0]
    padic[0][1].coeffs[0] = PadicCyc(3, one.N, one.coords, 1)
    with pytest.raises(UsageError, match="does not start with 1"):
        euler_product(ev.base, _members(padic), 1)


def test_euler_product_integrality_finding():
    ev = _ev()
    contribs = _exact_contribs(ev, 1, 1, 2)
    z = CycInt.from_powers(3, [(1, 1)])
    bad = [(pt, Series([c * 1 for c in ls.coeffs])) for pt, ls in contribs]
    bad[0][1].coeffs[1] = bad[0][1].coeffs[1] + z  # breaks Galois descent
    with pytest.raises(IntegralityFindingError):
        exact_euler_product(ev.base, bad, 2)


def test_euler_product_padic_mode_and_galois_check():
    ev = _ev()
    base = ev.base
    kappa = from_rational(3, 1, 2, 6)
    contribs = []
    for pt in points_up_to(base, 2):
        lf = local_factor(ev, 1, pt)
        contribs.append((pt, sym_inf_local(lf, kappa, V=10, R=2 // pt.degree)))
    gs = euler_product(base, _members(contribs), 2)
    assert gs.cert is not None and gs.cert >= 6
    assert all(isinstance(c, PadicCyc) for c in gs.coeffs)
    # order of contributions must not matter
    gs2 = euler_product(base, list(reversed(_members(contribs))), 2)
    for x, y in zip(gs.coeffs, gs2.coeffs):
        assert x.coords == y.coords and x.vcert == y.vcert


def test_euler_product_padic_integrality_finding():
    ev = _ev()
    base = ev.base
    kappa = PadicExponent.exact(3, 2)
    contribs = []
    for pt in closed_points(base, 1):
        lf = local_factor(ev, 1, pt)
        contribs.append((pt, sym_inf_local(lf, kappa, V=8, R=1)))
    z = embed_cyc(CycInt.from_powers(3, [(1, 1)]), contribs[0][1].coeffs[1].N)
    contribs[0][1].coeffs[1] = contribs[0][1].coeffs[1] + z
    with pytest.raises(IntegralityFindingError) as exc:
        euler_product(base, _members(contribs), 1)
    assert str(exc.value) == ("coefficient of T^1 moves under zeta -> zeta^2 "
                              "below the certificate 8")
    assert exc.value.witness == {"r": 1, "galois": 2, "val": 1}


def test_euler_product_checks_galois_descent_under_the_generator():
    # at p = 7 the coefficient moves by the Gaussian period zeta + zeta^2 + zeta^4,
    # which sigma_2 (of order 3) fixes: sigma_3 = sigma_g moves it by sqrt(-7),
    # pi-valuation 3
    ev = _ev(7)
    base = ev.base
    kappa = PadicExponent.exact(7, 2)
    contribs = []
    for pt in closed_points(base, 1):
        lf = local_factor(ev, 1, pt)
        contribs.append((pt, sym_inf_local(lf, kappa, V=12, R=1)))
    period = CycInt.from_powers(7, [(1, 1), (2, 1), (4, 1)])
    assert period.galois(2) == period
    z = embed_cyc(period, contribs[0][1].coeffs[1].N)
    contribs[0][1].coeffs[1] = contribs[0][1].coeffs[1] + z
    with pytest.raises(IntegralityFindingError) as exc:
        euler_product(base, _members(contribs), 1)
    assert str(exc.value) == ("coefficient of T^1 moves under zeta -> zeta^3 "
                              "below the certificate 12")
    assert exc.value.witness == {"r": 1, "galois": 3, "val": 3}


@st.composite
def _galois_operands(draw):
    """(p, g, x): g the generator of F_p^* that euler_product checks under, and x a
    PadicCyc whose coordinates carry powers of p, some fixed by a subgroup of
    sigmas, so that sigma_c(x) - x takes many pi-valuations."""
    p = draw(st.sampled_from([5, 7, 11]))
    N = draw(st.integers(1, 5))
    g = int(_mult_data(make_field(p, 1)).code[1])
    coord = st.builds(lambda e, u: p ** e * u, st.integers(0, N), st.integers(0, p ** N - 1))
    x = PadicCyc(p, N, draw(st.lists(coord, min_size=p - 1, max_size=p - 1)),
                 draw(st.integers(1, N * (p - 1))))
    d = draw(st.sampled_from([d for d in range(1, p) if (p - 1) % d == 0]))
    # the trace of x to the field fixed by the subgroup of the sigma_(g^(d j))
    orbit = [x.galois(pow(g, d * j, p)) for j in range((p - 1) // d)]
    return p, g, sum(orbit[1:], orbit[0])


@given(_galois_operands())
def test_sigma_g_moves_an_element_no_less_than_any_sigma(operands):
    p, g, x = operands
    vals = [(x.galois(c) - x).val_lb() for c in range(2, p)]
    assert (x.galois(g) - x).val_lb() == min(vals)


def _padic_value(draw, p, N, rational=None):
    """A PadicCyc at a level M of N - 2..N (at least 1): coordinates with powers of p,
    zeros among them, and its val known (measured, so exact) or not; any vcert, but a
    value that ``rational`` says is not rational is at the cap."""
    M = draw(st.integers(max(1, N - 2), N))
    coord = st.builds(lambda e, u: p ** e * u, st.integers(0, M), st.integers(0, p ** M - 1))
    coords = draw(st.lists(coord, min_size=p - 1, max_size=p - 1))
    if rational:
        coords = coords[:1] + [0] * (p - 2)
    x = PadicCyc(p, M, coords, M * (p - 1) if rational is False
                 else draw(st.integers(1, M * (p - 1))))
    if draw(st.booleans()):
        x.val_lb()
    return x


@st.composite
def _eigenvalue_lists(draw):
    """(p, N, lams, R), each lam at N or below: vcerts mixed, vals known or not,
    values whose vals tie (a conjugate), that cancel (a negative), and 0 mod p^N."""
    p = draw(st.sampled_from([3, 5, 7]))
    N = draw(st.integers(1, 6))
    lams = [_padic_value(draw, p, N) for _ in range(draw(st.integers(1, 5)))]
    for kind in draw(st.lists(st.sampled_from(["conjugate", "negative", "zero"]), max_size=3)):
        x = draw(st.sampled_from(lams))
        lams.append(x.galois(p - 1) if kind == "conjugate" else x * -1 if kind == "negative"
                    else PadicCyc.from_int(p, x.N, p ** x.N))
    return p, N, draw(st.permutations(lams)), draw(st.integers(0, 3))


def _padic_series(gs):
    return [(c.coords, c.N, c.vcert, c.val_lb()) for c in gs.coeffs], gs.cert


@settings(max_examples=300, deadline=None)
@given(_eigenvalue_lists(), st.integers(1, 40))
def test_inverse_series_matches_the_reference(operands, V):
    """Rows from their first terms, the top row one many-term sum, against each lam
    added to every coefficient from from_int(0): coords, N, vcert, val_lb and cert."""
    p, N, lams, R = operands
    lf = LocalFactor(None, 1, (CycInt.from_int(p, 1),), "full")
    assert _padic_series(_inverse_series(lf, lams, N, V, R)) == \
        _padic_series(inverse_series_reference(lf, lams, N, V, R))


def _euler_outcome(product, base, members, D):
    try:
        return _padic_series(product(base, members, D))
    except IntegralityFindingError as exc:
        return str(exc), exc.witness


@st.composite
def _euler_members(draw):
    """(base, members, D) at p = 3 to D = 3 or p = 5 to D = 2: every closed point's
    series, 1 at the cap and terms at mixed N, each sigma_c of itself for a random c;
    rational terms, so Galois-invariant, at any vcert, or terms and certificates at the
    cap, which the Galois check mostly refuses."""
    p, D = draw(st.sampled_from([(3, 1), (3, 2), (3, 3), (5, 1), (5, 2)]))
    base = make_field(p, 1)
    N = draw(st.integers(2, 6))
    rational = draw(st.integers(0, 3)) > 0
    members = []
    for pt in points_up_to(base, D):
        terms = [_padic_value(draw, p, N, rational) for _ in range(D // pt.degree)]
        members.append((pt, draw(st.integers(1, p - 1)), Series(
            [PadicCyc.from_int(p, draw(st.integers(N, N + 1)), 1)] + terms,
            draw(st.integers(1, N * (p - 1))) if rational else N * (p - 1))))
    return base, draw(st.permutations(members)), D


@settings(max_examples=150, deadline=None)
@given(_euler_members())
def test_euler_product_matches_the_reference(operands):
    """sigma_g cut to N in one reduction and no product by the leading 1, against
    galois() then with_precision() and every product made: each coefficient's coords,
    N, vcert and val_lb and the cert, or the same Galois finding."""
    base, members, D = operands
    assert _euler_outcome(euler_product, base, members, D) == \
        _euler_outcome(euler_product_reference, base, members, D)


def test_euler_product_rejects_mixed_modes():
    ev = _ev()
    exact = _exact_contribs(ev, 1, 1, 1)
    kappa = PadicExponent.exact(3, 1)
    lf = local_factor(ev, 1, exact[0][0])
    mixed = [exact[0], (lf.point, sym_inf_local(lf, kappa, V=6, R=1))]
    mixed[1] = (exact[1][0] if len(exact) > 1 else mixed[1][0], mixed[1][1])
    with pytest.raises(UsageError):
        euler_product(ev.base, _members(mixed), 1)


# ---------------------------------------------------------------------------
# the exact series from one recurrence over the trace sums


def _exact_series(p, a, n, k, D, max_degree=None):
    """(cli.series on the power-sum route, the per-point Euler product oracle,
    the factors' routes) for Sym^k to T^D."""
    base = make_field(p, a)
    ev = _Memo(base)
    max_degree = max_degree or reach(n, D)
    orbits = cli.galois_orbits(ev, n, D, max_degree=max_degree)
    gs = power_sum_series(base, cli.series(orbits, D, lambda lf, R: symk_local(lf, k, R)), D)
    factors = [local_factor(ev, n, pt, max_degree=max_degree) for pt in points_up_to(base, D)]
    per_point = series_per_point(base, factors, D, lambda lf, R: oracles.symk_local(lf, k, R))
    return gs, per_point, {lf.route for lf in factors}


# (p, a, n, k, D, max_degree): every k in {0, 1, 2, 3, 6}; at p = 5, n = 1 and
# p = 7, n = 2 each orbit has a nontrivial stabiliser (c^(n+1) = 1 for c = -1, resp.
# c^3 = 1), at p = 5, n = 3 every orbit is one point; every max_degree given is below
# n+1, so every factor is a half-route one: Kl(t, 1..h) alone where max_degree // d <= h,
# and Kl(t, 1..3) at the degree-1 points of the p = 3, n = 3 row (max_degree 3)
@pytest.mark.parametrize("p,a,n,k,D,max_degree", [
    (3, 1, 1, 0, 4, None), (3, 1, 1, 1, 4, None), (3, 1, 1, 2, 4, None),
    (3, 1, 1, 3, 4, 1), (3, 1, 1, 6, 3, None), (3, 1, 2, 2, 3, 2), (3, 1, 2, 6, 2, None),
    (3, 1, 3, 1, 2, 3), (3, 2, 1, 2, 2, None), (3, 2, 1, 3, 2, 1), (3, 2, 2, 1, 1, None),
    (5, 1, 1, 2, 3, None), (5, 1, 1, 6, 2, 1), (5, 1, 2, 3, 2, 2), (5, 1, 3, 1, 1, 2),
    (5, 2, 1, 1, 1, None), (7, 1, 1, 3, 2, None), (7, 1, 2, 2, 1, 2), (7, 1, 2, 6, 1, None),
    (11, 1, 1, 2, 2, None), (11, 1, 3, 1, 1, 2),
])
def test_exact_series_matches_the_per_point_euler_product(p, a, n, k, D, max_degree):
    gs, per_point, routes = _exact_series(p, a, n, k, D, max_degree)
    assert gs.cert is None and len(gs.coeffs) == D + 1
    assert gs.coeffs == per_point.coeffs
    if max_degree is not None:
        assert routes == {"half"}


@pytest.mark.parametrize("p,a,n,k,D", [
    (3, 1, 1, 0, 4), (3, 1, 1, 1, 4), (3, 1, 1, 2, 3), (3, 1, 1, 3, 2), (3, 1, 1, 6, 1),
    (3, 1, 2, 1, 3), (3, 1, 2, 2, 2), (3, 1, 3, 1, 2), (3, 2, 1, 1, 2), (3, 2, 1, 2, 1),
    (5, 1, 1, 1, 2), (5, 1, 1, 2, 1), (5, 1, 2, 1, 1), (7, 1, 1, 2, 1), (11, 1, 1, 1, 1),
])
def test_exact_series_matches_the_trace_sums_over_whole_fields(p, a, n, k, D):
    # S_r from every t in F_(q^r)^*, with no closed points, orbits or local factors
    gs, _, _ = _exact_series(p, a, n, k, D)
    oracle = trace_sums_route(KloostermanEvaluator(make_field(p, a), budget=10 ** 9), n, k, D)
    assert [c.as_integer() for c in gs.coeffs] == [c.as_integer() for c in oracle]
    if n <= 2:  # the same trace sums from one transform per field
        assert trace_sums_by_transform(p, a, n, k, D) == [c.as_integer() for c in oracle]


@pytest.fixture(scope="module")
def reach_cache(tmp_path_factory):
    """One sum cache for the reach rows: the k = 6 row, outside the degree theorem, reads
    every point to D = 10, the k = 2 row's sums at degree <= 2 among them."""
    return tmp_path_factory.mktemp("reach") / "sums.cache"


@pytest.mark.parametrize("argv,n,k,D", [
    ("-n 1 -k 2 -D 10", 1, 2, 10),
    ("-n 1 -k 6 -D 10", 1, 6, 10),
    ("-n 2 -k 2 -D 4 --budget 1000000000", 2, 2, 4),
], ids=["n1-k2-D10", "n1-k6-D10", "n2-k2-D4"])
def test_symk_at_reach_matches_the_whole_field_transform(tmp_path, reach_cache, argv, n, k, D):
    # every coefficient of symk at p = 3 against the trace sums over every t of
    # F_(3^r)^*, r <= D, with no closed points, orbits, local factors or sum cache
    out = tmp_path / "report.json"
    argv = ["symk", "-p", "3", *argv.split(), "--cache", str(reach_cache), "--out", str(out)]
    assert console_main(argv) == 0
    coeffs = json.loads(out.read_text())["series"][0]["coefficients"]
    assert [c["value"] for c in coeffs] == trace_sums_by_transform(3, 1, n, k, D)



@pytest.mark.parametrize("p,D,k", [(3, 6, k) for k in range(1, 10)]
                         + [(5, 5, k) for k in range(1, 11)]
                         + [(7, 4, k) for k in range(1, 8)])
def test_the_whole_field_series_ends_at_the_degree_formula(p, D, k):
    # delta(p, k) past k < p, where lfun.symk_degree gives no degree: the whole-field
    # oracle, which reads no closed point, ends at delta, below D; CI runs the
    # measured table, D = 11, 7 and 5 and k to 12, 13 and 9
    delta, last = oracles.symk_degree_seen(p, k, D)
    assert last == delta < D
    if k < p:
        assert delta == lfun.symk_degree(make_field(p, 1), 1, k)

def test_the_transform_oracle_refuses_a_rounding_error(monkeypatch):
    ifft2 = np.fft.ifft2
    monkeypatch.setattr(np.fft, "ifft2", lambda x: ifft2(x) + 0.3)
    with pytest.raises(ArithmeticError, match="rounding error"):
        oracles.kloosterman_by_transform(1, make_field(3, 2))


def _bumped(k, at, m, bump):
    """symk_local with the power sum P_m at the point `at` moved by bump."""
    def local(lf, R):
        sums = symk_local(lf, k, R)
        if lf.point == at:
            sums[m - 1] = tuple(map(int.__add__, sums[m - 1], bump))
        return sums
    return local


@pytest.mark.parametrize("p,n,D,d,m", [
    (3, 1, 4, 2, 2), (3, 1, 4, 1, 3), (5, 1, 2, 1, 2), (7, 2, 1, 1, 1)])
def test_a_non_real_power_sum_is_an_integrality_finding(p, n, D, d, m):
    # + zeta at one representative: its orbit adds sigma_c(zeta) over fewer than p - 1
    # twists c, which is not a rational integer, so T(d, m) is not, and r = d m
    base = make_field(p, 1)
    orbits = cli.galois_orbits(KloostermanEvaluator(base), n, D)
    rep = next(lf.point for lf, _ in orbits.values() if lf.point.degree == d)
    zeta = (0, 1) + (0,) * (p - 3)
    with pytest.raises(IntegralityFindingError, match=f"trace of T\\^{d * m} over the "
                       f"points of degree {d} is not a rational integer") as info:
        power_sum_series(base, cli.series(orbits, D, _bumped(2, rep, m, zeta)), D)
    assert info.value.witness == {"r": d * m, "degree": d}


@pytest.mark.parametrize("r", [2, 3, 4])
def test_a_trace_sum_off_by_one_fails_the_exact_division(r):
    # at p = 3, n = 1 every orbit is one point, so P_r + 1 at a point of degree 1 moves
    # S_r by exactly 1, and r c_r = ... + S_r c_0 is no longer divisible by r
    base, D = make_field(3, 1), 4
    orbits = cli.galois_orbits(KloostermanEvaluator(base), 1, D)
    rep = next(iter(orbits))
    with pytest.raises(IntegralityFindingError, match=f"coefficient of T\\^{r} is not "
                       f"an integer") as info:
        power_sum_series(base, cli.series(orbits, D, _bumped(2, rep, r, (1, 0))), D)
    assert info.value.witness == {"r": r}


def test_the_power_sum_route_checks_coverage():
    base = make_field(3, 1)
    orbits = cli.galois_orbits(KloostermanEvaluator(base), 1, 2)
    missing = dict(list(orbits.items())[:-1])
    local = lambda lf, R: symk_local(lf, 1, R)  # noqa: E731
    with pytest.raises(UsageError, match="at degree 2: 2 closed points, not 3"):
        power_sum_series(base, cli.series(missing, 2, local), 2)
    with pytest.raises(UsageError, match="at degree 3: 8 closed points, not 0"):
        power_sum_series(base, cli.series(
            cli.galois_orbits(KloostermanEvaluator(base), 1, 3), 2, local), 2)


# ---------------------------------------------------------------------------
# the Newton identities on coordinate tuples against the CycInt loops


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_tuple_newton_identities_match_the_cycint_loops(p):
    import random

    rng = random.Random(p)
    for _ in range(20):
        deg = rng.randrange(1, 5)
        coeffs = [CycInt.from_int(p, 1)] + [
            CycInt(p, [rng.randrange(-9, 10) for _ in range(p - 1)]) for _ in range(deg)]
        count = rng.randrange(0, 8)
        ps = eigen_power_sums([c.coords for c in coeffs], count)
        ps_cyc = eigen_power_sums_cyc(coeffs, count)
        assert ps == [x.coords for x in ps_cyc]
        es = elementary_from_power_sums(p, ps, count)
        assert es == [e.coords for e in elementary_from_power_sums_cyc(p, ps_cyc, count)]
        # the polynomial comes back: e_m = (-1)^m a_m, and 0 above its degree
        assert es[:deg + 1] == [(c if m % 2 == 0 else -c).coords
                                for m, c in enumerate(coeffs)][:count + 1]
        assert all(not any(e) for e in es[deg + 1:])
        # power sums that no polynomial has: the same ValueError from both loops
        bad = [CycInt(p, [rng.randrange(-9, 10) for _ in range(p - 1)]) for _ in range(4)]
        with pytest.raises(ValueError) as want:
            elementary_from_power_sums_cyc(p, bad, 4)
        with pytest.raises(ValueError) as got:
            elementary_from_power_sums(p, [x.coords for x in bad], 4)
        assert str(got.value) == str(want.value)
        assert "is not divisible by" in str(got.value)


# ---------------------------------------------------------------------------
# the Weil bound at half-route points


@pytest.mark.parametrize("n,bump", [(1, 5), (3, 400)])
def test_a_real_error_breaking_the_weil_bound_is_a_finding(n, bump):
    # a rational bump of Kl(t, h) is sigma_(-1)-fixed, so at odd n the half route's
    # e_h = sigma_(-1)(e_h) misses it; a large one breaks 0 <= Tr(e_h conj(e_h)) <=
    # (p-1) C(n+1, h)^2 q^(n h): at n = 1, e_1 = -4 gives 32 > 24
    base = make_field(3, 1)
    h = (n + 2) // 2
    pt = _pt(base, (1,))
    local_factor(KloostermanEvaluator(base), n, pt, max_degree=h)
    with pytest.raises(FunctionalEquationFindingError,
                       match=f"e_{h} at .* breaks the Weil bound") as info:
        local_factor(_corrupt(base, h, CycInt.from_int(3, bump)), n, pt, max_degree=h)
    assert info.value.witness == {"point": pt.rep, "index": h}


def test_the_weil_trace_is_within_its_bound_at_half_route_points():
    # Tr(e_h sigma_(-1)(e_h)) by the kernel product against its closed form, on true
    # factors, and below the bound
    from klsym.cyclo import galois_coords, mul_coords

    seen = 0
    for p, n in [(3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 1)]:
        base = make_field(p, 1)
        ev = KloostermanEvaluator(base)
        h = (n + 2) // 2
        for pt in points_up_to(base, 2 if p == 3 else 1):
            lf = local_factor(ev, n, pt, max_degree=h)
            e = tuple(-c for c in lf.coeffs[h].coords) if h % 2 else lf.coeffs[h].coords
            x = mul_coords(e, galois_coords(e, -1))
            trace = p * x[0] - sum(x)
            assert trace == p * sum(c * c for c in e) - sum(e) ** 2
            q_t = base.size ** pt.degree
            assert 0 <= trace <= (p - 1) * math.comb(n + 1, h) ** 2 * q_t ** (n * h)
            seen += 1
    assert seen > 20
