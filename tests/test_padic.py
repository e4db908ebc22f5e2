"""Certified truncated arithmetic, Hensel lifts, slope splits, 1-unit powers."""

import random

import pytest

import klsym.padic as padic
from klsym.cyclo import CycInt
from klsym.errors import (
    DegenerateFactorError,
    PrecisionError,
    SlopeFindingError,
    UsageError,
)
from klsym.expsum import KloostermanEvaluator
from klsym.ff import make_field, points_up_to
from klsym.lfun import local_factor
from klsym.padic import (
    PadicCyc,
    PadicExponent,
    hensel_unit_root,
    one_unit_power,
    ord_p,
    slope_split,
)
from oracles import (
    agrees_with,
    from_rational,
    nested_lift_simple_nonzero_root,
    nested_unit_inverse,
    times_int,
)


def C(p, *coords):
    return CycInt(p, tuple(coords))


# ---------------------------------------------------------------------------
# exponents


def test_exponent_digits_of_one_half_at_p3():
    k = from_rational(3, 1, 2, 3)
    assert k.rep == 14
    assert k == PadicExponent.truncated(3, (2, 1, 1))
    assert (2 * k.rep) % 27 == 1


def test_exponent_arithmetic():
    k = PadicExponent.truncated(3, (2, 1, 1))
    assert k.minus_int(2).rep == 12
    k6 = times_int(k, 6)
    assert k6.ndigits == 4  # one extra digit from ord_3(6) = 1
    assert k6.rep == (14 * 6) % 81
    e = PadicExponent.exact(3, -2)
    assert times_int(e, 5).rep == -10
    assert e.minus_int(1).rep == -3


def test_exponent_binomials():
    e = PadicExponent.exact(5, -1)
    # binom(-1, l) = (-1)^l
    assert [e.binom_with_cert(l)[0] for l in range(5)] == [1, -1, 1, -1, 1]
    h = from_rational(3, 1, 2, 3)
    b2, s = h.binom_with_cert(2)
    assert b2 == 14 * 13 // 2 and s == 3
    with pytest.raises(UsageError):
        PadicExponent.truncated(3, (3, 0))
    with pytest.raises(UsageError):
        from_rational(3, 1, 3, 2)


# ---------------------------------------------------------------------------
# core arithmetic tracks exact arithmetic mod p^N


def test_ring_ops_match_exact_reduction():
    rng = random.Random(7)
    p, N = 3, 5
    mod = p ** N
    for _ in range(40):
        x = C(p, rng.randrange(-50, 50), rng.randrange(-50, 50))
        y = C(p, rng.randrange(-50, 50), rng.randrange(-50, 50))
        X, Y = PadicCyc.embed(x, N), PadicCyc.embed(y, N)
        for exact, approx in [(x + y, X + Y), (x * y, X * Y), (x - y, X - Y)]:
            diff = exact - approx.rep
            assert all(c % mod == 0 for c in diff.coords)
            assert approx.vcert == N * (p - 1)


def test_val_lb_and_measured():
    p, N = 3, 4
    x = PadicCyc.embed(C(p, 3, 0), N)  # pi-val 2
    assert x.rep.pi_val() == 2
    assert x.val_lb() == 2
    z = PadicCyc.embed(C(p, 0, 0), N)
    assert z.rep.pi_val() is None
    assert z.val_lb() == N * (p - 1)


def test_unit_inverse():
    p, N = 3, 6
    x = PadicCyc.embed(C(p, 2, 7), N)  # residue 2+7 = 0 mod 3? 9 = 0 -> not unit
    assert not x.is_unit()
    with pytest.raises(ZeroDivisionError):
        x.unit_inverse()
    u = PadicCyc.embed(C(p, 2, 6), N)  # residue 2
    w = u.unit_inverse()
    assert agrees_with(u * w, PadicCyc.one(p, N))
    # Galois commutes with inversion
    assert agrees_with(u.galois(2).unit_inverse(), w.galois(2))


def test_p_power_shifts():
    p, N = 5, 4
    x = PadicCyc.embed(C(p, 2, 0, 1, 0), N)
    up = x.times_p_power(2)
    assert up.N == N + 2 and up.vcert == x.vcert + 2 * (p - 1)
    back = up.divide_exact_p_power(2)
    assert agrees_with(back, x)
    with pytest.raises(PrecisionError):
        x.divide_exact_p_power(1)  # coords not divisible by 5


def test_precision_exhaustion_guards():
    p = 3
    x = PadicCyc.embed(C(p, 9, 0), 2)
    with pytest.raises(PrecisionError):
        x.divide_exact_p_power(2)  # N would hit 0
    with pytest.raises(PrecisionError):
        PadicCyc(p, 3, C(p, 1, 0), 0)


# ---------------------------------------------------------------------------
# Hensel lift of unit eigenvalues


def _pc(p, *ints):
    return [CycInt.from_int(p, v) for v in ints]


def test_unit_root_of_frozen_factor():
    # 1 - T + 3T^2: unit eigenvalue is 7 mod 9
    root = hensel_unit_root(_pc(3, 1, -1, 3), N=6)
    assert (root.rep - CycInt.from_int(3, 7)).pi_val() >= 4  # mod 9 = 3^2
    # and it satisfies the reversed polynomial exactly to precision
    val = (root * root - root + 3).rep.pi_val()
    assert val is None or val >= root.vcert


def test_unit_root_second_frozen_factor():
    root = hensel_unit_root(_pc(3, 1, 2, 3), N=6)
    assert root.rep.coords[0] % 27 == 4  # x^2+2x+3 has unit root 4 mod 27
    assert root.rep.coords[1] % 27 == 0


def test_unit_root_requires_one_unit():
    with pytest.raises(DegenerateFactorError):
        hensel_unit_root(_pc(3, 1, -2, 3), N=5)  # unit root residue 2


def test_unit_root_requires_unit_slope_zero():
    with pytest.raises(DegenerateFactorError):
        hensel_unit_root(_pc(3, 1, 3), N=5)  # 1 + 3T has no unit eigenvalue


def test_unit_root_rejects_bad_constant():
    with pytest.raises(UsageError):
        hensel_unit_root(_pc(3, 2, 1), N=5)


# ---------------------------------------------------------------------------
# slope split


def test_slope_split_frozen_quadratic():
    pis, info = slope_split(_pc(3, 1, -1, 3), a=1, d=1, N=4)
    assert len(pis) == 2
    p0, p1 = pis
    assert p0.rep.coords[0] % 9 == 7 and p1.rep.coords[0] % 9 == 3
    # product of eigenvalues = q = 3, sum = 1 (trace)
    assert agrees_with(p0 * p1, PadicCyc.from_int(3, p0.N, 3), vmin=4 * 2)
    assert agrees_with(p0 + p1, PadicCyc.from_int(3, p0.N, 1), vmin=4 * 2)
    assert info["N_work"] == 4 + 1 + 2


def test_slope_split_reconstructs_cubic():
    # (1 - T)(1 - 6T)(1 - 18T) over Z_3: slopes 0, 1, 2
    coeffs = _pc(3, 1, -25, 132, -108)
    pis, _ = slope_split(coeffs, a=1, d=1, N=5)
    vals = [pi.val_lb() for pi in pis]
    assert [pis[0].rep.pi_val(), None, None][0] == 0
    assert pis[1].rep.pi_val() == 2  # ord 3^1
    assert pis[2].rep.pi_val() == 4  # ord 3^2
    # elementary symmetric functions reproduce the coefficients mod 3^5
    e1 = pis[0] + pis[1] + pis[2]
    e2 = pis[0] * pis[1] + pis[0] * pis[2] + pis[1] * pis[2]
    e3 = pis[0] * pis[1] * pis[2]
    m = 3 ** 5
    assert (e1.rep - CycInt.from_int(3, 25)).coords[0] % m == 0
    assert (e2.rep - CycInt.from_int(3, 132)).coords[0] % m == 0
    assert (e3.rep - CycInt.from_int(3, 108)).coords[0] % m == 0
    # recovered slope-j eigenvalue is 3^j times the expected unit
    assert pis[1].divide_exact_p_power(1).residue_int() == 2  # 6/3
    assert pis[2].divide_exact_p_power(2).residue_int() == 2  # 18/9


def test_slope_split_detects_wrong_valuation():
    with pytest.raises(SlopeFindingError) as exc:
        slope_split(_pc(3, 1, -1, 9), a=1, d=1, N=4)
    assert exc.value.witness["index"] == 2
    with pytest.raises(SlopeFindingError):
        slope_split(_pc(3, 1, -3, 3), a=1, d=1, N=4)  # a_1 not a unit


def test_slope_split_certificates_meet_request():
    pis, info = slope_split(_pc(3, 1, -1, 3), a=1, d=1, N=7)
    for pi in pis:
        assert pi.vcert >= 7 * 2
    # deeper request agrees with shallower one
    deep, _ = slope_split(_pc(3, 1, -1, 3), a=1, d=1, N=9)
    for x, y in zip(pis, deep):
        assert (x.rep - y.rep).pi_val() >= 7 * 2


# ---------------------------------------------------------------------------
# nested vs coupled Newton lift


def _same(x, y):
    return (x.rep.coords, x.N, x.vcert) == (y.rep.coords, y.N, y.vcert)


# (p, n, D): n = 2 stops where the default budget refuses the next degree
# (p = 13 allows none); n = 1 stops earlier, to keep the suite fast
@pytest.mark.parametrize("p,n,D", [
    (3, 1, 3), (3, 2, 2), (3, 3, 1), (5, 1, 2), (5, 2, 1),
    (7, 1, 1), (7, 2, 1), (11, 1, 1), (11, 2, 1), (13, 1, 1),
])
def test_coupled_lift_matches_nested_lift(monkeypatch, p, n, D):
    """Every lift of every local factor equals the lift that inverts f'(x)
    by a Newton loop of its own at every step, bit for bit."""
    ev = KloostermanEvaluator(make_field(p, 1))
    for pt in points_up_to(ev.base, D):
        coeffs = list(local_factor(ev, n, pt).coeffs)
        for V in (10, 37, 100):
            N = -(-V // (p - 1)) + 1
            pis, ledger = slope_split(coeffs, 1, pt.degree, N)
            root = hensel_unit_root(coeffs, N)
            with monkeypatch.context() as m:
                m.setattr(padic, "_lift_simple_nonzero_root",
                          nested_lift_simple_nonzero_root)
                assert _same(root, hensel_unit_root(coeffs, N))
                nested_pis, nested_ledger = slope_split(coeffs, 1, pt.degree, N)
            assert ledger == nested_ledger
            assert all(_same(x, y) for x, y in zip(pis, nested_pis, strict=True))
            assert _same(pis[0].unit_inverse(), nested_unit_inverse(pis[0]))


def test_unit_inverse_matches_nested_inverse_below_the_cap():
    p, N = 5, 6
    for coords, vcert in [((2, 6, 0, 1), 3), ((7, 0, 5, 1), 11), ((1, 1, 1, 3), N * (p - 1))]:
        u = PadicCyc(p, N, C(p, *coords), vcert)
        w = u.unit_inverse()
        assert w.vcert == vcert
        assert _same(w, nested_unit_inverse(u))


# ---------------------------------------------------------------------------
# 1-unit powers


def test_one_unit_power_matches_integer_powers():
    p, N = 3, 8
    u = PadicCyc.embed(C(p, 4, 0), N)  # 1 + 3
    for k in (0, 1, 2, 5, 11):
        via_series = one_unit_power(u, PadicExponent.exact(p, k), V=14)
        assert agrees_with(via_series, u ** k)


def test_one_unit_power_negative_exponent():
    p, N = 3, 8
    u = PadicCyc.embed(C(p, 1, 3), N)  # 1 + 3*zeta
    w = one_unit_power(u, PadicExponent.exact(p, -1), V=12)
    assert agrees_with(w * u, PadicCyc.one(p, N), vmin=12)
    w2 = one_unit_power(u, PadicExponent.exact(p, -2), V=12)
    assert agrees_with(w2 * u * u, PadicCyc.one(p, N), vmin=12)


def test_one_unit_power_square_root():
    p, N = 3, 9
    u = PadicCyc.embed(C(p, 7, 0), N)  # 1 + 6 = 1-unit
    half = from_rational(p, 1, 2, 5)
    r = one_unit_power(u, half, V=10)
    assert agrees_with(r * r, u, vmin=r.vcert)
    assert r.vcert >= 6  # five digits of exponent support this much


def test_one_unit_power_truncated_certificate_is_honest():
    # truncating kappa to fewer digits must still agree within the
    # smaller claimed certificate
    p, N = 3, 10
    u = PadicCyc.embed(C(p, 4, 3), N)
    full = one_unit_power(u, from_rational(p, 1, 2, 6), V=12)
    for nd in (2, 3, 4):
        coarse = one_unit_power(u, from_rational(p, 1, 2, nd), V=12)
        d = (full.rep - coarse.rep).pi_val()
        assert d is None or d >= coarse.vcert


def test_one_unit_power_rejects_non_one_unit():
    p, N = 3, 5
    with pytest.raises(DegenerateFactorError):
        one_unit_power(PadicCyc.from_int(p, N, 2), PadicExponent.exact(p, 2), V=6)


def test_one_unit_spacing_invariant():
    # ord(u^k - u^j) >= (p-1) ord_p(k - j) + ord(u - 1)
    p, N = 3, 9
    u = PadicCyc.embed(C(p, 4, 0), N)
    v1 = (u - 1).val_lb()
    for k, j in [(9, 0), (10, 1), (7, 4), (12, 3), (27, 0)]:
        d = (u ** k - u ** j).rep.pi_val()
        need = (p - 1) * ord_p(p, k - j) + v1
        assert d is None or d >= need
