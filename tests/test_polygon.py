"""Polygon combinatorics and certified comparisons."""

from fractions import Fraction

import pytest

from klsym.cyclo import CycInt
from klsym.errors import UsageError
from klsym.padic import PadicCyc
from klsym.polygon import (
    CoeffPoint,
    Polygon,
    compare_slope_range,
    hodge_coeffs,
    hodge_polygon,
    lower_hull,
    newton_points,
    verify_above,
)
from oracles import _hodge_coeffs_bruteforce, embed_cyc

F = Fraction


# ---------------------------------------------------------------------------
# Hodge side


def test_hodge_coeffs_frozen_n1():
    assert hodge_coeffs(1, 9) == [1, 0, 1, 0, 1, 0, 1, 0, 1]


def test_hodge_coeffs_frozen_n2():
    assert hodge_coeffs(2, 7) == [1, 0, 1, 1, 1, 1, 2]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_hodge_coeffs_against_bruteforce(n):
    assert hodge_coeffs(n, 12) == _hodge_coeffs_bruteforce(n, 12)


def test_hodge_polygon_frozen_p3_n1():
    poly = hodge_polygon(1, 3, 3)
    assert poly.vertices == ((F(0), F(0)), (F(1), F(0)), (F(2), F(1)), (F(3), F(3)))


def test_hodge_polygon_frozen_p5_n1():
    poly = hodge_polygon(1, 5, 2)
    assert poly.vertices[2] == (F(2), F(3, 2))


def test_hodge_polygon_matches_sorted_slope_prefix_sums():
    # the polygon of a product of factors with ord_q i(1 - 1/(p-1)) and
    # multiplicity h_i is exactly the sorted-slope prefix-sum polygon
    for n, p in [(1, 3), (2, 3), (2, 5), (3, 7)]:
        h = hodge_coeffs(n, 8)
        unit = F(1) - F(1, p - 1)
        slopes = []
        for i, mult in enumerate(h):
            slopes.extend([i * unit] * mult)
        slopes.sort()
        poly = hodge_polygon(n, p, len(slopes))
        want_y = F(0)
        got = {poly.vertices[0]: True}
        x = F(0)
        verts = [(F(0), F(0))]
        for s in slopes:
            x += 1
            want_y += s
            verts.append((x, want_y))
        # vertex list may merge collinear steps; compare pointwise instead
        for vx, vy in verts:
            if vx <= poly.width:
                assert poly.value_at(vx) == vy


def test_polygon_value_and_slopes():
    poly = Polygon(((F(0), F(0)), (F(2), F(0)), (F(4), F(3))))
    assert poly.value_at(F(1)) == 0
    assert poly.value_at(F(3)) == F(3, 2)
    assert poly.slopes() == [(F(0), F(2)), (F(3, 2), F(2))]
    with pytest.raises(UsageError):
        poly.value_at(F(5))
    # a lone vertex: its own abscissa alone is in range
    lone = Polygon(((F(2), F(1)),))
    assert lone.value_at(2) == 1
    with pytest.raises(UsageError):
        lone.value_at(3)


# ---------------------------------------------------------------------------
# Newton side


def test_newton_points_exact_and_padic():
    pts = newton_points([CycInt.from_int(3, 1), CycInt.from_int(3, 6),
                         CycInt.from_int(3, 0)], a=1)
    assert pts[0] == CoeffPoint(0, F(0), True)
    assert pts[1] == CoeffPoint(1, F(1), True)  # pi_val(6) = 2, ord_q = 1
    assert pts[2].ordq is None and pts[2].exact


def test_newton_points_padic_certificates():
    p, N = 3, 4
    x = embed_cyc(CycInt.from_int(p, 9), N)  # measured 4 < vcert 8
    z = PadicCyc.from_int(p, N, 0)
    pts = newton_points([x, z], a=1)
    assert pts[0] == CoeffPoint(0, F(4, 2), True)
    assert pts[1] == CoeffPoint(1, F(8, 2), False)  # only a bound
    capped = newton_points([x, z], a=1, cert=6)
    assert capped[1] == CoeffPoint(1, F(6, 2), False)
    # measured at or above the cap degrades to a bound
    assert newton_points([x], a=1, cert=3)[0] == CoeffPoint(0, F(3, 2), False)
    assert newton_points([x], a=1, cert=4)[0] == CoeffPoint(0, F(4, 2), False)
    assert newton_points([x], a=1, cert=5)[0] == CoeffPoint(0, F(4, 2), True)
    # measured above vcert, or at it: a bound at vcert, with or without cert
    for vcert in (3, 4):
        y = PadicCyc(p, N, x.coords, vcert)
        assert newton_points([y], a=1)[0] == CoeffPoint(0, F(vcert, 2), False)
        assert newton_points([y], a=1, cert=7)[0] == CoeffPoint(0, F(vcert, 2), False)
    # a zero representative is a bound at the least of vcert and cert
    low = PadicCyc(p, N, z.coords, 5)
    assert newton_points([low], a=1)[0] == CoeffPoint(0, F(5, 2), False)
    assert newton_points([low], a=1, cert=7)[0] == CoeffPoint(0, F(5, 2), False)
    assert newton_points([low], a=1, cert=2)[0] == CoeffPoint(0, F(2, 2), False)


def test_lower_hull_basic():
    pts = [CoeffPoint(0, F(0), True), CoeffPoint(1, F(2), True),
           CoeffPoint(2, F(1), True), CoeffPoint(3, F(5), True)]
    poly = lower_hull(pts)
    assert poly.vertices == ((F(0), F(0)), (F(2), F(1)), (F(3), F(5)))


def test_lower_hull_collinear_and_infinite():
    pts = [CoeffPoint(0, F(0), True), CoeffPoint(1, None, True),
           CoeffPoint(2, F(1), True), CoeffPoint(4, F(2), True)]
    poly = lower_hull(pts)
    assert poly.vertices == ((F(0), F(0)), (F(4), F(2)))


# ---------------------------------------------------------------------------
# verify_above


def _hodge13():
    return hodge_polygon(1, 3, 3)


def test_verify_above_pass():
    pts = [CoeffPoint(0, F(0), True), CoeffPoint(1, F(0), True),
           CoeffPoint(2, F(2), True), CoeffPoint(3, F(3), True)]
    assert verify_above(pts, _hodge13()).status == "pass"


def test_verify_above_violation_leftmost():
    pts = [CoeffPoint(0, F(0), True), CoeffPoint(1, F(0), True),
           CoeffPoint(2, F(1, 2), True), CoeffPoint(3, F(1), True)]
    v = verify_above(pts, _hodge13())
    assert v.status == "violation"
    assert v.witness["r"] == 2


def test_verify_above_inconclusive_reports_requirement():
    pts = [CoeffPoint(0, F(0), True), CoeffPoint(1, F(0), True),
           CoeffPoint(2, F(1, 2), False)]
    v = verify_above(pts, _hodge13())
    assert v.status == "inconclusive"
    assert v.witness["need_ordq"] == Fraction(1)
    # with the bound pushed to the polygon the verdict flips to pass
    pts[2] = CoeffPoint(2, F(1), False)
    assert verify_above(pts, _hodge13()).status == "pass"


def test_verify_above_ignores_points_past_width():
    pts = [CoeffPoint(0, F(0), True), CoeffPoint(5, F(0), True)]
    assert verify_above(pts, _hodge13()).status == "pass"


def test_verify_above_zero_coefficient_is_fine():
    pts = [CoeffPoint(0, F(0), True), CoeffPoint(2, None, True)]
    assert verify_above(pts, _hodge13()).status == "pass"


# ---------------------------------------------------------------------------
# compare_slope_range


def _exact(seq):
    return [CoeffPoint(r, F(v) if v is not None else None, True)
            for r, v in enumerate(seq)]


def test_compare_agrees_on_identical_polygons():
    a = _exact([0, 0, 1, 3])
    b = _exact([0, 0, 1, 3])
    v = compare_slope_range(a, b, F(1))
    assert v.status == "agree"
    assert v.witness["through_x"] == Fraction(2)


def test_compare_detects_disagreement():
    a = _exact([0, 0, 1, 3])
    b = _exact([0, 1, 2, 4])  # first slope differs already
    v = compare_slope_range(a, b, F(2))
    assert v.status == "disagree"


def test_compare_inconclusive_with_weak_bounds():
    a = _exact([0, 0, 1, 3])
    b = [CoeffPoint(0, F(0), True), CoeffPoint(1, F(0), False),
         CoeffPoint(2, F(1), False), CoeffPoint(3, F(3), False)]
    v = compare_slope_range(a, b, F(1))
    assert v.status == "inconclusive"


def test_compare_restricts_to_slope_cap():
    # polygons share the slope-0 and slope-1 parts, then diverge
    a = _exact([0, 0, 1, 3])
    b = _exact([0, 0, 1, 4])
    assert compare_slope_range(a, b, F(1)).status == "agree"
    assert compare_slope_range(a, b, F(3)).status == "disagree"


def test_compare_mixed_exact_and_bounds_still_agrees():
    # bound points sitting above the exact hull do not disturb the verdict
    a = _exact([0, 0, 1]) + [CoeffPoint(3, F(3), False)]
    b = _exact([0, 0, 1]) + [CoeffPoint(3, F(4), False)]
    assert compare_slope_range(a, b, F(1)).status == "agree"
