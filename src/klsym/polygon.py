"""Newton and Hodge polygons over exact rational arithmetic.

The Hodge side is combinatorial: h_i counts monomials of bounded degree
per residue class, and the polygon's slope-i segment has horizontal length
h_i and slope i (1 - 1/(p-1)) when ordinates are measured in ord_q.  The
Newton side comes from series coefficients whose pi-adic valuations may be
known exactly or only bounded below; comparisons must stay sound in both
cases, so every verdict carries either an exact witness or the precision
that would be needed to decide.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import UsageError


# ---------------------------------------------------------------------------
# Hodge data


def hodge_coeffs(n: int, count: int):
    """h_0..h_(count-1): horizontal lengths of the slope-i Hodge segments.

    h_i is the coefficient of T^i in prod_(s=2)^(n+1) 1/(1 - T^s): the
    number of ways to write i as an ordered-multiset sum of parts 2..n+1.
    For n = 1 this is 1/(1-T^2), giving 1, 0, 1, 0, 1, ...
    """
    if n < 1:
        raise UsageError("dimension must be >= 1")
    h = [0] * count
    if count:
        h[0] = 1
    for s in range(2, min(n + 2, count)):  # a part >= count adds nothing
        for i in range(s, count):
            h[i] += h[i - s]
    return h


class Polygon(NamedTuple):
    """Lower-convex polygon as a vertex list of exact rational points."""

    vertices: tuple

    def value_at(self, x: Fraction) -> Fraction:
        x = Fraction(x)
        # a lone vertex is the segment from itself to itself
        for (x0, y0), (x1, y1) in zip(self.vertices, self.vertices[1:] or self.vertices):
            if x0 <= x <= x1:
                if x1 == x0:
                    return Fraction(y0)
                return y0 + (x - x0) * Fraction(y1 - y0, x1 - x0)
        raise UsageError(f"abscissa {x} outside polygon range")

    @property
    def width(self):
        return self.vertices[-1][0]

    def slopes(self):
        """(slope, horizontal length) pairs, in increasing slope order."""
        return [(Fraction(y1 - y0, x1 - x0), x1 - x0)
                for (x0, y0), (x1, y1) in zip(self.vertices, self.vertices[1:])]


def hodge_polygon(n: int, p: int, vertex_count: int) -> Polygon:
    """First vertex_count+1 vertices of the expected lower bound polygon.

    Segment i has horizontal length h_i and slope i (1 - 1/(p-1)), both in
    ord_q units per unit of T-degree.
    """
    # parts {2..n+1} leave gaps of at most one index between nonzero h_i
    h = hodge_coeffs(n, 2 * vertex_count + 2)
    unit = Fraction(1) - Fraction(1, p - 1)
    verts = [(Fraction(0), Fraction(0))]
    x = Fraction(0)
    y = Fraction(0)
    for i, mult in enumerate(h):
        if mult == 0:
            continue
        x += mult
        y += mult * i * unit
        verts.append((x, y))
        if len(verts) > vertex_count:
            break
    return Polygon(tuple(verts[: vertex_count + 1]))


# ---------------------------------------------------------------------------
# Newton data


class CoeffPoint(NamedTuple):
    """Valuation data for one series coefficient.

    ordq is the exact ord_q when exact=True, otherwise a certified lower
    bound (the coefficient may be anything at or above it, including
    infinite).  ordq=None encodes an exactly-zero coefficient (infinite).
    """

    r: int
    ordq: Fraction | None
    exact: bool


def newton_points(coeffs, a: int, cert: int | None = None):
    """CoeffPoints from exact CycInt or certified PadicCyc coefficients.

    a is log_p(q); ord_q = pi_val / ((p-1) a).  A truncated coefficient's
    val_lb, capped by cert, is its measured valuation, and exact, only below
    that cap; at the cap it is a bound.
    """
    out = []
    for r, c in enumerate(coeffs):
        if hasattr(c, "vcert"):
            limit = c.vcert if cert is None else min(cert, c.vcert)
            v = min(c.val_lb(), limit)
            out.append(CoeffPoint(r, Fraction(v, (c.p - 1) * a), v < limit))
        else:
            v = c.pi_val()
            out.append(CoeffPoint(r, None if v is None else Fraction(v, (c.p - 1) * a), True))
    return out


def lower_hull(points) -> Polygon:
    """Lower convex hull of finite (r, ordq) pairs, monotone chain."""
    best = {}
    for pt in points:
        if pt.ordq is None:
            continue
        x = Fraction(pt.r)
        y = Fraction(pt.ordq)
        if x not in best or y < best[x]:
            best[x] = y
    if not best:
        raise UsageError("no finite points to hull")
    hull = []
    for x, y in sorted(best.items()):
        while len(hull) >= 2:
            (x0, y0), (x1, y1) = hull[-2], hull[-1]
            if (y1 - y0) * (x - x1) >= (y - y1) * (x1 - x0):
                hull.pop()
            else:
                break
        hull.append((x, y))
    return Polygon(tuple(hull))


# ---------------------------------------------------------------------------
# verdicts


class Verdict(NamedTuple):
    status: str  # "pass", "violation", "inconclusive", "agree", "disagree"
    witness: dict | None = None  # exact values: ints and Fractions

    @property
    def decided(self):
        return self.status in ("pass", "violation", "agree", "disagree")


def verify_above(points, hodge: Polygon) -> Verdict:
    """Check every coefficient point lies on or above the Hodge polygon.

    Exact points below the polygon give a violation with the leftmost
    witness.  Inexact points below give an inconclusive verdict carrying
    the pi-adic precision that would settle the worst offender (assuming
    the comparison is at the given a via the caller's newton_points call).
    """
    violations = []
    unsettled = []
    for pt in points:
        if pt.ordq is None:
            continue  # exactly zero: infinitely high, always above
        x = Fraction(pt.r)
        if x > hodge.width:
            continue
        bound = hodge.value_at(x)
        if pt.ordq >= bound:
            continue
        if pt.exact:
            violations.append(pt)
        else:
            unsettled.append((pt, bound))
    if violations:
        w = min(violations, key=lambda pt: pt.r)
        return Verdict("violation", {
            "r": w.r, "ordq": w.ordq, "hodge": hodge.value_at(w.r)})
    if unsettled:
        w, need = min(unsettled, key=lambda t: t[0].r)
        return Verdict("inconclusive", {
            "r": w.r, "have_ordq": w.ordq, "need_ordq": need})
    return Verdict("pass", None)


def compare_slope_range(points_a, points_b, slope_max: Fraction) -> Verdict:
    """Certified comparison of the two Newton polygons up to a slope cap.

    The true hull of each side is pinched between the hull of all points
    (bounds included, a lower estimate) and the hull of exact points only
    (an upper estimate).  Agreement or disagreement is only declared where
    the pinch closes on the whole slope <= slope_max range; otherwise the
    verdict is inconclusive and names the first undecided abscissa.
    """
    slope_max = Fraction(slope_max)

    def hulls(points):
        lo = lower_hull(points)
        exact = [pt for pt in points if pt.exact]
        hi = lower_hull(exact) if exact else None
        return lo, hi

    lo_a, hi_a = hulls(points_a)
    lo_b, hi_b = hulls(points_b)

    def range_end(poly):
        # a hull's slopes increase from r = 0, where c_0 = 1 is exact, so its
        # segments of slope <= slope_max lead, and their lengths sum to their end
        return sum((length for slope, length in poly.slopes() if slope <= slope_max),
                   Fraction(0))

    end = min(range_end(lo_a), range_end(lo_b))
    if end == 0:
        return Verdict("inconclusive", {"reason": "no slopes at or below the cap"})
    # a disagreement is only certified where the exact-point hulls also
    # still run at capped slope, else a bound artifact could be blamed
    sure_end = end
    for hi in (hi_a, hi_b):
        if hi is not None:
            sure_end = min(sure_end, range_end(hi))
    polys = [lo_a, lo_b] + [h for h in (hi_a, hi_b) if h is not None]
    xs = sorted({v[0] for poly in polys for v in poly.vertices
                 if 0 <= v[0] <= end}
                | {Fraction(0), end})
    for x in xs:
        la, lb = lo_a.value_at(x), lo_b.value_at(x)
        ha = hi_a.value_at(x) if hi_a and x <= hi_a.width else None
        hb = hi_b.value_at(x) if hi_b and x <= hi_b.width else None
        pinched_a = ha is not None and la == ha
        pinched_b = hb is not None and lb == hb
        if pinched_a and pinched_b:
            if la != lb:
                if x <= sure_end:
                    return Verdict("disagree", {"x": x, "a": la, "b": lb})
                return Verdict("inconclusive", {
                    "x": x, "reason": "difference beyond certified slope range"})
            continue
        return Verdict("inconclusive", {"x": x})
    return Verdict("agree", {"through_x": end})
