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
    for i, mult in enumerate(h):
        if len(verts) > vertex_count:
            break
        if mult:
            x, y = verts[-1]
            verts.append((x + mult, y + mult * i * unit))
    return Polygon(tuple(verts))


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
    pts = sorted((Fraction(pt.r), Fraction(pt.ordq)) for pt in points if pt.ordq is not None)
    if not pts:
        raise UsageError("no finite points to hull")
    hull = []
    for x, y in pts:
        if hull and hull[-1][0] == x:
            continue  # the least ordq at this r sorted first
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
        return self.status != "inconclusive"


def verify_above(points, hodge: Polygon) -> Verdict:
    """Check every coefficient point lies on or above the Hodge polygon.

    Exact points below the polygon give a violation with the leftmost
    witness.  Inexact points below give an inconclusive verdict carrying
    the pi-adic precision that would settle the leftmost of them (assuming
    the comparison is at the given a via the caller's newton_points call).
    """
    unsettled = None
    for pt in sorted(points, key=lambda pt: pt.r):  # stable: the first at an r wins
        if pt.ordq is None or pt.r > hodge.width:
            continue  # exactly zero (infinitely high), or past the polygon
        bound = hodge.value_at(pt.r)
        if pt.ordq >= bound:
            continue
        if pt.exact:
            return Verdict("violation", {"r": pt.r, "ordq": pt.ordq, "hodge": bound})
        if unsettled is None:
            unsettled = {"r": pt.r, "have_ordq": pt.ordq, "need_ordq": bound}
    return Verdict("pass", None) if unsettled is None else Verdict("inconclusive", unsettled)


def compare_slope_range(points_a, points_b, slope_max: Fraction) -> Verdict:
    """Certified comparison of the two Newton polygons up to a slope cap.

    The true hull of each side is pinched between the hull of all points
    (bounds included, a lower estimate) and the hull of exact points only
    (an upper estimate).  Agreement or disagreement is only declared where
    the pinch closes on the whole slope <= slope_max range; otherwise the
    verdict is inconclusive and names the first undecided abscissa.
    """
    slope_max = Fraction(slope_max)
    sides = []  # (lo, hi) per side: the hulls of all points and of the exact ones
    for points in (points_a, points_b):
        exact = [pt for pt in points if pt.exact]
        sides.append((lower_hull(points), lower_hull(exact) if exact else None))

    def range_end(poly):
        # a hull's slopes increase from r = 0, where c_0 = 1 is exact, so its
        # segments of slope <= slope_max lead, and their lengths sum to their end
        return sum((length for slope, length in poly.slopes() if slope <= slope_max),
                   Fraction(0))

    def pinched(lo, hi, x):
        # the side's value at x where its two hulls meet there, else None
        y = lo.value_at(x)
        return y if hi is not None and x <= hi.width and hi.value_at(x) == y else None

    end = min(range_end(lo) for lo, _ in sides)
    if end == 0:
        return Verdict("inconclusive", {"reason": "no slopes at or below the cap"})
    # a disagreement is only certified where the exact-point hulls also
    # still run at capped slope, else a bound artifact could be blamed
    sure_end = min([end] + [range_end(hi) for _, hi in sides if hi is not None])
    xs = sorted({v[0] for side in sides for poly in side if poly is not None
                 for v in poly.vertices if 0 <= v[0] <= end}
                | {Fraction(0), end})
    for x in xs:
        ya, yb = (pinched(lo, hi, x) for lo, hi in sides)
        if ya is None or yb is None:
            return Verdict("inconclusive", {"x": x})
        if ya != yb:
            if x <= sure_end:
                return Verdict("disagree", {"x": x, "a": ya, "b": yb})
            return Verdict("inconclusive", {
                "x": x, "reason": "difference beyond certified slope range"})
    return Verdict("agree", {"through_x": end})
