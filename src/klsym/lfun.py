"""Local factors and symmetric power L-series built from exponential sums.

The local factor at a closed point t of degree d over F_q is the degree
n+1 polynomial P(T) = prod_j (1 - pi_j T) whose eigenvalue power sums are
p_m = (-1)^n Kl_n(t, m).  Coefficients are recovered by the Newton
identities m e_m = sum_i (-1)^(i-1) e_(m-i) p_i, dividing exactly by m at
each step on coordinate tuples (the ``cyclo`` kernel), so no p-adic
inversions touch the exact layer.  The functional equation of the pure
weight-n sheaf gives the upper half of the coefficients from the lower
half, checked against every sum Kl_n(t, m) whose field is in the run's
reach, and at least m <= ceil((n+1)/2); short of all n+1, the Weil
bound checks the middle one.  The m-th power sum of Sym^k is
h_k(pi^m), by the recurrence of order n+1 that the eigenvalues pi^m give:
from h_0 on the factor itself at m = 1, above h_0..h_(n+1) from the base
sums p_(i m) (h-p Newton) at m >= 2; the exact series is one recurrence
over their sums at all points, sigma_c of those at the orbit representative.
The infinite symmetric power series takes the eigenvalues from a p-adic
slope split; one call gives every 1-unit power of the unit one, and each
power of another is one product from the last.  Its Euler product of inverse
local factors to a degree cap checks Galois descent of each coefficient by sigma_g.
A local or a global series is one ``Series``: coefficients and a certificate.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from typing import NamedTuple

from .cyclo import CycInt, galois_coords, mul_coords
from .errors import (
    FunctionalEquationFindingError,
    IntegralityFindingError,
    SignConventionFindingError,
    UsageError,
)
from .expsum import KloostermanEvaluator
from .ff import ClosedPoint, _mult_data, degree_count, make_field
from .padic import PadicCyc, PadicExponent, hensel_unit_root, one_unit_power, slope_split


# ---------------------------------------------------------------------------
# Newton identities on coordinate tuples over Z[zeta_p]


def elementary_from_power_sums(p, power_sums, count):
    """e_0 = 1, e_1..e_count from p_1..p_count: m e_m = sum_i (-1)^(i-1) e_(m-i) p_i,
    each division checked exact; power sums that no polynomial over Z[zeta_p] has
    raise ValueError."""
    es = [(1,) + (0,) * (p - 2)]
    for m in range(1, count + 1):
        acc = [0] * (p - 1)
        for i in range(1, m + 1):
            acc = list(map(operator.add if i % 2 else operator.sub, acc,
                           mul_coords(es[m - i], power_sums[i - 1])))
        if any(c % m for c in acc):
            raise ValueError(f"CycInt({p}, {tuple(acc)}) is not divisible by {m}")
        es.append(tuple([c // m for c in acc]))
    return es


def eigen_power_sums(coeffs, count):
    """p_1..p_count of the reciprocal roots of sum a_i T^i (a_0 = 1)."""
    deg = len(coeffs) - 1
    ps = []
    for m in range(1, count + 1):
        acc = [m * c for c in coeffs[m]] if m <= deg else [0] * len(coeffs[0])
        for i in range(1, min(m - 1, deg) + 1):
            acc = list(map(operator.add, acc, mul_coords(coeffs[i], ps[m - i - 1])))
        ps.append(tuple([-c for c in acc]))
    return ps


# ---------------------------------------------------------------------------
# local factors


class LocalFactor(NamedTuple):
    """P(T) = prod (1 - pi_j T) at one closed point; coeffs[0] == 1."""

    point: ClosedPoint
    n: int
    coeffs: tuple
    route: str  # "full" when built from all n+1 sums, "half" from Kl_n(t, 1..h)


def _signed(es):
    """The coordinates of (-1)^m e_m, m = 0, 1, ..."""
    return [tuple([-c for c in e]) if m % 2 else e for m, e in enumerate(es)]


def _both_ways(n, point, power_sums):
    """e_0..e_(h-1) from p_1..p_M, e_h..e_(n+1) from the functional equation,
    and the first j in h..M whose e_j the two give differently (None when
    they agree)."""
    q_t = point.base.size ** point.degree
    h = (n + 2) // 2
    try:
        es = elementary_from_power_sums(point.base.p, power_sums, len(power_sums))
    except ValueError as exc:
        raise FunctionalEquationFindingError(
            f"power sums at {point.rep} give non-integral coefficients: {exc}",
            witness={"point": point.rep}) from None
    top = [tuple([c * q_t ** (n * j - n * (n + 1) // 2) for c in galois_coords(es[n + 1 - j], -1)])
           for j in range(h, n + 2)]
    bad = next((j for j in range(h, len(es)) if es[j] != top[j - h]), None)
    return es[:h] + top, bad


def reach(n: int, D: int) -> int:
    """The largest field degree over the base whose sums a run to degree D >= 1 reads:
    Kl(t, 1..h) at the points of degree D, or Kl(t, n+1) at degree 1."""
    return max(D * ((n + 2) // 2), n + 1)


def sums_read(n: int, degree: int, max_degree: int | None) -> int:
    """M, how many sums Kl_n(t, 1..M) local_factor reads at a point of this
    degree: every m <= n+1 whose Kl_n(t, m) lives in a field of degree <= max_degree
    over the base (None: all n+1), and never fewer than h = ceil((n+1)/2)."""
    return n + 1 if max_degree is None else min(n + 1, max((n + 2) // 2, max_degree // degree))


def local_factor(ev: KloostermanEvaluator, n: int, point: ClosedPoint,
                 max_degree: int | None = None) -> LocalFactor:
    """Local factor from the sums Kl_n(t, m), checked by the functional equation.

    Kl_n is pure of weight n with determinant q_t^(n(n+1)/2) (Deligne,
    SGA 4 1/2; Katz 1988), so complex conjugation, sigma_(-1) on Q(zeta_p),
    sends the eigenvalues to q_t^n over themselves:
    e_(n+1-i) = q_t^(n(n+1)/2 - n i) sigma_(-1)(e_i).  The sums m = 1..M
    give e_1..e_M by the Newton identities, and the identity gives
    e_h..e_(n+1), h = ceil((n+1)/2); M is sums_read(n, degree, max_degree),
    h <= M <= n+1.  Every e_j with h <= j <= M must agree both ways; at M = n+1
    that covers the leading coefficient and its sign.  A mismatch that the sums
    without the (-1)^n normalisation would not have is a
    SignConventionFindingError, any other a functional equation finding.
    At M < n+1, which at M = h and odd n checks only e_h = sigma_(-1)(e_h), e_h (C(n+1, h)
    products of h eigenvalues of absolute value q_t^(n/2)) must meet the Weil
    bound, exactly: 0 <= Tr(e_h sigma_(-1)(e_h)) <= (p-1) C(n+1, h)^2 q_t^(n h),
    where Tr(x sigma_(-1)(x)) = p sum x_i^2 - (sum x_i)^2, as Tr(zeta^j) = -1, j != 0.
    """
    if n < 1:
        raise UsageError("need n >= 1")
    M = sums_read(n, point.degree, max_degree)
    sums = [ev.kloosterman(n, point, m).coords for m in range(1, M + 1)]
    sgn = -1 if n % 2 else 1
    es, bad = _both_ways(n, point, [tuple([sgn * c for c in s]) for s in sums])
    if bad is not None:
        if sgn == -1 and _both_ways(n, point, sums)[1] is None:
            raise SignConventionFindingError(
                f"e_{bad} at {point.rep} only matches the functional equation "
                f"after dropping the (-1)^n normalisation",
                witness={"point": point.rep, "degree": point.degree})
        raise FunctionalEquationFindingError(
            f"e_{bad} at {point.rep} differs from its image under the "
            f"functional equation", witness={"point": point.rep, "index": bad})
    p, h = point.base.p, (n + 2) // 2
    if M < n + 1:
        trace = p * sum(c * c for c in es[h]) - sum(es[h]) ** 2
        bound = (p - 1) * math.comb(n + 1, h) ** 2 * point.base.size ** (point.degree * n * h)
        if not 0 <= trace <= bound:
            raise FunctionalEquationFindingError(
                f"e_{h} at {point.rep} breaks the Weil bound: Tr(e_{h} conj(e_{h})) = "
                f"{trace}, not in [0, {bound}]", witness={"point": point.rep, "index": h})
    return LocalFactor(point, n, tuple(CycInt._new(p, c) for c in _signed(es)),
                       "full" if M == n + 1 else "half")


# ---------------------------------------------------------------------------
# local series


class Series(NamedTuple):
    """A series in T: an inverse local factor, whose index r is the coefficient of
    T^(r * degree) at its point, or an L-series, whose index is the power of T."""

    coeffs: list  # exact CycInt or PadicCyc
    cert: int | None = None  # uniform pi-adic certificate; None when exact


def symk_local(lf: LocalFactor, k: int, R: int) -> list:
    """Coordinates of the power sums h_k(pi^m), m = 1..R, of the Sym^k eigenvalues
    pi^alpha, |alpha| = k, at one point, whatever binom(n+k, k) is (Macdonald I.2):
    h_s = -sum_(i <= min(s, n+1)) a_i h_(s-i) from h_0 = 1, a_i = (-1)^i e_i(pi^m),
    so h_s takes min(s, n+1) products.  At m = 1 the a_i are the factor's own
    coefficients and every h_s comes so, with no division; at m >= 2, h_0..h_j,
    j = min(k, n+1), are e_0..e_j of the sums (-1)^(i-1) p_(i m), each division
    checked exact, and the a_i come from the same sums.  Sym^0's are h_0 = 1.
    """
    if k < 0:
        raise UsageError("symmetric power must be nonnegative")
    p, j = lf.coeffs[0].p, min(k, lf.n + 1)
    base = eigen_power_sums([c.coords for c in lf.coeffs], j * R) if R > 1 else []
    out = []
    for m in range(1, R + 1):
        if m == 1:
            hs, a = [lf.coeffs[0].coords], [c.coords for c in lf.coeffs]
        else:
            sums = [base[i * m - 1] for i in range(1, j + 1)]
            hs = elementary_from_power_sums(p, _signed(sums), j)
            a = _signed(elementary_from_power_sums(p, sums, j)) if k > j else []
        for s in range(len(hs), k + 1):
            hs.append(tuple(-sum(col) for col in zip(
                *(mul_coords(a[i], hs[s - i]) for i in range(1, min(s, j) + 1)))))
        out.append(hs[k])
    return out


# ---------------------------------------------------------------------------
# infinite symmetric power and unit-root series


def precision_plan(p: int, a: int, d: int, V: int):
    """(N, wmax) for the target V at a point of degree d over F_(p^a): N = ceil(V/(p-1))
    + 1 working digits, and the largest weight w of an eigenvalue tuple, whose
    pi-valuation is at least a d w (p-1), that is not dropped below V."""
    return -(-V // (p - 1)) + 1, (V - 1) // (a * d * (p - 1))


def sym_inf_weights(n: int, wmax: int):
    """All (i_1..i_n) >= 0 with weight sum j*i_j <= wmax, lex order."""
    return [tup for tup in itertools.product(*(range(wmax // j + 1) for j in range(1, n + 1)))
            if sum(j * i for j, i in enumerate(tup, start=1)) <= wmax]


def _inverse_series(lf: LocalFactor, lams, N: int, V: int, R: int) -> Series:
    """prod over lams of (1 - lam T^d)^(-1) to r = R, each lam at precision N or below:
    coefficient r is h_r(lams), the sum over i of lam_i h_(r-1)(lam_1..lam_i), so each row
    starts from its first term.  A row the next one reads keeps its partial sums; the
    top row is one many-term sum.  The certificate is V capped by the vcert of every
    lam and every coefficient."""
    p, lams = lf.coeffs[0].p, list(lams)
    out, terms = [PadicCyc.from_int(p, N, 1)], lams  # row 1's terms: lam_i h_0, h_0 = 1
    for _ in range(R - 1):
        partial = list(itertools.accumulate(terms))
        out.append(partial[-1])
        terms = [lam * h for lam, h in zip(lams, partial)]
    if R:
        out.append(PadicCyc.sum_of(terms))
    return Series(out, min([V] + [lam.vcert for lam in lams] + [c.vcert for c in out]))


def sym_inf_local(lf: LocalFactor, kappa: PadicExponent, V: int, R: int) -> Series:
    """Series of the infinite symmetric power Euler factor at one point.

    Eigenvalues are pi_0^(kappa - |i|) prod pi_j^(i_j) over integer tuples
    i >= 0; tuples of weight w = sum j i_j with a d w (p-1) >= V contribute
    only above the target precision and are dropped.  The returned
    certificate folds the slope-split, 1-unit-power and truncation costs.
    """
    p, a, d = lf.coeffs[0].p, lf.point.base.k, lf.point.degree
    N, wmax = precision_plan(p, a, d, V)
    pis = slope_split(list(lf.coeffs), a, d, N)
    # pi_0^(kappa - s) for each size s = |i| <= wmax; ladders[j - 1][i - 1] = pi_j^(i-1) pi_j
    powers = one_unit_power(pis[0], kappa, V, wmax)
    ladders = [list(itertools.accumulate(itertools.repeat(pi, wmax // j), operator.mul))
               for j, pi in enumerate(pis[1:], start=1)]
    lams = (math.prod((ladders[j - 1][i - 1] for j, i in enumerate(tup, start=1) if i),
                      start=powers[sum(tup)]) for tup in sym_inf_weights(lf.n, wmax))
    return _inverse_series(lf, lams, pis[0].N, V, R)


def unit_root_local(lf: LocalFactor, kappa: PadicExponent, V: int, R: int) -> Series:
    """Series of (1 - pi_0^kappa T^d)^(-1): the weight-zero term of sym_inf_local."""
    N, _ = precision_plan(lf.coeffs[0].p, lf.point.base.k, lf.point.degree, V)
    u, = one_unit_power(hensel_unit_root(list(lf.coeffs), N), kappa, V)
    return _inverse_series(lf, [u], u.N, V, R)


# ---------------------------------------------------------------------------
# Euler products


def check_coverage(base, points, D: int) -> None:
    """UsageError unless the points are distinct, degree_count(q, d) at each d <= D, none above."""
    keys = [(pt.degree, pt.rep) for pt in points]
    if len(set(keys)) < len(keys):
        raise UsageError("duplicate closed points in Euler product")
    counts = Counter(d for d, _ in keys)
    for d in sorted(counts.keys() | range(1, D + 1)):
        got, want = counts[d], degree_count(base.size, d) if d <= D else 0
        if got != want:
            raise UsageError(f"Euler product coverage mismatch at degree {d}: "
                             f"{got} closed points, not {want}")


def symk_degree(base, n: int, k: int) -> int | None:
    """deg L(G_m, Sym^k Kl_n, T) where a theorem gives it, else None: floor((k+1)/2) at n = 1
    over F_p, 1 <= k < p (Fu-Wan, Crelle 589, 2005), by its hypotheses, not by a size."""
    return (k + 1) // 2 if n == 1 and base.k == 1 and 1 <= k < base.p else None


def power_sum_series(base, members, D: int) -> Series:
    """The exact L-series to T^D from (point, c, P_1..P_R at the point it is sigma_c
    of) at every closed point of degree <= D: L(T) = exp(sum S_r T^r / r), S_r the
    sum over d m = r of d T(d, m), where T(d, m), the sum of P_m over the points of
    degree d, is Galois-invariant, so a rational integer; then r c_r = sum over
    i <= r of S_i c_(r-i).  Either check failing is an IntegralityFindingError at r.
    """
    check_coverage(base, [pt for pt, _, _ in members], D)
    p, traces = base.p, {}
    for pt, c, sums in members:  # sigma_c(P_m), summed per (r, d)
        for m, x in enumerate(sums, start=1):
            t = traces.setdefault((pt.degree * m, pt.degree), [0] * (p - 1))
            t[:] = map(operator.add, t, galois_coords(x, c))
    S = [0] * (D + 1)
    for (r, d), t in sorted(traces.items()):
        if any(t[1:]):
            raise IntegralityFindingError(
                f"the sum of the trace of T^{r} over the points of degree {d} is not "
                f"a rational integer", witness={"r": r, "degree": d})
        S[r] += d * t[0]
    coeffs = [1]
    for r in range(1, D + 1):
        rc = sum(S[i] * coeffs[r - i] for i in range(1, r + 1))
        if rc % r:
            raise IntegralityFindingError(
                f"coefficient of T^{r} is not an integer: {rc}/{r}", witness={"r": r})
        coeffs.append(rc // r)
    return Series([CycInt.from_int(p, c) for c in coeffs])


def euler_product(base, members, D: int) -> Series:
    """The p-adic L-series to T^D from (point, c, local Series at the point it is
    sigma_c of) at every closed point of degree <= D, merged in canonical point order.

    Each series starts with exactly 1, so only its terms j >= 1 multiply, each
    sigma_c of the given one cut to the least precision in one reduction, and the
    product's own leading 1 multiplies none of them.  Every coefficient must
    be Galois-invariant to the uniform certificate, or IntegralityFindingError
    names the first that is not.  Only sigma_g is checked, g the generator of F_p^* in ``ff``:
    it generates the group, and each sigma is a ring automorphism keeping pi-valuations, so
    sigma_g^k(c) - c = sum_(i<k) sigma_g^i(sigma_g(c) - c) has val_lb >= that of sigma_g(c) - c.
    """
    members = sorted(members, key=lambda m: m[0].sort_key())
    check_coverage(base, [pt for pt, _, _ in members], D)
    p = base.p
    if any(ls.cert is None for _, _, ls in members):
        raise UsageError("exact local series take power_sum_series, not euler_product")
    for pt, _, ls in members:
        if len(ls.coeffs) < D // pt.degree + 1:
            raise UsageError(f"local series at {pt.rep} too short for degree {D}")
        c = ls.coeffs[0]
        if (c.coords, c.vcert) != ((1,) + (0,) * (p - 2), c.N * (p - 1)):
            raise UsageError(f"local series at {pt.rep} does not start with 1")
    N = min(c.N for _, _, ls in members for c in ls.coeffs)
    acc = [PadicCyc.from_int(p, N, 1)] + [PadicCyc.from_int(p, N, 0)] * D
    for pt, g, ls in members:
        # times the local series in T^d; going down in r, acc[r - j d] still
        # holds its value from before this point, and acc[0] is 1 at the cap
        d = pt.degree
        local = [c.galois(g, N) for c in ls.coeffs[1: D // d + 1]]  # local[j - 1]: T^(j d)
        for r in range(D, d - 1, -1):
            for j in range(1, r // d + 1):
                acc[r] = acc[r] + (local[j - 1] if j * d == r else acc[r - j * d] * local[j - 1])
    cert = min([ls.cert for _, _, ls in members] + [c.vcert for c in acc])
    g = int(_mult_data(make_field(p, 1)).code[1])
    for r, c in enumerate(acc):
        diff = (c.galois(g) - c).val_lb()
        if diff < cert:
            raise IntegralityFindingError(
                f"coefficient of T^{r} moves under zeta -> zeta^{g} "
                f"below the certificate {cert}",
                witness={"r": r, "galois": g, "val": diff})
    return Series(acc, cert)
