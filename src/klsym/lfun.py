"""Local factors and symmetric power L-series built from exponential sums.

The local factor at a closed point t of degree d over F_q is the degree
n+1 polynomial P(T) = prod_j (1 - pi_j T) whose eigenvalue power sums are
p_m = (-1)^n Kl_n(t, m).  Coefficients are recovered by the Newton
identities m e_m = sum_i (-1)^(i-1) e_(m-i) p_i, dividing exactly by m at
each step, so no p-adic inversions touch the exact layer.  Symmetric
powers go through power sums as well: the m-th power sum of Sym^k is
h_k(pi^m), built from the base power sums p_(i m) by the h-p Newton
relation, and the same recurrence turns the first R of them into the
series coefficients to T^(R d), without the whole Sym^k polynomial.  The
infinite symmetric power local series needs the eigenvalues themselves and
is assembled p-adically from a slope split.  Euler products multiply
inverse local factors over all closed points up to a degree cap and verify
Galois descent of every global coefficient.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .cyclo import CycInt
from .errors import (
    FunctionalEquationFindingError,
    IntegralityFindingError,
    SignConventionFindingError,
    UsageError,
)
from .expsum import KloostermanEvaluator
from .ff import ClosedPoint
from .padic import PadicCyc, PadicExponent, hensel_unit_root, one_unit_power, slope_split


# ---------------------------------------------------------------------------
# Newton identities


def elementary_from_power_sums(power_sums, count):
    """e_1..e_count from p_1..p_count: m e_m = sum_i (-1)^(i-1) e_(m-i) p_i.

    Each division by m is checked exact; a power-sum sequence that no
    polynomial over Z[zeta_p] has raises ValueError.
    """
    p = power_sums[0].p
    es = [CycInt.from_int(p, 1)]
    for m in range(1, count + 1):
        acc = CycInt.zero(p)
        for i in range(1, m + 1):
            term = es[m - i] * power_sums[i - 1]
            acc = acc + term if i % 2 else acc - term
        es.append(acc.divide_exact_int(m))
    return es[1:]


def eigen_power_sums(coeffs, count):
    """p_1..p_count of the reciprocal roots of sum a_i T^i (a_0 = 1)."""
    p = coeffs[0].p
    deg = len(coeffs) - 1
    ps = []
    for m in range(1, count + 1):
        acc = CycInt.zero(p)
        for i in range(1, min(m - 1, deg) + 1):
            acc = acc + coeffs[i] * ps[m - i - 1]
        if m <= deg:
            acc = acc + coeffs[m] * m
        ps.append(-acc)
    return ps


# ---------------------------------------------------------------------------
# local factors


@dataclass(frozen=True)
class LocalFactor:
    """P(T) = prod (1 - pi_j T) at one closed point; coeffs[0] == 1."""

    point: ClosedPoint
    n: int
    coeffs: tuple
    sign: int  # +1 when the leading coefficient is (-1)^(n+1) q_t^(n(n+1)/2)


def _factor_from_power_sums(power_sums):
    """prod (1 - pi_j T) = sum (-1)^m e_m T^m from the p_m of the pi_j."""
    es = elementary_from_power_sums(power_sums, len(power_sums))
    return [CycInt.from_int(power_sums[0].p, 1)] + [
        -e if m % 2 else e for m, e in enumerate(es, start=1)]


def _lead(coeffs):
    """The leading coefficient as a rational integer, or None."""
    try:
        return coeffs[-1].as_integer()
    except ValueError:
        return None


def local_factor(ev: KloostermanEvaluator, n: int, point: ClosedPoint) -> LocalFactor:
    """Local factor from the sums Kl_n(t, 1..n+1), with invariant checks.

    The leading coefficient must be +-q_t^(n(n+1)/2); a wrong magnitude that
    a global sign flip of the power sums would repair is reported as
    SignConventionFindingError, anything else as a functional equation
    finding.  The sign actually observed is recorded on the factor.
    """
    sums = ev.sums_for_factor(n, point)
    sgn = -1 if n % 2 else 1
    power_sums = [s * sgn for s in sums]
    try:
        coeffs = _factor_from_power_sums(power_sums)
    except ValueError as exc:
        raise FunctionalEquationFindingError(
            f"power sums at {point.rep} give non-integral coefficients: {exc}",
            witness={"point": point.rep}) from None
    q_t = point.base.size ** point.degree
    magnitude = q_t ** (n * (n + 1) // 2)
    expected = magnitude if (n + 1) % 2 == 0 else -magnitude
    lead = _lead(coeffs)
    if lead not in (expected, -expected):
        if sgn == -1 and _lead(_factor_from_power_sums(sums)) in (expected, -expected):
            raise SignConventionFindingError(
                f"leading coefficient {lead} at {point.rep} only matches "
                f"+-{magnitude} after dropping the (-1)^n normalisation",
                witness={"point": point.rep, "degree": point.degree})
        raise FunctionalEquationFindingError(
            f"leading coefficient {lead} at point {point.rep} is not "
            f"+-{magnitude}", witness={"point": point.rep, "lead": lead})
    sign = 1 if lead == expected else -1
    return LocalFactor(point, n, tuple(coeffs), sign)


# ---------------------------------------------------------------------------
# local series


@dataclass
class LocalSeries:
    """Inverse local factor expanded to the needed T-degree at one point."""

    point: ClosedPoint
    coeffs: list  # index r is the coefficient of T^(r * degree)
    cert: int | None = None  # uniform pi-adic certificate; None when exact
    info: dict = field(default_factory=dict)


def symk_local(lf: LocalFactor, k: int, R: int) -> LocalSeries:
    """Series of 1 / prod over |alpha| = k of (1 - pi^alpha T^d), to r = R.

    j h_j = sum_i p_i h_(j-i) (Macdonald I.2), as e_j of the sums
    (-1)^(i-1) p_i, gives the power sums h_k(pi^m) of the eigenvalues
    pi^alpha from the base p_(i m), then their h_r, the coefficients: k R
    base power sums and R k^2 products, whatever binom(n+k, k) is.  Each
    division is checked exact.  k = 0 keeps the empty product's series.
    """
    if k < 0:
        raise UsageError("symmetric power must be nonnegative")
    p = lf.coeffs[0].p
    one = CycInt.from_int(p, 1)
    if k == 0 or R == 0:
        return LocalSeries(lf.point, [one] + [CycInt.zero(p)] * R)
    base = eigen_power_sums(list(lf.coeffs), k * R)
    sym = [elementary_from_power_sums(
        [base[i * m - 1] * (-1) ** (i - 1) for i in range(1, k + 1)], k)[-1]
        for m in range(1, R + 1)]
    hs = elementary_from_power_sums(
        [s * (-1) ** (m - 1) for m, s in enumerate(sym, start=1)], R)
    return LocalSeries(lf.point, [one] + hs)


# ---------------------------------------------------------------------------
# infinite symmetric power and unit-root series


def sym_inf_weights(n: int, wmax: int):
    """All (i_1..i_n) >= 0 with weight sum j*i_j <= wmax, lex order."""
    ranges = [range(wmax // j + 1) for j in range(1, n + 1)]
    out = []
    for tup in itertools.product(*ranges):
        if sum(j * i for j, i in zip(range(1, n + 1), tup)) <= wmax:
            out.append(tup)
    return out


def sym_inf_local(lf: LocalFactor, kappa: PadicExponent, V: int, R: int,
                  a: int) -> LocalSeries:
    """Series of the infinite symmetric power Euler factor at one point.

    Eigenvalues are pi_0^(kappa - |i|) prod pi_j^(i_j) over integer tuples
    i >= 0; tuples of weight w = sum j i_j with a d w (p-1) >= V contribute
    only above the target precision and are dropped.  The returned
    certificate folds the slope-split, 1-unit-power and truncation costs.
    """
    p = lf.coeffs[0].p
    d = lf.point.degree
    ad = a * d
    N = -(-V // (p - 1)) + 1
    pis, ledger = slope_split(list(lf.coeffs), a, d, N)
    pi0 = pis[0]
    wmax = (V - 1) // (ad * (p - 1)) if ad * (p - 1) < V else 0
    tuples = sym_inf_weights(lf.n, wmax)
    pow_cache = {}
    out = [PadicCyc.one(p, pi0.N)] + [PadicCyc.zero(p, pi0.N)] * R
    cert = V
    for tup in tuples:
        size = sum(tup)
        lam = pow_cache.get(size)
        if lam is None:
            lam = one_unit_power(pi0, kappa.minus_int(size), V)
            pow_cache[size] = lam
        for j, i_j in enumerate(tup, start=1):
            if i_j:
                lam = lam * pis[j] ** i_j
        cert = min(cert, lam.vcert)
        for r in range(1, R + 1):
            out[r] = out[r] + lam * out[r - 1]
    cert = min([cert] + [c.vcert for c in out])
    return LocalSeries(lf.point, out, cert,
                       {"tuples": len(tuples), "wmax": wmax, "split": ledger})


def unit_root_local(lf: LocalFactor, kappa: PadicExponent, V: int, R: int) -> LocalSeries:
    """Series of (1 - pi_0^kappa T^d)^(-1): the slope-zero part alone."""
    p = lf.coeffs[0].p
    N = -(-V // (p - 1)) + 1
    pi0 = hensel_unit_root(list(lf.coeffs), N)
    u = one_unit_power(pi0, kappa, V)
    out = [PadicCyc.one(p, u.N)]
    for r in range(R):
        out.append(out[-1] * u)
    cert = min([V, u.vcert] + [c.vcert for c in out])
    return LocalSeries(lf.point, out, cert, {})


# ---------------------------------------------------------------------------
# Euler products


@dataclass
class GlobalSeries:
    coeffs: list  # exact CycInt or PadicCyc, index = power of T
    cert: int | None
    integers: list | None  # populated in exact mode


def _check_coverage(points, contributions, D):
    expected = {(pt.degree, pt.rep) for pt in points}
    got = [(ls.point.degree, ls.point.rep) for ls in contributions]
    if len(got) != len(set(got)):
        raise UsageError("duplicate closed points in Euler product")
    missing = expected - set(got)
    extra = set(got) - expected
    if missing or extra:
        raise UsageError(
            f"Euler product coverage mismatch at degree {D}: "
            f"missing {sorted(missing)}, extra {sorted(extra)}")


def euler_product(base, contributions, D: int, points) -> GlobalSeries:
    """Multiply inverse local factors over all closed points of degree <= D.

    Contributions are merged in canonical point order, so the result does
    not depend on the order the caller produced them in.  They must cover
    points, the closed points of degree <= D, once each.  In exact mode
    every global coefficient must be a rational integer; in p-adic mode it
    must be Galois-invariant to the uniform certificate.  Violations raise
    IntegralityFindingError naming the first bad coefficient.
    """
    contributions = sorted(contributions, key=lambda ls: ls.point.sort_key())
    _check_coverage(points, contributions, D)
    p = base.p
    exact = all(ls.cert is None for ls in contributions)
    if not exact and any(ls.cert is None for ls in contributions):
        raise UsageError("cannot mix exact and p-adic local series")
    for ls in contributions:
        need = D // ls.point.degree
        if len(ls.coeffs) < need + 1:
            raise UsageError(f"local series at {ls.point.rep} too short for degree {D}")
    if exact:
        zero = CycInt.zero(p)
        acc = [CycInt.from_int(p, 1)] + [zero] * D
    else:
        N = min(c.N for ls in contributions for c in ls.coeffs)
        zero = PadicCyc.zero(p, N)
        acc = [PadicCyc.one(p, N)] + [zero] * D
    for ls in contributions:
        # times the local series in T^d; its zero terms would only add
        # products whose certificate is already the maximal N (p - 1)
        d = ls.point.degree
        local = [c if exact else c.with_precision(N) for c in ls.coeffs[: D // d + 1]]
        acc = [sum((acc[r - j * d] * c for j, c in enumerate(local[: r // d + 1])), zero)
               for r in range(D + 1)]
    if exact:
        integers = []
        for r, c in enumerate(acc):
            try:
                integers.append(c.as_integer())
            except ValueError:
                raise IntegralityFindingError(
                    f"coefficient of T^{r} is not a rational integer: {c!r}",
                    witness={"r": r}) from None
        return GlobalSeries(acc, None, integers)
    cert = min(ls.cert for ls in contributions)
    cert = min([cert] + [c.vcert for c in acc])
    for r, c in enumerate(acc):
        for g in range(2, p):
            diff = (c.galois(g) - c).rep.pi_val()
            if diff is not None and diff < cert:
                raise IntegralityFindingError(
                    f"coefficient of T^{r} moves under zeta -> zeta^{g} "
                    f"below the certificate {cert}",
                    witness={"r": r, "galois": g, "val": diff})
    return GlobalSeries(acc, cert, None)
