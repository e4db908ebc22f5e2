"""Independent reference routes that production never calls.

Each oracle recomputes a value the package produces by a different
algorithm, so a test can require the two to agree:

* ``sym_k_factor_berkowitz``: the Sym^k local factor as the division-free
  Berkowitz characteristic polynomial of the explicit Sym^k matrix of the
  companion matrix, O(dim^4) with dim = binom(n+k, k);
* ``sym_k_factor`` and ``inverse_factor_series``: the same factor from
  k dim base power sums by the Newton identities, and its inverse as a
  power series by long division, against ``lfun.symk_local``, which never
  forms the degree-dim polynomial;
* ``sym_inf_local_hsum``: the infinite symmetric power local series
  through eigenvalue power sums instead of the product over weights;
* ``trace_sums_route``: L(Sym^k) coefficients from Frobenius traces over
  extension fields, bypassing local factors altogether;
* ``kloosterman_table``: Kl_n at every element of one field by the
  convolution recursion, against the direct enumeration in ``expsum``;
* ``mult_tables_reference``: the discrete-log and trace tables of
  ``ff._MultData`` by one schoolbook product per element, with traces
  from Newton's identities on the modulus, against the block products of
  the multiplication matrix in ``ff``;
* ``direct_reference``: one Kloosterman sum by brute force with the same
  schoolbook arithmetic, no discrete-log table;
* ``_hodge_coeffs_bruteforce``: Hodge numbers by direct enumeration;
* ``nested_lift_simple_nonzero_root``: the Hensel lift with a complete
  Newton inversion of f'(x) (``nested_unit_inverse``) inside every step,
  against the one coupled Newton loop of ``padic``.

``from_rational`` and ``times_int`` build p-adic exponents that only the
tests need; ``agrees_with`` compares two certified p-adic values, and
``divide_exact_int`` divides one by an integer for ``sym_inf_local_hsum``.

The h-from-p loops here are written out on purpose rather than shared
with ``klsym.lfun``, so that the oracles stay independent of the code
they check.  ``sym_k_factor`` is the exception: it shares the Newton
helpers of ``lfun`` and checks the truncation to R power sums, not them.
"""

import itertools
import math
from functools import lru_cache

import numpy as np
import sympy

from klsym.cyclo import CycInt
from klsym.errors import DegenerateFactorError, ResourceError, UsageError
from klsym.expsum import DEFAULT_BUDGET, KloostermanEvaluator
from klsym.ff import Field, _mult_data, embed, make_field
from klsym.lfun import (
    LocalFactor,
    LocalSeries,
    _factor_from_power_sums,
    eigen_power_sums,
    elementary_from_power_sums,
)
from klsym.padic import (
    PadicCyc,
    PadicExponent,
    _pderiv,
    _peval,
    one_unit_power,
    ord_p,
    slope_split,
)


# ---------------------------------------------------------------------------
# p-adic exponents, and agreement to a certificate


def from_rational(p: int, num: int, den: int, ndigits: int) -> PadicExponent:
    if den % p == 0:
        raise UsageError("denominator must be a p-adic unit")
    mod = p ** ndigits
    rep = num * pow(den, -1, mod) % mod
    return PadicExponent(p, rep, ndigits)


def times_int(kappa: PadicExponent, m: int) -> PadicExponent:
    if kappa.is_exact:
        return PadicExponent(kappa.p, kappa.rep * m, None)
    nd = kappa.ndigits + (ord_p(kappa.p, m) if m else kappa.ndigits)
    if m == 0:
        return PadicExponent.exact(kappa.p, 0)
    return PadicExponent(kappa.p, (kappa.rep * m) % kappa.p ** nd, nd)


def agrees_with(x: PadicCyc, y: PadicCyc, vmin: int | None = None) -> bool:
    """True when x - y vanishes to the joint certificate (capped at vmin)."""
    d = x - y
    target = d.vcert if vmin is None else min(vmin, d.vcert)
    v = d.rep.pi_val()
    return v is None or v >= target


def divide_exact_int(x: PadicCyc, m: int) -> PadicCyc:
    """x / m for a nonzero integer m whose quotient is known integral."""
    e = ord_p(x.p, m)
    unit = m // x.p ** e
    if unit != 1:
        x = x * PadicCyc.from_int(x.p, x.N, unit).unit_inverse()
    return x.divide_exact_p_power(e)


# ---------------------------------------------------------------------------
# Hensel lifts by Newton's method with an exact inverse at every step


def nested_unit_inverse(u: PadicCyc) -> PadicCyc:
    """Inverse of a pi-adic unit by its own Newton iteration; certificate kept."""
    r0 = u.residue_int()
    if r0 == 0:
        raise ZeroDivisionError("not a pi-adic unit to working precision")
    y = PadicCyc.from_int(u.p, u.N, pow(r0, -1, u.p))
    two = PadicCyc.from_int(u.p, u.N, 2)
    steps = max(1, math.ceil(math.log2(u.N * (u.p - 1)))) + 1
    for _ in range(steps):
        y = y * (two - u * y)
    check = u * y - 1
    v = check.rep.pi_val()
    if not (v is None or v >= min(u.vcert, u.N * (u.p - 1))):
        raise AssertionError("inverse iteration failed to converge")
    return PadicCyc(u.p, u.N, y.rep, u.vcert)


def nested_lift_simple_nonzero_root(coeffs, p: int, N: int) -> PadicCyc:
    """Hensel lift of the unique simple nonzero root of the residue poly,
    inverting f'(x) afresh by ``nested_unit_inverse`` at every step."""
    res = [c.residue_int() for c in coeffs]
    roots = []
    for r in range(1, p):
        if sum(cr * pow(r, i, p) for i, cr in enumerate(res)) % p == 0:
            dr = sum(i * cr * pow(r, i - 1, p) for i, cr in enumerate(res) if i) % p
            if dr == 0:
                raise DegenerateFactorError(f"residue root {r} is not simple")
            roots.append(r)
    if len(roots) != 1:
        raise DegenerateFactorError(
            f"expected one nonzero residue root, found {len(roots)}")
    x = PadicCyc.from_int(p, N, roots[0])
    deriv = _pderiv(coeffs)
    steps = max(1, math.ceil(math.log2(N * (p - 1)))) + 1
    for _ in range(steps):
        x = x - _peval(coeffs, x) * nested_unit_inverse(_peval(deriv, x))
    v = _peval(coeffs, x).rep.pi_val()
    if not (v is None or v >= min(c.vcert for c in coeffs)):
        raise AssertionError("Newton iteration failed to converge")
    return x


# ---------------------------------------------------------------------------
# finite field arithmetic by schoolbook products


def _pmod(f, g, p):
    """f mod g over F_p, coefficient tuples lowest degree first."""
    f = list(f)
    dg = len(g) - 1
    inv_lead = pow(g[-1], p - 2, p)
    while len(f) - 1 >= dg and f:
        c = f[-1] * inv_lead % p
        shift = len(f) - 1 - dg
        if c:
            for i, b in enumerate(g):
                f[shift + i] = (f[shift + i] - c * b) % p
        f.pop()
        while f and f[-1] == 0:
            f.pop()
    return tuple(f)


def schoolbook_mul(field: Field, x, y):
    """x y as a polynomial product reduced by long division by the modulus."""
    p, k = field.p, field.k
    prod = [0] * (2 * k - 1)
    for i, a in enumerate(x):
        if a:
            for j, b in enumerate(y):
                prod[i + j] += a * b
    red = _pmod(tuple(c % p for c in prod), field.modulus, p)
    return red + (0,) * (k - len(red))


def schoolbook_pow(field: Field, x, e: int):
    """x^e, e >= 0, by square and multiply on schoolbook_mul."""
    result = field.one
    while e:
        if e & 1:
            result = schoolbook_mul(field, result, x)
        x = schoolbook_mul(field, x, x)
        e >>= 1
    return result


@lru_cache(maxsize=None)
def newton_trace_vector(field: Field):
    """Tr(X^i) for i < k: the power sums of the roots of the modulus.

    Newton's identities for X^k + a_1 X^(k-1) + ... + a_k, a_j =
    modulus[k - j]: Tr(X^i) = -(i a_i + sum_(j<i) a_j Tr(X^(i-j))).
    """
    p, k, a = field.p, field.k, field.modulus[::-1]
    tv = [k % p]
    for i in range(1, k):
        tv.append(-(i * a[i] + sum(a[j] * tv[i - j] for j in range(1, i))) % p)
    return tuple(tv)


def newton_trace(field: Field, x) -> int:
    return sum(c * t for c, t in zip(x, newton_trace_vector(field))) % field.p


def schoolbook_generator(field: Field):
    """The least multiplicative generator in element order, by schoolbook powers."""
    order = field.size - 1
    primes = sympy.primefactors(order)
    for v in range(2, field.size):
        g = field.from_int(v)
        if all(schoolbook_pow(field, g, order // r) != field.one for r in primes):
            return g
    raise AssertionError("no generator found")


def mult_tables_reference(field: Field):
    """(g, code, tr, dlog) of ``ff._MultData`` by one schoolbook product per element."""
    g = schoolbook_generator(field)
    S = field.size - 1
    code = np.empty(S, dtype=np.int64)
    tr = np.empty(S, dtype=np.int64)
    x = field.one
    for i in range(S):
        code[i] = field.to_int(x)
        tr[i] = newton_trace(field, x)
        x = schoolbook_mul(field, x, g)
    dlog = np.full(field.size, -1, dtype=np.int64)
    dlog[code] = np.arange(S)
    if x != field.one or (dlog[1:] < 0).any():
        raise AssertionError("generator order mismatch")
    return g, code, tr, dlog


# ---------------------------------------------------------------------------
# Hodge numbers and single sums by brute force


def _hodge_coeffs_bruteforce(n: int, count: int):
    """Same numbers by direct enumeration; test oracle."""
    from itertools import product

    strides = list(range(2, n + 2))
    h = [0] * count
    caps = [(count - 1) // s for s in strides]
    for mult in product(*[range(c + 1) for c in caps]):
        w = sum(m * s for m, s in zip(mult, strides))
        if w < count:
            h[w] += 1
    return h


@lru_cache(maxsize=None)
def direct_reference(p: int, n: int, k: int, t_int: int) -> str:
    """Tiny brute-force oracle over F_{p^k}, schoolbook field arithmetic only.

    Serialised so the cache of this reference stays hashable; intended for
    tests and cache verification at small sizes.
    """
    field = make_field(p, k)
    t = field.from_int(t_int)
    if not any(t):
        raise UsageError("t must be nonzero")
    import itertools

    acc = {}
    units = [field.from_int(v) for v in range(1, field.size)]
    for xs in itertools.product(units, repeat=n):
        prod = field.one
        for x in xs:
            prod = schoolbook_mul(field, prod, x)
        inv = schoolbook_pow(field, prod, field.size - 2)
        # the trace is F_p-linear: Tr(x_1 + ... + x_n + t/prod) term by term
        e = sum(newton_trace(field, y) for y in xs + (schoolbook_mul(field, t, inv),)) % p
        acc[e] = acc.get(e, 0) + 1
    return CycInt.from_powers(p, acc.items()).serialize()


# ---------------------------------------------------------------------------
# finite symmetric powers: explicit Sym^k matrix and Berkowitz


def _companion(coeffs):
    """Multiplication-by-X matrix on Z[zeta][X] / (X^deg P(1/X) X^deg...).

    Columns are images of the basis 1, X, ..., X^(deg-1) of the quotient by
    the monic reciprocal-root polynomial E(X) = X^deg P(1/X).
    """
    p = coeffs[0].p
    deg = len(coeffs) - 1
    zero = CycInt.zero(p)
    one = CycInt.from_int(p, 1)
    # E low-first: e[i] = a_{deg-i}
    e = list(reversed(coeffs))
    M = [[zero] * deg for _ in range(deg)]
    for j in range(deg - 1):
        M[j + 1][j] = one
    for i in range(deg):
        M[i][deg - 1] = -e[i]
    return M


def _sym_power_matrix(M, k):
    """Sym^k of a matrix in the monomial basis, lex-ordered exponents."""
    p = M[0][0].p
    dim = len(M)
    basis = sorted(_exponent_tuples(dim, k), reverse=True)
    index = {b: i for i, b in enumerate(basis)}
    zero = CycInt.zero(p)
    cols = []
    lin_forms = [[M[i][j] for i in range(dim)] for j in range(dim)]  # image of x_j
    for alpha in basis:
        poly = {(0,) * dim: CycInt.from_int(p, 1)}
        for var, mult in enumerate(alpha):
            for _ in range(mult):
                poly = _poly_mul_linear(poly, lin_forms[var], dim)
        col = [zero] * len(basis)
        for mono, c in poly.items():
            col[index[mono]] = c
        cols.append(col)
    D = len(basis)
    return [[cols[j][i] for j in range(D)] for i in range(D)]


def _exponent_tuples(dim, k):
    for comb in itertools.combinations_with_replacement(range(dim), k):
        t = [0] * dim
        for c in comb:
            t[c] += 1
        yield tuple(t)


def _poly_mul_linear(poly, form, dim):
    out = {}
    for mono, c in poly.items():
        for var, fc in enumerate(form):
            if not fc:
                continue
            key = list(mono)
            key[var] += 1
            key = tuple(key)
            v = c * fc
            if key in out:
                out[key] = out[key] + v
            else:
                out[key] = v
    return out


def _berkowitz_charpoly(M):
    """Division-free characteristic polynomial, highest degree first."""
    p = M[0][0].p
    one = CycInt.from_int(p, 1)
    zero = CycInt.zero(p)
    D = len(M)
    V = [one, -M[0][0]]
    for r in range(1, D):
        A = [row[:r] for row in M[:r]]
        R = M[r][:r]
        Ccol = [M[i][r] for i in range(r)]
        a_rr = M[r][r]
        q = [one, -a_rr]
        vec = Ccol
        for i in range(2, r + 2):
            dot = zero
            for x, y in zip(R, vec):
                dot = dot + x * y
            q.append(-dot)
            if i < r + 1:
                vec = [sum((A[s][t] * vec[t] for t in range(r)), zero) for s in range(r)]
        newV = [zero] * (r + 2)
        for i in range(r + 2):
            s = zero
            for j in range(min(i, r) + 1):
                if i - j < len(q):
                    s = s + q[i - j] * V[j]
            newV[i] = s
        V = newV
    return V


def sym_k_factor_berkowitz(lf: LocalFactor, k: int):
    """Coefficients of prod over |alpha| = k of (1 - pi^alpha T).

    Division-free throughout: the charpoly of Sym^k of the companion
    matrix, read as T^D char(1/T) = sum V[i] T^i.
    """
    if k < 0:
        raise UsageError("symmetric power must be nonnegative")
    p = lf.coeffs[0].p
    if k == 0:
        return [CycInt.from_int(p, 1)]
    M = _sym_power_matrix(_companion(list(lf.coeffs)), k)
    return _berkowitz_charpoly(M)


# ---------------------------------------------------------------------------
# finite symmetric powers: the whole polynomial, then its inverse series


def sym_k_factor(lf: LocalFactor, k: int):
    """Coefficients of prod over |alpha| = k of (1 - pi^alpha T).

    Degree dim = binom(n+k, k).  The eigenvalues pi^alpha of Sym^k have
    power sums p_m = h_k(pi^m), and the pi_j^m have power sums p_(i m).
    Since j h_j = sum_i p_i h_(j-i), h_k is e_k of the power sums
    (-1)^(i-1) p_i, so one Newton recurrence gives each p_m and then the
    coefficients.  Every division is exact; the result stays in Z[zeta_p].
    """
    if k < 0:
        raise UsageError("symmetric power must be nonnegative")
    if k == 0:
        return [CycInt.from_int(lf.coeffs[0].p, 1)]
    dim = math.comb(lf.n + k, k)
    base = eigen_power_sums(list(lf.coeffs), k * dim)
    sym = [elementary_from_power_sums(
        [base[i * m - 1] * (-1) ** (i - 1) for i in range(1, k + 1)], k)[-1]
        for m in range(1, dim + 1)]
    return _factor_from_power_sums(sym)


def inverse_factor_series(coeffs, R):
    """First R+1 coefficients of 1 / sum a_i T^i with a_0 = 1, exact."""
    p = coeffs[0].p
    deg = len(coeffs) - 1
    out = [CycInt.from_int(p, 1)]
    for r in range(1, R + 1):
        acc = CycInt.zero(p)
        for i in range(1, min(r, deg) + 1):
            acc = acc + coeffs[i] * out[r - i]
        out.append(-acc)
    return out


# ---------------------------------------------------------------------------
# infinite symmetric power through power sums


def sym_inf_local_hsum(lf: LocalFactor, kappa: PadicExponent, V: int, R: int,
                       a: int) -> LocalSeries:
    """Independent route to the same series through eigenvalue power sums.

    Uses p~_m = pi_0^(kappa m) prod_j (1 - (pi_j/pi_0)^m)^(-1) and the
    log-derivative recurrence r c_r = sum p~_m c_(r-m); the division by r
    costs ord_p(r) digits, which the certificate tracks.
    """
    p = lf.coeffs[0].p
    d = lf.point.degree
    N = -(-V // (p - 1)) + 1 + sum(ord_p(p, r) for r in range(1, R + 1))
    pis, _ = slope_split(list(lf.coeffs), a, d, N)
    pi0 = pis[0]
    inv0 = pi0.unit_inverse()
    ratios = [pi * inv0 for pi in pis[1:]]
    ptil = []
    for m in range(1, R + 1):
        val = one_unit_power(pi0, times_int(kappa, m), V)
        for rho in ratios:
            one = PadicCyc.one(p, val.N)
            val = val * (one - rho ** m).unit_inverse()
        ptil.append(val)
    out = [PadicCyc.one(p, pi0.N)]
    for r in range(1, R + 1):
        acc = ptil[r - 1] * out[0]
        for m in range(1, r):
            acc = acc + ptil[m - 1] * out[r - m]
        out.append(divide_exact_int(acc, r))
    cert = min([V] + [c.vcert for c in out])
    return LocalSeries(lf.point, out, cert, {})


# ---------------------------------------------------------------------------
# Kloosterman sums over a whole field by convolution


def kloosterman_table(n: int, field: Field, budget: int = DEFAULT_BUDGET):
    """Kl_n(t) for every t in field^*, by the convolution recursion.

    Returns a dict from element coordinates to CycInt.  O(n |F|^2)
    character operations, independent of the direct route.
    """
    if n < 1:
        raise UsageError("dimension must be >= 1")
    S = field.size - 1
    if n * S * S > 4 * budget:
        raise ResourceError(f"table work n*|F|^2 = {n * S * S} exceeds budget")
    p = field.p
    md = _mult_data(field)
    tr = md.tr
    G = np.zeros((S, p), dtype=np.int64)
    G[np.arange(S), tr % p] = 1
    perms = [np.array([(c + t) % p for c in range(p)]) for t in range(p)]
    for _ in range(n):
        H = np.zeros_like(G)
        for u in range(S):
            H[:, perms[int(tr[u]) % p]] += np.roll(G, u, axis=0)
        G = H
    return {md.power(i): CycInt.from_powers(p, enumerate(G[i])) for i in range(S)}


# ---------------------------------------------------------------------------
# independent global route: trace sums over extension fields


def trace_sums_route(ev: KloostermanEvaluator, n: int, k: int, D: int):
    """L(Sym^k) coefficients from point counts over extension fields.

    Completely bypasses local factors: S_m sums the m-th Sym^k Frobenius
    trace over all rational points of the torus over F_(q^m), and
    r c_r = sum_m S_m c_(r-m).  Exact; divisions are certified exact.
    Intended as a test oracle at tiny sizes.
    """
    base = ev.base
    p = base.p
    S = []
    for m in range(1, D + 1):
        big_k = base.k * m
        big = make_field(p, big_k)
        table_cache = {}
        total = CycInt.zero(p)
        sgn = -1 if n % 2 else 1
        for t_int in range(1, big.size):
            t = big.from_int(t_int)
            tab = table_cache.get(n)
            if tab is None:
                tab = kloosterman_table(n, big, budget=ev.budget)
                table_cache[n] = tab
            if k == 1:
                total = total + tab[t] * sgn
            else:
                # power sums of Frobenius at t over F_(q^m): need Kl over
                # extensions of big; use the table of the composite field
                ps = []
                for i in range(1, k + 1):
                    comp = make_field(p, big_k * i)
                    ctab = table_cache.get((n, i))
                    if ctab is None:
                        ctab = kloosterman_table(n, comp, budget=ev.budget)
                        table_cache[(n, i)] = ctab
                    ps.append(ctab[embed(big, comp, t)] * sgn)
                # complete homogeneous h_k from power sums, exact divisions
                hs = [CycInt.from_int(p, 1)]
                for j in range(1, k + 1):
                    acc = CycInt.zero(p)
                    for i in range(1, j + 1):
                        acc = acc + ps[i - 1] * hs[j - i]
                    hs.append(acc.divide_exact_int(j))
                total = total + hs[k]
        S.append(total)
    out = [CycInt.from_int(p, 1)]
    for r in range(1, D + 1):
        acc = CycInt.zero(p)
        for m in range(1, r + 1):
            acc = acc + S[m - 1] * out[r - m]
        out.append(acc.divide_exact_int(r))
    return out
