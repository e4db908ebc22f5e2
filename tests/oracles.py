"""Independent reference routes that production never calls.

Each oracle recomputes a value the package produces by a different
algorithm, so a test can require the two to agree:

* ``sym_k_factor_berkowitz``: the Sym^k local factor as the division-free
  Berkowitz characteristic polynomial of the explicit Sym^k matrix of the
  companion matrix, O(dim^4) with dim = binom(n+k, k);
* ``sym_k_factor`` and ``inverse_factor_series``: the same factor from
  k dim base power sums by k-step Newton runs, O(k^2) products for each
  h_k(pi^m), and its inverse as a power series by long division, against
  ``lfun.symk_local``, which never forms the degree-dim polynomial and
  runs Newton only to h_(n+1), then a recurrence of order n+1; the
  k-step route lives only here and in ``symk_local`` below;
* ``elementary_from_power_sums_cyc`` and ``eigen_power_sums_cyc``: the
  Newton identities with a ``CycInt`` at every ring operation, against
  the loops of ``lfun`` on coordinate tuples, message of the ValueError
  included;
* ``_factor_from_power_sums``: a local factor from all n+1 signed sums
  by the Newton identities alone, against ``lfun.local_factor``, which
  takes the upper half from the functional equation;
* ``series_per_point``: the Euler product with a local series built
  at every closed point, against ``cli.series``, which builds one per
  Galois orbit and conjugates it to the other members; for Sym^k, each
  point's own series (``symk_local``: the power sums h_k(pi^m) by k-step
  Newton runs, then their h_r) multiplied in place by
  ``exact_euler_product``, against the one recurrence of
  ``lfun.power_sum_series`` over the sums of the power sums at all points;
* ``sym_inf_local_hsum``: the infinite symmetric power local series
  through eigenvalue power sums instead of the product over weights;
* ``sym_inf_local_per_size``: the same product over weights with one
  certified 1-unit series per size and binary powers of each eigenvalue,
  against ``lfun.sym_inf_local``, which takes each size one Pascal step
  from the last and each power one product from the last;
* ``trace_sums_route``: L(Sym^k) coefficients from Frobenius traces over
  extension fields, S_r summed over every t of F_(q^r)^*, bypassing closed
  points, orbits and local factors altogether;
* ``trace_sums_by_transform``: the same S_r at table speed for n in {1, 2},
  Kl_n at every element of F_(q^r) from one rounding-checked float
  transform (``kloosterman_by_transform``), the other e_i from the
  functional equation and h_k by the recurrence of order n+1 on object
  arrays, against ``symk`` at reach sizes;
* ``kloosterman_by_enumeration``: one Kl_n sum by flat enumeration of the
  S^n phases in blocked window passes, one pass per block of x_(n-1) for
  each prefix x_1..x_(n-2) (``expsum``'s route before its tables), on its
  own window table of the traces that ``mult_tables_reference`` checks,
  against the row of K_n that ``expsum`` reads from its per-field table of
  K_(n-1);
* ``kloosterman_table``: Kl_n at every element of one field by the
  convolution recursion on whole-table rolls, the rule of ``expsum``'s
  tables written independently; ``kloosterman_by_transform`` (below) is
  the float check of both;
* ``mult_tables_reference``: the discrete-log and trace tables of
  ``ff._MultData`` by one schoolbook product per element, with traces
  from the traces of multiplication matrices, against the block products of
  the multiplication matrix in ``ff``;
* ``direct_reference``: one Kloosterman sum by brute force with the same
  schoolbook arithmetic, no discrete-log table;
* ``_hodge_coeffs_bruteforce``: Hodge numbers by direct enumeration;
* ``build_parser``: the argparse parser of every command, as ``cli`` built it
  before one option table and one pass over argv (``cli.parse``) replaced it,
  against ``cli.parse`` over a corpus of command lines;
* ``nested_lift_simple_nonzero_root``: the Hensel lift with a complete
  Newton inversion of f'(x) (``nested_unit_inverse``) inside every step,
  against the one coupled Newton loop of ``padic``;
* ``per_element_lift_simple_nonzero_root`` and ``per_element_one_unit_power``:
  the coupled Newton loop and the binomial sum with a certified ``PadicCyc``
  at every ring operation and ``math.comb`` binomials (``binom_with_cert``),
  against ``padic``, which runs both on coordinates mod p^N and sets the
  certificate once;
* ``per_element_slope_split``: the slope split with a certified ``PadicCyc``
  at every deflation step and p-power shifts by ``times_p_power`` and
  ``divide_exact_p_power``, against ``padic.slope_split``, which deflates
  and divides on coordinates mod p^N;
* ``pi_val_reference``: the closed-form pi-valuation with a fresh
  binomial and a full ord_p per term, against ``CycInt.pi_val``, which
  reads a binomial table and stops dividing once a term cannot win.

``from_rational`` and ``times_int`` build p-adic exponents that only the
tests need; ``embed_cyc`` puts an element of Z[zeta_p] at the cap and
``cyc_of`` reads a p-adic value's coordinates back as one, since a
``PadicCyc`` is only its coordinates; ``residue_int`` reduces it to F_p;
``agrees_with`` compares two certified p-adic values, and
``divide_exact_int`` divides one by an integer for ``sym_inf_local_hsum``.
Both divide by units through ``nested_unit_inverse``: ``padic`` has no inverse.
``divide_exact_cyc`` is the exact division by an integer in Z[zeta_p] of
the ``CycInt`` loops, which production no longer makes.
``stored_table`` and ``read_table`` give the S x p count table of a level
``expsum`` stores and of a K_n its sums read, for ``check_table_identities``.
``syminf_meets_symk`` reads a ``syminf -k k`` report against the exact
``symk -k k`` report, to the valuation the tuples they share guarantee.

The h-from-p loops here are written out on purpose rather than shared
with ``klsym.lfun``, so that the oracles stay independent of the code
they check.
"""

import argparse
import itertools
import math
import os
from functools import lru_cache

import numpy as np
import sympy

from klsym import __version__
from klsym.cli import CACHE_ENV, MAX_WORKERS, MODES, cmd_cache, cmd_local, cmd_points, \
    cmd_run, cmd_sum
from klsym.cyclo import CycInt
from klsym.errors import (
    DegenerateFactorError,
    PrecisionError,
    ResourceError,
    SlopeFindingError,
    UsageError,
)
from klsym import expsum
from klsym.expsum import DEFAULT_BUDGET, KloostermanEvaluator
from klsym.ff import Field, _mult_data, embed, make_field
from klsym.errors import IntegralityFindingError
from klsym.lfun import (
    LocalFactor,
    Series,
    _inverse_series,
    check_coverage,
    euler_product,
    sym_inf_weights,
)
from klsym.padic import (
    PadicCyc,
    PadicExponent,
    _lift_simple_nonzero_root,
    one_unit_power,
    ord_p,
    slope_split,
)


# ---------------------------------------------------------------------------
# p-adic exponents, and agreement to a certificate


def embed_cyc(x: CycInt, N: int) -> PadicCyc:
    """x mod p^N at the cap: an element of Z[zeta_p] is exact."""
    return PadicCyc(x.p, N, x.coords, N * (x.p - 1))


def cyc_of(x: PadicCyc) -> CycInt:
    """The coordinates of x as an element of Z[zeta_p], for its exact operations."""
    return CycInt(x.p, x.coords)


def residue_int(x: PadicCyc) -> int:
    """Image of x in the residue field F_p (zeta maps to 1)."""
    return sum(x.coords) % x.p


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


def binom_with_cert(kappa: PadicExponent, l: int):
    """(binomial(kappa_rep, l), s) with kappa == rep mod p^s; s None if exact."""
    r = kappa.rep
    if r >= 0:
        b = math.comb(r, l)
    else:
        b = (-1) ** l * math.comb(-r + l - 1, l)
    return b, kappa.ndigits


def agrees_with(x: PadicCyc, y: PadicCyc, vmin: int | None = None) -> bool:
    """True when x - y vanishes to the joint certificate (capped at vmin)."""
    d = x - y
    target = d.vcert if vmin is None else min(vmin, d.vcert)
    v = cyc_of(d).pi_val()
    return v is None or v >= target


def syminf_meets_symk(syminf: dict, symk: dict):
    """(need, least) for the reports of ``syminf -k k`` and ``symk -k k`` with the
    same p, a, n and D.  Sym^(k,oo) and Sym^k share every eigenvalue tuple of size
    <= k; a tuple only Sym^(k,oo) has is of weight >= k+1, so of pi-valuation >=
    (p-1) a (k+1).  So every coefficient's pi_val(syminf - symk) should be at least
    need = min(cert, (p-1) a (k+1)); least is the smallest (None: all agree)."""
    config = syminf["config"]
    assert {**config, "mode": "symk", "V": None} == symk["config"], "not the same run"
    (fin,), (inf,) = symk["series"], syminf["series"]
    p, k = config["p"], config["exponent"]["value"]
    need = min(inf["cert"], (p - 1) * config["a"] * (k + 1))
    vals = [(CycInt(p, y["coords"]) - CycInt.from_int(p, x["value"])).pi_val()
            for x, y in zip(fin["coefficients"], inf["coefficients"], strict=True)]
    return need, min((v for v in vals if v is not None), default=None)


def divide_exact_cyc(x: CycInt, m: int) -> CycInt:
    """x / m for a nonzero rational integer m, requiring exactness."""
    if m == 0:
        raise ZeroDivisionError("division by zero")
    if any(c % m for c in x.coords):
        raise ValueError(f"{x!r} is not divisible by {m}")
    return CycInt._new(x.p, tuple(c // m for c in x.coords))


def divide_exact_int(x: PadicCyc, m: int) -> PadicCyc:
    """x / m for a nonzero integer m whose quotient is known integral."""
    e = ord_p(x.p, m)
    unit = m // x.p ** e
    if unit != 1:
        x = x * nested_unit_inverse(PadicCyc.from_int(x.p, x.N, unit))
    return divide_exact_p_power(x, e)


def times_p_power(x: PadicCyc, j: int) -> PadicCyc:
    """x * p^j; the certificate improves by j*(p-1)."""
    if j < 0:
        raise UsageError("use divide_exact_p_power for negative powers")
    return PadicCyc(x.p, x.N + j, [c * x.p ** j for c in x.coords], x.vcert + j * (x.p - 1))


def divide_exact_p_power(x: PadicCyc, j: int) -> PadicCyc:
    """x / p^j assuming exact divisibility; costs j digits of N."""
    if j == 0:
        return x
    q = x.p ** j
    if any(c % q for c in x.coords):
        raise PrecisionError(f"representative not divisible by p^{j}")
    return PadicCyc(x.p, x.N - j, [c // q for c in x.coords], x.vcert - j * (x.p - 1))


# ---------------------------------------------------------------------------
# the pi-valuation term by term


def pi_val_reference(x: CycInt):
    """Least (p-1) ord_p(b_j) + j with b_j = sum_i C(i, j) a_i; None for x = 0."""
    if not x:
        return None
    p, a = x.p, x.coords
    best = math.inf
    for j in range(p - 1):
        if best <= j:  # the terms from j on are worth at least j
            break
        b = sum(math.comb(i, j) * a[i] for i in range(j, p - 1))
        if b:
            best = min(best, (p - 1) * ord_p(p, b) + j)
    return best


# ---------------------------------------------------------------------------
# Hensel lifts and 1-unit powers element by element, every step certified


def _peval(coeffs, x: PadicCyc) -> PadicCyc:
    acc = PadicCyc.from_int(x.p, x.N, 0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _pderiv(coeffs):
    return [c * i for i, c in enumerate(coeffs) if i >= 1]


def per_element_lift_simple_nonzero_root(coeffs, p: int, N: int) -> PadicCyc:
    """The coupled Newton loop of ``padic`` with a PadicCyc, and its
    certificate, at every ring operation."""
    res = [residue_int(c) for c in coeffs]
    roots = []
    for r in range(1, p):
        if sum(cr * pow(r, i, p) for i, cr in enumerate(res)) % p == 0:
            dr = sum(i * cr * pow(r, i - 1, p) for i, cr in enumerate(res) if i) % p
            if dr == 0:
                raise DegenerateFactorError(f"residue root {r} is not simple")
            roots.append((r, dr))
    if len(roots) != 1:
        raise DegenerateFactorError(
            f"expected one nonzero residue root, found {len(roots)}")
    (r, dr), = roots
    x = PadicCyc.from_int(p, N, r)
    y = PadicCyc.from_int(p, N, pow(dr, -1, p))
    deriv = _pderiv(coeffs)
    steps = max(1, math.ceil(math.log2(N * (p - 1)))) + 1
    for _ in range(steps):
        x = x - _peval(coeffs, x) * y
        y = y - y * (_peval(deriv, x) * y - 1)
    v = cyc_of(_peval(coeffs, x)).pi_val()
    if not (v is None or v >= min(c.vcert for c in coeffs)):
        raise AssertionError("Newton iteration failed to converge")
    return x


def per_element_one_unit_power(u: PadicCyc, kappa: PadicExponent, V: int,
                               chain=None) -> PadicCyc:
    """``one_unit_power`` as a PadicCyc sum of the products (u-1)^l * b_l."""
    p = u.p
    um1 = u - 1
    v1 = um1.val_lb()
    if v1 < 1 or residue_int(u) != 1:
        raise DegenerateFactorError("base of one_unit_power must be a 1-unit")
    if kappa.is_exact and kappa.rep >= 0:
        return u ** kappa.rep
    if chain is None:
        chain = []
    if not chain:
        term = PadicCyc.from_int(p, u.N, 1)
        while (len(chain) + 1) * v1 < V:
            term = term * um1
            chain.append(term)
    acc = PadicCyc.from_int(p, u.N, 1)
    cert = min(V, u.vcert, u.N * (p - 1))
    fact_ord = 0
    for l, term in enumerate(chain, start=1):
        fact_ord += ord_p(p, l)
        b, s = binom_with_cert(kappa, l)
        if b:
            acc = acc + term * b
        if s is not None:
            cert = min(cert, (p - 1) * max(0, s - fact_ord) + l * v1)
    return PadicCyc(p, acc.N, acc.coords, min(cert, acc.vcert))


def per_element_slope_split(factor_coeffs, a: int, d: int, N: int) -> list:
    """``padic.slope_split`` with a PadicCyc, and its certificate, at every
    deflation step and p-power shift; each round's root is ``padic``'s lift,
    which the lift tests check against the per-element and nested lifts."""
    coeffs = list(factor_coeffs)
    p = coeffs[0].p
    n = len(coeffs) - 2  # factor degree n+1
    if n < 0 or coeffs[0].as_integer() != 1:
        raise UsageError("local factor must have constant term 1 and degree >= 1")
    for i, c in enumerate(coeffs):
        if i == 0:
            continue
        want = (p - 1) * a * d * i * (i - 1) // 2
        got = c.pi_val()
        if got != want:
            raise SlopeFindingError(
                f"coefficient {i} has pi-valuation {got}, Newton polygon needs {want}",
                witness={"index": i, "measured": got, "expected": want})
    ad = a * d
    n_work = N + ad * n * (n + 1) // 2 + 2
    # E(X) low-first, then run root-extract / deflate / rescale rounds
    cur = [embed_cyc(c, n_work) for c in reversed(coeffs)]
    eigenvalues = []
    for j in range(n + 1):
        n_cur = cur[0].N
        u = PadicCyc(p, n_cur, _lift_simple_nonzero_root([c.coords for c in cur], p, n_cur),
                     n_cur * (p - 1))
        if j == 0 and residue_int(u) != 1:
            raise DegenerateFactorError("unit eigenvalue is not a 1-unit")
        eigenvalues.append(times_p_power(u, ad * j))
        if j == n:
            break
        deg = len(cur) - 1
        high = list(reversed(cur))  # high[0] = 1
        quot = [high[0]]
        for i in range(1, deg):
            quot.append(high[i] + u * quot[i - 1])
        rem = high[deg] + u * quot[deg - 1]
        vr = cyc_of(rem).pi_val()
        if not (vr is None or vr >= rem.vcert):
            raise AssertionError("deflation remainder not negligible")
        scaled = [divide_exact_p_power(q, ad * i) for i, q in enumerate(quot)]
        n_next = min(s.N for s in scaled)
        cur = [s.with_precision(n_next) for s in reversed(scaled)]
    if min(e.vcert for e in eigenvalues) < N * (p - 1):
        raise PrecisionError("slope split lost more precision than budgeted")
    return eigenvalues


# ---------------------------------------------------------------------------
# Hensel lifts by Newton's method with an exact inverse at every step


def nested_unit_inverse(u: PadicCyc) -> PadicCyc:
    """Inverse of a pi-adic unit by its own Newton iteration; certificate kept."""
    r0 = residue_int(u)
    if r0 == 0:
        raise ZeroDivisionError("not a pi-adic unit to working precision")
    y = PadicCyc.from_int(u.p, u.N, pow(r0, -1, u.p))
    two = PadicCyc.from_int(u.p, u.N, 2)
    steps = max(1, math.ceil(math.log2(u.N * (u.p - 1)))) + 1
    for _ in range(steps):
        y = y * (two - u * y)
    check = u * y - 1
    v = cyc_of(check).pi_val()
    if not (v is None or v >= min(u.vcert, u.N * (u.p - 1))):
        raise AssertionError("inverse iteration failed to converge")
    return PadicCyc(u.p, u.N, y.coords, u.vcert)


def nested_lift_simple_nonzero_root(coeffs, p: int, N: int) -> PadicCyc:
    """Hensel lift of the unique simple nonzero root of the residue poly,
    inverting f'(x) afresh by ``nested_unit_inverse`` at every step."""
    res = [residue_int(c) for c in coeffs]
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
    v = cyc_of(_peval(coeffs, x)).pi_val()
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


def schoolbook_one(field: Field):
    """The unit of the field: the constant polynomial 1."""
    return (1,) + (0,) * (field.k - 1)


def schoolbook_pow(field: Field, x, e: int):
    """x^e, e >= 0, by square and multiply on schoolbook_mul."""
    result = schoolbook_one(field)
    while e:
        if e & 1:
            result = schoolbook_mul(field, result, x)
        x = schoolbook_mul(field, x, x)
        e >>= 1
    return result


def matrix_trace(field: Field, x) -> int:
    """AbsTr(x) on the power basis, Tr(X^i) from matrix_trace_vector."""
    return sum(c * t for c, t in zip(x, matrix_trace_vector(field))) % field.p


# ---------------------------------------------------------------------------
# the matrix routes of ff before coefficient lists: Rabin's test, the generator
# search and the trace vector on powers of k x k multiplication matrices


def _mul_matrix(y, modulus, p):
    """The k x k matrix of multiplication by y in F_p[X]/(modulus), modulus monic: row i is X^i y.

    A product x y is the row vector x times this matrix.  int64 is exact:
    every entry of a product of two reduced matrices is below
    k (p-1)^2 < 2^63 under ff.MAX_FIELD_SIZE.
    """
    k = len(modulus) - 1
    top = np.array([-c % p for c in modulus[:k]], dtype=np.int64)  # X^k mod the monic modulus
    out = np.zeros((k, k), dtype=np.int64)
    out[0, : len(y)] = y
    for i in range(1, k):
        out[i, 1:] = out[i - 1, :-1]
        out[i] = (out[i] + out[i - 1, -1] * top) % p
    return out


def _mat_pow(m, e, p):
    """m^e mod p by square and multiply."""
    out = np.eye(len(m), dtype=np.int64)
    while e:
        if e & 1:
            out = out @ m % p
        m = m @ m % p
        e >>= 1
    return out


def matrix_is_irreducible(f, p) -> bool:
    """Rabin test on the monic f: X^(p^k) = X mod f, and h^(p^k - 1) = 1 for
    h = X^(p^(k/r)) - X, r | k prime, on powers of the matrix of X."""
    f = tuple(f)
    while f and f[-1] == 0:
        f = f[:-1]
    k = len(f) - 1
    if k < 1:
        return False
    if k == 1:
        return True
    x = _mul_matrix((0, 1), f, p)
    if (_mat_pow(x, p**k, p)[0] != x[0]).any():
        return False
    one = np.eye(1, k, dtype=np.int64)[0]
    for r in sympy.primefactors(k):
        h = (_mat_pow(x, p ** (k // r), p)[0] - x[0]) % p
        if (_mat_pow(_mul_matrix(h, f, p), p**k - 1, p)[0] != one).any():
            return False
    return True


def matrix_canonical_modulus(p: int, k: int):
    """The first monic irreducible of degree k in lex order of (c_0, ..., c_(k-1)),
    c_0 slowest, by matrix_is_irreducible alone."""
    for tail in itertools.product(range(p), repeat=k):
        if matrix_is_irreducible(tail + (1,), p):
            return tail + (1,)
    raise AssertionError("no irreducible polynomial found")


def matrix_generator(field: Field):
    """The least v >= 2 in element order with v^(S/r) != 1 for every prime r | S,
    on powers of its multiplication matrix."""
    S, one = field.size - 1, np.eye(1, field.k, dtype=np.int64)[0]
    for v in range(2, field.size):
        step = _mul_matrix(field.from_int(v), field.modulus, field.p)
        if all((_mat_pow(step, S // r, field.p)[0] != one).any()
               for r in sympy.primefactors(S)):
            return field.from_int(v)
    raise AssertionError("no generator found")


@lru_cache(maxsize=None)
def matrix_trace_vector(field: Field):
    """Tr(X^i) for i < k: the trace of the matrix of multiplication by X^i."""
    return tuple(int(np.trace(_mul_matrix((0,) * i + (1,), field.modulus, field.p))) % field.p
                 for i in range(field.k))


def schoolbook_generator(field: Field):
    """The least multiplicative generator in element order, by schoolbook powers."""
    order = field.size - 1
    primes = sympy.primefactors(order)
    for v in range(2, field.size):
        g = field.from_int(v)
        if all(schoolbook_pow(field, g, order // r) != schoolbook_one(field) for r in primes):
            return g
    raise AssertionError("no generator found")


def mult_tables_reference(field: Field):
    """(g, code, tr, dlog) of ``ff._MultData`` by one schoolbook product per element."""
    g = schoolbook_generator(field)
    S = field.size - 1
    code = np.empty(S, dtype=np.int64)
    tr = np.empty(S, dtype=np.int64)
    x = schoolbook_one(field)
    for i in range(S):
        code[i] = field.to_int(x)
        tr[i] = matrix_trace(field, x)
        x = schoolbook_mul(field, x, g)
    dlog = np.full(field.size, -1, dtype=np.int64)
    dlog[code] = np.arange(S)
    if x != schoolbook_one(field) or (dlog[1:] < 0).any():
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
        prod = schoolbook_one(field)
        for x in xs:
            prod = schoolbook_mul(field, prod, x)
        inv = schoolbook_pow(field, prod, field.size - 2)
        # the trace is F_p-linear: Tr(x_1 + ... + x_n + t/prod) term by term
        e = sum(matrix_trace(field, y) for y in xs + (schoolbook_mul(field, t, inv),)) % p
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
    zero = CycInt.from_int(p, 0)
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
    zero = CycInt.from_int(p, 0)
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
    zero = CycInt.from_int(p, 0)
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


def elementary_from_power_sums_cyc(p, power_sums, count):
    """e_0 = 1, e_1..e_count from p_1..p_count as CycInt, one ring operation at a
    time: the loop ``lfun.elementary_from_power_sums`` runs on coordinate tuples."""
    es = [CycInt.from_int(p, 1)]
    for m in range(1, count + 1):
        acc = CycInt.from_int(p, 0)
        for i in range(1, m + 1):
            term = es[m - i] * power_sums[i - 1]
            acc = acc + term if i % 2 else acc - term
        es.append(divide_exact_cyc(acc, m))
    return es


def eigen_power_sums_cyc(coeffs, count):
    """p_1..p_count of the reciprocal roots of sum a_i T^i (a_0 = 1), as CycInt."""
    p = coeffs[0].p
    deg = len(coeffs) - 1
    ps = []
    for m in range(1, count + 1):
        acc = CycInt.from_int(p, 0)
        for i in range(1, min(m - 1, deg) + 1):
            acc = acc + coeffs[i] * ps[m - i - 1]
        if m <= deg:
            acc = acc + coeffs[m] * m
        ps.append(-acc)
    return ps


def _factor_from_power_sums(power_sums):
    """prod (1 - pi_j T) = sum (-1)^m e_m T^m from the p_m of the pi_j."""
    es = elementary_from_power_sums_cyc(power_sums[0].p, power_sums, len(power_sums))
    return [-e if m % 2 else e for m, e in enumerate(es)]


def sym_k_factor_berkowitz(lf: LocalFactor, k: int):
    """Coefficients of prod over |alpha| = k of (1 - pi^alpha T).

    Division-free throughout: the charpoly of Sym^k of the companion
    matrix, read as T^D char(1/T) = sum V[i] T^i.
    """
    if k < 0:
        raise UsageError("symmetric power must be nonnegative")
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
    dim = math.comb(lf.n + k, k)
    base = eigen_power_sums_cyc(list(lf.coeffs), k * dim)
    sym = [elementary_from_power_sums_cyc(
        lf.coeffs[0].p, [base[i * m - 1] * (-1) ** (i - 1) for i in range(1, k + 1)], k)[-1]
        for m in range(1, dim + 1)]
    return _factor_from_power_sums(sym)


def inverse_factor_series(coeffs, R):
    """First R+1 coefficients of 1 / sum a_i T^i with a_0 = 1, exact."""
    p = coeffs[0].p
    deg = len(coeffs) - 1
    out = [CycInt.from_int(p, 1)]
    for r in range(1, R + 1):
        acc = CycInt.from_int(p, 0)
        for i in range(1, min(r, deg) + 1):
            acc = acc + coeffs[i] * out[r - i]
        out.append(-acc)
    return out


# ---------------------------------------------------------------------------
# Euler products point by point


def symk_local(lf: LocalFactor, k: int, R: int) -> Series:
    """Series of 1 / prod over |alpha| = k of (1 - pi^alpha T^d), to r = R, at
    one point: the power sums h_k(pi^m) by k-step Newton runs, as in
    ``sym_k_factor``, then their h_r by the same Newton recurrence, on CycInt."""
    if k < 0:
        raise UsageError("symmetric power must be nonnegative")
    p = lf.coeffs[0].p
    base = eigen_power_sums_cyc(list(lf.coeffs), k * R)
    sym = [elementary_from_power_sums_cyc(
        p, [base[i * m - 1] * (-1) ** (i - 1) for i in range(1, k + 1)], k)[-1]
        for m in range(1, R + 1)]
    return Series(elementary_from_power_sums_cyc(
        p, [s * (-1) ** (m - 1) for m, s in enumerate(sym, start=1)], R))


def exact_euler_product(base, contributions, D: int) -> Series:
    """The product of exact local series, (point, series) pairs, over every closed
    point of degree <= D, in place, with only the terms j >= 1 of each series
    multiplying; every coefficient must be a rational integer."""
    contributions = sorted(contributions, key=lambda c: c[0].sort_key())
    check_coverage(base, [pt for pt, _ in contributions], D)
    p = base.p
    one = CycInt.from_int(p, 1)
    for pt, ls in contributions:
        if len(ls.coeffs) < D // pt.degree + 1:
            raise UsageError(f"local series at {pt.rep} too short for degree {D}")
        if ls.coeffs[0] != one:
            raise UsageError(f"local series at {pt.rep} does not start with 1")
    acc = [one] + [CycInt.from_int(p, 0)] * D
    for pt, ls in contributions:
        # going down in r, acc[r - j d] still holds its value from before this point
        d = pt.degree
        for r in range(D, d - 1, -1):
            for j in range(1, r // d + 1):
                acc[r] = acc[r] + acc[r - j * d] * ls.coeffs[j]
    for r, c in enumerate(acc):
        try:
            c.as_integer()
        except ValueError:
            raise IntegralityFindingError(
                f"coefficient of T^{r} is not a rational integer: {c!r}",
                witness={"r": r}) from None
    return Series(acc)


def series_per_point(base, factors, D: int, local):
    """The Euler product of local(lf, R) at every point of the factors, with
    no use of the Galois orbits: ``exact_euler_product`` for exact series,
    ``lfun.euler_product`` for p-adic ones."""
    contributions = [(lf.point, local(lf, D // lf.point.degree)) for lf in factors]
    if all(ls.cert is None for _, ls in contributions):
        return exact_euler_product(base, contributions, D)
    return euler_product(base, [(pt, 1, ls) for pt, ls in contributions], D)


# ---------------------------------------------------------------------------
# infinite symmetric power through power sums


def sym_inf_local_hsum(lf: LocalFactor, kappa: PadicExponent, V: int, R: int,
                       a: int) -> Series:
    """Independent route to the same series through eigenvalue power sums.

    Uses p~_m = pi_0^(kappa m) prod_j (1 - (pi_j/pi_0)^m)^(-1) and the
    log-derivative recurrence r c_r = sum p~_m c_(r-m); the division by r
    costs ord_p(r) digits, which the certificate tracks.
    """
    p = lf.coeffs[0].p
    d = lf.point.degree
    N = -(-V // (p - 1)) + 1 + sum(ord_p(p, r) for r in range(1, R + 1))
    pis = slope_split(list(lf.coeffs), a, d, N)
    pi0 = pis[0]
    inv0 = nested_unit_inverse(pi0)
    ratios = [pi * inv0 for pi in pis[1:]]
    ptil = []
    for m in range(1, R + 1):
        val, = one_unit_power(pi0, times_int(kappa, m), V)
        for rho in ratios:
            one = PadicCyc.from_int(p, val.N, 1)
            val = val * nested_unit_inverse(one - rho ** m)
        ptil.append(val)
    out = [PadicCyc.from_int(p, pi0.N, 1)]
    for r in range(1, R + 1):
        acc = ptil[r - 1] * out[0]
        for m in range(1, r):
            acc = acc + ptil[m - 1] * out[r - m]
        out.append(divide_exact_int(acc, r))
    cert = min([V] + [c.vcert for c in out])
    return Series(out, cert)


def sym_inf_local_per_size(lf: LocalFactor, kappa: PadicExponent, V: int,
                           R: int) -> Series:
    """``lfun.sym_inf_local`` with one certified 1-unit series per size s over a
    shared PadicCyc chain, and each eigenvalue power pi_j^i by binary powering."""
    p, a, d = lf.coeffs[0].p, lf.point.base.k, lf.point.degree
    pis = slope_split(list(lf.coeffs), a, d, -(-V // (p - 1)) + 1)
    wmax = (V - 1) // (a * d * (p - 1))
    chain = []
    powers = [per_element_one_unit_power(pis[0], kappa.minus_int(s), V, chain)
              for s in range(wmax + 1)]
    lams = (math.prod((pis[j] ** i for j, i in enumerate(tup, start=1) if i),
                      start=powers[sum(tup)]) for tup in sym_inf_weights(lf.n, wmax))
    return _inverse_series(lf, lams, pis[0].N, V, R)


# ---------------------------------------------------------------------------
# Kloosterman sums over a whole field by convolution

# phases per pass of kloosterman_by_enumeration
ENUM_BLOCK = 1 << 15


def kloosterman_by_enumeration(n: int, field: Field, t) -> CycInt:
    """Flat enumeration of the n-fold sum at a nonzero element t.

    With t = g^e and x_i = g^(a_i), the last variable x_n = g^i leaves
    t/(x_1...x_n) = g^(e - a_1 - ... - a_(n-1) - i), whose traces over
    i < S are row (a_1 + ... + a_(n-1) - e - 1) mod S of the window table.
    Each pass takes the rows of a block of up to max(1, ENUM_BLOCK // S) values
    of x_(n-1), adds tr[i] along them and the prefix trace of each row as a
    column, and counts the phases with one bincount; a block whose rows pass
    S reads its last rows from the top of the table.  At n = 1 a pass is the
    single row of t.  Memory stays within a few blocks, whatever S^n is.
    """
    p = field.p
    md = _mult_data(field)
    S, tr = md.S, md.tr
    # row r of the window table is tr[(S-1-r-i) mod S] over i < S
    win = np.lib.stride_tricks.sliding_window_view(np.tile(tr[::-1], 2), S)
    e = int(md.dlog[field.to_int(t)])
    size = (n + 1) * p
    if n == 1:
        counts = np.bincount(tr + win[(-1 - e) % S], minlength=size)
        return CycInt.from_powers(p, enumerate(counts))
    rows = max(1, ENUM_BLOCK // S)
    buf = np.empty((min(rows, S), S), dtype=np.int64)
    counts = np.zeros(size, dtype=np.int64)
    # per prefix x_1..x_(n-2), one pass per block x_(n-1) = g^a..g^(b-1)
    for prefix in itertools.product(range(S), repeat=n - 2):
        c = sum(int(tr[j]) for j in prefix)
        r = (sum(prefix) - 1 - e) % S
        for a in range(0, S, rows):
            b = min(a + rows, S)
            s = (r + a) % S
            head = min(b - a, S - s)
            phases = buf[: b - a]
            np.add(win[s : s + head], tr, out=phases[:head])
            if head < b - a:
                np.add(win[: b - a - head], tr, out=phases[head:])
            phases += (c + tr[a:b])[:, None]
            counts += np.bincount(phases.ravel(), minlength=size)
    return CycInt.from_powers(p, enumerate(counts))


def kloosterman_table(n: int, field: Field, budget: int = DEFAULT_BUDGET):
    """Kl_n(t) for every t in field^*, by the convolution recursion.

    Returns a dict from element coordinates to CycInt.  O(n |F|^2)
    character operations, by whole-table rolls rather than ``expsum``'s
    row reads.
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
    return {field.from_int(int(md.code[i])): CycInt.from_powers(p, enumerate(G[i]))
            for i in range(S)}


def stored_table(field: Field, m: int):
    """K_m's S x p count table from expsum's stored window table, whose row 0 holds
    the rows S-1, ..., 0 of K_m."""
    return np.asarray(expsum._level(field, m)[0]).reshape(field.size - 1, field.p)[::-1]


def read_table(field: Field, n: int):
    """K_n's S x p count table, read whole through expsum._rows in blocks as its
    sums read rows, each row folded mod p: a read of K_0 gives 2p counts a row,
    and of K_1 over a prime field 3p."""
    S, p = field.size - 1, field.p
    K = np.empty((S, p), dtype=np.int64)  # row r is row S-1-r of K_n
    rows = max(1, expsum.BLOCK // (S if n == 1 else S * p))
    for a in range(0, S, rows):
        b = min(a + rows, S)
        K[a:b] = expsum._rows(field, n, slice(a, b)).reshape(b - a, -1, p).sum(axis=1)
    return K[::-1]


def check_table_identities(field: Field, m: int, K) -> None:
    """Four exact identities of K, the S x p count table of K_m over field: K[e][c]
    counts the (m+1)-tuples of nonzero elements with product g^e whose sum has
    trace c.  An AssertionError names the first that fails.

    - Sum_e K[e] = G(1)^(m+1) and Sum_e (-1)^e K[e] = G(eta)^(m+1), eta the
      quadratic character, G(chi)[c] = Sum_e chi(g^e) [tr(g^e) = c] and powers
      cyclic convolutions over Z/p: summing over the product first frees the
      m+1 factors, and chi(prod x_i) = prod chi(x_i) for chi = 1 and eta.
    - Row e is row p e mod S, as Tr(x^p) = Tr(x).
    - Row e + (m+1) log c is row e with phase j moved to c j, for c in F_p^*:
      x_i -> c x_i multiplies the product by c^(m+1) and the trace by c.

    Necessary conditions, each O(S p): they check a table where the
    enumeration, at S^(m+1), cannot, but they do not prove it.
    """
    md = _mult_data(field)
    S, p = md.S, field.p
    K = np.asarray(K)
    assert K.shape == (S, p), K.shape
    even, odd = (np.bincount(md.tr[i::2], minlength=p).tolist() for i in (0, 1))
    # the moments count S^(m+1) tuples, past int64 for K_4 over F_(3^9): Python ints
    for name, G, got in (("trivial", [a + b for a, b in zip(even, odd)],
                          K.sum(axis=0, dtype=object)),
                         ("quadratic", [a - b for a, b in zip(even, odd)],
                          K[0::2].sum(axis=0, dtype=object) - K[1::2].sum(axis=0, dtype=object))):
        want = [1] + [0] * (p - 1)
        for _ in range(m + 1):
            want = [sum(want[i] * G[(c - i) % p] for i in range(p)) for c in range(p)]
        assert got.tolist() == want, f"{name} moment of K_{m} over {field!r}"
    e = np.arange(S)
    assert (K[e * p % S] == K).all(), f"Frobenius rows of K_{m} over {field!r}"
    for c in range(1, p):
        moved = np.empty_like(K)
        moved[:, c * np.arange(p) % p] = K
        shift = (m + 1) * int(md.dlog[c * p ** (field.k - 1)])  # c is (c, 0, ..., 0)
        assert (K[(e + shift) % S] == moved).all(), f"sigma_{c} rows of K_{m} over {field!r}"


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
        total = CycInt.from_int(p, 0)
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
                    acc = CycInt.from_int(p, 0)
                    for i in range(1, j + 1):
                        acc = acc + ps[i - 1] * hs[j - i]
                    hs.append(divide_exact_cyc(acc, j))
                total = total + hs[k]
        S.append(total)
    out = [CycInt.from_int(p, 1)]
    for r in range(1, D + 1):
        acc = CycInt.from_int(p, 0)
        for m in range(1, r + 1):
            acc = acc + S[m - 1] * out[r - m]
        out.append(divide_exact_cyc(acc, r))
    return out


# ---------------------------------------------------------------------------
# the same trace sums at table speed: one transform per field, n in {1, 2}


def kloosterman_by_transform(n: int, field: Field):
    """Kl_n(g^j) = sum_c N[j, c] zeta^c for every j < S, as an (S, p) object array.

    N is the (n+1)-fold cyclic convolution over Z/S x Z/p of the indicator
    A[i, tr(g^i)] (the Mellin view of Katz 1988), taken as one float fft2
    and rounded; a rounding error of 1/4 or more raises.
    """
    md = _mult_data(field)
    A = np.zeros((md.S, field.p))
    A[np.arange(md.S), md.tr] = 1
    N = np.fft.ifft2(np.fft.fft2(A) ** (n + 1))
    counts = np.rint(N.real)
    err = max(np.abs(N.real - counts).max(), np.abs(N.imag).max())
    if err >= 0.25:
        raise ArithmeticError(f"transform rounding error {err} over {field!r}")
    return counts.astype(np.int64).astype(object)


def _ring_mul(x, y):
    """Row by row products in Z[X]/(X^p - 1), which maps onto Z[zeta_p]."""
    return sum(x[:, [c]] * np.roll(y, c, axis=1) for c in range(x.shape[1]))


def trace_sums_by_transform(p: int, a: int, n: int, k: int, D: int) -> list:
    """c_0..c_D of L(Sym^k) over F_(p^a) as ints, from the trace sums S_r over every
    t in F_(q^r)^* as ``trace_sums_route`` sums them, for n in {1, 2}.

    Kl_n over F_(q^r) comes from ``kloosterman_by_transform``, e_1 = (-1)^n Kl_n,
    and the functional equation gives the rest: e_2 = q^r at n = 1, and
    e_2 = q^r sigma_(-1)(e_1), e_3 = q^(3r) at n = 2.  Then h_s = sum_i (-1)^(i-1)
    e_i h_(s-i) on object arrays, so no coordinate wraps; S_r, the sum of h_k over
    the field, must be rational, and r c_r = sum_m S_m c_(r-m) must divide exactly.
    """
    if n not in (1, 2):
        raise UsageError("the transform oracle covers n = 1 and n = 2")
    sums = []
    for r in range(1, D + 1):
        field = make_field(p, a * r)
        e1 = (-1) ** n * kloosterman_by_transform(n, field)
        one = np.zeros_like(e1)
        one[:, 0] = 1
        es = [e1, field.size * one] if n == 1 else \
            [e1, field.size * e1[:, (-np.arange(p)) % p], field.size**3 * one]
        hs = [one]
        for s in range(1, k + 1):
            hs.append(sum((-1) ** i * _ring_mul(es[i], hs[s - 1 - i])
                          for i in range(min(s, n + 1))))
        total = hs[k].sum(axis=0)
        if any(c != total[1] for c in total[2:]):
            raise IntegralityFindingError(f"S_{r} = {total.tolist()} is not rational")
        sums.append(int(total[0] - total[1]))
    out = [1]
    for r in range(1, D + 1):
        acc = sum(sums[m - 1] * out[r - m] for m in range(1, r + 1))
        if acc % r:
            raise IntegralityFindingError(f"{r} does not divide r c_{r} = {acc}")
        out.append(acc // r)
    return out


# ---------------------------------------------------------------------------
# the argparse parser cli built before its option table, unchanged


def _digit_list(text: str):
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad digit list {text!r}") from None


def _add_field_args(sp, with_n=True):
    sp.add_argument("-p", type=int, required=True,
                    help="odd residue characteristic")
    sp.add_argument("-a", type=int, default=1,
                    help="base field degree over the prime field")
    if with_n:
        sp.add_argument("-n", type=int, default=1,
                        help="number of summation variables")


def _add_run_args(sp):
    sp.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                    help="refuse sums or Sym^k series needing more than "
                         "this many steps")
    sp.add_argument("--cache", dest="cache_path", metavar="CACHE",
                    default=os.environ.get(CACHE_ENV),
                    help=f"sum cache file (default ${CACHE_ENV})")
    sp.add_argument("--out", help="write the JSON report here (default stdout)")


def _add_exponent_args(sp, require_k=False):
    if require_k:
        sp.add_argument("-k", type=int, required=True,
                        help="integer symmetric power exponent")
        return
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("-k", type=int,
                       help="integer symmetric power exponent")
    group.add_argument("--kappa", type=_digit_list, dest="kappa_digits",
                       metavar="D0,D1,...",
                       help="truncated p-adic exponent digits, low first")


def _points_options(sp):
    _add_field_args(sp, with_n=False)
    sp.add_argument("-D", type=int, required=True, help="maximal degree")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_points)


def _point_options(sp, func):
    """sum and local, at one closed point; only sum takes an extension level."""
    _add_field_args(sp)
    sp.add_argument("-d", type=int, required=True, help="point degree")
    sp.add_argument("--rep-int", type=int, required=True, dest="rep_int",
                    help="integer code of any orbit element")
    if func is cmd_sum:
        sp.add_argument("-m", type=int, default=1, help="extension level")
    _add_run_args(sp)
    sp.set_defaults(func=func)


def _series_options(sp, mode):
    _add_field_args(sp)
    _add_exponent_args(sp, require_k=mode in ("symk", "compare-slopes"))
    sp.add_argument("-D", type=int, required=True, help="Euler product degree cap")
    if mode != "symk":
        sp.add_argument("-V", type=int, default=None,
                        help="pi-adic precision target (default derived)")
    _add_run_args(sp)
    sp.add_argument("--workers", type=int, default=1,
                    help=f"threads for the orbits' local series, 1 to {MAX_WORKERS}")
    sp.add_argument("--csv", help="also write a CSV coefficient table here")
    # every RunConfig field, also where this mode has no option for it
    sp.set_defaults(func=cmd_run, mode=mode, V=None, kappa_digits=None)


def _cache_options(sp):
    sp.add_argument("action", choices=("stat", "verify", "compact"))
    sp.add_argument("--cache", dest="cache_path", metavar="CACHE",
                    default=os.environ.get(CACHE_ENV),
                    required=os.environ.get(CACHE_ENV) is None)
    sp.add_argument("--sample", type=int, default=10,
                    help="records to recompute under verify")
    sp.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_cache)


# each subcommand's help, and the builder of its options with the builder's arguments
COMMANDS = {
    "points": ("list closed points of the torus", _points_options),
    "sum": ("one exact hyper-Kloosterman sum", _point_options, cmd_sum),
    "local": ("local L-factor at one closed point", _point_options, cmd_local),
    **{name: (f"run mode {mode}", _series_options, mode) for name, mode in
       zip(("symk", "syminf", "unitroot", "verify", "compare"), MODES)},
    "cache": ("inspect or repair a sum cache", _cache_options),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """Every subcommand with its help, but the options and defaults of command
    alone, or of every command when None; a line of command parses the same."""
    parser = argparse.ArgumentParser(
        prog="klsym",
        description="Symmetric power L-series of hyper-Kloosterman sums",
    )
    parser.add_argument("--version", action="version",
                        version=f"klsym {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_options, *args) in COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        if command in (None, name):
            add_options(sp, *args)
    return parser
