"""Finite field towers F_p < F_q < F_{q^d} with deterministic moduli.

F_{p^k} is realised as F_p[X]/(f) with f monic irreducible of degree k.
When no modulus is supplied, f is the first irreducible in lexicographic
order of the coefficient vector (c_0, ..., c_{k-1}); elements are
coordinate tuples (c_0, ..., c_{k-1}) on the power basis of the class of
X, enumerated and compared in the same lexicographic order.  Every choice
is canonical so that independent runs build identical towers and cache
keys never alias.  A field is the value (p, k, modulus), which
``make_field`` checks, so equal fields are one dictionary key.

Rabin's irreducibility test, which picks the modulus, and the generator
search run on coefficient lists mod the modulus.  The one multiplicative
model of each field is a discrete-log and trace table over its least
generator g, built once per field and process (``_mult_data``, a cache over
``_MultData``) by blocks of about sqrt(|F|) powers of g, one product with
a k x k multiplication matrix a block.  Every power, discrete log and trace
after that is a table read: closed points, orbit representatives, the
orbits of the twists t -> c^(n+1) t and subfield embeddings all read it,
because Frobenius acts on discrete logs as multiplication by q.
"""

from __future__ import annotations

import itertools
from functools import cache
from typing import NamedTuple

import numpy as np

from .cyclo import check_odd_prime, prime_factors
from .errors import ResourceError, UsageError

MAX_FIELD_SIZE = 1 << 21


# ---------------------------------------------------------------------------
# F_p[X]/(f): coefficient tuples, lowest degree first, and multiplication matrices


def _pnorm(f):
    i = len(f)
    while i > 0 and f[i - 1] == 0:
        i -= 1
    return tuple(f[:i])


def _mul_matrix(y, modulus, p):
    """The k x k matrix of multiplication by y in F_p[X]/(modulus), modulus monic: row i is X^i y.

    A product x y is the row vector x times this matrix.  int64 is exact:
    every entry of a product of two reduced matrices is below
    k (p-1)^2 < 2^63 under MAX_FIELD_SIZE.
    """
    k = len(modulus) - 1
    top = np.array([-c % p for c in modulus[:k]], dtype=np.int64)  # X^k mod the monic modulus
    out = np.zeros((k, k), dtype=np.int64)
    out[0, : len(y)] = y
    for i in range(1, k):
        out[i, 1:] = out[i - 1, :-1]
        out[i] = (out[i] + out[i - 1, -1] * top) % p
    return out


def _mulmod(x, y, f, p):
    """x y mod the monic f over F_p, on coefficient lists lowest degree first."""
    k = len(f) - 1
    prod = [0] * (2 * k - 1)
    for i, a in enumerate(x):
        if a:
            for j, b in enumerate(y):
                prod[i + j] += a * b
    for i in range(2 * k - 2, k - 1, -1):  # X^i = X^(i-k) (X^k - f)
        c = prod[i] % p
        if c:
            for j in range(k):
                prod[i - k + j] -= c * f[j]
    return [c % p for c in prod[:k]]


def _powmod(x, e, f, p):
    """x^e mod the monic f over F_p, e >= 1, by left-to-right square and multiply."""
    out = x
    for bit in bin(e)[3:]:
        out = _mulmod(out, out, f, p)
        if bit == "1":
            out = _mulmod(x, out, f, p)
    return out


def is_irreducible(f, p) -> bool:
    """Rabin test: X^(p^k) = X mod f, and gcd(h, f) = 1 for h = X^(p^(k/r)) - X, r | k prime.

    Once f | X^(p^k) - X, F_p[X]/(f) is a product of fields whose degrees
    divide k, so h is a unit, i.e. gcd(h, f) = 1, exactly when h^(p^k - 1) = 1.
    X^(p^j) is the p-th power of X^(p^(j-1)); all on coefficient lists mod f.
    """
    f = _pnorm(f)
    k = len(f) - 1
    if k <= 1:
        return k == 1
    f, one = [c * pow(f[-1], p - 2, p) % p for c in f], [1] + [0] * (k - 1)  # f made monic
    frob = [[0, 1] + [0] * (k - 2)]  # X^(p^j) for j <= k
    for _ in range(k):
        frob.append(_powmod(frob[-1], p, f, p))
    return frob[k] == frob[0] and all(
        _powmod([(a - b) % p for a, b in zip(frob[k // r], frob[0])], p**k - 1, f, p) == one
        for r in prime_factors(k))


def mobius(n: int) -> int:
    """0 when a square divides n, else (-1)^(number of prime factors)."""
    primes = prime_factors(n)
    if any(n % (q * q) == 0 for q in primes):
        return 0
    return (-1) ** len(primes)


@cache
def canonical_modulus(p: int, k: int):
    """First monic irreducible of degree k in lex coefficient order."""
    # c_0 varies slowest, and c_0 = 0 is a root at 0 once k >= 2
    c0 = range(1, p) if k >= 2 else range(p)
    for f in itertools.product(c0, *[range(p)] * (k - 1), (1,)):
        if k >= 2 and sum(f) % p == 0:
            continue  # root at 1
        if is_irreducible(f, p):
            return f
    raise AssertionError("no irreducible polynomial found")  # unreachable


# ---------------------------------------------------------------------------


class Field(NamedTuple):
    """F_{p^k} on coordinate tuples over F_p: the value (p, k, modulus) make_field checks."""

    p: int
    k: int
    modulus: tuple

    @property
    def size(self) -> int:
        return self.p**self.k

    def __repr__(self):
        return f"Field({self.p}^{self.k})"

    # -- element plumbing ---------------------------------------------------

    def element(self, coords):
        coords = tuple(c % self.p for c in coords)
        if len(coords) != self.k:
            raise ValueError(f"expected {self.k} coordinates")
        return coords

    def from_int(self, v: int):
        """Inverse of to_int; big-endian base-p digits so int order is lex order."""
        if not 0 <= v < self.size:
            raise ValueError("element index out of range")
        digits = []
        for _ in range(self.k):
            digits.append(v % self.p)
            v //= self.p
        return tuple(reversed(digits))

    def to_int(self, x) -> int:
        v = 0
        for c in x:
            v = v * self.p + c
        return v


@cache
def make_field(p: int, k: int, modulus=None) -> Field:
    """F_(p^k) on the canonical modulus, or on the given one (a tuple), checked; shared."""
    if k < 1:
        raise UsageError(f"extension degree must be >= 1, got {k}")
    # the size first: a huge p or k must not reach trial division or p**k
    if p ** min(k, 64) > MAX_FIELD_SIZE:
        raise ResourceError(f"field size {p}^{k} exceeds the configured cap")
    check_odd_prime(p)
    if modulus is None:
        return Field(p, k, canonical_modulus(p, k))
    modulus = _pnorm(tuple(c % p for c in modulus))
    if len(modulus) - 1 != k or modulus[-1] != 1:
        raise UsageError(f"modulus must be monic of degree {k}")
    if not is_irreducible(modulus, p):
        raise UsageError("modulus is reducible")
    return Field(p, k, modulus)


# ---------------------------------------------------------------------------
# the multiplicative model: one discrete-log and trace table per field

class _MultData:
    """Tables over the generator g: ``code[i]`` = to_int(g^i), ``dlog[code]`` = i
    (-1 at zero) and ``tr[i]`` = AbsTr(g^i).
    """

    __slots__ = ("S", "code", "dlog", "tr")

    def __init__(self, field: Field):
        p, k, S = field.p, field.k, field.size - 1
        # g is the least v >= 2 in element order with g^(S/r) != 1 for every prime r | S
        one, primes = [1] + [0] * (k - 1), prime_factors(S)
        for v in range(2, field.size):
            g = list(field.from_int(v))
            if all(_powmod(g, S // r, field.modulus, p) != one for r in primes):
                break
        else:
            raise AssertionError("no generator found")
        step = _mul_matrix(g, field.modulus, p)
        # the head rows g^0..g^(B-1), doubled until B^2 >= S; step is then M_g^B
        rows = np.eye(1, k, dtype=np.int64)
        while len(rows) ** 2 < S:
            rows = np.concatenate([rows, rows @ step % p])
            step = step @ step % p
        # tv[i] = Tr(X^i) by Newton's identities on the modulus X^k + a_1 X^(k-1) + ... + a_k
        a, tv = field.modulus[::-1], [k % p]
        for i in range(1, k):
            tv.append(-(i * a[i] + sum(a[j] * tv[i - j] for j in range(1, i))) % p)
        # code and (unreduced) trace of a row are its products with these columns
        cols = np.array([p ** np.arange(k - 1, -1, -1), tv]).T
        code, tr = np.empty((2, S), dtype=np.int64)
        for i in range(0, S, len(rows)):
            # rows holds g^i..g^(i+B-1), and one product by M_g^B gives the next block
            code[i : i + len(rows)], tr[i : i + len(rows)] = (rows[: S - i] @ cols).T
            rows = rows @ step % p
        tr %= p
        dlog = np.full(field.size, -1, dtype=np.int64)
        dlog[code] = np.arange(S)
        if (dlog[1:] < 0).any():  # S distinct nonzero codes: g has order S
            raise AssertionError("generator order mismatch")
        self.S = S
        self.code = code
        self.dlog = dlog
        self.tr = tr


_mult_data = cache(_MultData)


# ---------------------------------------------------------------------------
# subfield embeddings


@cache
def _root_powers(src: Field, dst: Field):
    """r^0..r^(f-1) as the rows of a read-only array, r the lex-least root of
    src.modulus in dst (X when src == dst).

    A degree-1 source needs only r^0 = 1; its X may be 0, which has no log.
    """
    if src.p != dst.p or dst.k % src.k != 0:
        raise UsageError(f"{src!r} does not embed into {dst!r}")
    f = src.k
    pows = np.eye(f, dst.k, dtype=np.int64)
    if f > 1 and src != dst:
        md = _mult_data(dst)
        # the nonzero elements of the subfield of size p^f, in lex order
        sub = np.arange(0, md.S, md.S // (src.size - 1))
        for e in sub[np.argsort(md.code[sub])].tolist():
            pows = np.array([dst.from_int(int(md.code[e * i % md.S])) for i in range(f + 1)])
            if not (np.array(src.modulus) @ pows % src.p).any():
                break
        else:
            raise AssertionError("modulus has no root in the target subfield")
    pows = pows[:f]
    pows.flags.writeable = False
    return pows


def embed(src: Field, dst: Field, x):
    """Image of x under the ring embedding src -> dst, f | k, fixing F_p."""
    return tuple((np.array(x) @ _root_powers(src, dst) % dst.p).tolist())


# ---------------------------------------------------------------------------
# closed points of the torus


class ClosedPoint(NamedTuple):
    """Canonical representative of a Frobenius orbit of exact degree d."""

    base: Field
    field: Field
    rep: tuple
    degree: int

    @property
    def rep_int(self) -> int:
        return self.field.to_int(self.rep)

    def sort_key(self):
        return (self.degree, self.rep)


def degree_count(q: int, d: int) -> int:
    """Number of closed points of exact degree d on the torus over F_q."""
    total = sum(mobius(d // e) * (q**e - 1) for e in range(1, d + 1) if d % e == 0)
    if total % d:
        raise AssertionError("Moebius count is not divisible by the degree")
    return total // d


def point_field(base: Field, d: int) -> Field:
    """The field of degree-d points over base: base itself when d == 1."""
    return base if d == 1 else make_field(base.p, base.k * d)


def _least_codes(md: _MultData, q: int, d: int, e):
    """Per discrete log in e: the least code on its orbit, and whether the orbit has d members.

    x -> x^q multiplies discrete logs by q mod S, so orbits are the
    q-cyclotomic cosets {e q^j mod S}; code order is lex order.
    """
    y, least, exact = e, md.code[e], np.ones(len(e), dtype=bool)
    for _ in range(d - 1):
        y = y * (q % md.S) % md.S
        exact &= y != e
        least = np.minimum(least, md.code[y])
    return least, exact


def closed_points(base: Field, d: int):
    """All degree-d closed points, canonical reps in lex order.

    The representative is the lex-least element of its orbit.
    """
    if d < 1:
        raise UsageError("degree must be >= 1")
    big = point_field(base, d)
    md = _mult_data(big)
    least, exact = _least_codes(md, base.size, d, np.arange(md.S))
    reps = np.sort(md.code[exact & (least == md.code)]).tolist()
    if len(reps) != degree_count(base.size, d):
        raise AssertionError("orbit enumeration disagrees with the Moebius count")
    return [ClosedPoint(base=base, field=big, rep=big.from_int(c), degree=d)
            for c in reps]


def points_up_to(base: Field, D: int):
    """Closed points of every degree 1..D, in canonical order.

    The largest field comes first, so an oversize D is refused before
    any table is built.
    """
    point_field(base, max(D, 1))
    return [pt for d in range(1, D + 1) for pt in closed_points(base, d)]


def twist_orbits(points, n: int) -> dict:
    """Each point's (representative, c), with point = [c^(n+1) rep] and c in F_p^*,
    keyed by degree, then in the order of points.

    Multiplication by c^(n+1) commutes with Frobenius, so it permutes the
    closed points of each degree; the representative is the first point of
    its orbit in sort_key order.  With c = g^(j S/(p-1)) it adds
    (n+1) j S/(p-1) to a discrete log mod S, so the p-1 shifts of every
    point's log, each canonicalised by _least_codes, give its whole orbit.
    """
    out = {}
    for d in sorted({pt.degree for pt in points}):
        group = [pt for pt in points if pt.degree == d]
        field, q = group[0].field, group[0].base.size
        md, p = _mult_data(field), field.p
        step = md.S // (p - 1)  # g^step generates F_p^*, stored as (gamma, 0, ..., 0)
        gamma = int(md.code[step]) // p ** (field.k - 1)
        logs = md.dlog[[pt.rep_int for pt in group]]
        # shifted[j, i] is the code of the point [gamma^(j (n+1)) t_i]
        shifted = np.array([_least_codes(md, q, d, (logs + (n + 1) * j * step) % md.S)[0]
                            for j in range(p - 1)])
        # the least j reaching the representative; t_i is then gamma^(-j (n+1)) rep
        for pt, code, j in zip(group, shifted.min(axis=0).tolist(),
                               shifted.argmin(axis=0).tolist()):
            rep = ClosedPoint(base=pt.base, field=field, rep=field.from_int(code), degree=d)
            out[pt] = (rep, pow(gamma, -j, p))
    return out


def orbit_rep(base: Field, field: Field, x) -> ClosedPoint:
    """Canonicalize a nonzero element whose orbit spans the whole field."""
    if not any(x):
        raise ValueError("zero has no closed point")
    md = _mult_data(field)
    d = field.k // base.k
    least, exact = _least_codes(md, base.size, d, md.dlog[[field.to_int(x)]])
    if not exact[0]:
        raise ValueError("element generates a proper subfield")
    return ClosedPoint(base=base, field=field, rep=field.from_int(int(least[0])), degree=d)
