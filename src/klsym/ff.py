"""Finite field towers F_p < F_q < F_{q^d} with deterministic moduli.

F_{p^k} is realised as F_p[X]/(f) with f monic irreducible of degree k.
When no modulus is supplied, f is the first irreducible in lexicographic
order of the coefficient vector (c_0, ..., c_{k-1}); elements are
coordinate tuples (c_0, ..., c_{k-1}) on the power basis of the class of
X, enumerated and compared in the same lexicographic order.  Every choice
is canonical so that independent runs build identical towers and cache
keys never alias.

Multiplication by y is an F_p-linear map; its k x k matrix (row i is
X^i y) is the one route for every product, power and trace here, and
for Rabin's irreducibility test.  The one multiplicative model of each
field, a discrete-log and trace table over its least generator
(``_mult_data``), steps blocks of about sqrt(|F|) powers by one matrix
product.  Closed points, orbit representatives and subfield embeddings
all read it, because Frobenius acts on discrete logs as multiplication
by q.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cyclo import check_odd_prime
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
    """The k x k matrix of multiplication by y in F_p[X]/(modulus): row i is X^i y.

    A product x y is the row vector x times this matrix.  int64 is exact:
    every entry of a product of two reduced matrices is below
    k (p-1)^2 < 2^63 under MAX_FIELD_SIZE.
    """
    k = len(modulus) - 1
    lead = pow(modulus[-1], p - 2, p)
    top = np.array([-c * lead % p for c in modulus[:k]], dtype=np.int64)  # X^k mod the modulus
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


def is_irreducible(f, p) -> bool:
    """Rabin test: X^(p^k) = X mod f, and gcd(h, f) = 1 for h = X^(p^(k/r)) - X, r | k prime.

    Once f | X^(p^k) - X, F_p[X]/(f) is a product of fields whose degrees
    divide k, so h is a unit, i.e. gcd(h, f) = 1, exactly when h^(p^k - 1) = 1.
    """
    f = _pnorm(f)
    k = len(f) - 1
    if k < 1:
        return False
    if k == 1:
        return True
    x = _mul_matrix((0, 1), f, p)
    if (_mat_pow(x, p**k, p)[0] != x[0]).any():
        return False
    one = np.eye(1, k, dtype=np.int64)[0]
    for r in _prime_factors(k):
        h = (_mat_pow(x, p ** (k // r), p)[0] - x[0]) % p
        if (_mat_pow(_mul_matrix(h, f, p), p**k - 1, p)[0] != one).any():
            return False
    return True


def _prime_factors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def mobius(n: int) -> int:
    """0 when a square divides n, else (-1)^(number of prime factors)."""
    primes = _prime_factors(n)
    if any(n % (q * q) == 0 for q in primes):
        return 0
    return (-1) ** len(primes)


@lru_cache(maxsize=None)
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


class Field:
    """F_{p^k} with arithmetic on coordinate tuples over F_p."""

    __slots__ = ("p", "k", "modulus", "_trace_vec", "_generator")

    def __init__(self, p: int, k: int, modulus=None):
        if k < 1:
            raise UsageError(f"extension degree must be >= 1, got {k}")
        # the size first: a huge p or k must not reach trial division or p**k
        if p ** min(k, 64) > MAX_FIELD_SIZE:
            raise ResourceError(f"field size {p}^{k} exceeds the configured cap")
        check_odd_prime(p)
        if modulus is None:
            modulus = canonical_modulus(p, k)
        else:
            modulus = _pnorm(tuple(c % p for c in modulus))
            if len(modulus) - 1 != k or modulus[-1] != 1:
                raise UsageError(f"modulus must be monic of degree {k}")
            if not is_irreducible(modulus, p):
                raise UsageError("modulus is reducible")
        self.p = p
        self.k = k
        self.modulus = modulus
        self._trace_vec = None
        self._generator = None

    @property
    def size(self) -> int:
        return self.p**self.k

    @property
    def one(self):
        return (1,) + (0,) * (self.k - 1)

    def __eq__(self, other):
        return (
            isinstance(other, Field)
            and (self.p, self.k, self.modulus) == (other.p, other.k, other.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.k, self.modulus))

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

    # -- arithmetic ----------------------------------------------------------

    def pow(self, x, e: int):
        if e < 0:
            raise ValueError("negative powers need an inverse")
        return tuple(_mat_pow(_mul_matrix(x, self.modulus, self.p), e, self.p)[0].tolist())

    # -- traces ---------------------------------------------------------------

    def _trace_vector(self):
        """Tr(X^i) for i < k: the trace of the matrix of X^i."""
        if self._trace_vec is None:
            p, k, f = self.p, self.k, self.modulus
            self._trace_vec = tuple(int(np.trace(_mul_matrix((0,) * i + (1,), f, p))) % p
                                    for i in range(k))
        return self._trace_vec

    # -- multiplicative structure ----------------------------------------------

    def generator(self):
        """Smallest multiplicative generator in element order."""
        if self._generator is None:
            order = self.size - 1
            primes = _prime_factors(order)
            for v in range(2, self.size):
                g = self.from_int(v)
                if all(self.pow(g, order // r) != self.one for r in primes):
                    self._generator = g
                    break
            else:
                raise AssertionError("no generator found")
        return self._generator


@lru_cache(maxsize=None)
def make_field(p: int, a: int, modulus=None) -> Field:
    """Shared Field instances; modulus as a tuple when supplied."""
    return Field(p, a, modulus)


# ---------------------------------------------------------------------------
# the multiplicative model: one discrete-log and trace table per field

_mult_lock = threading.Lock()
_mult_cache: dict = {}


class _MultData:
    """Tables over the generator g: ``code[i]`` = to_int(g^i), ``dlog[code]`` = i
    (-1 at zero), ``tr[i]`` = AbsTr(g^i), and ``trD`` = ``tr`` twice over so
    that cyclic windows are plain slices.
    """

    __slots__ = ("field", "S", "code", "dlog", "tr", "trD")

    def __init__(self, field: Field):
        p, k, S = field.p, field.k, field.size - 1
        step = _mul_matrix(field.generator(), field.modulus, p)
        # the head rows g^0..g^(B-1), doubled until B^2 >= S; step is then M_g^B
        rows = np.eye(1, k, dtype=np.int64)
        while len(rows) ** 2 < S:
            rows = np.concatenate([rows, rows @ step % p])
            step = step @ step % p
        # code and (unreduced) trace of a row are its products with these columns
        cols = np.array([p ** np.arange(k - 1, -1, -1), field._trace_vector()]).T
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
        self.field = field
        self.S = S
        self.code = code
        self.dlog = dlog
        self.tr = tr
        self.trD = np.concatenate([tr, tr])

    def power(self, e: int):
        """g^e as coordinates."""
        return self.field.from_int(int(self.code[e % self.S]))


def _mult_data(field: Field) -> _MultData:
    with _mult_lock:
        data = _mult_cache.get(field)
        if data is None:
            data = _MultData(field)
            _mult_cache[field] = data
        return data


# ---------------------------------------------------------------------------
# subfield embeddings


@lru_cache(maxsize=None)
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
            pows = np.array([md.power(e * i) for i in range(f + 1)])
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


@dataclass(frozen=True)
class ClosedPoint:
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
