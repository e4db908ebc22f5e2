"""Exact arithmetic in Z[zeta] for zeta a primitive p-th root of unity.

Elements carry integer coordinates on the power basis {1, zeta, ...,
zeta^(p-2)}; higher powers fold back through zeta^(p-1) = -(1 + zeta +
... + zeta^(p-2)).  The prime p is totally ramified: (p) = (pi)^(p-1)
with pi = 1 - zeta, so valuations are tracked in pi-units and ord_p(x)
equals pi_val(x)/(p-1).  Substituting zeta = 1 - pi rewrites x = sum a_i
zeta^i as sum_j (-1)^j b_j pi^j with b_j = sum_i C(i, j) a_i, j <= p-2;
the terms have valuations (p-1) ord_p(b_j) + j, distinct mod p-1, so
pi_val(x) is the least of them.  Coordinates are unbounded Python integers,
so nothing here may overflow.  Every product in Z[zeta_p], exact or mod p^N
(``CycInt``, ``lfun``'s Newton identities, ``padic``), is ``mul_coords``.
"""

from __future__ import annotations

import functools
import math

from .errors import UsageError


def ord_p(p: int, m: int) -> int:
    """Exponent of p in a nonzero integer."""
    if m == 0:
        raise ValueError("ord_p(0) is infinite")
    m = abs(m)
    e = 0
    while m % p == 0:
        m //= p
        e += 1
    return e


def prime_factors(n: int) -> list:
    """The distinct primes dividing n, ascending, by trial division; [] for n < 2."""
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


@functools.cache
def check_odd_prime(p: int) -> None:
    """Reject p = 2 and composites; the verified statements assume p odd."""
    if p == 2 or prime_factors(p) != [p]:
        raise UsageError(f"level must be an odd prime, got {p}")


def mul_coords(a: tuple, b: tuple, mod: int | None = None) -> tuple:
    """Coordinates of a * b, reduced into [0, mod) when mod is given: the products
    gather by the power of zeta mod p, then zeta^(p-1) folds into the rest.  A zero
    coordinate of a adds nothing, so its row is skipped (rational operands and sparse
    sums make over a third of all operand coordinates 0 in the p-adic runs)."""
    p = len(a) + 1
    bucket = [0] * p
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                bucket[j % p] += x * y
    top = bucket.pop()
    if mod is None:
        return tuple([c - top for c in bucket])
    return tuple([(c - top) % mod for c in bucket])


def galois_coords(a: tuple, c: int) -> tuple:
    """Coordinates of sigma_c(a), zeta -> zeta^c, for c a unit mod p."""
    p = len(a) + 1
    bucket = [0] * p
    for i, x in enumerate(a):
        bucket[i * c % p] += x
    top = bucket.pop()
    return tuple([x - top for x in bucket])


def format_int_list(values) -> str:
    """The text "[v0,v1,...]" of integers, as cache records and values spell them."""
    return "[%s]" % ",".join(str(v) for v in values)


def parse_int_list(text: str) -> tuple:
    """The integers of a text "[v0,v1,...]" ("[]": none); ValueError if malformed."""
    if not (text.startswith("[") and text.endswith("]")):
        raise ValueError(f"malformed integer list: {text!r}")
    inner = text[1:-1]
    return tuple(int(s) for s in inner.split(",")) if inner else ()


@functools.cache
def _binomial_rows(p: int):
    """Row j holds C(i, j) for i = j, ..., p - 2: b_j is row j dotted with a[j:]."""
    return tuple(tuple(math.comb(i, j) for i in range(j, p - 1)) for j in range(p - 1))


class CycInt:
    """An element of Z[zeta_p], immutable by convention."""

    __slots__ = ("p", "coords")

    def __init__(self, p: int, coords):
        coords = tuple(int(c) for c in coords)
        if len(coords) != p - 1:  # cheap, and bounds p before trial division
            raise ValueError(f"expected {p - 1} coordinates, got {len(coords)}")
        check_odd_prime(p)
        self.p = p
        self.coords = coords

    @classmethod
    def _new(cls, p: int, coords: tuple) -> "CycInt":
        """No checks: p - 1 int coordinates at a level some operand already passed."""
        self = object.__new__(cls)
        self.p, self.coords = p, coords
        return self

    @classmethod
    def from_int(cls, p: int, n: int) -> "CycInt":
        return cls(p, (n,) + (0,) * (p - 2))

    @classmethod
    def from_powers(cls, p: int, pairs) -> "CycInt":
        """Build sum c * zeta^e from (exponent, coefficient) pairs."""
        check_odd_prime(p)
        bucket = [0] * p
        for e, c in pairs:
            bucket[e % p] += int(c)
        top = bucket.pop()
        return cls._new(p, tuple([c - top for c in bucket]))

    def _check_level(self, other: "CycInt") -> None:
        if self.p != other.p:
            raise ValueError(f"mixed cyclotomic levels {self.p} and {other.p}")

    def __add__(self, other):
        if not isinstance(other, CycInt):
            return NotImplemented
        self._check_level(other)
        return CycInt._new(self.p, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        if not isinstance(other, CycInt):
            return NotImplemented
        self._check_level(other)
        return CycInt._new(self.p, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        return CycInt._new(self.p, tuple(-a for a in self.coords))

    def __mul__(self, other):
        if isinstance(other, int):
            return CycInt._new(self.p, tuple(a * other for a in self.coords))
        if not isinstance(other, CycInt):
            return NotImplemented
        self._check_level(other)
        return CycInt._new(self.p, mul_coords(self.coords, other.coords))

    __rmul__ = __mul__

    def __eq__(self, other):
        return (
            isinstance(other, CycInt)
            and self.p == other.p
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash((self.p, self.coords))

    def __bool__(self):
        return any(self.coords)

    def __repr__(self):
        return f"CycInt({self.p}, {self.coords})"

    def galois(self, c: int) -> "CycInt":
        """Apply the substitution zeta -> zeta^c, c not divisible by p."""
        if c % self.p == 0:
            raise ValueError("substitution exponent must be a unit mod p")
        return CycInt._new(self.p, galois_coords(self.coords, c))

    def pi_val(self):
        """Least (p-1) ord_p(b_j) + j (module docstring); None for x = 0."""
        if not self:
            return None
        p, a = self.p, self.coords
        best = math.inf
        for j, row in enumerate(_binomial_rows(p)):
            if best <= j:  # the terms from j on are worth at least j
                break
            b = sum(c * x for c, x in zip(row, a[j:]))
            if b:
                v = j
                while b % p == 0 and v < best:  # once v >= best, this term cannot win
                    b, v = b // p, v + p - 1
                best = min(best, v)
        return best

    def as_integer(self) -> int:
        """Coerce to a rational integer; error on nonzero zeta-components."""
        if any(self.coords[1:]):
            raise ValueError(f"not a rational integer: {self!r}")
        return self.coords[0]

    def serialize(self) -> str:
        return f"{self.p}:{format_int_list(self.coords)}"

    @classmethod
    def deserialize(cls, text: str) -> "CycInt":
        head, _, body = text.partition(":")
        try:  # the text alone: the constructor's checks keep their own messages
            if not head.isdigit():
                raise ValueError(head)
            coords = parse_int_list(body)
        except ValueError:
            raise ValueError(f"malformed cyclotomic value: {text!r}") from None
        return cls(int(head), coords)
