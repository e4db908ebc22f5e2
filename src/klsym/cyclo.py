"""Exact arithmetic in Z[zeta] for zeta a primitive p-th root of unity.

Elements carry integer coordinates on the power basis {1, zeta, ...,
zeta^(p-2)}; higher powers fold back through zeta^(p-1) = -(1 + zeta +
... + zeta^(p-2)).  The prime p is totally ramified: (p) = (pi)^(p-1)
with pi = 1 - zeta, so valuations are tracked in pi-units and ord_p(x)
equals pi_val(x)/(p-1).  Substituting zeta = 1 - pi rewrites x = sum a_i
zeta^i as sum_j (-1)^j b_j pi^j with b_j = sum_i C(i, j) a_i, j <= p-2;
the terms have valuations (p-1) ord_p(b_j) + j, distinct mod p-1, so
pi_val(x) is the least of them.  Coordinates are unbounded Python integers;
coefficient growth in characteristic polynomials of symmetric powers is
unbounded, so nothing here may overflow.
"""

from __future__ import annotations

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


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def check_odd_prime(p: int) -> None:
    """Reject p = 2 and composites; the verified statements assume p odd."""
    if not is_prime(p) or p == 2:
        raise UsageError(f"level must be an odd prime, got {p}")


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
    def from_int(cls, p: int, n: int) -> "CycInt":
        return cls(p, (n,) + (0,) * (p - 2))

    @classmethod
    def zero(cls, p: int) -> "CycInt":
        return cls.from_int(p, 0)

    @classmethod
    def from_powers(cls, p: int, pairs) -> "CycInt":
        """Build sum c * zeta^e from (exponent, coefficient) pairs."""
        bucket = [0] * p
        for e, c in pairs:
            bucket[e % p] += int(c)
        return cls._fold(p, bucket)

    @classmethod
    def _fold(cls, p: int, bucket) -> "CycInt":
        """Reduce sum bucket[e] * zeta^e, e < p, through the level relation."""
        top = bucket[p - 1]
        return cls(p, tuple(bucket[i] - top for i in range(p - 1)))

    def _check_level(self, other: "CycInt") -> None:
        if self.p != other.p:
            raise ValueError(f"mixed cyclotomic levels {self.p} and {other.p}")

    def __add__(self, other):
        if not isinstance(other, CycInt):
            return NotImplemented
        self._check_level(other)
        return CycInt(self.p, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        if not isinstance(other, CycInt):
            return NotImplemented
        self._check_level(other)
        return CycInt(self.p, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        return CycInt(self.p, tuple(-a for a in self.coords))

    def __mul__(self, other):
        if isinstance(other, int):
            return CycInt(self.p, tuple(a * other for a in self.coords))
        if not isinstance(other, CycInt):
            return NotImplemented
        self._check_level(other)
        p = self.p
        bucket = [0] * p
        for i, a in enumerate(self.coords):
            if a:
                for j, b in enumerate(other.coords):
                    if b:
                        bucket[(i + j) % p] += a * b
        return CycInt._fold(p, bucket)

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
        return CycInt.from_powers(
            self.p, ((i * c, a) for i, a in enumerate(self.coords))
        )

    def pi_val(self):
        """Least (p-1) ord_p(b_j) + j (module docstring); None for x = 0."""
        if not self:
            return None
        p, a = self.p, self.coords
        best = math.inf
        for j in range(p - 1):
            if best <= j:  # the terms from j on are worth at least j
                break
            b = sum(math.comb(i, j) * a[i] for i in range(j, p - 1))
            if b:
                best = min(best, (p - 1) * ord_p(p, b) + j)
        return best

    def divide_exact_int(self, m: int) -> "CycInt":
        """Divide by a nonzero rational integer, requiring exactness."""
        if m == 0:
            raise ZeroDivisionError("division by zero")
        if any(c % m for c in self.coords):
            raise ValueError(f"{self!r} is not divisible by {m}")
        return CycInt(self.p, tuple(c // m for c in self.coords))

    def as_integer(self) -> int:
        """Coerce to a rational integer; error on nonzero zeta-components."""
        if any(self.coords[1:]):
            raise ValueError(f"not a rational integer: {self!r}")
        return self.coords[0]

    def serialize(self) -> str:
        return "%d:[%s]" % (self.p, ",".join(str(c) for c in self.coords))

    @classmethod
    def deserialize(cls, text: str) -> "CycInt":
        head, _, body = text.partition(":")
        if not head.isdigit() or not (body.startswith("[") and body.endswith("]")):
            raise ValueError(f"malformed cyclotomic value: {text!r}")
        p = int(head)
        inner = body[1:-1]
        parts = inner.split(",") if inner else []
        try:
            coords = [int(s) for s in parts]
        except ValueError:
            raise ValueError(f"malformed cyclotomic value: {text!r}") from None
        return cls(p, coords)
