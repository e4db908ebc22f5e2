"""Truncated arithmetic in Z_p[zeta_p] with explicit precision certificates.

Elements carry coordinates mod p^N together with a certificate vcert: the
difference between the stored representative and the intended exact value
has pi-adic valuation >= vcert, where pi = 1 - zeta_p and (p) = (pi)^(p-1).
Every operation propagates the certificate pessimistically, so a final
vcert is a sound claim, never a heuristic.  Division is only performed by
certified units or by exactly divisible powers of p, and each such division
records its precision cost.

One Newton loop (``_lift_simple_nonzero_root``) lifts a simple root x of
f together with y ~ 1/f'(x): x <- x - f(x) y, then y <- y - y (f'(x) y - 1).
It serves the unit root of a local factor, every round of the slope
split, and ``unit_inverse`` as the root of u X - 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .cyclo import CycInt, ord_p
from .errors import DegenerateFactorError, PrecisionError, SlopeFindingError, UsageError


# ---------------------------------------------------------------------------
# exponents: exact integers, or p-adic integers known to s base-p digits


@dataclass(frozen=True)
class PadicExponent:
    """Exponent kappa for 1-unit powers: exact, or truncated mod p^s."""

    p: int
    rep: int
    ndigits: int | None  # None means rep is the exact integer value

    @classmethod
    def exact(cls, p: int, value: int) -> "PadicExponent":
        return cls(p, int(value), None)

    @classmethod
    def truncated(cls, p: int, digits) -> "PadicExponent":
        digits = tuple(int(d) for d in digits)
        if not digits or any(d < 0 or d >= p for d in digits):
            raise UsageError(f"digits must be base-{p} digits, got {digits}")
        rep = sum(d * p ** i for i, d in enumerate(digits))
        return cls(p, rep, len(digits))

    @property
    def is_exact(self) -> bool:
        return self.ndigits is None

    def minus_int(self, j: int) -> "PadicExponent":
        if self.is_exact:
            return PadicExponent(self.p, self.rep - j, None)
        return PadicExponent(self.p, (self.rep - j) % self.p ** self.ndigits, self.ndigits)

    def binom_with_cert(self, l: int):
        """(binomial(kappa_rep, l), s) with kappa == rep mod p^s; s None if exact."""
        r = self.rep
        if r >= 0:
            b = math.comb(r, l)
        else:
            b = (-1) ** l * math.comb(-r + l - 1, l)
        return b, self.ndigits


# ---------------------------------------------------------------------------
# truncated elements


class PadicCyc:
    """Element of Z_p[zeta_p] stored mod p^N with pi-adic certificate vcert."""

    __slots__ = ("p", "N", "rep", "vcert")

    def __init__(self, p: int, N: int, rep: CycInt, vcert: int):
        if N < 1:
            raise PrecisionError("working precision exhausted (N < 1)")
        mod = p ** N
        coords = tuple(c % mod for c in rep.coords)
        self.p = p
        self.N = N
        self.rep = CycInt(p, coords)
        self.vcert = min(vcert, N * (p - 1))
        if self.vcert <= 0:
            raise PrecisionError("certificate exhausted (vcert <= 0)")

    # -- constructors

    @classmethod
    def embed(cls, x: CycInt, N: int) -> "PadicCyc":
        return cls(x.p, N, x, N * (x.p - 1))

    @classmethod
    def from_int(cls, p: int, N: int, v: int) -> "PadicCyc":
        return cls.embed(CycInt.from_int(p, v), N)

    @classmethod
    def one(cls, p: int, N: int) -> "PadicCyc":
        return cls.from_int(p, N, 1)

    @classmethod
    def zero(cls, p: int, N: int) -> "PadicCyc":
        return cls.from_int(p, N, 0)

    # -- inspection

    def residue_int(self) -> int:
        """Image in the residue field F_p (zeta maps to 1)."""
        return sum(self.rep.coords) % self.p

    def val_lb(self) -> int:
        """Certified lower bound for the pi-valuation of the true value."""
        v = self.rep.pi_val()
        if v is None:
            return self.vcert
        return min(v, self.vcert)

    def is_unit(self) -> bool:
        return self.residue_int() != 0

    # -- normalisation helpers

    def with_precision(self, N: int) -> "PadicCyc":
        if N > self.N:
            raise PrecisionError(f"cannot raise precision {self.N} -> {N}")
        return PadicCyc(self.p, N, self.rep, self.vcert)

    def _join(self, other: "PadicCyc") -> int:
        if not isinstance(other, PadicCyc) or other.p != self.p:
            raise UsageError("mixed p-adic levels")
        return min(self.N, other.N)

    # -- ring operations

    def __add__(self, other):
        if isinstance(other, int):
            other = PadicCyc.from_int(self.p, self.N, other)
        N = self._join(other)
        return PadicCyc(self.p, N, self.rep + other.rep, min(self.vcert, other.vcert))

    def __sub__(self, other):
        if isinstance(other, int):
            other = PadicCyc.from_int(self.p, self.N, other)
        N = self._join(other)
        return PadicCyc(self.p, N, self.rep - other.rep, min(self.vcert, other.vcert))

    def __mul__(self, other):
        if isinstance(other, int):
            other = PadicCyc.from_int(self.p, self.N, other)
        if isinstance(other, CycInt):
            other = PadicCyc.embed(other, self.N)
        N = self._join(other)
        vc = min(self.vcert + other.val_lb(), other.vcert + self.val_lb())
        return PadicCyc(self.p, N, self.rep * other.rep, vc)

    __radd__ = __add__
    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            return self.unit_inverse() ** (-e)
        out = PadicCyc.one(self.p, self.N)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def galois(self, c: int) -> "PadicCyc":
        return PadicCyc(self.p, self.N, self.rep.galois(c), self.vcert)

    def unit_inverse(self) -> "PadicCyc":
        """Inverse of a pi-adic unit, the root of self X - 1; certificate kept."""
        if not self.is_unit():
            raise ZeroDivisionError("not a pi-adic unit to working precision")
        y = _lift_simple_nonzero_root([PadicCyc.from_int(self.p, self.N, -1), self],
                                      self.p, self.N)
        return PadicCyc(self.p, self.N, y.rep, self.vcert)

    def times_p_power(self, j: int) -> "PadicCyc":
        """Multiply by p^j; the certificate improves by j*(p-1)."""
        if j < 0:
            raise UsageError("use divide_exact_p_power for negative powers")
        rep = CycInt(self.p, tuple(c * self.p ** j for c in self.rep.coords))
        return PadicCyc(self.p, self.N + j, rep, self.vcert + j * (self.p - 1))

    def divide_exact_p_power(self, j: int) -> "PadicCyc":
        """Divide by p^j assuming exact divisibility; costs j digits of N."""
        if j == 0:
            return self
        q = self.p ** j
        if any(c % q for c in self.rep.coords):
            raise PrecisionError(f"representative not divisible by p^{j}")
        rep = CycInt(self.p, tuple(c // q for c in self.rep.coords))
        return PadicCyc(self.p, self.N - j, rep, self.vcert - j * (self.p - 1))

    def __repr__(self):
        return f"PadicCyc(p={self.p}, N={self.N}, vcert={self.vcert}, {self.rep.coords})"


# ---------------------------------------------------------------------------
# polynomial helpers over PadicCyc (coefficient lists are low-degree-first)


def _peval(coeffs, x: PadicCyc) -> PadicCyc:
    acc = PadicCyc.zero(x.p, x.N)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _pderiv(coeffs):
    return [c * i for i, c in enumerate(coeffs) if i >= 1]


def _lift_simple_nonzero_root(coeffs, p: int, N: int) -> PadicCyc:
    """Hensel lift of the unique simple nonzero root of the residue poly."""
    res = [c.residue_int() for c in coeffs]
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
    # the exact-inverse step count holds: 1 - f'(x) y squares at each step and f(x) gains
    # both factors' precision, so both reach 2^i after i steps (von zur Gathen-Gerhard, ch. 9)
    steps = max(1, math.ceil(math.log2(N * (p - 1)))) + 1
    for _ in range(steps):
        x = x - _peval(coeffs, x) * y
        y = y - y * (_peval(deriv, x) * y - 1)
    v = _peval(coeffs, x).rep.pi_val()
    if not (v is None or v >= min(c.vcert for c in coeffs)):
        raise AssertionError("Newton iteration failed to converge")
    return x


def hensel_unit_root(factor_coeffs, N: int) -> PadicCyc:
    """Unit eigenvalue of a local factor sum a_i T^i, certified mod p^N.

    The reciprocal-root polynomial must have exactly one unit root and it
    must be a 1-unit (congruent to 1 mod pi); otherwise the factor cannot
    be ordinary in the expected way and DegenerateFactorError is raised.
    """
    coeffs = list(factor_coeffs)
    if not coeffs or coeffs[0].as_integer() != 1:
        raise UsageError("local factor must have constant term 1")
    p = coeffs[0].p
    # E(X) = X^deg * P(1/X): low-first list is P reversed
    e_coeffs = [PadicCyc.embed(c, N) for c in reversed(coeffs)]
    root = _lift_simple_nonzero_root(e_coeffs, p, N)
    if (root - 1).val_lb() < 1 or root.residue_int() != 1:
        raise DegenerateFactorError(
            f"unit root has residue {root.residue_int()} != 1, not a 1-unit")
    return root


def slope_split(factor_coeffs, a: int, d: int, N: int):
    """Split a local factor into eigenvalues pi_j = p^(a d j) * unit.

    Requires the exact coefficient valuations pi-val(a_i) = (p-1) a d i(i-1)/2;
    any other shape is reported as SlopeFindingError with the witness index.
    Returns (eigenvalues, info) where info records the precision ledger.
    """
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
    ledger = {"N_requested": N, "N_work": n_work, "rounds": []}
    # E(X) low-first, then run root-extract / deflate / rescale rounds
    cur = [PadicCyc.embed(c, n_work) for c in reversed(coeffs)]
    eigenvalues = []
    for j in range(n + 1):
        u = _lift_simple_nonzero_root(cur, p, cur[0].N)
        if j == 0 and u.residue_int() != 1:
            raise DegenerateFactorError("unit eigenvalue is not a 1-unit")
        eigenvalues.append(u.times_p_power(ad * j))
        ledger["rounds"].append({"j": j, "N": u.N, "vcert": u.vcert})
        if j == n:
            break
        deg = len(cur) - 1
        high = list(reversed(cur))  # high[0] = 1
        quot = [high[0]]
        for i in range(1, deg):
            quot.append(high[i] + u * quot[i - 1])
        rem = high[deg] + u * quot[deg - 1]
        vr = rem.rep.pi_val()
        if not (vr is None or vr >= rem.vcert):
            raise AssertionError("deflation remainder not negligible")
        scaled = [q.divide_exact_p_power(ad * i) for i, q in enumerate(quot)]
        n_next = min(s.N for s in scaled)
        cur = [s.with_precision(n_next) for s in reversed(scaled)]
    if min(e.vcert for e in eigenvalues) < N * (p - 1):
        raise PrecisionError("slope split lost more precision than budgeted")
    return eigenvalues, ledger


# ---------------------------------------------------------------------------
# 1-unit powers


def one_unit_power(u: PadicCyc, kappa: PadicExponent, V: int) -> PadicCyc:
    """u^kappa for a 1-unit u, as sum binom(kappa, l) (u-1)^l, certified.

    V is the target pi-adic precision; the returned certificate is V capped
    by what u's own certificate, the working modulus, and (for truncated
    exponents) the digit supply can support.
    """
    p = u.p
    if kappa.p != p:
        raise UsageError("exponent and base have different p")
    um1 = u - 1
    v1 = um1.val_lb()
    if v1 < 1 or u.residue_int() != 1:
        raise DegenerateFactorError("base of one_unit_power must be a 1-unit")
    if kappa.is_exact and kappa.rep >= 0:
        # plain power; still certified via the multiplication rules
        return u ** kappa.rep
    acc = PadicCyc.one(p, u.N)
    term = PadicCyc.one(p, u.N)
    cert = min(V, u.vcert, u.N * (p - 1))
    l = 1
    fact_ord = 0
    while l * v1 < V:
        fact_ord += ord_p(p, l)
        term = term * um1
        b, s = kappa.binom_with_cert(l)
        if b:
            acc = acc + term * b
        if s is not None:
            cert = min(cert, (p - 1) * max(0, s - fact_ord) + l * v1)
        l += 1
    return PadicCyc(p, acc.N, acc.rep, min(cert, acc.vcert))
