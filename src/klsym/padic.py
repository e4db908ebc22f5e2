"""Truncated arithmetic in Z_p[zeta_p] with explicit precision certificates.

A ``PadicCyc`` is its coordinates, reduced mod p^N, together with a
certificate vcert: the difference between them and the intended exact value
has pi-adic valuation >= vcert, where pi = 1 - zeta_p and (p) = (pi)^(p-1).
Every operation propagates the certificate pessimistically, so a final
vcert is a sound claim, never a heuristic; ``val_lb`` is the one valuation
its readers take.  A ``PadicCyc`` has no inverse; an int operand is exact,
so it embeds at the cap, and every product is certified by one rule: the
least of N(p-1) and each factor's vcert plus the other's valuation.

``val_lb`` is min(val, vcert), val the pi-valuation of the coordinates capped
at N(p-1).  Reduced coordinates are nonzero just when it is below the cap, so
val depends on the class mod p^N alone, and it is exact, not a bound.  pi is
prime, so a product's val is the sum of its factors', capped (past the cap the
product is 0 mod p^N); a sum's or difference's is the smaller capped val where
the two differ (ultrametric), unknown on a tie; sigma_c sends pi to pi times a
unit, so ``galois`` keeps it.  Ints, the unit root and the 1-unit series (0) and
the slope split's pi_j (a d j (p-1)) are seeded; any other val is measured once,
by ``CycInt.pi_val``, when ``val_lb`` first needs it.

Below ``PadicCyc`` lies one layer of bare coordinate tuples mod p^N, a ring
map, where a certificate fixed in advance is set once, for the result
(Caruso-Roe-Vaccon, "Tracking p-adic precision", 2014): ``mul_coords``, the
``cyclo`` product kernel with a modulus, multiplies, folds zeta^(p-1) and
reduces in one pass; ``_horner`` evaluates
f at z and divides it by X - z; ``_lift_simple_nonzero_root`` lifts a simple
root x of f with y ~ 1/f'(x), x <- x - f(x) y, then y <- y - y (f'(x) y - 1),
until f(x) = 0 mod p^N; ``hensel_unit_root`` adds the one 1-unit test and gives
every p-adic mode its unit root, the first eigenvalue of ``slope_split``;
``one_unit_power`` steps each size from the last by Pascal's rule.  These
coordinates are canonical, so no skipped work moves a byte.
"""

from __future__ import annotations

import math
from operator import add, mul, sub
from typing import NamedTuple

from .cyclo import CycInt, galois_coords, mul_coords, ord_p
from .errors import DegenerateFactorError, PrecisionError, SlopeFindingError, UsageError


# ---------------------------------------------------------------------------
# exponents: exact integers, or p-adic integers known to s base-p digits


class PadicExponent(NamedTuple):
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
        rep = 0
        for d in reversed(digits):  # Horner's rule: one small product per digit
            rep = rep * p + d
        return cls(p, rep, len(digits))

    @property
    def is_exact(self) -> bool:
        return self.ndigits is None

    def minus_int(self, j: int) -> "PadicExponent":
        if self.is_exact:
            return PadicExponent(self.p, self.rep - j, None)
        return PadicExponent(self.p, (self.rep - j) % self.p ** self.ndigits, self.ndigits)


# ---------------------------------------------------------------------------
# truncated elements


class PadicCyc:
    """Element of Z_p[zeta_p]: p - 1 coordinates mod p^N, a pi-adic certificate vcert,
    and val, their pi-valuation capped at N(p-1) (module docstring), None until known."""

    __slots__ = ("p", "N", "coords", "vcert", "val")

    def __init__(self, p: int, N: int, coords, vcert: int, val: int | None = None):
        if N < 1:
            raise PrecisionError("working precision exhausted (N < 1)")
        self.p, self.N, mod = p, N, p ** N
        self.coords = tuple([c % mod for c in coords])
        self.vcert = min(vcert, N * (p - 1))
        if self.vcert <= 0:
            raise PrecisionError("certificate exhausted (vcert <= 0)")
        self.val = val

    @classmethod
    def _new(cls, p: int, N: int, coords: tuple, vcert: int, val: int | None = None) -> "PadicCyc":
        """No checks: coords reduced mod p^N, 0 < vcert <= N(p-1), val exact or None."""
        self = object.__new__(cls)
        self.p, self.N, self.coords, self.vcert, self.val = p, N, coords, vcert, val
        return self

    # -- constructors

    @classmethod
    def from_int(cls, p: int, N: int, v: int) -> "PadicCyc":
        """v at the cap: an int is exact, and its val is (p-1) ord_p of v mod p^N."""
        self = cls(p, N, (v,) + (0,) * (p - 2), N * (p - 1))
        self.val = (p - 1) * ord_p(p, self.coords[0]) if self.coords[0] else self.vcert
        return self

    # -- inspection

    def val_lb(self) -> int:
        """Certified lower bound for the pi-valuation of the true value: val, measured
        if not yet known, capped by vcert."""
        if self.val is None:
            v = CycInt._new(self.p, self.coords).pi_val()
            self.val = self.N * (self.p - 1) if v is None else v
        return min(self.val, self.vcert)

    # -- normalisation helpers

    def with_precision(self, N: int) -> "PadicCyc":
        if N > self.N:
            raise PrecisionError(f"cannot raise precision {self.N} -> {N}")
        return PadicCyc(self.p, N, self.coords, self.vcert,
                        None if self.val is None else min(self.val, N * (self.p - 1)))

    # -- ring operations

    def _coerce(self, other) -> "PadicCyc":
        """The operand at this level: an int is exact, so it embeds at the cap."""
        if isinstance(other, int):
            return PadicCyc.from_int(self.p, self.N, other)
        if not isinstance(other, PadicCyc) or other.p != self.p:
            raise UsageError("mixed p-adic levels")
        return other

    def _linear(self, other, op) -> "PadicCyc":
        """self op other, op add or sub; the least vcert is within both caps."""
        other = self._coerce(other)
        N = min(self.N, other.N)
        mod, cap = self.p ** N, N * (self.p - 1)
        va, vb = (None if x.val is None else min(x.val, cap) for x in (self, other))
        return PadicCyc._new(self.p, N, tuple([op(a, b) % mod for a, b in zip(
            self.coords, other.coords)]), min(self.vcert, other.vcert),
            None if va is None or vb is None or va == vb else min(va, vb))

    def __add__(self, other):
        return self._linear(other, add)

    def __sub__(self, other):
        return self._linear(other, sub)

    def __mul__(self, other):
        other = self._coerce(other)
        N = min(self.N, other.N)
        cap = N * (self.p - 1)
        # val_lb() >= 0: a term whose factor is at the cap never binds
        vc = min(cap, self.vcert + other.val_lb() if self.vcert < cap else cap,
                 other.vcert + self.val_lb() if other.vcert < cap else cap)
        v = None if self.val is None or other.val is None else min(self.val + other.val, cap)
        return PadicCyc._new(self.p, N, mul_coords(self.coords, other.coords, self.p ** N), vc, v)

    __radd__ = __add__
    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative powers need an inverse")
        # no product by one and no square past the top bit: both leave the result as it is
        out, base = None, self
        while e:
            if e & 1:
                out = base if out is None else out * base
            e >>= 1
            base = base * base if e else base
        return PadicCyc.from_int(self.p, self.N, 1) if out is None else out

    def galois(self, c: int) -> "PadicCyc":
        return PadicCyc(self.p, self.N, galois_coords(self.coords, c), self.vcert, self.val)

    def __repr__(self):
        return f"PadicCyc(p={self.p}, N={self.N}, vcert={self.vcert}, {self.coords})"


# ---------------------------------------------------------------------------
# Hensel lifting and the slope split on coordinates mod p^N (lists are low-degree-first)


def _horner(f, z: tuple, mod: int) -> list:
    """Horner's partial sums of f at z, each mod `mod`: the last is f(z), the others
    the quotient by X - z, high-first."""
    out = [tuple([c % mod for c in f[-1]])]
    for c in reversed(f[:-1]):
        out.append(tuple([(s + t) % mod for s, t in zip(mul_coords(out[-1], z, mod), c)]))
    return out


def _lift_simple_nonzero_root(f, p: int, N: int) -> tuple:
    """Coordinates mod p^N of the Hensel lift of the unique simple nonzero root of
    the residue poly of f, a list of coordinate tuples.

    Reduction mod p^N is a ring map, so these are the coordinates of the same loop
    over PadicCyc; a simple root with a unit derivative is as exact as the least
    exact coefficient (Hensel), so the caller sets the certificate."""
    if N < 1:
        raise PrecisionError("working precision exhausted (N < 1)")
    res = [sum(c) % p for c in f]
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
    # the exact-inverse step count holds: 1 - f'(x) y squares at each step and f(x) gains
    # both factors' precision, so both reach 2^i after i steps (von zur Gathen-Gerhard, ch. 9)
    steps = max(1, math.ceil(math.log2(N * (p - 1)))) + 1
    mod = p ** N
    deriv = [tuple([i * c for c in cs]) for i, cs in enumerate(f) if i >= 1]
    x, y = (r,) + (0,) * (p - 2), (pow(dr, -1, p),) + (0,) * (p - 2)
    fx = _horner(f, x, mod)[-1]
    # f(x) = 0 mod p^N fixes x from there on; y is refreshed only for a next step
    for i in range(steps):
        if not any(fx):
            break
        if i:
            dy = mul_coords(_horner(deriv, x, mod)[-1], y, mod)
            y = mul_coords(y, (2 - dy[0], *[-c for c in dy[1:]]), mod)
        x = tuple([(s - t) % mod for s, t in zip(x, mul_coords(fx, y, mod))])
        fx = _horner(f, x, mod)[-1]
    if any(fx):
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
    root = _lift_simple_nonzero_root([c.coords for c in reversed(coeffs)], p, N)
    if sum(root) % p != 1:
        raise DegenerateFactorError(
            f"unit root has residue {sum(root) % p} != 1, not a 1-unit")
    return PadicCyc._new(p, N, root, N * (p - 1), 0)


def slope_split(factor_coeffs, a: int, d: int, N: int) -> list:
    """Split a local factor into eigenvalues pi_j = p^(a d j) * unit, each at its cap.

    Requires the exact coefficient valuations pi-val(a_i) = (p-1) a d i(i-1)/2;
    any other shape is reported as SlopeFindingError with the witness index.
    Eigenvalue 0 is ``hensel_unit_root`` of E(X) mod p^M, the one lift and 1-unit
    test of every p-adic mode.  Round j = 1..n deflates E by X - u, u the last
    root, rescales X -> p^(a d) X, dividing the quotient's coefficient of
    X^(deg-1-i) by p^(a d i), and lifts again mod p^M, M lowered by a d (deg - 1);
    eigenvalue j keeps N + 2 + a d ((n-j)(n-j+1)/2 + j) > N digits.
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
    M = N + ad * n * (n + 1) // 2 + 2
    f = [c.coords for c in reversed(coeffs)]  # E(X), low-first
    eigenvalues = [hensel_unit_root(coeffs, M)]
    u = eigenvalues[0].coords
    for j in range(1, n + 1):
        # the lift stopped once f(u) = 0 mod p^M, in this same pass: no remainder
        quot = _horner(f, u, p ** M)[:-1]
        for i, c in enumerate(quot):
            if any(x % p ** (ad * i) for x in c):
                raise PrecisionError(f"representative not divisible by p^{ad * i}")
        # the next lift reads these mod p^M only, and refuses an M below 1
        f = [tuple([x // p ** (ad * i) for x in c]) for i, c in enumerate(quot)][::-1]
        M -= ad * (len(quot) - 1)
        u = _lift_simple_nonzero_root(f, p, M)
        eigenvalues.append(PadicCyc._new(p, M + ad * j, tuple([c * p ** (ad * j) for c in u]),
                                         (M + ad * j) * (p - 1), ad * j * (p - 1)))
    return eigenvalues


# ---------------------------------------------------------------------------
# 1-unit powers


def one_unit_power(u: PadicCyc, kappa: PadicExponent, V: int, wmax: int = 0) -> list:
    """[u^(kappa - s) for s = 0..wmax] for a 1-unit u, each certified.

    The sizes run from s = wmax down, so r = kappa - s goes up by one.  An
    exact r >= 0 is a plain power, from u^2 on one product from u^(r-1).  Any
    other r is S(r), the sum of C(r, l) x^l over l < L, x = u - 1, L the least
    with L v(x) >= V, on coordinates mod p^N; Pascal's rule gives (1 + x)
    S(r-1) = S(r) + C(r-1, L-1) x^L, so each S(r) is one product from S(r-1).
    S(r) is summed afresh only at the first such size and where a truncated
    kappa's r wraps to 0, by Paterson-Stockmeyer (SIAM J. Comput. 2, 1973):
    x^i for i <= m = ceil(sqrt L), then Horner in x^m over blocks of m terms,
    about 2 sqrt(L) products.  Its certificate is V capped by u's own, the
    working modulus and (for truncated exponents) the digit supply; (u-1)^l is
    certified at least as well as u, so no term's certificate bounds it further.
    """
    p, N = u.p, u.N
    if kappa.p != p:
        raise UsageError("exponent and base have different p")
    um1 = u - 1
    v1 = um1.val_lb()  # >= 1 exactly when u = 1 mod pi, as u.vcert >= 1
    if v1 < 1:
        raise DegenerateFactorError("base of one_unit_power must be a 1-unit")
    L, cert = max(1, -(-V // v1)), min(V, u.vcert, N * (p - 1))
    if not kappa.is_exact:
        fact_ord = 0
        for l in range(1, L):
            fact_ord += ord_p(p, l)
            cert = min(cert, (p - 1) * max(0, kappa.ndigits - fact_ord) + l * v1)
    mod, m, x = p ** N, math.isqrt(L - 1) + 1, um1.coords
    # x^0..x^m and x^L only when some kappa - s is not a plain power
    if not kappa.is_exact or kappa.rep < wmax:
        pw = [(1,) + (0,) * (p - 2), x]
        while len(pw) <= m:
            pw.append(mul_coords(pw[-1], x, mod))
        columns, x_L = list(zip(*pw[:m])), (um1 ** L).coords
    out = []
    for s in range(wmax, -1, -1):
        r = kappa.minus_int(s).rep
        if kappa.is_exact and r >= 0:
            out.append(out[-1] * u if r > 1 and s < wmax else u ** r)
            continue
        if s < wmax and r:  # out[-1] is S(r - 1)
            c = math.comb(r - 1, L - 1) if r > 0 else (-1) ** (L - 1) * math.comb(L - r - 1, L - 1)
            acc = [a - c * b for a, b in zip(mul_coords(u.coords, out[-1].coords, mod), x_L)]
        else:
            bs = [1]
            for l in range(1, L):
                bs.append(bs[-1] * (r - l + 1) // l)
            acc = (0,) * (p - 1)
            for j in reversed(range(0, L, m)):  # Horner in x^m from the top block down
                acc = mul_coords(acc, pw[m], mod) if j + m < L else acc
                acc = [a + sum(map(mul, bs[j:j + m], col)) for a, col in zip(acc, columns)]
        out.append(PadicCyc(p, N, acc, cert, 0))
    return out[::-1]
