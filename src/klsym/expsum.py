"""Hyper-Kloosterman sums Kl_n(t, m), exact in Z[zeta_p].

Kl_n(t, m) sums zeta_p^(absolute trace of x_1 + ... + x_n + t/(x_1...x_n))
over n-tuples of nonzero elements of the m-th extension of t's field, by
direct enumeration in discrete-log coordinates: the last variable is
closed by an index lookup of t/prod x, so inner loops touch only small
integers.  Values are memoised in an append-only, versioned text cache
keyed by every parameter that pins the tower, so distinct moduli never
alias.
"""

from __future__ import annotations

import itertools
import os
import shutil
import threading

import numpy as np

from .cyclo import CycInt
from .errors import CacheError, ResourceError, UsageError
from .ff import ClosedPoint, Field, _mult_data, embed, make_field

DEFAULT_BUDGET = 2_000_000


def _direct_sum(n: int, field: Field, t) -> CycInt:
    """Flat enumeration of the n-fold sum at a nonzero element t."""
    p = field.p
    md = _mult_data(field)
    S, tr, trD = md.S, md.tr, md.trD
    it = int(md.dlog[field.to_int(t)])
    # per prefix x_1..x_(n-1), one vectorised pass over x_n and t/(x_1...x_n)
    counts = np.zeros((n + 1) * p, dtype=np.int64)
    for prefix in itertools.product(range(S), repeat=n - 1):
        c = sum(int(tr[j]) for j in prefix)
        b = (it - sum(prefix)) % S + S
        phases = c + tr + trD[b - S + 1 : b + 1][::-1]
        counts += np.bincount(phases, minlength=(n + 1) * p)
    return CycInt.from_powers(p, enumerate(counts))


# ---------------------------------------------------------------------------
# persistent cache

CACHE_HEADER = "# klsym sum cache v1"


def _fmt_ints(values) -> str:
    return "[%s]" % ",".join(str(v) for v in values)


def _parse_ints(text: str):
    if not (text.startswith("[") and text.endswith("]")):
        raise ValueError(f"malformed integer list: {text!r}")
    inner = text[1:-1]
    return tuple(int(s) for s in inner.split(",")) if inner else ()


def record_key(p: int, a: int, modulus, n: int, d: int, rep, m: int) -> str:
    return "%d,%d,%s|%d|%d|%s|%d" % (p, a, _fmt_ints(modulus), n, d, _fmt_ints(rep), m)


def parse_key(key: str):
    """(p, a, modulus, n, d, rep, m) from a record key; ValueError if malformed."""
    head, n, d, rep, m = key.split("|")
    fields = head.split(",", 2)
    if len(fields) != 3:
        raise ValueError("field descriptor needs p,a,[modulus]")
    p, a, modulus = fields
    return (int(p), int(a), _parse_ints(modulus),
            int(n), int(d), _parse_ints(rep), int(m))


def parse_record(line: str):
    """Split a cache line into (key, value); raise CacheError when invalid."""
    parts = line.split("|")
    if len(parts) != 7 or parts[0] != "v1":
        raise CacheError(f"unrecognised record shape: {line!r}")
    try:
        p, a, modulus, n, d, rep, m = parse_key("|".join(parts[1:6]))
        value = CycInt.deserialize(parts[6])
    except (ValueError, UsageError) as exc:
        raise CacheError(f"corrupt record {line!r}: {exc}") from exc
    if min(a, n, d, m) < 1 or value.p != p:
        raise CacheError(f"inconsistent record: {line!r}")
    if len(modulus) != a + 1 or modulus[-1] != 1:
        raise CacheError(f"modulus is not monic of degree a: {line!r}")
    if len(rep) != a * d:
        raise CacheError(f"representative has wrong length: {line!r}")
    key = record_key(p, a, modulus, n, d, rep, m)
    return key, value


class SumCache:
    """Append-only line cache of computed sums; safe for concurrent use."""

    def __init__(self, path):
        self.path = str(path)
        self._mem: dict[str, CycInt] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.torn = 0
        self._torn_at = None
        self._load()

    def _lines(self):
        """(line number, line) for each newline-terminated record line.

        Text after the last newline is a write cut short: it is skipped,
        counted in torn, and cut off before the next append.  A non-ASCII
        byte reads as one lone surrogate, so offsets stay byte offsets and
        parse_record rejects its line.
        """
        with open(self.path, "r", encoding="ascii", errors="surrogateescape",
                  newline="") as fh:
            text = fh.read()
        end = text.rfind("\n") + 1
        if end < len(text) and self._torn_at is None:
            self.torn += 1
            self._torn_at = end
        return [(lineno, line)
                for lineno, line in enumerate(text[:end].splitlines(), start=1)
                if line and not line.startswith("#")]

    def _load(self):
        try:
            lines = self._lines()
        except FileNotFoundError:
            with open(self.path, "w", encoding="ascii") as fh:
                fh.write(CACHE_HEADER + "\n")
            return
        for lineno, line in lines:
            try:
                key, value = parse_record(line)
            except CacheError as exc:
                raise CacheError(f"{self.path}:{lineno}: {exc}") from None
            old = self._mem.get(key)
            if old is not None and old != value:
                raise CacheError(f"{self.path}:{lineno}: conflicting duplicate for {key}")
            self._mem[key] = value

    def __len__(self):
        return len(self._mem)

    def get(self, key: str):
        with self._lock:
            value = self._mem.get(key)
            if value is None:
                self.misses += 1
            else:
                self.hits += 1
            return value

    def put(self, key: str, value: CycInt):
        with self._lock:
            old = self._mem.get(key)
            if old is not None:
                if old != value:
                    raise CacheError(f"conflicting value for cached key {key}")
                return
            self._mem[key] = value
            if self._torn_at is not None:
                os.truncate(self.path, self._torn_at)
                self._torn_at = None
            with open(self.path, "a", encoding="ascii") as fh:
                fh.write(f"v1|{key}|{value.serialize()}\n")

    def records(self):
        """(line number, key, value) triples in file order, revalidating."""
        return [(lineno, *parse_record(line)) for lineno, line in self._lines()]

    def compact(self):
        """Rewrite the file keeping the first occurrence of each key, through a
        file beside it and one os.replace: a crash leaves the old cache whole."""
        kept = []
        seen = set()
        for _, key, value in self.records():
            if key in seen:
                continue
            seen.add(key)
            kept.append((key, value))
        with self._lock:
            tmp = f"{self.path}.{os.getpid()}.tmp"
            with open(tmp, "w", encoding="ascii") as fh:
                try:
                    fh.write(CACHE_HEADER + "\n")
                    for key, value in kept:
                        fh.write(f"v1|{key}|{value.serialize()}\n")
                    fh.flush()
                    os.fsync(fh.fileno())
                except BaseException:
                    os.unlink(tmp)
                    raise
            shutil.copymode(self.path, tmp)
            os.replace(tmp, self.path)
            self._torn_at = None
        return len(kept)


# ---------------------------------------------------------------------------


class KloostermanEvaluator:
    """Evaluates Kl_n over a fixed base field with caching and budgets."""

    def __init__(self, base: Field, cache: SumCache | None = None,
                 budget: int = DEFAULT_BUDGET):
        self.base = base
        self.cache = cache
        self.budget = budget

    def _key(self, n: int, point: ClosedPoint, m: int) -> str:
        return record_key(
            self.base.p, self.base.k, self.base.modulus,
            n, point.degree, point.rep, m,
        )

    def kloosterman(self, n: int, point: ClosedPoint, m: int) -> CycInt:
        """Exact Kl_n(t, m) at a closed point t of the base torus."""
        if n < 1 or m < 1:
            raise UsageError("need n >= 1 and m >= 1")
        if point.base != self.base:
            raise UsageError("point does not belong to this base field")
        key = self._key(n, point, m)
        if self.cache is not None:
            hit = self.cache.get(key)
            if hit is not None:
                return hit
        big = make_field(self.base.p, point.field.k * m)
        S = big.size - 1
        # S >= 2, so S^n > budget once n reaches the budget's bit length
        if n >= self.budget.bit_length() or S**n > self.budget:
            raise ResourceError(
                f"sum over (F_{big.size})^{n} needs {S}^{n} steps, budget {self.budget}"
            )
        value = _direct_sum(n, big, embed(point.field, big, point.rep))
        if self.cache is not None:
            self.cache.put(key, value)
        return value

    def sums_for_factor(self, n: int, point: ClosedPoint):
        """Kl_n(t, m) for m = 1..n+1, the inputs of one local factor."""
        return [self.kloosterman(n, point, m) for m in range(1, n + 2)]
