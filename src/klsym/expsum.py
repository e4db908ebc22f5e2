"""Hyper-Kloosterman sums Kl_n(t, m), exact in Z[zeta_p].

Kl_n(t, m) sums zeta_p^(absolute trace of x_1 + ... + x_n + t/(x_1...x_n))
over n-tuples of nonzero elements of the m-th extension of t's field.  At
t = g^e it is row e of K_n, where row e of K_m counts the (m+1)-tuples of
nonzero elements with product g^e by the trace of their sum.  K_m is K_(m-1)
read along every row (the Mellin view of Katz 1988), so a sum reads a
per-field table of K_(n-1) in about p S steps, S = |F^*|.  A level is
stored, 16 S p bytes, only where its rows' p counts are fewer than their
S^m phases: K_0, and K_1 over a prime field, are read as phases by bincount.
Values are memoised in an append-only, versioned text cache keyed by every
parameter that pins the tower, so distinct moduli never alias; a record
spells its lists and its value in ``cyclo``'s one integer-list text.
"""

from __future__ import annotations

import contextlib
import fcntl
import os
import shutil
import threading
from functools import cache

import numpy as np

from .cyclo import CycInt, format_int_list, parse_int_list
from .errors import CacheError, ResourceError, UsageError
from .ff import ClosedPoint, Field, _mult_data, embed, make_field

DEFAULT_BUDGET = 2_000_000


# elements per numpy pass while a table is built, few enough to stay in cache
BLOCK = 1 << 15

# bytes the stored levels of one sum may hold; its gather table and a read
# hold 16 S p more, so a sum peaks within twice this
TABLE_BYTES = 1 << 27


@cache
def _windows(field: Field):
    """K_0's window table: row r is tr[(S-1-r-i) mod S] over i < S, a view."""
    rev = _mult_data(field).tr[::-1]
    flat = np.concatenate([rev, rev])
    return np.ndarray((len(rev) + 1, len(rev)), flat.dtype, flat, strides=flat.strides * 2)


@cache
def _level(field: Field, m: int):
    """A stored K_m's window table: row r is rows (S-1-r-i) mod S of K_m over
    i < S, a view; K_m is built in passes of up to BLOCK elements.  A sum at
    n first asks for K_(n-1), so one whose stored levels would pass
    TABLE_BYTES is refused here, before any table."""
    S, p = field.size - 1, field.p
    tables = 16 * S * p * sum(S**j > p for j in range(1, m + 1))
    if tables > TABLE_BYTES:
        raise ResourceError(f"sum over (F_{field.size})^{m + 1} needs {tables >> 20} MiB of"
                            f" tables, past {TABLE_BYTES >> 20} MiB")
    rev = np.empty((2 * S, p), dtype=np.int64)  # rows r and S+r are row S-1-r of K_m
    rows = max(1, BLOCK // (S if m == 1 else S * p))  # a row is S phases, or p S reads
    for a in range(0, S, rows):
        b = min(a + rows, S)
        rev[a:b] = _rows(field, m, slice(a, b)).reshape(b - a, -1, p).sum(axis=1)
    rev[S:] = rev[:S]
    flat = rev.ravel()
    step = flat.strides[0]
    return np.ndarray((S + 1, S * p), flat.dtype, flat, strides=(step * p, step))


@cache
def _gather(field: Field):
    """Entry (c, i) is the place of phase c - tr[i] mod p in row i of a K_m window."""
    md = _mult_data(field)
    return np.arange(md.S) * field.p + (np.arange(field.p)[:, None] - md.tr) % field.p


def _rows(field: Field, m: int, r):
    """Rows S-1-r of K_m (r an int or a slice) as phase counts, p a row, or 2p
    and flat from K_0.  Row e reads x_(m+1) = g^i and row e-i of K_(m-1) over
    i < S, which is window row S-1-e: K_0's by one bincount of tr[i] + tr[e-i],
    a block's rows 2p apart, a stored level shifted by tr[i] through _gather,
    K_1 over a prime field (3p a row) by a bincount of K_1's rows e-i, window
    rows S-1-e+i, shifted by tr[i], per block of i."""
    md = _mult_data(field)
    S, p = md.S, field.p
    if m == 1:
        phases = _windows(field)[r] + md.tr
        h = phases.size // S
        if h > 1:
            phases += np.arange(0, h * 2 * p, 2 * p)[:, None]
        return np.bincount(phases.ravel(), minlength=h * 2 * p)
    if S ** (m - 1) > p:
        return np.take(_level(field, m - 1)[r], _gather(field), axis=-1).sum(axis=-1)
    w = np.arange(S)[r]
    if w.ndim:  # a block of rows of a stored K_2, one at a time
        return np.concatenate([_rows(field, m, e) for e in w.tolist()])
    win, shift = _windows(field), np.roll(md.tr, w)  # window row w+i, shifted by tr[i]
    counts = np.zeros(3 * p, dtype=np.int64)
    rows = max(1, BLOCK // S)
    buf = np.empty((min(rows, S), S), dtype=np.int64)
    for a in range(0, S, rows):
        b = min(a + rows, S)
        phases = np.add(win[a:b], md.tr, out=buf[: b - a])
        phases += shift[a:b, None]
        counts += np.bincount(phases.ravel(), minlength=3 * p)
    return counts


def _direct_sum(n: int, field: Field, t) -> CycInt:
    """Kl_n at a nonzero element t = g^e of the field: row e of K_n."""
    md = _mult_data(field)
    r = md.S - 1 - int(md.dlog[field.to_int(t)])
    return CycInt.from_powers(field.p, enumerate(_rows(field, n, r).tolist()))


# ---------------------------------------------------------------------------
# persistent cache

CACHE_HEADER = "# klsym sum cache v1"


def key_text(key) -> str:
    """The text of a key (p, a, modulus, n, d, rep, m), as its record spells it."""
    p, a, modulus, n, d, rep, m = key
    return "%d,%d,%s|%d|%d|%s|%d" % (p, a, format_int_list(modulus), n, d, format_int_list(rep), m)


def record_line(key, value: CycInt) -> str:
    """The cache line of one record: v1|p,a,[modulus]|n|d|[rep]|m|value."""
    return f"v1|{key_text(key)}|{value.serialize()}\n"


def parse_record(line: str):
    """Split a cache line into ((p, a, modulus, n, d, rep, m), value); raise
    CacheError when invalid.  Any spelling of the same integers is one key."""
    parts = line.split("|")
    if len(parts) != 7 or parts[0] != "v1":
        raise CacheError(f"unrecognised record shape: {line!r}")
    _, head, n, d, rep, m, value = parts
    try:
        fields = head.split(",", 2)
        if len(fields) != 3:
            raise ValueError("field descriptor needs p,a,[modulus]")
        p, a, modulus = int(fields[0]), int(fields[1]), parse_int_list(fields[2])
        n, d, rep, m = int(n), int(d), parse_int_list(rep), int(m)
        value = CycInt.deserialize(value)
    except (ValueError, UsageError) as exc:
        raise CacheError(f"corrupt record {line!r}: {exc}") from exc
    if min(a, n, d, m) < 1 or value.p != p:
        raise CacheError(f"inconsistent record: {line!r}")
    if len(modulus) != a + 1 or modulus[-1] != 1:
        raise CacheError(f"modulus is not monic of degree a: {line!r}")
    if len(rep) != a * d:
        raise CacheError(f"representative has wrong length: {line!r}")
    return (p, a, modulus, n, d, rep, m), value


class SumCache:
    """Append-only line cache of sums, safe for concurrent use: flush appends what hold keeps."""

    def __init__(self, path):
        self.path = str(path)
        self._mem: dict[tuple, CycInt] = {}
        self._held: list[str] = []
        self._lock = threading.Lock()
        self.hits = self.misses = self.torn = 0
        self._load()

    def _lines(self):
        """(line number, line) for each newline-terminated record line, and
        whether text follows the last newline.

        That text is a write cut short: it is skipped here and cut off by
        the next append.  A non-ASCII byte reads as one lone surrogate, so
        offsets stay byte offsets and parse_record rejects its line.
        """
        with open(self.path, "rb") as fh:
            text = fh.read().decode("ascii", "surrogateescape")
        end = text.rfind("\n") + 1
        return [(lineno, line)
                for lineno, line in enumerate(text[:end].splitlines(), start=1)
                if line and not line.startswith("#")], end < len(text)

    @contextlib.contextmanager
    def _locked(self):
        """A descriptor on the cache file under an exclusive flock.

        compact swaps a new file in under the lock, so a writer that waited
        on the old file reopens the path until it holds the file it names.
        """
        while True:
            fd = os.open(self.path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o666)
            try:
                fcntl.flock(fd, fcntl.LOCK_EX)
                try:
                    held = os.path.samestat(os.fstat(fd), os.stat(self.path))
                except FileNotFoundError:
                    held = False
                if held:
                    yield fd
                    return
            finally:
                os.close(fd)

    def _load(self):
        try:
            lines, torn = self._lines()
        except FileNotFoundError:
            # the first append creates the file; read one another writer made since
            return self._load() if os.path.exists(self.path) else None
        self.torn += torn
        for lineno, line in lines:
            try:
                key, value = parse_record(line)
            except CacheError as exc:
                raise CacheError(f"{self.path}:{lineno}: {exc}") from None
            old = self._mem.get(key)
            if old is not None and old != value:
                raise CacheError(
                    f"{self.path}:{lineno}: conflicting duplicate for {key_text(key)}")
            self._mem[key] = value

    def __len__(self):
        return len(self._mem)

    def get(self, key: tuple):
        with self._lock:
            value = self._mem.get(key)
            if value is None:
                self.misses += 1
            else:
                self.hits += 1
            return value

    def hold(self, key: tuple, value: CycInt):
        with self._lock:
            old = self._mem.get(key)
            if old is not None:
                if old != value:
                    raise CacheError(f"conflicting value for cached key {key_text(key)}")
                return
            self._mem[key] = value
            self._held.append(record_line(key, value))

    def flush(self):
        with self._lock:
            if not self._held:
                return
            line, self._held = "".join(self._held).encode("ascii"), []
            with self._locked() as fd:
                size = os.fstat(fd).st_size
                if size and os.pread(fd, 1, size - 1) != b"\n":
                    # a writer died mid-record: cut its text after the last newline
                    size = os.pread(fd, size, 0).rfind(b"\n") + 1
                    os.ftruncate(fd, size)
                # one write on an O_APPEND descriptor: records never interleave; an
                # empty file gets its header in the same write
                line = line if size else (CACHE_HEADER + "\n").encode("ascii") + line
                if os.write(fd, line) != len(line):
                    raise OSError(f"{self.path}: short write appending a record")

    def put(self, key: tuple, value: CycInt):
        self.hold(key, value)
        self.flush()

    def records(self):
        """(line number, key, value) triples in file order, revalidating."""
        return [(lineno, *parse_record(line)) for lineno, line in self._lines()[0]]

    def compact(self):
        """Rewrite the file keeping the first occurrence of each key, through a
        file beside it and one os.replace: a crash leaves the old cache whole.
        The lock spans the read and the swap, so no append in between is lost."""
        with self._lock, self._locked():
            kept = []
            seen = set()
            for _, key, value in self.records():
                if key in seen:
                    continue
                seen.add(key)
                kept.append((key, value))
            tmp = f"{self.path}.{os.getpid()}.tmp"
            with open(tmp, "w", encoding="ascii") as fh:
                try:
                    fh.write(CACHE_HEADER + "\n")
                    for key, value in kept:
                        fh.write(record_line(key, value))
                    fh.flush()
                    os.fsync(fh.fileno())
                except BaseException:
                    os.unlink(tmp)
                    raise
            shutil.copymode(self.path, tmp)
            os.replace(tmp, self.path)
        return len(kept)


# ---------------------------------------------------------------------------


class KloostermanEvaluator:
    """Evaluates Kl_n over a fixed base field with caching and budgets; the cache
    holds the sums it computes until a ``with`` block on it ends, then appends them."""

    def __init__(self, base: Field, cache: SumCache | None = None,
                 budget: int = DEFAULT_BUDGET):
        self.base = base
        self.cache = cache
        self.budget = budget

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.cache is not None:
            self.cache.flush()

    def kloosterman(self, n: int, point: ClosedPoint, m: int) -> CycInt:
        """Exact Kl_n(t, m) at a closed point t of the base torus."""
        if n < 1 or m < 1:
            raise UsageError("need n >= 1 and m >= 1")
        if point.base != self.base:
            raise UsageError("point does not belong to this base field")
        key = (self.base.p, self.base.k, self.base.modulus, n, point.degree, point.rep, m)
        if self.cache is not None:
            hit = self.cache.get(key)
            if hit is not None:
                return hit
        big = make_field(self.base.p, point.field.k * m)
        S = big.size - 1
        # S >= 2, so S^n > budget once n reaches the budget's bit length
        if n >= self.budget.bit_length() or S**n > self.budget:
            raise ResourceError(
                f"sum over (F_{big.size})^{n} needs {S}^{n} steps, budget {self.budget}")
        if S**n >> 63:  # a row of K_n counts S^n tuples: int64 holds them below 2^63
            raise ResourceError(f"sum over (F_{big.size})^{n} counts {S}^{n} tuples, past int64")
        value = _direct_sum(n, big, embed(point.field, big, point.rep))
        if self.cache is not None:
            self.cache.hold(key, value)
        return value

