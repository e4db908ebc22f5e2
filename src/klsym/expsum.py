"""Hyper-Kloosterman sums Kl_n(t, m), exact in Z[zeta_p].

Kl_n(t, m) sums zeta_p^(absolute trace of x_1 + ... + x_n + t/(x_1...x_n))
over n-tuples of nonzero elements of the m-th extension of t's field, by
direct enumeration in discrete-log coordinates: the last variable is
closed by an index lookup of t/prod x, so inner loops touch only small
integers.  The lookups are rows of a per-field window table, and one numpy
pass counts the phases of a block of rows, one row per value of x_(n-1).
Values are memoised in an append-only, versioned text cache keyed by every
parameter that pins the tower, so distinct moduli never alias; a record
spells its lists and its value in ``cyclo``'s one integer-list text.
"""

from __future__ import annotations

import contextlib
import fcntl
import itertools
import os
import shutil
import threading
from functools import cache

import numpy as np

from .cyclo import CycInt, format_int_list, parse_int_list
from .errors import CacheError, ResourceError, UsageError
from .ff import ClosedPoint, Field, _mult_data, embed, make_field

DEFAULT_BUDGET = 2_000_000


# elements per numpy pass: large enough that the per-pass overhead of n >= 2
# sums vanishes, small enough that a pass stays in cache
BLOCK = 1 << 15


@cache
def _windows(field: Field):
    """The window table of a field: row r is tr[(S-1-r-i) mod S] over i < S.

    Its S + 1 rows are contiguous int64 views into one reversed trace array
    of length 2S, so a run of consecutive rows is one 2-D slice.  Built on a
    field's first sum, once per process.
    """
    rev = _mult_data(field).tr[::-1]
    flat = np.concatenate([rev, rev])
    return np.ndarray((len(rev) + 1, len(rev)), flat.dtype, flat, strides=flat.strides * 2)


def _direct_sum(n: int, field: Field, t) -> CycInt:
    """Flat enumeration of the n-fold sum at a nonzero element t.

    With t = g^e and x_i = g^(a_i), the last variable x_n = g^i leaves
    t/(x_1...x_n) = g^(e - a_1 - ... - a_(n-1) - i), whose traces over
    i < S are row (a_1 + ... + a_(n-1) - e - 1) mod S of the window table.
    Each pass takes the rows of a block of up to max(1, BLOCK // S) values
    of x_(n-1), adds tr[i] along them and the prefix trace of each row as a
    column, and counts the phases with one bincount; a block whose rows pass
    S reads its last rows from the top of the table.  At n = 1 a pass is the
    single row of t.  Memory stays within a few blocks, whatever S^n is.
    """
    p = field.p
    md = _mult_data(field)
    S, tr = md.S, md.tr
    win = _windows(field)
    e = int(md.dlog[field.to_int(t)])
    size = (n + 1) * p
    if n == 1:
        counts = np.bincount(tr + win[(-1 - e) % S], minlength=size)
        return CycInt.from_powers(p, enumerate(counts))
    rows = max(1, BLOCK // S)
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
    """Append-only line cache of computed sums; safe for concurrent use."""

    def __init__(self, path):
        self.path = str(path)
        self._mem: dict[tuple, CycInt] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.torn = 0
        self._load()

    def _lines(self):
        """(line number, line) for each newline-terminated record line, and
        whether text follows the last newline.

        That text is a write cut short: it is skipped here and cut off by
        the next append.  A non-ASCII byte reads as one lone surrogate, so
        offsets stay byte offsets and parse_record rejects its line.
        """
        with open(self.path, "r", encoding="ascii", errors="surrogateescape",
                  newline="") as fh:
            text = fh.read()
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

    def put(self, key: tuple, value: CycInt):
        with self._lock:
            old = self._mem.get(key)
            if old is not None:
                if old != value:
                    raise CacheError(f"conflicting value for cached key {key_text(key)}")
                return
            self._mem[key] = value
            line = record_line(key, value).encode("ascii")
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
    """Evaluates Kl_n over a fixed base field with caching and budgets."""

    def __init__(self, base: Field, cache: SumCache | None = None,
                 budget: int = DEFAULT_BUDGET):
        self.base = base
        self.cache = cache
        self.budget = budget

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
                f"sum over (F_{big.size})^{n} needs {S}^{n} steps, budget {self.budget}"
            )
        value = _direct_sum(n, big, embed(point.field, big, point.rep))
        if self.cache is not None:
            self.cache.put(key, value)
        return value

