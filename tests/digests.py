"""The table of pinned report digests (``digests.txt``) and its one digest rule.

A report's digest is the SHA-256 of its canonical body: the JSON report
without ``timing``, keys sorted, compact separators.  This is the rule of
``perfbench/run.py``'s ``report_digest``.

As a script, with the ``klsym`` package importable::

    python tests/digests.py reach               # run every reach row
    python tests/digests.py tables              # the n >= 3 reach rows' K tables
    python tests/digests.py check REPORT ARGV   # check one report file

``reach`` runs each reach row as ``python -m klsym.cli`` with a 60 s timeout,
so no entry point need be installed, and prints its argv, digest and wall
seconds before it checks the row; a last line gives the rows run, the failures
and the total wall seconds.
``tables`` runs the reach rows with n >= 3 in this process, with no sum cache,
and checks each report's digest; then ``oracles.check_table_identities`` on
every level ``expsum._level`` stored and on every whole K_n their sums read
(``oracles.read_table``), leaving out a K_n of more than TABLE_READS reads.
It prints each row's and each check's wall seconds, then a last line.
``check`` compares a report that the caller produced with the row of that
argv.  Each exits 1 when a row or a check fails.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

TABLE = Path(__file__).with_name("digests.txt")
TIERS = ("fast", "reach")
REACH_TIMEOUT_S = 60
# p S^2, the reads of a whole K_n: about 2 s on a 2-core host at 1.2e9 (K_3 over
# F_(5^6)); K_3 over F_(3^10), 1.05e10 reads, takes about 26 s and is left out
TABLE_READS = 2 * 10**9


class Row(NamedTuple):
    digest: str   # "-": the run writes no report
    code: int
    tier: str
    argv: str


def canonical(report: dict) -> str:
    """The report body a digest hashes: sorted, compact JSON without ``timing``."""
    body = {key: val for key, val in report.items() if key != "timing"}
    return json.dumps(body, sort_keys=True, separators=(",", ":"))


def digest(report: dict) -> str:
    return hashlib.sha256(canonical(report).encode("ascii")).hexdigest()


def rows(tier=None) -> list:
    """The table's rows, in file order, those of ``tier`` alone when given."""
    table, seen = [], set()
    for lineno, line in enumerate(TABLE.read_text(encoding="ascii").splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        pin, code, row_tier, *words = line.split()
        argv = " ".join(words)
        ok = ((pin == "-" or (len(pin) == 64 and set(pin) <= set("0123456789abcdef")))
              and code.isdigit() and row_tier in TIERS and words and argv not in seen)
        if not ok:
            raise ValueError(f"{TABLE.name}:{lineno}: bad or repeated row {line!r}")
        seen.add(argv)
        table.append(Row(pin, int(code), row_tier, argv))
    return [row for row in table if tier in (None, row.tier)]


def pinned(argv: str) -> str:
    """The pinned digest of the row whose argv is ``argv``; KeyError if none."""
    for row in rows():
        if row.argv == argv:
            return row.digest
    raise KeyError(f"no row {argv!r} in {TABLE.name}")


def _report_digest(path) -> str:
    path = Path(path)
    if not path.exists():
        return "-"
    return digest(json.loads(path.read_text(encoding="ascii")))


def run_reach() -> bool:
    failures, total = 0, 0.0
    reach = rows("reach")
    with tempfile.TemporaryDirectory() as tmp:
        for i, row in enumerate(reach):
            out = Path(tmp) / f"report-{i}.json"
            t0 = time.perf_counter()
            try:
                code = subprocess.run([sys.executable, "-m", "klsym.cli", *row.argv.split(),
                                       "--out", str(out)], timeout=REACH_TIMEOUT_S).returncode
            except subprocess.TimeoutExpired:
                code = f"none (killed after {REACH_TIMEOUT_S} s)"
            got = _report_digest(out)
            seconds = time.perf_counter() - t0
            total += seconds
            print(f"{row.argv}  {got}  {seconds:.2f} s", flush=True)
            if (code, got) != (row.code, row.digest):
                print(f"FAIL {row.argv}: exit {code}, digest {got}; pinned exit "
                      f"{row.code}, digest {row.digest}", file=sys.stderr)
                failures += 1
    print(f"reach: {len(reach)} rows, {failures} failed, {total:.2f} s", flush=True)
    return not failures


def run_tables() -> bool:
    import oracles
    from klsym import expsum
    from klsym.cli import CACHE_ENV, console_main, parse

    os.environ.pop(CACHE_ENV, None)  # every sum a row needs runs
    stored, read = set(), set()
    level, direct_sum = expsum._level, expsum._direct_sum
    expsum._level = lambda field, m: stored.add((field, m)) or level(field, m)
    expsum._direct_sum = lambda n, field, t: read.add((field, n)) or direct_sum(n, field, t)
    failures, checks, left_out, t_start = 0, 0, 0, time.perf_counter()
    big = [row for row in rows("reach") if getattr(parse(row.argv.split()), "n", 1) >= 3]
    try:
        with tempfile.TemporaryDirectory() as tmp:
            for i, row in enumerate(big):
                out = Path(tmp) / f"report-{i}.json"
                t0 = time.perf_counter()
                with contextlib.redirect_stdout(io.StringIO()):
                    code = console_main(row.argv.split() + ["--out", str(out)])
                got = _report_digest(out)
                print(f"{row.argv}  {got}  {time.perf_counter() - t0:.2f} s", flush=True)
                if (code, got) != (row.code, row.digest):
                    print(f"FAIL {row.argv}: exit {code}, digest {got}; pinned exit "
                          f"{row.code}, digest {row.digest}", file=sys.stderr)
                    failures += 1
        for kind, builder, found in (("level", oracles.stored_table, stored),
                                     ("read", oracles.read_table, read)):
            for field, m in sorted(found, key=lambda t: (t[0].p, t[0].k, t[1])):
                name = f"{kind} K_{m} over F_({field.p}^{field.k})"
                reads = field.p * (field.size - 1) ** 2
                if kind == "read" and reads > TABLE_READS:
                    print(f"{name}  left out: {reads} reads, past {TABLE_READS}", flush=True)
                    left_out += 1
                    continue
                t0 = time.perf_counter()
                try:
                    oracles.check_table_identities(field, m, builder(field, m))
                except AssertionError as exc:
                    print(f"FAIL {name}: {exc}", file=sys.stderr)
                    failures += 1
                checks += 1
                print(f"{name}  {time.perf_counter() - t0:.2f} s", flush=True)
    finally:
        expsum._level, expsum._direct_sum = level, direct_sum
    print(f"tables: {len(big)} rows, {checks} tables checked, {left_out} left out, "
          f"{failures} failed, {time.perf_counter() - t_start:.2f} s", flush=True)
    return not failures


def check(report, argv) -> bool:
    """Whether the report file ``report`` has the digest pinned for ``argv``."""
    got = _report_digest(report)
    print(f"{argv}  {got}", flush=True)
    try:
        want = pinned(argv)
    except KeyError as exc:
        print(f"FAIL {exc.args[0]}", file=sys.stderr)
        return False
    if got != want:
        print(f"FAIL {argv}: digest {got}; pinned {want}", file=sys.stderr)
    return got == want


def main(argv) -> int:
    if argv[:1] == ["reach"] and len(argv) == 1:
        return 0 if run_reach() else 1
    if argv[:1] == ["tables"] and len(argv) == 1:
        return 0 if run_tables() else 1
    if argv[:1] == ["check"] and len(argv) >= 3:
        return 0 if check(argv[1], " ".join(argv[2:])) else 1
    print(__doc__, file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
