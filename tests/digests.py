"""The table of pinned report digests (``digests.txt``) and its one digest rule.

A report's digest is the SHA-256 of its canonical body: the JSON report
without ``timing``, keys sorted, compact separators.  This is the rule of
``perfbench/run.py``'s ``report_digest``.

As a script, with the ``klsym`` package importable::

    python tests/digests.py reach               # run every reach row
    python tests/digests.py check REPORT ARGV   # check one report file

``reach`` runs each reach row as ``python -m klsym.cli`` with a 60 s timeout,
so no entry point need be installed, and prints its argv, digest and wall
seconds before it checks the row; a last line gives the rows run, the failures
and the total wall seconds.
``check`` compares a report that the caller produced with the row of that
argv.  Both exit 1 when a row fails.
"""

import hashlib
import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

TABLE = Path(__file__).with_name("digests.txt")
TIERS = ("fast", "reach")
REACH_TIMEOUT_S = 60


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
    if argv[:1] == ["check"] and len(argv) >= 3:
        return 0 if check(argv[1], " ".join(argv[2:])) else 1
    print(__doc__, file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
