"""Command line driver: compute, verify, and compare the L-series.

Reports are JSON documents with a stable schema.  Every number in a
report is exact (integers, or rationals as [numerator, denominator])
except the wall-clock entry under "timing", which also collects run
metadata that must not participate in byte-for-byte comparisons:
worker counts, budgets, cache paths and cache hit statistics.  Values
stay exact (ints, Fractions, tuples) until ``_envelope`` renders the
whole report through ``_jsonable``.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from fractions import Fraction

from . import __version__
from .errors import (
    CacheError,
    FindingError,
    PrecisionError,
    ResourceError,
    UsageError,
)
from .expsum import DEFAULT_BUDGET, KloostermanEvaluator, SumCache, parse_key
from .ff import make_field, orbit_rep, point_field, points_up_to
from .lfun import (
    euler_product,
    local_factor,
    sym_inf_local,
    symk_local,
    unit_root_local,
)
from .padic import PadicExponent
from .polygon import hodge_polygon, lower_hull, newton_points, verify_above, \
    compare_slope_range

SCHEMA = "klsym-report/1"
CACHE_ENV = "KLSYM_CACHE"
MAX_RETRIES = 3

MODES = ("symk", "syminf", "unitroot", "verify-newton-hodge", "compare-slopes")


@dataclass(frozen=True)
class RunConfig:
    """Everything the mathematical content of a run depends on.

    workers, budget and cache_path never change computed values, only
    how fast they arrive; they are echoed in the volatile timing block.
    """

    p: int
    a: int = 1
    n: int = 1
    mode: str = "symk"
    k: int | None = None
    kappa_digits: tuple | None = None
    D: int = 1
    V: int | None = None
    workers: int = 1
    budget: int = DEFAULT_BUDGET
    cache_path: str | None = None


def _validate(config: RunConfig):
    if config.a < 1 or config.n < 1:
        raise UsageError("need a >= 1 and n >= 1")
    if config.D < 0:
        raise UsageError("degree cap D must be nonnegative")
    if config.mode not in MODES:
        raise UsageError(f"unknown mode {config.mode!r}")
    if config.workers < 1:
        raise UsageError("need at least one worker")
    if config.k is not None and config.kappa_digits is not None:
        raise UsageError("give either an integer exponent or digits, not both")
    if config.mode in ("symk", "compare-slopes") and config.k is None:
        raise UsageError(f"mode {config.mode} needs an integer exponent k")
    if config.k is None and config.kappa_digits is None:
        raise UsageError(f"mode {config.mode} needs an exponent")
    if _builds_symk(config) and config.k < 0:
        raise UsageError("k must be nonnegative")
    if config.V is not None and config.V < 1:
        raise UsageError("precision target V must be positive")


def _builds_symk(config: RunConfig) -> bool:
    """An integer exponent builds the exact Sym^k series, but not in p-adic modes."""
    return config.k is not None and config.mode not in ("syminf", "unitroot")


def _kappa(config: RunConfig) -> PadicExponent:
    if config.kappa_digits is not None:
        return PadicExponent.truncated(config.p, config.kappa_digits)
    return PadicExponent.exact(config.p, config.k)


def default_precision(config: RunConfig) -> int:
    """Initial pi-adic target: Hodge height at the degree cap plus slack.

    The Hodge polygon bounds every slope the verdict can depend on, so
    clearing its value at D (in pi units) with a few digits to spare
    settles typical runs on the first attempt; retries double from here.
    """
    hodge = hodge_polygon(config.n, config.p, max(config.D, 1))
    height = hodge.value_at(Fraction(min(config.D, int(hodge.width))))
    digits = int(-(-height.numerator // height.denominator))
    return (config.p - 1) * config.a * (digits + 4)


# ---------------------------------------------------------------------------
# series assembly


def _pmap(fn, items, workers: int):
    if workers <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def local_factors(ev: KloostermanEvaluator, n: int, D: int, workers: int = 1):
    """The exact local factor at every closed point of degree <= D."""
    return _pmap(lambda pt: local_factor(ev, n, pt),
                 points_up_to(ev.base, D), workers)


def series(base, factors, D: int, local, workers: int = 1):
    """Euler product of the local factors of every point of degree <= D.

    local(lf, R) expands the inverse local factor lf at its point to
    T-degree R * degree, as a LocalSeries.  The points of the factors are
    the coverage the product checks, so a run derives them only once.
    """
    return euler_product(base, _pmap(
        lambda lf: local(lf, D // lf.point.degree), factors, workers), D,
        [lf.point for lf in factors])


def series_symk(base, factors, k: int, D: int, workers: int = 1):
    """Exact finite symmetric power L-series truncated at degree D."""
    return series(base, factors, D, lambda lf, R: symk_local(lf, k, R), workers)


def series_syminf(base, factors, kappa: PadicExponent, V: int, D: int,
                  workers: int = 1):
    """Infinite symmetric power L-series to certified precision V."""
    return series(base, factors, D, lambda lf, R: sym_inf_local(
        lf, kappa, V, R, base.k), workers)


# ---------------------------------------------------------------------------
# report rendering


def _jsonable(x):
    """Report JSON from exact values: Fractions as [num, den], tuples as lists."""
    if isinstance(x, Fraction):
        return [x.numerator, x.denominator]
    if isinstance(x, dict):
        return {key: _jsonable(val) for key, val in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(val) for val in x]
    return x


def _field_json(base):
    return {"p": base.p, "a": base.k, "modulus": base.modulus}


def _exponent_json(config: RunConfig):
    if config.kappa_digits is not None:
        return {"kind": "digits", "digits": config.kappa_digits}
    return {"kind": "integer", "value": config.k}


def _series_json(name, gs, points, exponent):
    rows = []
    for cp, c in zip(points, gs.coeffs):
        row = {
            "r": cp.r,
            "exact": cp.exact,
            "ordq": cp.ordq,
        }
        if gs.cert is None:
            row["value"] = gs.integers[cp.r]
        else:
            row["coords"] = c.rep.coords
            row["precision"] = c.N
            row["vcert"] = c.vcert
        rows.append(row)
    return {"name": name, "exponent": exponent, "cert": gs.cert,
            "coefficients": rows}


def _newton_hull_json(points):
    finite = [pt for pt in points if pt.exact and pt.ordq is not None]
    return lower_hull(finite).vertices if finite else []


def write_report(report: dict, out_path: str | None):
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if out_path:
        with open(out_path, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def write_csv(report: dict, csv_path: str):
    """Flat coefficient table, one row per (series, power of T)."""
    with open(csv_path, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["series", "r", "exact", "ordq_num", "ordq_den",
                         "precision", "vcert", "value"])
        for entry in report.get("series", []):
            for row in entry["coefficients"]:
                ordq = row["ordq"]
                num, den = ("", "") if ordq is None else ordq
                if "value" in row:
                    tail = ["", "", row["value"]]
                else:
                    tail = [row["precision"], row["vcert"],
                            ":".join(str(c) for c in row["coords"])]
                writer.writerow([entry["name"], row["r"], row["exact"],
                                 num, den] + tail)


# ---------------------------------------------------------------------------
# run driver


_EXIT_BY_STATUS = {
    "pass": 0,
    "agree": 0,
    "violation": 2,
    "disagree": 2,
    "inconclusive": 3,
}


def _retry_precision(attempt, V0: int):
    """Run attempt(V), doubling V on undecided verdicts up to MAX_RETRIES.

    attempt returns (series, points, verdict); a PrecisionError counts as
    undecided.  Exhausting retries on a PrecisionError re-raises it; an
    undecided verdict on the last attempt is returned as-is so the caller
    can report exactly what is still missing.
    """
    V = V0
    attempts = 0
    while True:
        attempts += 1
        try:
            result = attempt(V)
        except PrecisionError:
            result = None
        if result is not None and result[2].decided:
            return result, V, attempts
        if attempts > MAX_RETRIES:
            if result is None:
                raise PrecisionError(
                    f"undecided after {attempts} attempts up to V={V}")
            return result, V, attempts
        V *= 2


def _envelope(body: dict, t0: float, cache, **timing):
    """A report, JSON-ready: schema header, body, and the volatile timing block."""
    return _jsonable({
        "schema": SCHEMA,
        "tool": {"name": "klsym", "version": __version__},
        **body,
        "timing": {
            "seconds": round(time.perf_counter() - t0, 6),
            **timing,
            "cache": {
                "enabled": cache is not None,
                "hits": cache.hits if cache is not None else 0,
                "misses": cache.misses if cache is not None else 0,
                "records": len(cache) if cache is not None else 0,
                "torn": cache.torn if cache is not None else 0,
            },
        },
    })


def run(config: RunConfig):
    """Execute one run and return (report, exit_code)."""
    t0 = time.perf_counter()
    _validate(config)
    base = make_field(config.p, config.a)
    # the sums at the points of degree max(D, 1) live here; refuse an
    # oversize run before any table is built
    point_field(base, max(config.D, 1) * (config.n + 1))
    # at a point of degree d the Sym^k series takes about (D/d) k^2 products
    if _builds_symk(config) and config.D * config.k ** 2 > config.budget:
        raise ResourceError(
            f"Sym^{config.k} series to degree {config.D} needs "
            f"D*k^2 = {config.D * config.k ** 2} products, budget {config.budget}")
    cache = SumCache(config.cache_path) if config.cache_path else None
    ev = KloostermanEvaluator(base, cache, config.budget)
    a, n, D, mode = config.a, config.n, config.D, config.mode
    exponent = _exponent_json(config)
    hodge = hodge_polygon(n, config.p, max(D, 1))
    body = {
        "config": {
            "p": config.p,
            "a": a,
            "n": n,
            "mode": mode,
            "exponent": exponent,
            "D": D,
            "V": config.V,
        },
        "field": _field_json(base),
        "series": [],
        "polygons": {},
        "verdict": None,
    }
    if mode in ("symk", "syminf", "verify-newton-hodge"):
        body["polygons"]["hodge"] = hodge.vertices

    def add(name, gs, pts):
        body["series"].append(_series_json(name, gs, pts, exponent))
        body["polygons"]["newton_" + name] = _newton_hull_json(pts)

    verdicts = []
    derived = {}
    padic_only = mode in ("syminf", "unitroot")
    kappa = _kappa(config)  # bad digits fail before any sum is computed
    factors = local_factors(ev, n, D, config.workers)
    if _builds_symk(config):
        gs_fin = series_symk(base, factors, config.k, D, config.workers)
        pts_fin = newton_points(gs_fin.coeffs, a)
        add("symk", gs_fin, pts_fin)
        if mode == "verify-newton-hodge":
            verdicts.append(("symk", verify_above(pts_fin, hodge)))

    if mode != "symk":
        V0 = config.V if config.V is not None else default_precision(config)
        # the first attempt takes V0 to N digits over the T weight tuples that
        # sym_inf_weights enumerates at a degree-1 point (1 tuple in unitroot)
        w, N = (V0 - 1) // (a * (config.p - 1)), -(-V0 // (config.p - 1)) + 1
        T = 1 if mode == "unitroot" else math.prod(w // j + 1 for j in range(1, n + 1))
        if T * V0 * N > config.budget:
            raise ResourceError(f"precision V = {V0} needs T*V*N = {T * V0 * N} "
                                f"steps, budget {config.budget}")

        def attempt(V):
            if mode == "unitroot":
                gs = series(base, factors, D, lambda lf, R: unit_root_local(
                    lf, kappa, V, R), config.workers)
            else:
                gs = series_syminf(base, factors, kappa, V, D, config.workers)
            pts = newton_points(gs.coeffs, a, cert=gs.cert)
            if mode == "verify-newton-hodge":
                return gs, pts, verify_above(pts, hodge)
            if mode == "compare-slopes":
                return gs, pts, compare_slope_range(pts_fin, pts, Fraction(config.k))
            return gs, pts, None

        if padic_only:
            (gs, pts, _), V = attempt(V0), V0
        else:
            (gs, pts, v), V, attempts = _retry_precision(attempt, V0)
            verdicts.append(("syminf", v))
            derived.update({"V_initial": V0, "attempts": attempts})
        add("unitroot" if mode == "unitroot" else "syminf", gs, pts)
        derived["V_used"] = V

    if mode == "verify-newton-hodge":
        body["verdict"] = _combine_verdicts(verdicts)
    elif mode == "compare-slopes":
        body["verdict"] = {"status": v.status, "witness": v.witness}
    if derived:
        body["derived"] = derived

    report = _envelope(body, t0, cache, execution={
        "workers": config.workers,
        "budget": config.budget,
        "cache_path": config.cache_path,
    })
    verdict = body["verdict"]
    code = 0 if verdict is None else _EXIT_BY_STATUS[verdict["status"]]
    return report, code


def _combine_verdicts(named):
    """Worst status wins: violation, then inconclusive, then pass."""
    for status in ("violation", "inconclusive"):
        for name, v in named:
            if v.status == status:
                witness = dict(v.witness or {})
                witness["series"] = name
                return {"status": status, "witness": witness}
    return {"status": "pass", "witness": None}


# ---------------------------------------------------------------------------
# small subcommands


def _point_report(args, body, t0, cache=None):
    write_report(_envelope(body, t0, cache), args.out)
    return 0


def _point_evaluator(args):
    """(evaluator, cache, closed point) named by sum/local arguments."""
    base = make_field(args.p, args.a)
    cache = SumCache(args.cache_path) if args.cache_path else None
    field = point_field(base, args.d)
    try:
        pt = orbit_rep(base, field, field.from_int(args.rep_int))
    except ValueError as exc:
        raise UsageError(f"bad point: {exc}") from None
    return KloostermanEvaluator(base, cache, args.budget), cache, pt


def cmd_points(args) -> int:
    t0 = time.perf_counter()
    base = make_field(args.p, args.a)
    if args.D < 0:
        raise UsageError("degree cap D must be nonnegative")
    body = {
        "field": _field_json(base),
        "D": args.D,
        "points": [
            {"degree": pt.degree, "rep": pt.rep, "rep_int": pt.rep_int}
            for pt in points_up_to(base, args.D)
        ],
    }
    return _point_report(args, body, t0)


def cmd_sum(args) -> int:
    t0 = time.perf_counter()
    ev, cache, pt = _point_evaluator(args)
    value = ev.kloosterman(args.n, pt, args.m)
    try:
        as_int = value.as_integer()
    except ValueError:
        as_int = None
    body = {
        "point": {"degree": pt.degree, "rep": pt.rep},
        "n": args.n,
        "m": args.m,
        "value": value.serialize(),
        "integer": as_int,
    }
    return _point_report(args, body, t0, cache)


def cmd_local(args) -> int:
    t0 = time.perf_counter()
    ev, cache, pt = _point_evaluator(args)
    lf = local_factor(ev, args.n, pt)
    slopes = lower_hull(newton_points(lf.coeffs, args.a * pt.degree)).slopes()
    body = {
        "point": {"degree": pt.degree, "rep": pt.rep},
        "n": args.n,
        "coefficients": [c.serialize() for c in lf.coeffs],
        "sign": lf.sign,
        "newton_slopes": slopes,
    }
    return _point_report(args, body, t0, cache)


def cmd_cache(args) -> int:
    t0 = time.perf_counter()
    if args.sample < 0:
        raise UsageError("--sample must be nonnegative")
    cache = SumCache(args.cache_path)
    if args.action == "stat":
        body = {"cache_stat": {"path": args.cache_path, "records": len(cache)}}
        return _point_report(args, body, t0)
    if args.action == "compact":
        kept = cache.compact()
        body = {"cache_compact": {"path": args.cache_path, "kept": kept}}
        return _point_report(args, body, t0)

    # action == "verify": recompute a sample of records from scratch
    checked = []
    bad = []
    for lineno, key, value in cache.records()[: args.sample]:
        p, a, modulus, n, d, rep, m = parse_key(key)
        try:
            base = make_field(p, a, modulus)
            field = point_field(base, d)
            pt = orbit_rep(base, field, field.element(rep))
        # a reducible modulus, or a rep that is zero or in a proper subfield
        except (UsageError, ValueError):
            ok = False
        else:
            fresh = KloostermanEvaluator(base, None, args.budget)
            ok = pt.rep == rep and fresh.kloosterman(n, pt, m) == value
        checked.append(lineno)
        if not ok:
            bad.append(lineno)
    body = {
        "cache_verify": {
            "path": args.cache_path,
            "checked_lines": checked,
            "bad_lines": bad,
        }
    }
    code = _point_report(args, body, t0)
    return 2 if bad else code


# ---------------------------------------------------------------------------
# argument parsing


def _digit_list(text: str):
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad digit list {text!r}") from None


def _add_field_args(sp, with_n=True):
    sp.add_argument("-p", type=int, required=True,
                    help="odd residue characteristic")
    sp.add_argument("-a", type=int, default=1,
                    help="base field degree over the prime field")
    if with_n:
        sp.add_argument("-n", type=int, default=1,
                        help="number of summation variables")


def _add_run_args(sp):
    sp.add_argument("--workers", type=int, default=1,
                    help="threads for per-point work")
    sp.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                    help="refuse sums or Sym^k series needing more than "
                         "this many steps")
    sp.add_argument("--cache", dest="cache_path", metavar="CACHE",
                    default=os.environ.get(CACHE_ENV),
                    help=f"sum cache file (default ${CACHE_ENV})")
    sp.add_argument("--out", help="write the JSON report here (default stdout)")
    sp.add_argument("--csv", help="also write a CSV coefficient table here")


def _add_exponent_args(sp, require_k=False):
    if require_k:
        sp.add_argument("-k", type=int, required=True,
                        help="integer symmetric power exponent")
        return
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("-k", type=int,
                       help="integer symmetric power exponent")
    group.add_argument("--kappa", type=_digit_list, dest="kappa_digits",
                       metavar="D0,D1,...",
                       help="truncated p-adic exponent digits, low first")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="klsym",
        description="Symmetric power L-series of hyper-Kloosterman sums",
    )
    parser.add_argument("--version", action="version",
                        version=f"klsym {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("points", help="list closed points of the torus")
    _add_field_args(sp, with_n=False)
    sp.add_argument("-D", type=int, required=True, help="maximal degree")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_points)

    sp = sub.add_parser("sum", help="one exact hyper-Kloosterman sum")
    _add_field_args(sp)
    sp.add_argument("-d", type=int, required=True, help="point degree")
    sp.add_argument("--rep-int", type=int, required=True, dest="rep_int",
                    help="integer code of any orbit element")
    sp.add_argument("-m", type=int, default=1, help="extension level")
    _add_run_args(sp)
    sp.set_defaults(func=cmd_sum)

    sp = sub.add_parser("local", help="local L-factor at one closed point")
    _add_field_args(sp)
    sp.add_argument("-d", type=int, required=True, help="point degree")
    sp.add_argument("--rep-int", type=int, required=True, dest="rep_int",
                    help="integer code of any orbit element")
    _add_run_args(sp)
    sp.set_defaults(func=cmd_local)

    for name, mode, kind in (
        ("symk", "symk", "k"),
        ("syminf", "syminf", "any"),
        ("unitroot", "unitroot", "any"),
        ("verify", "verify-newton-hodge", "any"),
        ("compare", "compare-slopes", "k"),
    ):
        sp = sub.add_parser(name, help=f"run mode {mode}")
        _add_field_args(sp)
        _add_exponent_args(sp, require_k=(kind == "k"))
        sp.add_argument("-D", type=int, required=True,
                        help="Euler product degree cap")
        if mode != "symk":
            sp.add_argument("-V", type=int, default=None,
                            help="pi-adic precision target (default derived)")
        _add_run_args(sp)
        # every RunConfig field, also where this mode has no option for it
        sp.set_defaults(func=cmd_run, mode=mode, V=None, kappa_digits=None)

    sp = sub.add_parser("cache", help="inspect or repair a sum cache")
    sp.add_argument("action", choices=("stat", "verify", "compact"))
    sp.add_argument("--cache", dest="cache_path", metavar="CACHE",
                    default=os.environ.get(CACHE_ENV),
                    required=os.environ.get(CACHE_ENV) is None)
    sp.add_argument("--sample", type=int, default=10,
                    help="records to recompute under verify")
    sp.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_cache)

    return parser


def cmd_run(args) -> int:
    config = RunConfig(**{f.name: getattr(args, f.name) for f in fields(RunConfig)})
    report, code = run(config)
    write_report(report, args.out)
    if args.csv:
        write_csv(report, args.csv)
    return code


def console_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if not exc.code else 1
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ResourceError, CacheError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except PrecisionError as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return 3
    except FindingError as exc:
        print(f"finding: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(console_main())
