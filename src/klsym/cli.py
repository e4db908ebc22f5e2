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
import gc
import json
import math
import os
import sys
import time
from fractions import Fraction
from typing import NamedTuple

from . import __version__
from .errors import (
    CacheError,
    FindingError,
    OrbitFindingError,
    PrecisionError,
    ResourceError,
    UsageError,
)
from .expsum import DEFAULT_BUDGET, KloostermanEvaluator, SumCache
from .ff import degree_count, make_field, orbit_rep, point_field, points_up_to, \
    twist_orbits
from .lfun import (
    euler_product,
    local_factor,
    power_sum_series,
    precision_plan,
    sums_read,
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
MAX_WORKERS = 32  # the ceiling of ThreadPoolExecutor's own default, min(32, cpu + 4)

MODES = ("symk", "syminf", "unitroot", "verify-newton-hodge", "compare-slopes")


class RunConfig(NamedTuple):
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


def _builds_symk(config: RunConfig) -> bool:
    """An integer exponent builds the exact Sym^k series, but not in p-adic modes."""
    return config.k is not None and config.mode not in ("syminf", "unitroot")


def default_precision(config: RunConfig) -> int:
    """Initial pi-adic target: Hodge height at the degree cap plus slack.

    The Hodge polygon bounds every slope the verdict can depend on, so
    clearing its value at D (in pi units) with a few digits to spare
    settles typical runs on the first attempt; retries double from here.
    """
    height = hodge_polygon(config.n, config.p, config.D).value_at(config.D)
    digits = int(-(-height.numerator // height.denominator))
    return (config.p - 1) * config.a * (digits + 4)


def _precisions(config: RunConfig, V0: int):
    """The precision ladder: V0 and up to MAX_RETRIES doublings while an attempt
    fits the budget, and the ResourceError of the first doubling that does not
    (None when the retries run out first); V0 itself must fit.  An attempt takes
    V to N digits over at most T weight tuples at a degree-1 point, T the box
    prod (w // j + 1) (1 tuple in unitroot)."""
    Vs = []
    for V in (V0 << i for i in range(MAX_RETRIES + 1)):
        N, w = precision_plan(config.p, config.a, 1, V)
        T = 1 if config.mode == "unitroot" else \
            math.prod(w // j + 1 for j in range(1, config.n + 1))
        if T * V * N > config.budget:
            refusal = ResourceError(f"precision V = {V} needs T*V*N = {T * V * N} "
                                    f"steps, budget {config.budget}")
            if not Vs:
                raise refusal
            return Vs, refusal
        Vs.append(V)
    return Vs, None


def _admit(config: RunConfig):
    """Every refusal a run makes before any table, sum or cache file; only the
    per-sum bound (expsum) stays lazy, so a warm cache serves what the budget
    would refuse cold.  Returns (base, max_degree, kappa, ladder), ladder None
    in symk mode and else the (precisions, refusal) of _precisions."""
    if config.a < 1 or config.n < 1:
        raise UsageError("need a >= 1 and n >= 1")
    if config.D < 1:
        raise UsageError("degree cap D must be positive")
    if config.mode not in MODES:
        raise UsageError(f"unknown mode {config.mode!r}")
    if not 1 <= config.workers <= MAX_WORKERS:
        raise UsageError(f"need 1 to {MAX_WORKERS} workers, not {config.workers}")
    if config.k is not None and config.kappa_digits is not None:
        raise UsageError("give either an integer exponent or digits, not both")
    if config.mode in ("symk", "compare-slopes") and config.k is None:
        raise UsageError(f"mode {config.mode} needs an integer exponent k")
    if config.k is None and config.kappa_digits is None:
        raise UsageError(f"mode {config.mode} needs an exponent")
    if _builds_symk(config) and config.k < 0:
        raise UsageError("k must be nonnegative")
    # Sym^0 is the trivial sheaf: its series (1 - T)/(1 - qT) falls below the Hodge bound
    if config.mode == "verify-newton-hodge" and config.k == 0:
        raise UsageError("verify needs k >= 1: the Hodge bound does not hold for Sym^0")
    if config.V is not None and config.V < 1:
        raise UsageError("precision target V must be positive")
    base = make_field(config.p, config.a)
    max_degree = reach(config.n, config.D)
    point_field(base, max_degree)
    # at a point of degree d the Sym^k power sums take about (D/d) k min(k, n+1) products
    if _builds_symk(config) and config.D * config.k ** 2 > config.budget:
        raise ResourceError(
            f"Sym^{config.k} series to degree {config.D} needs "
            f"D*k^2 = {config.D * config.k ** 2} products, budget {config.budget}")
    products = _ring_products(base.size, config.n, config.D, max_degree)
    if products * (config.p - 1) ** 2 > config.budget:
        raise ResourceError(
            f"the local factors and the Euler product to degree {config.D} take "
            f"{products} products in Z[zeta_{config.p}], about "
            f"{products * (config.p - 1) ** 2} steps, budget {config.budget}")
    kappa = (PadicExponent.exact(config.p, config.k) if config.kappa_digits is None
             else PadicExponent.truncated(config.p, config.kappa_digits))
    if config.mode == "symk":
        return base, max_degree, kappa, None
    V0 = config.V if config.V is not None else default_precision(config)
    return base, max_degree, kappa, _precisions(config, V0)


# ---------------------------------------------------------------------------
# series assembly


def _pmap(fn, items, workers: int):
    """fn over items, results yielded in order as they are ready."""
    if workers <= 1:
        yield from map(fn, items)
        return
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(fn, items)


def reach(n: int, D: int) -> int:
    """The largest field degree over the base whose sums a run to degree D >= 1 reads:
    Kl(t, 1..h) at the points of degree D, or Kl(t, n+1) at degree 1."""
    return max(D * ((n + 2) // 2), n + 1)


def galois_orbits(ev: KloostermanEvaluator, n: int, D: int, max_degree: int | None = None):
    """Each closed point of degree <= D mapped to (its representative's factor, c),
    the point being [c^(n+1) rep], c in F_p^* (ff.twist_orbits).

    Kl_n(c^(n+1) t, m) = sigma_c(Kl_n(t, m)) (x_i -> c x_i; Katz 1988), so a
    member's factor is sigma_c, zeta -> zeta^c, of its representative's.
    Factors, from sums in fields of degree <= max_degree (lfun.local_factor),
    are built at the representatives and at each degree's first other point,
    the witness, which off sigma_c raises OrbitFindingError.  The sums run on
    the calling thread in canonical point order, and reach the cache in it.
    """
    factors, orbits, witnessed = {}, {}, set()
    # in canonical point order, where a representative comes first in its orbit
    for pt, (rep, c) in twist_orbits(points_up_to(ev.base, D), n).items():
        if pt == rep:
            factors[rep] = local_factor(ev, n, pt, max_degree=max_degree)
        elif pt.degree not in witnessed:
            witnessed.add(pt.degree)
            lf = local_factor(ev, n, pt, max_degree=max_degree)
            if any(x != y.galois(c) for x, y in zip(lf.coeffs, factors[rep].coeffs)):
                raise OrbitFindingError(
                    f"the factor at {pt.rep} is not sigma_{c} of the factor at "
                    f"its orbit representative {rep.rep}",
                    witness={"point": pt.rep, "representative": rep.rep, "c": c})
        orbits[pt] = (factors[rep], c)
    return orbits


def series(orbits, D: int, local, workers: int = 1):
    """(point, c, value) at every closed point of degree <= D (galois_orbits), value
    local(lf, D // degree) at its orbit's representative, built once per orbit:
    sigma_c commutes with every step of local, so the route the members go to,
    lfun.power_sum_series or lfun.euler_product, applies sigma_c to it."""
    reps = {lf.point: lf for lf, _ in orbits.values()}
    built = dict(zip(reps, _pmap(lambda lf: local(lf, D // lf.point.degree),
                                 reps.values(), workers)))
    return [(pt, c, built[lf.point]) for pt, (lf, c) in orbits.items()]


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
            row["value"] = c.as_integer()
        else:
            row["coords"] = c.coords
            row["precision"] = c.N
            row["vcert"] = c.vcert
        rows.append(row)
    return {"name": name, "exponent": exponent, "cert": gs.cert,
            "coefficients": rows}


def _newton_hull_json(points):
    return lower_hull([pt for pt in points if pt.exact and pt.ordq is not None]).vertices


def write_report(report: dict, out_path: str | None):
    try:  # before the file opens, so a refused report leaves none
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    except ValueError:  # an integer longer than Python's int-to-str limit
        raise ResourceError(f"the report has an integer of more than "
                            f"{sys.get_int_max_str_digits()} digits, Python's limit "
                            f"(-X int_max_str_digits raises it)") from None
    if out_path:
        with open(out_path, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def write_csv(report: dict, csv_path: str):
    """Flat coefficient table, one row per (series, power of T)."""
    import csv
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


def _retry_precision(attempt, Vs, refusal):
    """attempt(V) -> (series, points, verdict) for V in Vs until a verdict is
    decided; a PrecisionError counts as undecided.  The last undecided verdict
    is returned, or, after a PrecisionError, refusal (see _precisions) or, when
    the retries ran out, a PrecisionError is raised."""
    for attempts, V in enumerate(Vs, start=1):
        try:
            result = attempt(V)
        except PrecisionError:
            result = None
        if result is not None and result[2].decided:
            return result, V, attempts
    if result is None:
        raise refusal or PrecisionError(
            f"undecided after {attempts} attempts up to V={V}")
    return result, V, attempts


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
    base, max_degree, kappa, ladder = _admit(config)
    cache = SumCache(config.cache_path) if config.cache_path else None
    ev = KloostermanEvaluator(base, cache, config.budget)
    a, n, D, mode = config.a, config.n, config.D, config.mode
    exponent = _exponent_json(config)
    hodge = hodge_polygon(n, config.p, D)
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
    orbits = galois_orbits(ev, n, D, max_degree)
    if _builds_symk(config):
        gs_fin = power_sum_series(base, series(
            orbits, D, lambda lf, R: symk_local(lf, config.k, R), config.workers), D)
        pts_fin = newton_points(gs_fin.coeffs, a)
        add("symk", gs_fin, pts_fin)
        if mode == "verify-newton-hodge":
            verdicts.append(("symk", verify_above(pts_fin, hodge)))

    if mode != "symk":
        # the unit-root series is the weight-zero term of the Sym^(kappa,oo) one
        name, padic_local = (("unitroot", unit_root_local) if mode == "unitroot"
                             else ("syminf", sym_inf_local))
        Vs, refusal = ladder

        def attempt(V):
            gs = euler_product(base, series(
                orbits, D, lambda lf, R: padic_local(lf, kappa, V, R), config.workers), D)
            pts = newton_points(gs.coeffs, a, cert=gs.cert)
            if mode == "verify-newton-hodge":
                return gs, pts, verify_above(pts, hodge)
            if mode == "compare-slopes":
                return gs, pts, compare_slope_range(pts_fin, pts, Fraction(config.k))
            return gs, pts, None

        if mode in ("syminf", "unitroot"):
            (gs, pts, _), V = attempt(Vs[0]), Vs[0]
        else:
            (gs, pts, v), V, attempts = _retry_precision(attempt, Vs, refusal)
            verdicts.append(("syminf", v))
            derived.update({"V_initial": Vs[0], "attempts": attempts})
        add(name, gs, pts)
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
    }, factors={route: sum(lf.route == route for lf, _ in orbits.values())
                for route in ("full", "half")},
        orbits={"representatives": sum(pt == lf.point for pt, (lf, _) in orbits.items()),
                "points": len(orbits)})
    verdict = body["verdict"]
    code = 0 if verdict is None else _EXIT_BY_STATUS[verdict["status"]]
    return report, code


def _ring_products(q: int, n: int, D: int, max_degree: int) -> int:
    """An upper bound on the products in Z[zeta_p], each about (p-1)^2 steps, that
    either mode makes: M(M+1)/2 for the Newton identities from M sums at every
    point (galois_orbits builds fewer factors, known only once the tables exist)
    and, per point, sum over r <= D of r // d for the p-adic Euler product, more
    than the D // d additions of p-1 coordinates of the exact power-sum route."""
    total = 0
    for d in range(1, D + 1):
        M = sums_read(n, d, max_degree)
        total += degree_count(q, d) * (M * (M + 1) // 2 + sum(r // d for r in range(D + 1)))
    return total


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
    field = point_field(base, args.d)
    try:
        pt = orbit_rep(base, field, field.from_int(args.rep_int))
    except ValueError as exc:
        raise UsageError(f"bad point: {exc}") from None
    cache = SumCache(args.cache_path) if args.cache_path else None  # a refused point opens none
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
    if args.n < 1 or args.m < 1:  # refused before the cache opens
        raise UsageError("need n >= 1 and m >= 1")
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
    if args.n < 1:  # refused before the cache opens
        raise UsageError("need n >= 1")
    ev, cache, pt = _point_evaluator(args)
    lf = local_factor(ev, args.n, pt, max_degree=reach(args.n, args.d))
    slopes = lower_hull(newton_points(lf.coeffs, args.a * pt.degree)).slopes()
    body = {
        "point": {"degree": pt.degree, "rep": pt.rep},
        "n": args.n,
        "coefficients": [c.serialize() for c in lf.coeffs],
        "sign": 1,  # the only sign local_factor lets through
        "newton_slopes": slopes,
    }
    return _point_report(args, body, t0, cache)


def cmd_cache(args) -> int:
    t0 = time.perf_counter()
    if args.sample < 0:
        raise UsageError("--sample must be nonnegative")
    if not os.path.exists(args.cache_path):
        raise CacheError(f"{args.cache_path}: no such sum cache")
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
    for lineno, (p, a, modulus, n, d, rep, m), value in cache.records()[: args.sample]:
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


def cmd_run(args) -> int:
    config = RunConfig(**{name: getattr(args, name) for name in RunConfig._fields})
    report, code = run(config)
    write_report(report, args.out)
    if args.csv:
        write_csv(report, args.csv)
    return code


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
    sp.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                    help="refuse sums or Sym^k series needing more than "
                         "this many steps")
    sp.add_argument("--cache", dest="cache_path", metavar="CACHE",
                    default=os.environ.get(CACHE_ENV),
                    help=f"sum cache file (default ${CACHE_ENV})")
    sp.add_argument("--out", help="write the JSON report here (default stdout)")


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


def _points_options(sp):
    _add_field_args(sp, with_n=False)
    sp.add_argument("-D", type=int, required=True, help="maximal degree")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_points)


def _point_options(sp, func):
    """sum and local, at one closed point; only sum takes an extension level."""
    _add_field_args(sp)
    sp.add_argument("-d", type=int, required=True, help="point degree")
    sp.add_argument("--rep-int", type=int, required=True, dest="rep_int",
                    help="integer code of any orbit element")
    if func is cmd_sum:
        sp.add_argument("-m", type=int, default=1, help="extension level")
    _add_run_args(sp)
    sp.set_defaults(func=func)


def _series_options(sp, mode):
    _add_field_args(sp)
    _add_exponent_args(sp, require_k=mode in ("symk", "compare-slopes"))
    sp.add_argument("-D", type=int, required=True, help="Euler product degree cap")
    if mode != "symk":
        sp.add_argument("-V", type=int, default=None,
                        help="pi-adic precision target (default derived)")
    _add_run_args(sp)
    sp.add_argument("--workers", type=int, default=1,
                    help=f"threads for the orbits' local series, 1 to {MAX_WORKERS}")
    sp.add_argument("--csv", help="also write a CSV coefficient table here")
    # every RunConfig field, also where this mode has no option for it
    sp.set_defaults(func=cmd_run, mode=mode, V=None, kappa_digits=None)


def _cache_options(sp):
    sp.add_argument("action", choices=("stat", "verify", "compact"))
    sp.add_argument("--cache", dest="cache_path", metavar="CACHE",
                    default=os.environ.get(CACHE_ENV),
                    required=os.environ.get(CACHE_ENV) is None)
    sp.add_argument("--sample", type=int, default=10,
                    help="records to recompute under verify")
    sp.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_cache)


# each subcommand's help, and the builder of its options with the builder's arguments
COMMANDS = {
    "points": ("list closed points of the torus", _points_options),
    "sum": ("one exact hyper-Kloosterman sum", _point_options, cmd_sum),
    "local": ("local L-factor at one closed point", _point_options, cmd_local),
    **{name: (f"run mode {mode}", _series_options, mode) for name, mode in
       zip(("symk", "syminf", "unitroot", "verify", "compare"), MODES)},
    "cache": ("inspect or repair a sum cache", _cache_options),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """Every subcommand with its help, but the options and defaults of command
    alone, or of every command when None; a line of command parses the same."""
    parser = argparse.ArgumentParser(
        prog="klsym",
        description="Symmetric power L-series of hyper-Kloosterman sums",
    )
    parser.add_argument("--version", action="version",
                        version=f"klsym {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_options, *args) in COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        if command in (None, name):
            add_options(sp, *args)
    return parser


def console_main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # argparse runs the first word naming a command, unless -h, --version or an error comes first
    parser = build_parser(next((word for word in argv if word in COMMANDS), None))
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


# the import's objects live as long as the process, so a run's collections skip them
gc.freeze()

if __name__ == "__main__":
    sys.exit(console_main())
