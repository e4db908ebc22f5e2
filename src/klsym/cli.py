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

import gc
import json
import math
import os
import re
import sys
import time
from fractions import Fraction
from types import SimpleNamespace
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
    reach,
    sums_read,
    sym_inf_local,
    symk_degree,
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
    would refuse cold.  Returns (base, kappa, ladder), ladder None in symk mode
    and else the (precisions, refusal) of _precisions."""
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
        return base, kappa, None
    V0 = config.V if config.V is not None else default_precision(config)
    return base, kappa, _precisions(config, V0)


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
    rows = [{"r": cp.r, "exact": cp.exact, "ordq": cp.ordq,
             **({"value": c.as_integer()} if gs.cert is None else
                {"coords": c.coords, "precision": c.N, "vcert": c.vcert})}
            for cp, c in zip(points, gs.coeffs)]
    return {"name": name, "exponent": exponent, "cert": gs.cert, "coefficients": rows}


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
        with open(out_path, "wb") as fh:
            fh.write(text.encode("ascii"))
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
                num, den = row["ordq"] or ("", "")
                writer.writerow([entry["name"], row["r"], row["exact"], num, den,
                                 row.get("precision", ""), row.get("vcert", ""), row["value"]
                                 if "value" in row else ":".join(map(str, row["coords"]))])


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
    base, kappa, ladder = _admit(config)
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

    verdicts, derived = [], {}
    # the exact series reads to D_read = min(D, delta + 1), delta its degree by a theorem
    delta = symk_degree(base, n, config.k) if _builds_symk(config) else None
    D_read = D if delta is None else min(D, delta + 1)
    read = D_read if mode == "symk" else D
    with ev:
        orbits = galois_orbits(ev, n, read, reach(n, read))
    if _builds_symk(config):
        gs_fin = power_sum_series(base, series(
            {pt: o for pt, o in orbits.items() if pt.degree <= D_read}, D_read,
            lambda lf, R: symk_local(lf, config.k, R), config.workers), D_read)
        if delta is not None and D > delta and (top := gs_fin.coeffs[-1].as_integer()):
            raise FindingError(f"coefficient of T^{D_read} is {top}, not 0, yet L(Sym^"
                               f"{config.k}) has degree {delta}", witness={"r": D_read})
        gs_fin = gs_fin._replace(coeffs=gs_fin.coeffs + [gs_fin.coeffs[-1]] * (D - D_read))
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
    with ev:
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
    with ev:
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


def _record_holds(key, value, budget) -> bool:
    """Whether a cache record's sum, recomputed from scratch, is its value."""
    p, a, modulus, n, d, rep, m = key
    try:
        base = make_field(p, a, modulus)
        field = point_field(base, d)
        pt = orbit_rep(base, field, field.element(rep))
    # a reducible modulus, or a rep that is zero or in a proper subfield
    except (UsageError, ValueError):
        return False
    fresh = KloostermanEvaluator(base, None, budget)
    return pt.rep == rep and fresh.kloosterman(n, pt, m) == value


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
    sample = cache.records()[: args.sample]
    bad = [lineno for lineno, key, value in sample if not _record_holds(key, value, args.budget)]
    body = {"cache_verify": {"path": args.cache_path, "bad_lines": bad,
                             "checked_lines": [lineno for lineno, _, _ in sample]}}
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
# argument parsing: one table of options, read in one pass over argv


_RUN = "--budget --cache --out"
_SERIES = {"symk": "-k! -D!", "syminf": "-k --kappa -D! -V", "unitroot": "-k --kappa -D! -V",
           "verify": "-k --kappa -D! -V", "compare": "-k! -D! -V"}
# each command's help, its options ("!": required) and the attributes it sets itself;
# _admit refuses a series line with both or neither of -k and --kappa
COMMANDS = {
    "points": ("list closed points of the torus", "-p! -a -D! --out", {"func": cmd_points}),
    "sum": ("one exact hyper-Kloosterman sum", f"-p! -a -n -d! --rep-int! -m {_RUN}",
            {"func": cmd_sum}),
    "local": ("local L-factor at one closed point", f"-p! -a -n -d! --rep-int! {_RUN}",
              {"func": cmd_local}),
    **{name: (f"run mode {mode}", f"-p! -a -n {flags} {_RUN} --workers --csv",
              {"func": cmd_run, "mode": mode, "V": None, "kappa_digits": None})
       for (name, flags), mode in zip(_SERIES.items(), MODES)},
    "cache": ("inspect or repair a sum cache", "action! --cache! --sample --budget --out",
              {"func": cmd_cache}),
}
_TOP = ("Symmetric power L-series of hyper-Kloosterman sums", "--version command!", {})
# flag, or a positional's name: attribute, type (None: it takes no word; a tuple: the
# words it accepts), default (called at parse time when callable) and help
OPTIONS = {
    "-h": ("help", None, None, "show this help message and exit"),
    "--version": ("version", None, None, "show the version and exit"),
    "command": ("command", tuple(COMMANDS), None, "".join(
        f"\n    {name:<10}{text}" for name, (text, *_) in COMMANDS.items())),
    "-p": ("p", int, None, "odd residue characteristic"),
    "-a": ("a", int, 1, "base field degree over the prime field"),
    "-n": ("n", int, 1, "number of summation variables"),
    "-k": ("k", int, None, "integer symmetric power exponent"),
    "--kappa": ("kappa_digits", lambda text: tuple(int(part) for part in text.split(",")),
                None, "p-adic exponent digits d0,d1,..., low first"),
    "-D": ("D", int, None, "degree cap of the points or of the Euler product"),
    "-V": ("V", int, None, "pi-adic precision target (default derived)"),
    "-d": ("d", int, None, "point degree"),
    "--rep-int": ("rep_int", int, None, "integer code of any orbit element"),
    "-m": ("m", int, 1, "extension level"),
    "action": ("action", ("stat", "verify", "compact"), None, "what to do with the cache"),
    "--sample": ("sample", int, 10, "records to recompute under verify"),
    "--budget": ("budget", int, DEFAULT_BUDGET, "refuse work of more than this many steps"),
    "--cache": ("cache_path", str, lambda: os.environ.get(CACHE_ENV),
                f"sum cache file (default ${CACHE_ENV})"),
    "--out": ("out", str, None, "write the JSON report here (default stdout)"),
    "--workers": ("workers", int, 1, f"threads for the local series, 1 to {MAX_WORKERS}"),
    "--csv": ("csv", str, None, "also write a CSV coefficient table here"),
}


def _spelling(flag):
    kind = OPTIONS[flag][1]
    if flag[0] != "-":
        return "{" + ",".join(kind) + "}"
    return flag if kind is None else f"{flag} {flag.lstrip('-').upper().replace('-', '_')}"


def _flag(word, flags):
    """(flag, its attached word or None) for a word naming one of flags (README's
    grammar), None for a value, (None, None) for any other option word."""
    name, eq, value = word.partition("=")
    if word in flags:
        return word, None
    if word.startswith("--") and word != "--":
        hits = [name] if name in flags else [flag for flag in flags if flag.startswith(name)]
        if len(hits) > 1:
            raise ValueError(f"ambiguous option: {name} could match {', '.join(hits)}")
        if hits:
            return hits[0], value if eq else None
    elif word[:2] in flags:
        return word[:2], word[3:] if word[2] == "=" else word[2:]
    if word[:1] != "-" or word == "-" or re.match(r"^-\d+$|^-\d*\.\d+$", word) or " " in word:
        return None
    return None, None


def _scan(prog, command, words, extras):
    """The attributes of command's options from words, read left to right: -h exits
    0 with the help, the first bad word exits 1 with its error, and words that no
    option or positional takes go to extras.  The command a top-level line names
    reads the rest of the words; then the line fails if it left extras."""
    options = [(flag.rstrip("!"), flag[-1] == "!") for flag in f"-h {command[1]}".split()]
    flags = ["--help", *(flag for flag, _ in options if flag[0] == "-")]
    slots = [flag for flag, _ in options if flag[0] != "-"]
    values = {OPTIONS[flag][0]: OPTIONS[flag][2] for flag, _ in options[1:]}
    values.update((dest, default()) for dest, default in values.items() if callable(default))
    usage = " ".join(["usage:", prog, *(
        _spelling(flag) if required else f"[{_spelling(flag)}]" for flag, required in options)])
    i = 0
    try:
        while i < len(words):
            word, i = words[i], i + 1
            hit = _flag(word, flags)
            if hit is None and slots:
                flag = slots.pop(0)
            elif hit is None or hit[0] is None:
                extras.append(word)
                continue
            else:
                flag, word = hit
                flag = "-h" if flag == "--help" else flag
                if OPTIONS[flag][1] is None:  # -h and --version
                    if word is not None:
                        raise ValueError(f"argument {flag}: ignored explicit argument {word!r}")
                    print(f"klsym {__version__}" if flag == "--version" else "\n".join([
                        usage, "", command[0], "", "options:",
                        *(f"  {_spelling(f):<18} {OPTIONS[f][3]}" for f, _ in options)]))
                    raise SystemExit(0)
                if word is None:
                    if i == len(words) or _flag(words[i], flags) is not None:
                        raise ValueError(f"argument {flag}: expected one argument")
                    word, i = words[i], i + 1
            kind = OPTIONS[flag][1]
            try:  # a tuple's index raises ValueError for a word it does not hold
                word = kind(word) if callable(kind) else kind[kind.index(word)]
            except ValueError:
                raise ValueError(f"argument {flag}: invalid value {word!r}") from None
            values[OPTIONS[flag][0]] = word
            if flag == "command":
                values = {"command": word, **COMMANDS[word][2],
                          **_scan(f"{prog} {word}", COMMANDS[word], words[i:], extras)}
                if extras:
                    raise ValueError(f"unrecognized arguments: {' '.join(extras)}")
                return values
        missing = [flag for flag, required in options
                   if required and values[OPTIONS[flag][0]] is None]
        if missing:
            raise ValueError(f"the following arguments are required: {', '.join(missing)}")
    except ValueError as exc:
        print(f"{usage}\n{prog}: error: {exc}", file=sys.stderr)
        raise SystemExit(1) from None
    return values


def parse(argv):
    """A command line's attributes, as README's grammar reads it; SystemExit(0) after
    the help or the version, SystemExit(1) after a usage error."""
    return SimpleNamespace(**_scan("klsym", _TOP, argv, []))


def console_main(argv=None) -> int:
    try:
        args = parse(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return exc.code
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
