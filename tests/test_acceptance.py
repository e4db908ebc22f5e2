"""Acceptance suite: one numbered check per required behavior, one
summary line each.

Every check here is exact: integer equalities, rational polygon
comparisons, or pi-adic congruences at stated certificates.  Wall-time
caps are asserted where they are part of the requirement.
"""

import itertools
import json
import time
from contextlib import contextmanager
from fractions import Fraction

from klsym.cli import RunConfig, local_factors, run, series_syminf, series_symk
from klsym.expsum import KloostermanEvaluator, _direct_sum
from klsym.ff import make_field, points_up_to
from klsym.lfun import local_factor, sym_inf_local
from klsym.padic import (
    PadicCyc,
    PadicExponent,
    hensel_unit_root,
    slope_split,
)
from klsym.polygon import (
    compare_slope_range,
    hodge_coeffs,
    hodge_polygon,
    lower_hull,
    newton_points,
    verify_above,
)
from oracles import (
    _hodge_coeffs_bruteforce,
    agrees_with,
    kloosterman_table,
    sym_inf_local_hsum,
    sym_k_factor,
)

F = Fraction


@contextmanager
def criterion(name, limit=None):
    t0 = time.monotonic()
    ok = False
    try:
        yield
        dt = time.monotonic() - t0
        ok = limit is None or dt < limit
    finally:
        dt = time.monotonic() - t0
        print(f"acceptance[{name}]: {'PASS' if ok else 'FAIL'} ({dt:.1f}s)")
    assert ok, f"{name}: wall time {dt:.1f}s exceeded the {limit}s cap"


LOCAL_FACTOR_INSTANCES = [
    # (p, a, n, max point degree)
    (3, 1, 1, 3),
    (5, 1, 1, 3),
    (3, 1, 2, 2),
]


def test_criterion_1_local_factor_facts():
    with criterion("local-factor-facts", limit=60):
        for p, a, n, D in LOCAL_FACTOR_INSTANCES:
            base = make_field(p, a)
            ev = KloostermanEvaluator(base)
            pts = points_up_to(base, D)
            assert pts, (p, a, D)
            for pt in pts:
                lf = local_factor(ev, n, pt)
                d = pt.degree
                assert lf.coeffs[0].as_integer() == 1
                assert len(lf.coeffs) == n + 2
                hull = lower_hull(newton_points(lf.coeffs, a * d))
                assert hull.slopes() == [(F(j), F(1)) for j in range(n + 1)]
                lead = abs(lf.coeffs[-1].as_integer())
                assert lead == p ** (a * d * n * (n + 1) // 2)
                assert lf.sign in (1, -1)
                root = hensel_unit_root(list(lf.coeffs), 4)  # 1-unit enforced
                res = (root - PadicCyc.one(p, root.N)).rep.pi_val()
                assert res is None or res >= 1


NEWTON_HODGE_INSTANCES = [
    # (n, k, D) over F_3
    (1, 1, 4), (1, 2, 4), (1, 3, 4), (1, 4, 4),
    (2, 1, 2), (2, 2, 2),
]


def test_criterion_2_newton_above_hodge():
    with criterion("newton-above-hodge", limit=300):
        for n, k, D in NEWTON_HODGE_INSTANCES:
            config = RunConfig(p=3, a=1, n=n, mode="verify-newton-hodge",
                               k=k, D=D)
            report, code = run(config)
            assert code == 0, (n, k, D, report["verdict"])
            assert report["verdict"] == {"status": "pass", "witness": None}
            names = [s["name"] for s in report["series"]]
            assert names == ["symk", "syminf"], names


def test_criterion_3_slope_coincidence():
    with criterion("slope-coincidence", limit=120):
        config = RunConfig(p=3, a=1, n=1, mode="compare-slopes", k=1, D=3)
        report, code = run(config)
        assert code == 0
        assert report["verdict"]["status"] == "agree"
        through = report["verdict"]["witness"]["through_x"]

        # multiplying by (1 - q^(k+1) T) adds only slope-(k+1) content,
        # so the comparison in slopes <= k must not move
        base = make_field(3, 1)
        factors = local_factors(KloostermanEvaluator(base), 1, 3)
        fin = series_symk(base, factors, 1, 3)
        nine = fin.coeffs[0].from_int(3, 9)
        twisted = list(fin.coeffs) + [fin.coeffs[0] * 0]
        for r in range(len(twisted) - 1, 0, -1):
            twisted[r] = twisted[r] - nine * twisted[r - 1]
        twisted = twisted[:4]
        inf = series_syminf(base, factors, PadicExponent.exact(3, 1), 14, 3)
        pts_inf = newton_points(inf.coeffs, 1, cert=inf.cert)
        v = compare_slope_range(newton_points(twisted, 1), pts_inf, F(1))
        assert v.status == "agree"
        assert v.witness["through_x"] == Fraction(*through)


DUAL_ROUTE_FIELDS = [(3, c) for c in range(1, 7)] + [(5, c) for c in range(1, 5)]


def test_criterion_4_dual_route_equality():
    with criterion("dual-route-equality", limit=120):
        instances = 0
        for n in (1, 2):
            for p, c in DUAL_ROUTE_FIELDS:
                field = make_field(p, c)
                table = kloosterman_table(n, field)
                assert len(table) == field.size - 1
                for t, via_table in table.items():
                    assert via_table == _direct_sum(n, field, t), (p, c, n, t)
                    instances += 1
        assert instances == 2 * (2 + 8 + 26 + 80 + 242 + 728
                                 + 4 + 24 + 124 + 624)


def test_criterion_5_hodge_coefficients():
    with criterion("hodge-coefficients", limit=30):
        assert hodge_coeffs(1, 9) == [1, 0, 1, 0, 1, 0, 1, 0, 1]
        assert hodge_coeffs(2, 7) == [1, 0, 1, 1, 1, 1, 2]
        for n in (1, 2, 3):
            assert hodge_coeffs(n, 12) == _hodge_coeffs_bruteforce(n, 12)


def test_criterion_6_integrality():
    with criterion("integrality", limit=120):
        for n, k, D in [(1, 1, 3), (1, 2, 3), (1, 3, 3), (2, 1, 2)]:
            base = make_field(3, 1)
            factors = local_factors(KloostermanEvaluator(base), n, D)
            gs = series_symk(base, factors, k, D)
            assert gs.integers is not None
            for c, value in zip(gs.coeffs, gs.integers):
                assert c.as_integer() == value  # no zeta components at all

        for n, D, V in [(1, 3, 12), (2, 2, 10)]:
            base = make_field(3, 1)
            factors = local_factors(KloostermanEvaluator(base), n, D)
            gs = series_syminf(base, factors, PadicExponent.exact(3, 2), V, D)
            assert gs.cert is not None and gs.cert > 0
            for c in gs.coeffs:
                for g in range(2, 3):
                    drift = (c.galois(g) - c).rep.pi_val()
                    assert drift is None or drift >= gs.cert


def test_criterion_7_padic_limit_of_truncations():
    with criterion("padic-limit", limit=60):
        p = 3
        digits = (2, 1, 1)
        kappa = PadicExponent.truncated(p, digits)
        truncations = [(1, 2), (2, 5), (3, 14)]  # (s, integer with s digits)
        base = make_field(p, 1)
        ev = KloostermanEvaluator(base)
        for pt in points_up_to(base, 1):
            lf = local_factor(ev, 1, pt)
            pi0 = hensel_unit_root(list(lf.coeffs), 7)
            v1 = (pi0 - PadicCyc.one(p, pi0.N)).rep.pi_val()
            assert v1 is not None and v1 >= 1
            limit_coeffs = sym_inf_local(lf, kappa, 12, 2, 1).coeffs
            for s, k_s in truncations:
                assert k_s == kappa.rep % p ** s
                trunc = sym_inf_local(lf, PadicExponent.exact(p, k_s),
                                      12, 2, 1).coeffs
                need = (p - 1) * s + v1
                for r in range(1, 3):
                    gap = (limit_coeffs[r] - trunc[r]).rep.pi_val()
                    assert gap is None or gap >= need, (pt.rep, s, r, gap)


def test_criterion_8_cross_route_equality():
    with criterion("cross-route-equality", limit=120):
        # product route against the power-sum route, slope cap instances
        base = make_field(3, 1)
        ev = KloostermanEvaluator(base)
        kappa = PadicExponent.exact(3, 1)
        for pt in points_up_to(base, 3):
            lf = local_factor(ev, 1, pt)
            R = 3 // pt.degree
            via_product = sym_inf_local(lf, kappa, 10, R, 1)
            via_hsum = sym_inf_local_hsum(lf, kappa, 10, R, 1)
            joint = min(via_product.cert, via_hsum.cert)
            assert joint >= 6
            for x, y in zip(via_product.coeffs, via_hsum.coeffs):
                assert agrees_with(x, y, joint)

        # exact symmetric power factor against its eigenvalue reconstruction
        k = 2
        for p, a, n, D in LOCAL_FACTOR_INSTANCES:
            ev = KloostermanEvaluator(make_field(p, a))
            for pt in points_up_to(ev.base, D):
                lf = local_factor(ev, n, pt)
                exact = sym_k_factor(lf, k)
                eigen, _ = slope_split(list(lf.coeffs), a, pt.degree, 6)
                rebuilt = [PadicCyc.one(p, eigen[0].N)]
                for combo in itertools.combinations_with_replacement(
                        range(n + 1), k):
                    lam = PadicCyc.one(p, eigen[0].N)
                    for j in combo:
                        lam = lam * eigen[j]
                    rebuilt = [c for c in rebuilt] + [lam * 0]
                    for r in range(len(rebuilt) - 1, 0, -1):
                        rebuilt[r] = rebuilt[r] - lam * rebuilt[r - 1]
                assert len(rebuilt) == len(exact)
                for got, want in zip(rebuilt, exact):
                    assert agrees_with(got, PadicCyc.embed(want, got.N))


def test_criterion_9_determinism_and_monotonicity():
    with criterion("determinism-and-monotonicity", limit=180):
        config = dict(p=3, a=1, n=1, mode="verify-newton-hodge", k=2, D=4)
        reports = []
        for workers in (1, 3):
            report, code = run(RunConfig(workers=workers, **config))
            assert code == 0
            report.pop("timing")
            reports.append(json.dumps(report, sort_keys=True))
        assert reports[0] == reports[1]

        # raising precision can settle a verdict but never unsettle one
        allowed = {
            "pass": {"pass"},
            "violation": {"violation"},
            "inconclusive": {"pass", "violation", "inconclusive"},
        }
        observed = set()
        for n, k, D, V_lo, V_hi in [(1, 2, 4, 4, 20), (2, 1, 2, 6, 16)]:
            base = make_field(3, 1)
            factors = local_factors(KloostermanEvaluator(base), n, D)
            hodge = hodge_polygon(n, 3, D)
            kappa = PadicExponent.exact(3, k)
            verdicts = []
            for V in (V_lo, V_hi):
                gs = series_syminf(base, factors, kappa, V, D)
                v = verify_above(newton_points(gs.coeffs, 1, cert=gs.cert),
                                 hodge)
                verdicts.append(v)
            assert verdicts[1].status in allowed[verdicts[0].status]
            observed.add((verdicts[0].status, verdicts[1].status))
        assert ("inconclusive", "pass") in observed
