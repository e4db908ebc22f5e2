"""End-to-end checks of the command line driver."""

import ast
import concurrent.futures
import contextlib
import functools
import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import klsym
from klsym import cli, ff, lfun
from klsym.cli import (
    MAX_RETRIES,
    RunConfig,
    _precisions,
    _retry_precision,
    console_main,
    default_precision,
    run,
)
from klsym.cyclo import CycInt
from klsym.errors import PrecisionError, ResourceError
from klsym.expsum import DEFAULT_BUDGET, KloostermanEvaluator, SumCache, record_line
from klsym.ff import closed_points, make_field, orbit_rep, point_field, points_up_to
from klsym.lfun import euler_product, local_factor, power_sum_series, reach, sums_read, \
    sym_inf_local, symk_degree, symk_local, unit_root_local
from klsym.padic import PadicCyc, PadicExponent
from klsym.polygon import Verdict
import digests
import oracles
from oracles import series_per_point


def _read(path):
    with open(path, "r", encoding="ascii") as fh:
        return json.load(fh)


PADIC_MODES = ("syminf", "unitroot", "verify", "compare")


def _fast_rows(keep, ids=None):
    """(argv, exit code, digest) of the fast rows of tests/digests.txt whose
    command ``keep`` accepts."""
    return [pytest.param(row.argv, row.code, row.digest, id=ids and ids(row))
            for row in digests.rows("fast") if keep(row.argv.split()[0])]


def _assert_pinned(capsys, monkeypatch, argv, code, digest):
    """A run without sum cache exits with ``code`` and prints a report with
    ``digest`` ("-": no report)."""
    monkeypatch.delenv(cli.CACHE_ENV, raising=False)
    assert console_main(argv.split()) == code, argv
    out = capsys.readouterr().out
    got = digests.digest(json.loads(out)) if out else "-"
    assert got == digest, f"{argv}: digest {got}, pinned {digest}"


# the fast rows of tests/digests.txt, in three tests by command, each with its ids
# from before the table
@pytest.mark.parametrize("argv,code,digest", _fast_rows(lambda cmd: cmd in PADIC_MODES))
def test_padic_mode_report_bytes_are_pinned(capsys, monkeypatch, argv, code, digest):
    _assert_pinned(capsys, monkeypatch, argv, code, digest)


@pytest.mark.parametrize("argv,code,digest", _fast_rows(
    lambda cmd: cmd == "local", ids=lambda row: f"{row.argv}-{row.digest}"))
def test_local_report_bytes_are_pinned(capsys, monkeypatch, argv, code, digest):
    _assert_pinned(capsys, monkeypatch, argv, code, digest)


@pytest.mark.parametrize("argv,code,digest", _fast_rows(
    lambda cmd: cmd not in PADIC_MODES + ("local",)))
def test_report_bytes_are_pinned(capsys, monkeypatch, argv, code, digest):
    _assert_pinned(capsys, monkeypatch, argv, code, digest)


def test_every_table_row_parses(monkeypatch):
    # the reach rows run only in CI, so a mistyped option there fails here first
    monkeypatch.delenv(cli.CACHE_ENV, raising=False)
    table = digests.rows()
    assert {row.tier for row in table} == set(digests.TIERS)
    for row in table:
        words = row.argv.split()
        assert words[0] in cli.COMMANDS, row.argv
        assert vars(cli.parse(words)) == vars(oracles.build_parser(words[0]).parse_args(words))


def _degree_rows():
    """(argv, delta) of each fast row that prints an exact Sym^k series whose degree
    delta lfun.symk_degree gives."""
    for row in digests.rows("fast"):
        try:
            args = cli.parse(row.argv.split())
        except SystemExit:  # test_every_table_row_parses fails on the row
            continue
        if row.digest != "-" and args.func is cli.cmd_run and args.k is not None \
                and args.mode not in ("syminf", "unitroot"):
            delta = symk_degree(make_field(args.p, args.a), args.n, args.k)
            if delta is not None:
                yield pytest.param(row.argv, delta, id=row.argv)


@pytest.mark.parametrize("argv,delta", list(_degree_rows()))
def test_the_exact_series_ends_at_its_degree(capsys, monkeypatch, argv, delta):
    # L(G_m, Sym^k Kl_1, T) over F_p is a polynomial of degree delta = floor((k+1)/2) for
    # p > k (Fu-Wan): the whole-field oracle, which reads no closed point, ends there, and
    # the run, which reads the points to degree delta + 1 alone, prints its coefficients
    monkeypatch.delenv(cli.CACHE_ENV, raising=False)
    args = cli.parse(argv.split())
    want = oracles.trace_sums_by_transform(args.p, 1, 1, args.k, args.D)
    assert want[delta + 1:] == [0] * len(want[delta + 1:]), want
    assert delta > args.D or want[delta] != 0, want
    console_main(argv.split())
    (series,) = [entry for entry in json.loads(capsys.readouterr().out)["series"]
                 if entry["name"] == "symk"]
    assert [row["value"] for row in series["coefficients"]] == want


# the theorem's sweep: p in {3, 5, 7, 11}, 1 <= k < p and D to delta + 3, as far as
# p^D <= SWEEP_FIELD, so p = 7 stops at D = 5 and p = 11 at D = 4
SWEEP_FIELD = 20_000


def _sweep():
    for p in (3, 5, 7, 11):
        top = max(D for D in range(1, 12) if p ** D <= SWEEP_FIELD)
        for k in range(1, p):
            yield pytest.param(p, k, min(top, (k + 1) // 2 + 3), id=f"p{p}-k{k}")


@functools.cache
def _all_points_series(p, k, D):
    """c_0..c_D of L(Sym^k Kl_1) over F_p by power_sum_series over every closed point
    of degree <= D, with no cut."""
    base = make_field(p, 1)
    orbits = cli.galois_orbits(KloostermanEvaluator(base), 1, D, reach(1, D))
    gs = power_sum_series(base, cli.series(orbits, D, lambda lf, R: symk_local(lf, k, R)), D)
    return tuple(c.as_integer() for c in gs.coeffs)


@pytest.mark.parametrize("p,k,D", list(_sweep()))
def test_the_series_over_every_point_ends_at_its_degree(p, k, D):
    # Fu-Wan's degree, against power_sum_series over every closed point to D
    delta = symk_degree(make_field(p, 1), 1, k)
    assert delta == (k + 1) // 2
    coeffs = _all_points_series(p, k, D)
    assert coeffs[delta + 1:] == (0,) * len(coeffs[delta + 1:]), coeffs
    assert delta > D or coeffs[delta] != 0, coeffs


@pytest.mark.parametrize("p,k,D", list(_sweep()))
def test_the_cut_matches_the_series_over_every_point(capsys, monkeypatch, p, k, D):
    # each symk run to d <= D reads the points of degree <= min(d, delta + 1) alone
    monkeypatch.delenv(cli.CACHE_ENV, raising=False)
    want, delta = _all_points_series(p, k, D), (k + 1) // 2
    for d in range(1, D + 1):
        assert console_main(f"symk -p {p} -n 1 -k {k} -D {d}".split()) == 0
        report = json.loads(capsys.readouterr().out)
        assert tuple(row["value"] for row in report["series"][0]["coefficients"]) == want[:d + 1]
        assert report["timing"]["orbits"]["points"] == sum(
            ff.degree_count(p, e) for e in range(1, min(d, delta + 1) + 1))


def test_a_degree_one_short_is_a_finding(capsys, monkeypatch):
    # symk_degree one below the theorem's delta = 2: the run reads the points to degree 2,
    # and c_2 = -25 is not the zero the mutant degree claims
    monkeypatch.delenv(cli.CACHE_ENV, raising=False)
    real = lfun.symk_degree
    monkeypatch.setattr(cli, "symk_degree", lambda base, n, k: real(base, n, k) - 1)
    assert console_main("symk -p 5 -n 1 -k 3 -D 4".split()) == 2
    assert capsys.readouterr().err == (
        "finding: coefficient of T^2 is -25, not 0, yet L(Sym^3) has degree 1\n")


def test_the_cut_prices_and_caps_what_it_reads(tmp_path, capsys, monkeypatch):
    # the cut reads only the points of degree <= delta + 1 = 2, from fields of degree
    # <= reach(1, 2) = 2, so _admit prices and caps that read, not D = 14: the run
    # prints c_0..c_2 of the whole-field oracle, then the zeros of the degree theorem
    monkeypatch.delenv(cli.CACHE_ENV, raising=False)
    want = oracles.trace_sums_by_transform(3, 1, 1, 2, 5)
    assert want[3:] == [0] * 3, want
    assert console_main("symk -p 3 -n 1 -k 2 -D 14".split()) == 0
    report = json.loads(capsys.readouterr().out)
    assert [row["value"] for row in report["series"][0]["coefficients"]] == \
        want[:3] + [0] * 12
    # k = p lies outside the theorem, so the run reads to D = 14 and _admit refuses
    # F_(3^14), the reach of D = 14, before any table, sum or cache file
    cache = tmp_path / "c.txt"
    assert console_main(["symk", "-p", "3", "-n", "1", "-k", "3", "-D", "14",
                         "--cache", str(cache)]) == 1
    assert capsys.readouterr().err == "error: field size 3^14 exceeds the configured cap\n"
    assert not cache.exists()


def test_the_tables_cold_run_builds_only_the_moduli_it_reads(tmp_path, monkeypatch):
    # symk -p 5 -k 3 -D 4 reads the points to degree delta + 1 = 3, so it builds the
    # canonical moduli of F_5, F_(5^2) and F_(5^3), and not that of F_(5^4)
    monkeypatch.delenv(cli.CACHE_ENV, raising=False)
    built, real = [], ff.canonical_modulus.__wrapped__
    monkeypatch.setattr(ff, "canonical_modulus", lambda p, k: built.append(k) or real(p, k))
    ff.make_field.cache_clear()  # fields an earlier test made would hide their moduli
    assert console_main("symk -p 5 -n 1 -k 3 -D 4 --out".split() +
                        [str(tmp_path / "r.json")]) == 0
    assert sorted(built) == [1, 2, 3]


# runs whose Kl(t, n+1) at the top degree is over the default budget, so only the
# half route reaches them; timing.factors counts the routes and moves no digest
@pytest.mark.parametrize("argv,digest,factors", [
    ("verify -p 3 -n 2 -k 2 -D 3", digests.pinned("verify -p 3 -n 2 -k 2 -D 3"),
     {"full": 5, "half": 8}),
    ("verify -p 5 -n 2 -k 1 -D 2", digests.pinned("verify -p 5 -n 2 -k 1 -D 2"),
     {"full": 4, "half": 10}),
])
def test_half_route_reaches_runs_the_full_route_refuses(capsys, monkeypatch, argv,
                                                        digest, factors):
    monkeypatch.delenv(cli.CACHE_ENV, raising=False)
    p, D = int(argv.split()[2]), int(argv.split()[-1])
    top = points_up_to(make_field(p, 1), D)[-1]
    with pytest.raises(ResourceError, match="sum over"):
        local_factor(KloostermanEvaluator(top.base), 2, top)
    assert console_main(argv.split()) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["timing"]["factors"] == factors
    assert digests.digest(report) == digest


def test_cold_cache_bytes_are_pinned(tmp_path):
    # re-pinned when sums moved to the orbit representatives and one witness per
    # degree: the file is the earlier pin's header and its 14 records at those
    # points, of 32, in the same order
    cache = tmp_path / "c.txt"
    assert console_main(["verify", "-p", "5", "-n", "2", "-k", "1", "-D", "2",
                         "--cache", str(cache), "--out", str(tmp_path / "r.json")]) == 0
    assert hashlib.sha256(cache.read_bytes()).hexdigest() == (
        "af369181b3e75627f7d27fb240f62b568a3025b4adc9febc5ac58f487872ac7c")


@pytest.mark.parametrize("argv,records,pin", [
    # the tables-cold benchmark command
    ("symk -p 5 -n 1 -k 3 -D 4", 34,
     "37562ba9758f3703d6c821c14f3c575b4cdd90da641a7128753e0528918e2cad"),
    # the command test_cold_cache_bytes_are_pinned pins
    ("verify -p 5 -n 2 -k 1 -D 2", 14,
     "af369181b3e75627f7d27fb240f62b568a3025b4adc9febc5ac58f487872ac7c"),
], ids=["tables-cold", "verify"])
def test_a_cold_run_writes_its_cache_in_one_append(tmp_path, monkeypatch, argv, records,
                                                   pin):
    # the header and every record the run computes in one os.write; the pins are the
    # bytes of one append per record, so holding the records moves no byte
    cache = tmp_path / "c.txt"
    writes, real_write = [], os.write

    def write(fd, data):
        writes.append(bytes(data))
        return real_write(fd, data)

    monkeypatch.setattr(os, "write", write)
    assert console_main(argv.split() + ["--cache", str(cache),
                                        "--out", str(tmp_path / "r.json")]) == 0
    assert writes == [cache.read_bytes()]
    assert len(SumCache(str(cache))) == records
    assert hashlib.sha256(writes[0]).hexdigest() == pin


def test_a_refused_run_writes_the_sums_it_computed_first(tmp_path, capsys):
    # 26 sums over F_3^1..F_3^7, then the budget refuses the first sum over F_(3^8):
    # the refusal still appends the 26 records, the bytes of one append per record
    cache = tmp_path / "c.txt"
    assert console_main(["symk", "-p", "3", "-n", "2", "-k", "1", "-D", "4",
                         "--cache", str(cache)]) == 1
    assert capsys.readouterr().err == \
        "error: sum over (F_6561)^2 needs 6560^2 steps, budget 2000000\n"
    assert len(SumCache(str(cache))) == 26
    assert hashlib.sha256(cache.read_bytes()).hexdigest() == (
        "db3561d01f5415e51c37d81079e9324874ac6c696bc69bf63c7cb8339e4aabb6")


def test_a_refused_sum_names_the_largest_sum_of_the_run(capsys, monkeypatch):
    # the first sum over the budget is over F_(3^8); a budget raised to it would reach
    # the sums over F_(3^9) at the degree-3 points, so the one error line names those too
    monkeypatch.delenv(cli.CACHE_ENV, raising=False)
    assert console_main("verify -p 3 -n 4 -k 1 -D 3 --budget 1000000000000000".split()) == 1
    assert capsys.readouterr().err == (
        "error: sum over (F_6561)^4 needs 6560^4 steps, budget 1000000000000000; "
        "the run's largest sum, over (F_19683)^4, needs 19682^4 steps\n")


def test_cold_cache_bytes_are_pinned_at_n3(tmp_path):
    # every sum in reach(3, 3) = 6: Kl(t, 1..4) at the 2 points of degree 1, Kl(t, 1..3)
    # at the 3 of degree 2 and Kl(t, 1..2) at the 8 of degree 3, each orbit one point
    cache = tmp_path / "c.txt"
    assert console_main(["symk", "-p", "3", "-n", "3", "-k", "1", "-D", "3",
                         "--budget", "1000000000", "--cache", str(cache),
                         "--out", str(tmp_path / "r.json")]) == 0
    assert len(SumCache(str(cache))) == 33
    assert hashlib.sha256(cache.read_bytes()).hexdigest() == (
        "5e6c4920efe2c7773d100f5641c3b21a53e51ee46f3a85a511a43f0b40d99fc2")


def _built_points(base, n, D):
    """The points galois_orbits builds a factor at: every orbit representative
    and the first other point of each degree."""
    points = points_up_to(base, D)
    twists = ff.twist_orbits(points, n)
    members = [pt for pt in points if twists[pt][0] != pt]
    witnesses = {d: next(pt for pt in members if pt.degree == d)
                 for d in {pt.degree for pt in members}}
    return [pt for pt in points if twists[pt][0] == pt or pt in witnesses.values()]


def test_a_cold_run_sums_at_the_representatives_and_witnesses_only(tmp_path):
    # k = p is outside the degree theorem, so the run reads every point to D = 4, and
    # no sum depends on k; the theorem's k = 3 (delta = 2) reads the points to degree 3
    base = make_field(5, 1)
    for k, D_read, records in ((5, 4, 120), (3, 3, 34)):  # all 204 points to D = 4: 218
        reads = sum(sums_read(1, pt.degree, reach(1, D_read))
                    for pt in _built_points(base, 1, D_read))
        cache = tmp_path / f"c{k}.txt"
        assert console_main(["symk", "-p", "5", "-n", "1", "-k", str(k), "-D", "4",
                             "--cache", str(cache), "--out", str(tmp_path / "r.json")]) == 0
        assert len(SumCache(str(cache))) == reads == records


def test_a_bad_sum_at_a_member_no_run_reads_moves_no_byte(tmp_path):
    # Kl_1(t, 1) + 1 at a degree-2 member that is not its degree's witness: its
    # factor is sigma_c of its representative's, so the sum is never read
    base = make_field(5, 1)
    built = _built_points(base, 1, 2)
    pt = next(pt for pt in points_up_to(base, 2) if pt.degree == 2 and pt not in built)
    value = KloostermanEvaluator(base).kloosterman(1, pt, 1) + CycInt.from_int(5, 1)
    key = (5, 1, base.modulus, 1, 2, pt.rep, 1)
    cache = tmp_path / "c.txt"
    cache.write_text(f"# klsym sum cache v1\n{record_line(key, value)}")
    reports = []
    for extra in (["--cache", str(cache)], []):
        out = tmp_path / "r.json"
        assert console_main(["symk", "-p", "5", "-n", "1", "-k", "1", "-D", "2",
                             "--out", str(out)] + extra) == 0
        reports.append(digests.canonical(_read(out)))
    assert reports[0] == reports[1]


def test_wrong_determinant_sign_in_the_cache_is_a_finding(tmp_path, capsys):
    # Kl_1(1, 2) = 5 - 12 gives 1 - T - 3T^2: the magnitude of q, the sign wrong
    cache = tmp_path / "c.txt"
    cache.write_text("# klsym sum cache v1\nv1|3,1,[0,1]|1|1|[1]|2|3:[-7,0]\n")
    assert console_main(["symk", "-p", "3", "-n", "1", "-k", "1", "-D", "1",
                         "--cache", str(cache)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("finding: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    "syminf -p 3 -n 1 -k 1 -D 1", "unitroot -p 3 -n 1 -k 1 -D 1",
    "verify -p 3 -n 1 --kappa 1 -D 1"])
def test_a_unit_root_off_the_one_units_has_one_finding_text(tmp_path, capsys, argv):
    # Kl_1(1, 1) = -2 and Kl_1(1, 2) = 2 give e_1 = 2 over F_3: the functional equation
    # and the slope shape hold, but the unit root is 2 mod 3; every p-adic mode takes
    # it from the one lift, so all three name it alike
    key = (3, 1, (0, 1), 1, 1, (1,))
    cache = tmp_path / "c.txt"
    cache.write_text("# klsym sum cache v1\n" + record_line(key + (1,), CycInt(3, [-2, 0]))
                     + record_line(key + (2,), CycInt(3, [2, 0])))
    assert console_main(argv.split() + ["--cache", str(cache)]) == 2
    assert capsys.readouterr().err == "finding: unit root has residue 2 != 1, not a 1-unit\n"


def test_a_factor_off_its_orbit_is_a_finding(tmp_path, capsys):
    # Kl_1(t, 1) + 1 at the first degree-2 point that is not its orbit's
    # representative.  At D = 2 that point reads only Kl(t, 1), and at n = 1 the
    # functional equation then checks only e_1 = sigma_(-1)(e_1), which adding a
    # rational integer keeps; so only the orbit check sees it.
    base = make_field(5, 1)
    points = points_up_to(base, 2)
    twists = ff.twist_orbits(points, 1)
    pt = next(pt for pt in points if pt.degree == 2 and twists[pt][0] != pt)
    rep, c = twists[pt]
    value = KloostermanEvaluator(base).kloosterman(1, pt, 1) + CycInt.from_int(5, 1)
    key = (5, 1, base.modulus, 1, 2, pt.rep, 1)
    cache = tmp_path / "c.txt"
    cache.write_text(f"# klsym sum cache v1\n{record_line(key, value)}")
    assert console_main(["symk", "-p", "5", "-n", "1", "-k", "1", "-D", "2",
                         "--cache", str(cache)]) == 2
    assert capsys.readouterr().err == (
        f"finding: the factor at {pt.rep} is not sigma_{c} of the factor at its "
        f"orbit representative {rep.rep}\n")
    # the finding still appends the sums computed before it, after the injected
    # record: the bytes of one append per record
    assert hashlib.sha256(cache.read_bytes()).hexdigest() == (
        "9a2cae5a3ede1a054c493cc435ed4559aa5927f48d8d9096775079ba227f468a")


def test_a_non_real_trace_sum_is_a_finding(capsys, monkeypatch):
    # P_2 + zeta at every degree-2 point: at p = 3, n = 1 each orbit is one point, so
    # T(2, 2) moves by 3 zeta, and the run names r = 2 * 2; k = p is outside the degree
    # theorem, so the run reads every point to D = 4
    monkeypatch.delenv(cli.CACHE_ENV, raising=False)
    real = cli.symk_local

    def bumped(lf, k, R):
        sums = real(lf, k, R)
        if lf.point.degree == 2:
            sums[1] = (sums[1][0], sums[1][1] + 1)
        return sums

    monkeypatch.setattr(cli, "symk_local", bumped)
    assert console_main("symk -p 3 -n 1 -k 3 -D 4".split()) == 2
    assert capsys.readouterr().err == (
        "finding: the sum of the trace of T^4 over the points of degree 2 is not a "
        "rational integer\n")


def test_local_reaches_every_factor_a_run_builds(capsys, monkeypatch):
    # Kl_3(t, 4) at this degree-2 point is a sum over (F_3^8)^3, over the budget;
    # a run with -D 2 reads Kl(t, 1..2) there, and so does local -d 2
    monkeypatch.delenv(cli.CACHE_ENV, raising=False)
    assert console_main("local -p 3 -n 3 -d 2 --rep-int 1".split()) == 0
    printed = json.loads(capsys.readouterr().out)["coefficients"]
    base = make_field(3, 1)
    pt = orbit_rep(base, point_field(base, 2), (0, 1))
    lf, c = cli.galois_orbits(KloostermanEvaluator(base), 3, 2, max_degree=reach(3, 2))[pt]
    assert printed == [x.galois(c).serialize() for x in lf.coeffs]


def test_symk_n3_reaches_degree_two(capsys, monkeypatch):
    # the full route would sum over (F_3^8)^3 at each degree-2 point
    monkeypatch.delenv(cli.CACHE_ENV, raising=False)
    assert console_main("symk -p 3 -n 3 -k 2 -D 2".split()) == 0
    assert json.loads(capsys.readouterr().out)["timing"]["factors"] == {"full": 2, "half": 3}


def test_verify_pass_exit_zero(tmp_path):
    out = tmp_path / "r.json"
    code = console_main(["verify", "-p", "3", "-n", "1", "-k", "2",
                         "-D", "4", "--out", str(out)])
    assert code == 0
    report = _read(out)
    assert report["schema"] == "klsym-report/1"
    assert report["verdict"] == {"status": "pass", "witness": None}
    assert [s["name"] for s in report["series"]] == ["symk", "syminf"]
    assert report["config"]["mode"] == "verify-newton-hodge"


def test_compare_agree_exit_zero(tmp_path):
    out = tmp_path / "r.json"
    code = console_main(["compare", "-p", "3", "-n", "1", "-k", "1",
                         "-D", "3", "--out", str(out)])
    assert code == 0
    assert _read(out)["verdict"]["status"] == "agree"


@pytest.mark.parametrize("argv,values", [
    ("symk -p 3 -n 1 -k 0 -D 3", [1, 2, 6, 18]), ("symk -p 5 -n 2 -k 0 -D 2", [1, 4, 20])])
def test_sym_zero_is_the_trivial_sheaf(capsys, argv, values):
    # 1/(1 - T^d) at every point of G_m: the series (1 - T)/(1 - qT)
    assert console_main(argv.split()) == 0
    report = json.loads(capsys.readouterr().out)
    assert [c["value"] for c in report["series"][0]["coefficients"]] == values


def test_verify_refuses_sym_zero_and_compare_agrees(tmp_path, capsys):
    # the Hodge bound that verify checks does not hold for Sym^0; compare has no such bound
    cache = tmp_path / "c.txt"
    assert console_main(["verify", "-p", "3", "-n", "1", "-k", "0", "-D", "3",
                         "--cache", str(cache)]) == 1
    assert "k >= 1" in capsys.readouterr().err
    assert not cache.exists()
    out = tmp_path / "r.json"
    assert console_main(["compare", "-p", "3", "-n", "1", "-k", "0", "-D", "2",
                         "--out", str(out)]) == 0
    assert _read(out)["verdict"]["status"] == "agree"


def test_even_characteristic_is_usage_error(tmp_path, capsys):
    code = console_main(["verify", "-p", "2", "-n", "1", "-k", "1", "-D", "1"])
    assert code == 1
    assert "odd prime" in capsys.readouterr().err


def test_bad_arguments_exit_one(tmp_path):
    assert console_main(["verify", "-p", "3", "-D", "2"]) == 1  # no exponent
    assert console_main(["nonsense"]) == 1
    assert console_main(["syminf", "-p", "3", "-k", "1", "--kappa", "1",
                         "-D", "1"]) == 1  # both exponents, which _admit refuses
    assert console_main(["points", "-p", "3", "-D", "-1"]) == 1
    cache = tmp_path / "c.txt"
    cache.write_text("# klsym sum cache v1\nv1|3,1,[0,1]|1|1|[1]|1|3:[-1,0]\n")
    assert console_main(["cache", "verify", "--cache", str(cache),
                         "--sample", "-1"]) == 1
    assert console_main(["--version"]) == 0
    for n in ("-1", "-2"):  # no sums to build a factor from
        assert console_main(["local", "-p", "3", "-n", n, "-d", "1", "--rep-int", "1"]) == 1
    # sum and local run no series: they take no --workers and write no --csv
    for command in (["sum", "-m", "1"], ["local"]):
        point = command + ["-p", "3", "-n", "1", "-d", "1", "--rep-int", "1"]
        assert console_main(point + ["--workers", "7"]) == 1
        assert console_main(point + ["--csv", str(tmp_path / "s.csv")]) == 1
    assert not (tmp_path / "s.csv").exists()


# one valid line per subcommand; the tests below derive the bad ones from it
_VALID_LINES = {
    "points": "-p 3 -D 1",
    "sum": "-p 3 -d 1 --rep-int 1 -m 2",
    "local": "-p 3 -d 1 --rep-int 1",
    "symk": "-p 3 -k 1 -D 1",
    "syminf": "-p 3 --kappa 1,2 -D 1",
    "unitroot": "-p 3 -k 1 -D 1 -V 5",
    "verify": "-p 3 -k 1 -D 1",
    "compare": "-p 3 -k 1 -D 1 --workers 2",
    "cache": "stat --cache c.txt --sample 3",
}


def _parsed(parse, argv):
    """parse(argv)'s attributes, or its exit code, with what it printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parse(argv))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


def _console(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = console_main(argv)
    return code, out.getvalue(), err.getvalue()


def _parses_as_reference(argv):
    """(reference, cli.parse) results of argv, cli.parse's checked against the
    argparse reference (oracles.build_parser): the same attributes where it parses,
    exit 0 with text on stdout where it exits 0, and exit 1 with a usage line and an
    error line on stderr where it exits 2, but for a line of both or neither of -k
    and --kappa, which its exclusive group refused and _admit refuses (exit 1)."""
    want, _, _ = _parsed(oracles.build_parser(None).parse_args, argv)
    got, out, err = _parsed(cli.parse, argv)
    if isinstance(want, dict) or want == 0:
        assert (got, bool(out), err) == (want, want == 0, ""), argv
    elif isinstance(got, dict):
        assert want == 2 and (got["k"] is None) == (got["kappa_digits"] is None), argv
        code, _, err = _console(argv)
        assert (code, err.split(":")[0]) == (1, "usage error"), argv
    else:
        assert (want, got, out) == (2, 1, ""), argv
        usage, error = err.splitlines()
        assert usage.startswith("usage: klsym "), argv
        assert re.match(r"klsym( \w+)?: error: ", error), argv
    return want, got


@pytest.mark.parametrize("command", list(cli.COMMANDS))
@pytest.mark.parametrize("case", ["help", "valid", "missing", "bad int", "k and kappa",
                                  "trailing"])
def test_a_command_parses_as_with_every_commands_options(monkeypatch, command, case):
    monkeypatch.delenv(cli.CACHE_ENV, raising=False)
    valid = _VALID_LINES[command]
    tail = {"help": "-h", "valid": valid, "missing": "",
            # the first " 3" is -p's value, or --sample's under cache
            "bad int": valid.replace(" 3", " x", 1),
            "k and kappa": valid + " -k 1 --kappa 1", "trailing": valid + " extra"}[case]
    want, _ = _parses_as_reference([command] + tail.split())
    assert isinstance(want, dict) == (case == "valid")


@pytest.mark.parametrize("argv", [["-h"], ["--version"], [], ["bogus"]])
def test_top_level_parses_the_same_whichever_command_has_options(monkeypatch, argv):
    monkeypatch.delenv(cli.CACHE_ENV, raising=False)
    want, _ = _parses_as_reference(argv)
    assert want == (2 if argv in ([], ["bogus"]) else 0)  # argparse.error exits 2
    if argv == ["-h"]:  # the top-level help names every command with its help
        out = _parsed(cli.parse, argv)[1]
        assert all(re.search(f"{name} +{help_text}", out) for name, (help_text, *_) in
                   cli.COMMANDS.items())


# the top level reads -h, --version and unknown options up to the first other word,
# the command, which reads the rest; unknown words of either level fail last
@pytest.mark.parametrize("argv", [
    "-h symk", "--vers", "-- symk -p x -D 1", "--bad symk -p 3 -k 1 -D 1",
    "-- sum -p 3 -d 1 --rep-int x", "symk -p 3 -k 1 -D 1 sum", "bogus symk -h",
    "--bad symk -h", "symk -p 3 -k 1 -D 1 --out -x",
])
def test_console_main_parses_as_with_every_commands_options(monkeypatch, argv):
    monkeypatch.delenv(cli.CACHE_ENV, raising=False)
    want, got = _parses_as_reference(argv.split())
    assert _console(argv.split()) == (got,) + _parsed(cli.parse, argv.split())[1:]
    assert got == {0: 0, 2: 1}[want]


def _literal_argvs():
    """Every literal command line of this file: a string whose first word names a
    command, or a list whose first item does (any other item reads as "x")."""
    argvs = []
    for node in ast.walk(ast.parse(Path(__file__).read_text(encoding="utf-8"))):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            words = node.value.split()
        elif isinstance(node, ast.List) and node.elts:
            words = [item.value if isinstance(item, ast.Constant)
                     and isinstance(item.value, str) else "x" for item in node.elts]
        else:
            continue
        if words[:1] and words[0] in cli.COMMANDS:
            argvs.append(words)
    return argvs


def _doc_argvs():
    """The klsym lines of README.md and of the CI workflow, in shell words: a word
    with a shell expansion reads as "x", and "$args" as each word of the for loop
    before it."""
    root = Path(__file__).resolve().parent.parent
    argvs = [shlex.split(line, comments=True)[1:] for line in
             (root / "README.md").read_text(encoding="utf-8").splitlines()
             if line.startswith("klsym ")]
    workflow = (root / ".github/workflows/tests.yml").read_text(encoding="utf-8")
    loop = []
    for line in workflow.replace("\\\n", " ").splitlines():
        if line.strip().startswith("#"):
            continue
        loop = next((shlex.split(words) for words in re.findall(r"\bfor args in (.*?); do",
                                                                 line)), loop)
        for text in re.findall(r"\bklsym ([^>|;&]*)", line):
            words = ["x" if "$" in word and word != "$args" else word
                     for word in shlex.split(text)]
            at = words.index("$args") if "$args" in words else None
            argvs += [words] if at is None else [
                words[:at] + item.split() + words[at + 1:] for item in loop]
    return argvs


# the option forms, prefixes and errors of README's grammar, a repeated option, a
# negative value, -h before and after a bad value, and "--" at the top level
_EDGE_LINES = [
    "symk -p3 -k1 -D1", "symk -D=2 -p 3 -k 1", "symk --budget=5 -p 3 -k 1 -D 1",
    "symk -p 3 -k 1 -D 1 --work 2", "symk -p 3 -k 1 -D 1 --c x", "symk -p 3 -p 5 -k 1 -D 1",
    "symk -p 3 -k 1 -D -1", "symk -p", "symk -h -p x", "symk -p x -h",
    "-- symk -p 3 -k 1 -D 1", "cache --cache c stat", "cache stat", "--version symk",
    "-h symk", "bogus symk -h",
]


@pytest.mark.parametrize("source", ["digests", "test_cli", "docs", "edges"])
def test_the_option_table_parses_as_argparse(monkeypatch, source):
    monkeypatch.delenv(cli.CACHE_ENV, raising=False)
    argvs = {"digests": lambda: [row.argv.split() for row in digests.rows()],
             "test_cli": _literal_argvs, "docs": _doc_argvs,
             "edges": lambda: [line.split() for line in _EDGE_LINES]}[source]()
    assert len(argvs) >= 16
    for argv in argvs:
        _parses_as_reference(argv)


def test_cache_stat_reads_the_cache_from_the_environment(monkeypatch):
    monkeypatch.setenv(cli.CACHE_ENV, "sums.txt")
    assert _parses_as_reference(["cache", "stat"])[1]["cache_path"] == "sums.txt"
    monkeypatch.delenv(cli.CACHE_ENV)
    assert _parses_as_reference(["cache", "stat"]) == (2, 1)


def test_a_run_loads_no_argparse_gettext_or_locale(tmp_path):
    # argparse imports gettext, whose first message lookup imports locale, a fixed
    # cost of every short run; numpy, json, fractions, fcntl and shutil load none
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(klsym.__file__)))
    env.pop(cli.CACHE_ENV, None)
    probe = ("import sys, klsym.cli; code = klsym.cli.console_main(); print(sorted(set(sys."
             "modules) & {'argparse', 'gettext', 'locale'})); sys.exit(code)")
    proc = subprocess.run([sys.executable, "-c", probe, "symk", "-p", "3", "-k", "1", "-D",
                           "1", "--out", str(tmp_path / "r.json")],
                          capture_output=True, text=True, timeout=60, env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")
    assert _read(tmp_path / "r.json")["config"]["D"] == 1


def test_the_console_script_parses_sys_argv(tmp_path, monkeypatch):
    out = tmp_path / "points.json"
    monkeypatch.setattr(sys, "argv", ["klsym", "points", "-p", "3", "-D", "1",
                                      "--out", str(out)])
    assert console_main() == 0
    assert _read(out)["D"] == 1


@pytest.mark.parametrize("argv", [
    ["points", "-p", "3", "-D", "1", "--out", "{missing}/x.json"],
    ["symk", "-p", "3", "-k", "1", "-D", "1", "--csv", "{missing}/x.csv"],
    ["cache", "stat", "--cache", "{missing}/x"],
])
def test_unwritable_path_exits_one_without_traceback(tmp_path, capsys, argv):
    missing = tmp_path / "no" / "such" / "dir"
    code = console_main([arg.format(missing=missing) for arg in argv])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_usage_validation_direct():
    with pytest.raises(Exception, match="odd prime"):
        run(RunConfig(p=9, mode="symk", k=1, D=1))
    with pytest.raises(Exception, match="degree cap D must be positive"):
        run(RunConfig(p=3, mode="symk", k=1, D=-1))
    with pytest.raises(Exception, match="needs an integer exponent"):
        run(RunConfig(p=3, mode="compare-slopes", kappa_digits=(1,), D=1))


def test_workers_are_bounded_before_any_pool_exists(tmp_path, capsys, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool was built")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
    assert console_main("symk -p 3 -n 1 -k 2 -D 10 --workers 100000".split()) == 1
    assert capsys.readouterr().err == "usage error: need 1 to 32 workers, not 100000\n"
    monkeypatch.undo()
    assert console_main(["symk", "-p", "3", "-n", "1", "-k", "1", "-D", "1",
                         "--workers", "32", "--out", str(tmp_path / "r.json")]) == 0


# after the import: the lazily imported modules that are loaded, whether the import's
# objects are frozen, and whether a collection still frees a cycle made afterwards
_IMPORT_PROBE = """
import gc, json, sys, weakref
import klsym.cli
class Node:
    pass
node = Node()
node.self, ref = node, weakref.ref(node)
del node
gc.collect()
print(json.dumps({"loaded": [name for name in ("concurrent.futures", "csv", "dataclasses")
                             if name in sys.modules],
                  "frozen": gc.get_freeze_count(), "cycle_freed": ref() is None}))
"""


def test_a_fresh_import_loads_only_what_a_run_uses(tmp_path):
    # in a fresh interpreter: pytest itself may have loaded these modules already
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(klsym.__file__)))
    env.pop(cli.CACHE_ENV, None)
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE],
                          capture_output=True, text=True, timeout=20, env=env, check=True)
    probe = json.loads(proc.stdout)
    assert probe["loaded"] == []
    assert probe["frozen"] > 0
    assert probe["cycle_freed"]
    # the pool and the CSV writer still load where a run asks for them
    argv = "symk -p 5 -n 2 -k 4 -D 1 --workers 2"
    report, table = tmp_path / "r.json", tmp_path / "r.csv"
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, klsym.cli; sys.exit(klsym.cli.console_main())",
         *argv.split(), "--csv", str(table), "--out", str(report)],
        capture_output=True, text=True, timeout=60, env=env)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert digests.digest(_read(report)) == digests.pinned(argv)
    assert table.read_text(encoding="ascii").count("\n") > 1


def test_worker_count_does_not_change_bytes(tmp_path):
    reports = []
    for workers in ("1", "3"):
        out = tmp_path / f"w{workers}.json"
        code = console_main(["verify", "-p", "3", "-n", "1", "-k", "1",
                             "-D", "3", "--workers", workers,
                             "--out", str(out)])
        assert code == 0
        reports.append(digests.canonical(_read(out)))
    assert reports[0] == reports[1]


def test_timing_counts_the_orbits_and_workers_move_no_byte(tmp_path):
    reports = []
    for workers in ("1", "2"):
        out = tmp_path / f"w{workers}.json"
        assert console_main(["verify", "-p", "5", "-n", "1", "-k", "2", "-D", "3",
                             "--workers", workers, "--out", str(out)]) == 0
        report = _read(out)
        assert report["timing"]["orbits"] == {"representatives": 28, "points": 54}
        reports.append(digests.canonical(report))
    assert reports[0] == reports[1]


def test_sums_run_on_the_calling_thread(tmp_path, monkeypatch):
    # the workers build local series only: every sum, and so every cache
    # append, runs on the calling thread, in point order
    on_main, real = [], KloostermanEvaluator.kloosterman

    def kloosterman(self, *args):
        on_main.append(threading.current_thread() is threading.main_thread())
        return real(self, *args)

    monkeypatch.setattr(KloostermanEvaluator, "kloosterman", kloosterman)
    assert console_main(["verify", "-p", "5", "-n", "1", "-k", "2", "-D", "3",
                         "--workers", "2", "--cache", str(tmp_path / "sums.cache"),
                         "--out", str(tmp_path / "r.json")]) == 0
    assert on_main and all(on_main)


def _series_key(gs):
    """The certificate, and each coefficient with its precision and vcert."""
    return gs.cert, [(c.coords, c.N, c.vcert) if isinstance(c, PadicCyc) else c
                     for c in gs.coeffs]


# (p, n, D, reach): at n = 3 and p >= 5, Kl(t, 4) at degree 1 is over the budget,
# so those runs read Kl(t, 1..2) there; at p = 3 with n odd every orbit is one point
@pytest.mark.parametrize("p,n,D,max_degree", [
    (3, 1, 3, None), (3, 2, 2, None), (3, 3, 2, None),
    (5, 1, 3, None), (5, 2, 2, None), (5, 3, 1, 2),
    (7, 1, 2, None), (7, 2, 1, None), (7, 3, 1, 2),
    (11, 1, 2, None), (11, 2, 1, None), (11, 3, 1, 2),
])
def test_orbit_series_matches_the_per_point_route(p, n, D, max_degree):
    base = make_field(p, 1)
    max_degree = max_degree or reach(n, D)
    ev = KloostermanEvaluator(base)
    factors = [local_factor(ev, n, pt, max_degree=max_degree) for pt in points_up_to(base, D)]
    orbits = cli.galois_orbits(ev, n, D, max_degree=max_degree)
    assert list(orbits) == [lf.point for lf in factors]
    reps = {lf.point for lf, _ in orbits.values()}
    # the twists t -> c^(n+1) t move some degree-1 point unless every c^(n+1) = 1
    assert (len(reps) < len(factors)) == ((n + 1) % (p - 1) != 0)
    kappa, V = PadicExponent.truncated(p, (2, 1)), 3 * (p - 1)
    # the exact series from the power sums against the per-point Euler product
    for route, local, per_point in (
            (power_sum_series, lambda lf, R: symk_local(lf, 2, R),
             lambda lf, R: oracles.symk_local(lf, 2, R)),
            (euler_product,) + (lambda lf, R: sym_inf_local(lf, kappa, V, R),) * 2,
            (euler_product,) + (lambda lf, R: unit_root_local(lf, kappa, V, R),) * 2):
        assert (_series_key(route(base, cli.series(orbits, D, local), D))
                == _series_key(series_per_point(base, factors, D, per_point)))


# (p, a, n, k, D, budget), in pairs: k below the weight cut, the least weight the
# default V drops at degree 1, (V-1) // (a (p-1)) + 1, where (p-1) a (k+1) binds, then
# k at or above it, where the cert binds; then the symk/syminf rows of tests/digests.txt
# at n = 3 to 5, each at the budget of its row; an id omits the budget
PADIC_PAIRS = [
    (3, 1, 1, 2, 6, DEFAULT_BUDGET), (3, 1, 1, 19, 6, DEFAULT_BUDGET),
    (5, 1, 1, 3, 4, DEFAULT_BUDGET), (5, 1, 1, 13, 4, DEFAULT_BUDGET),
    (7, 1, 1, 2, 3, DEFAULT_BUDGET), (7, 1, 1, 9, 3, DEFAULT_BUDGET),
    (3, 2, 1, 2, 3, DEFAULT_BUDGET), (3, 2, 1, 7, 3, DEFAULT_BUDGET),
    (3, 1, 2, 2, 3, DEFAULT_BUDGET), (3, 1, 2, 7, 3, DEFAULT_BUDGET),
    (5, 1, 2, 1, 2, DEFAULT_BUDGET), (5, 1, 2, 6, 2, DEFAULT_BUDGET),
    (3, 1, 3, 1, 2, DEFAULT_BUDGET), (3, 1, 4, 1, 1, 10**11), (3, 1, 5, 1, 1, 10**15),
]


@pytest.mark.parametrize("p,a,n,k,D,budget", PADIC_PAIRS,
                         ids=["-".join(map(str, pair[:5])) for pair in PADIC_PAIRS])
def test_padic_series_agrees_with_the_exact_series_to_its_need(p, a, n, k, D, budget):
    config = RunConfig(p=p, a=a, n=n, mode="symk", k=k, D=D, budget=budget)
    need, least = oracles.syminf_meets_symk(run(config._replace(mode="syminf"))[0],
                                            run(config)[0])
    assert least is None or least >= need, (need, least)


def test_warm_cache_rerun_is_byte_identical(tmp_path):
    cache = tmp_path / "cache.txt"
    outs = []
    for tag in ("cold", "warm"):
        out = tmp_path / f"{tag}.json"
        code = console_main(["symk", "-p", "3", "-n", "1", "-k", "2",
                             "-D", "3", "--cache", str(cache),
                             "--out", str(out)])
        assert code == 0
        outs.append(_read(out))
    assert digests.canonical(outs[0]) == digests.canonical(outs[1])
    assert outs[0]["timing"]["cache"]["misses"] > 0
    assert outs[1]["timing"]["cache"]["misses"] == 0
    assert outs[1]["timing"]["cache"]["hits"] > 0


def test_cache_env_var_sets_default(tmp_path, monkeypatch):
    cache = tmp_path / "envcache.txt"
    monkeypatch.setenv("KLSYM_CACHE", str(cache))
    code = console_main(["sum", "-p", "3", "-n", "1", "-d", "1",
                         "--rep-int", "1", "-m", "1",
                         "--out", str(tmp_path / "s.json")])
    assert code == 0
    assert cache.exists()
    assert "v1|" in cache.read_text()
    assert len(SumCache(str(cache))) == 1
    # local reads Kl(t, 1) from the cache and appends the Kl(t, 2) it computes
    assert console_main(["local", "-p", "3", "-n", "1", "-d", "1", "--rep-int", "1",
                         "--out", str(tmp_path / "l.json")]) == 0
    assert [key[-1] for _, key, _ in SumCache(str(cache)).records()] == [1, 2]


def test_report_goes_to_stdout_by_default(capsys):
    code = console_main(["points", "-p", "3", "-D", "1"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert [pt["rep_int"] for pt in report["points"]] == [1, 2]


def test_points_to_degree_zero_is_an_empty_list(capsys):
    # a series run needs D >= 1, but the points of degree <= 0 are a plain empty list
    assert console_main(["points", "-p", "3", "-D", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["points"] == []


def test_sum_subcommand_matches_library(tmp_path):
    out = tmp_path / "s.json"
    code = console_main(["sum", "-p", "3", "-n", "1", "-d", "2",
                         "--rep-int", "1", "-m", "2", "--out", str(out)])
    assert code == 0
    report = _read(out)
    base = make_field(3, 1)
    field = make_field(3, 2)
    pt = orbit_rep(base, field, field.from_int(1))
    want = KloostermanEvaluator(base).kloosterman(1, pt, 2)
    assert report["value"] == want.serialize()
    assert report["integer"] == want.as_integer()


def test_local_subcommand_reports_slopes(tmp_path):
    out = tmp_path / "f.json"
    code = console_main(["local", "-p", "3", "-n", "1", "-d", "1",
                         "--rep-int", "2", "--out", str(out)])
    assert code == 0
    report = _read(out)
    assert report["coefficients"][0] == "3:[1,0]"
    assert len(report["coefficients"]) == 3
    assert report["newton_slopes"] == [[[0, 1], [1, 1]], [[1, 1], [1, 1]]]
    assert report["sign"] == 1


def test_csv_table(tmp_path):
    out = tmp_path / "r.json"
    table = tmp_path / "r.csv"
    code = console_main(["symk", "-p", "3", "-n", "1", "-k", "2", "-D", "3",
                         "--out", str(out), "--csv", str(table)])
    assert code == 0
    lines = table.read_text().splitlines()
    assert lines[0].startswith("series,r,exact,ordq_num")
    assert len(lines) == 1 + len(_read(out)["series"][0]["coefficients"])
    assert lines[1].split(",")[:3] == ["symk", "0", "True"]


def test_kappa_digit_and_integer_spellings(tmp_path):
    out_digits = tmp_path / "d.json"
    out_int = tmp_path / "i.json"
    assert console_main(["syminf", "-p", "3", "-n", "1", "--kappa", "2,1,1",
                         "-D", "2", "--out", str(out_digits)]) == 0
    assert console_main(["syminf", "-p", "3", "-n", "1", "-k", "2",
                         "-D", "2", "--out", str(out_int)]) == 0
    # -k is the one spelling of an exact exponent
    assert console_main(["syminf", "-p", "3", "-n", "1", "--kappa-int", "2",
                         "-D", "2", "--out", str(tmp_path / "x.json")]) == 1
    digits = _read(out_digits)
    exact = _read(out_int)
    assert digits["config"]["exponent"] == {"kind": "digits",
                                            "digits": [2, 1, 1]}
    assert exact["config"]["exponent"] == {"kind": "integer", "value": 2}
    # truncated exponents cap the certificate, exact ones do not
    assert digits["series"][0]["cert"] < exact["series"][0]["cert"]


def test_cache_admin_cycle(tmp_path):
    cache = tmp_path / "c.txt"
    assert console_main(["sum", "-p", "3", "-n", "1", "-d", "1",
                         "--rep-int", "1", "-m", "1", "--cache", str(cache),
                         "--out", str(tmp_path / "s.json")]) == 0

    out = tmp_path / "stat.json"
    assert console_main(["cache", "stat", "--cache", str(cache),
                         "--out", str(out)]) == 0
    assert _read(out)["cache_stat"]["records"] == 1

    out = tmp_path / "verify.json"
    assert console_main(["cache", "verify", "--cache", str(cache),
                         "--out", str(out)]) == 0
    assert _read(out)["cache_verify"]["bad_lines"] == []

    # flip the stored value: verify recomputes and reports the line
    lines = cache.read_text().splitlines()
    assert lines[1].endswith("3:[-1,0]")
    tampered = lines[1].replace("3:[-1,0]", "3:[5,0]")
    cache.write_text("\n".join([lines[0], tampered]) + "\n")
    out = tmp_path / "verify2.json"
    assert console_main(["cache", "verify", "--cache", str(cache),
                         "--out", str(out)]) == 2
    assert _read(out)["cache_verify"]["bad_lines"] == [2]

    # duplicated records are dropped by compact
    cache.write_text("\n".join([lines[0], lines[1], lines[1]]) + "\n")
    out = tmp_path / "compact.json"
    assert console_main(["cache", "compact", "--cache", str(cache),
                         "--out", str(out)]) == 0
    assert _read(out)["cache_compact"]["kept"] == 1
    assert len(cache.read_text().splitlines()) == 2


@pytest.mark.parametrize("action", ["stat", "verify", "compact"])
def test_cache_action_on_a_missing_file_exits_one(tmp_path, capsys, action):
    missing = tmp_path / "missing"
    assert console_main(["cache", action, "--cache", str(missing)]) == 1
    assert capsys.readouterr().err == f"error: {missing}: no such sum cache\n"
    assert not missing.exists()


def test_cache_verify_non_canonical_base_degree_one(tmp_path):
    # degree-1 points live in the base field itself, not the canonical F_9
    cache = tmp_path / "c.txt"
    base = make_field(3, 2, (2, 2, 1))
    ev = KloostermanEvaluator(base, SumCache(cache))
    for pt in closed_points(base, 1):
        ev.kloosterman(1, pt, 1)
    ev.cache.flush()  # the evaluator holds its sums until a flush
    out = tmp_path / "verify.json"
    assert console_main(["cache", "verify", "--cache", str(cache),
                         "--sample", "8", "--out", str(out)]) == 0
    report = _read(out)["cache_verify"]
    assert report["checked_lines"] == list(range(2, 10))
    assert report["bad_lines"] == []


@pytest.mark.parametrize("records,checked", [
    # (1, 0) lies in F_3 and 0 in no orbit, so neither is a point of degree 2
    (["v1|3,1,[0,1]|1|2|[1,0]|1|3:[-1,0]"], [2]),
    (["v1|3,1,[0,1]|1|2|[0,0]|1|3:[-1,0]"], [2]),
    # (X + 1)^2 builds no field; the good record after it is still checked
    (["v1|3,2,[1,2,1]|1|1|[1,0]|1|3:[-1,0]", "v1|3,1,[0,1]|1|1|[1]|1|3:[-1,0]"], [2, 3]),
    # a sum in F_(3^14), and a base F_(3^30), are past the field cap: no run wrote them
    (["v1|3,1,[0,1]|1|1|[1]|14|3:[1,0]", "v1|3,1,[0,1]|1|1|[1]|1|3:[-1,0]"], [2, 3]),
    ([f"v1|3,30,[1{',0' * 29},1]|1|1|[1{',0' * 29}]|1|3:[-1,0]",
      "v1|3,1,[0,1]|1|1|[1]|1|3:[-1,0]"], [2, 3]),
], ids=["subfield", "zero", "reducible", "sum-past-cap", "base-past-cap"])
def test_cache_verify_counts_a_record_off_its_degree_as_bad(tmp_path, capsys, records,
                                                           checked):
    cache = tmp_path / "c.txt"
    cache.write_text("# klsym sum cache v1\n" + "".join(r + "\n" for r in records))
    out = tmp_path / "verify.json"
    assert console_main(["cache", "verify", "--cache", str(cache),
                         "--out", str(out)]) == 2
    assert "Traceback" not in capsys.readouterr().err
    report = _read(out)["cache_verify"]
    assert (report["checked_lines"], report["bad_lines"]) == (checked, [2])


def test_corrupt_cache_reports_line(tmp_path, capsys):
    cache = tmp_path / "c.txt"
    cache.write_text("# klsym sum cache v1\nv1|broken\n")
    code = console_main(["cache", "stat", "--cache", str(cache)])
    assert code == 1
    assert ":2:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["symk", "-p", "3", "-k", "1", "-D", "1", "--cache", "{cache}"],
    ["cache", "stat", "--cache", "{cache}"],
], ids=["symk", "cache-stat"])
def test_non_ascii_cache_byte_is_a_corrupt_record(tmp_path, capsys, argv):
    cache = tmp_path / "bad.txt"
    cache.write_bytes(b"# klsym sum cache v1\nv1|3,1,[0,1]|1|1|[1]|1|3:[1,\xff]\n")
    assert console_main([arg.format(cache=cache) for arg in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cache}:2: ")
    assert "Traceback" not in err


BIG_LEVEL = "1000000000000000000000000000057"

# console_main in a fresh process; the last line of stderr lists the sizes
# of the fields whose discrete-log tables the run built, one per table build
_CHILD = """
import sys
import klsym.ff as ff
from klsym.cli import console_main
built, build = [], ff._MultData.__init__
def record(self, field):
    built.append(field.size)
    build(self, field)
ff._MultData.__init__ = record
code = console_main(sys.argv[1:])
print(sorted(built), file=sys.stderr)
sys.exit(code)
"""


@pytest.mark.parametrize("argv,tables", [
    (["points", "-p", "3", "-D", "14"], []),
    (["symk", "-p", BIG_LEVEL, "-k", "1", "-D", "1"], []),
    (["symk", "-p", "3", "-a", "100000000", "-k", "1", "-D", "1"], []),
    (["symk", "-p", "3", "-n", "100000000", "-k", "1", "-D", "1"], []),
    (["symk", "-p", "3", "-k", "100000000", "-D", "1"], []),
    # the point is canonicalised on the 6-entry table of F_7 first
    (["sum", "-p", "7", "-n", "100000000", "-d", "1", "--rep-int", "1"], [7]),
    (["cache", "stat", "--cache", "{cache}"], []),
    (["verify", "-p", "5", "-n", "1", "-k", "2", "-D", "3", "-V", "400"], []),
    # every series to T^0 is the constant 1, so a series run needs D >= 1
    *(([cmd, "-p", "3", "-n", "1", "-k", "1", "-D", "0", "--cache", "{cache}.new"], [])
      for cmd in ("symk", "syminf", "unitroot", "verify", "compare")),
], ids=["points-D", "symk-p", "symk-a", "symk-n", "symk-k", "sum-n",
        "cache-level", "verify-V", "symk-D0", "syminf-D0", "unitroot-D0", "verify-D0",
        "compare-D0"])
def test_oversize_input_exits_one_before_any_work(tmp_path, argv, tables):
    cache = tmp_path / "c.txt"
    cache.write_text(f"# klsym sum cache v1\nv1|3,1,[0,1]|1|1|[1]|1|{BIG_LEVEL}:[1,0]\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(klsym.__file__)))
    env.pop(cli.CACHE_ENV, None)
    # a hang fails on the timeout instead of stalling the suite
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, *(arg.format(cache=cache) for arg in argv)],
        capture_output=True, text=True, timeout=20, env=env)
    assert proc.returncode == 1
    assert proc.stderr.startswith(("error: ", "usage error: "))
    assert "Traceback" not in proc.stderr
    assert json.loads(proc.stderr.splitlines()[-1]) == tables
    assert os.listdir(tmp_path) == ["c.txt"]  # no new cache file


@pytest.mark.parametrize("argv,err", [
    (["verify", "-p", "5", "-n", "1", "-k", "2", "-D", "3", "-V", "400"],
     "error: precision V = 400 needs T*V*N = 4040000 steps, budget 2000000"),
    (["unitroot", "-p", "3", "-n", "1", "-k", "2", "-D", "6", "-V", "100000"],
     "error: precision V = 100000 needs T*V*N = 5000100000 steps, budget 2000000"),
    (["syminf", "-p", "3", "-n", "1", "--kappa", "3", "-D", "2"],
     "usage error: digits must be base-3 digits, got (3,)"),
    (["symk", "-p", "3", "-n", "1", "-k", "1", "-D", "1000000000"],
     "error: a report to degree D = 1000000000 builds 3000000003 coefficients, "
     "about 60000000060 steps, budget 2000000"),
    (["symk", "-p", "3", "-n", "1", "-k", "1", "-D", "9" * 23],
     f"error: a report to degree D = {'9' * 23} builds {3 * 10 ** 23} coefficients, "
     f"about {60 * 10 ** 23} steps, budget 2000000"),
], ids=["verify-V", "unitroot-V", "syminf-kappa", "symk-report-D", "symk-report-D23"])
def test_a_refused_run_leaves_no_trace(tmp_path, argv, err):
    # every refusal is made before a discrete-log table, a sum or the cache file; a
    # symk run reads only to degree delta + 1 = 2 here, so its report to D is priced
    # apart from its read
    cache = tmp_path / "new.cache"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(klsym.__file__)))
    env.pop(cli.CACHE_ENV, None)
    proc = subprocess.run([sys.executable, "-c", _CHILD, *argv, "--cache", str(cache)],
                          capture_output=True, text=True, timeout=20, env=env)
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == [err, "[]"]
    assert not cache.exists()


@pytest.mark.parametrize("argv,err", [
    ("sum -p 3 -n 1 -d 1 --rep-int 0", "usage error: bad point: zero has no closed point"),
    ("local -p 3 -n 1 -d 1 --rep-int 0", "usage error: bad point: zero has no closed point"),
    ("local -p 3 -n 1 -d 40 --rep-int 1", "error: field size 3^40 exceeds the configured cap"),
    ("sum -p 3 -n 1 -m 0 -d 1 --rep-int 1", "usage error: need n >= 1 and m >= 1"),
    ("local -p 3 -n 0 -d 1 --rep-int 1", "usage error: need n >= 1"),
    ("sum -p 3 -n 1 -m 1 -d 1 --rep-int 1 --budget 0",
     "error: sum over (F_3)^1 needs 2^1 steps, budget 0"),
], ids=["sum-zero", "local-zero", "local-field-cap", "sum-m-zero", "local-n-zero",
        "sum-budget"])
def test_a_refused_point_opens_no_cache(tmp_path, capsys, argv, err):
    # the field, the point, n and m are checked before the cache file is opened, and
    # a cache file is created by its first record, so a sum the budget refuses
    # leaves none either
    cache = tmp_path / "new.cache"
    assert console_main(argv.split() + ["--cache", str(cache)]) == 1
    assert capsys.readouterr().err == err + "\n"
    assert not cache.exists()


def test_a_warm_cache_serves_a_sum_at_budget_zero(tmp_path, capsys):
    cache = tmp_path / "warm.cache"
    argv = "sum -p 3 -n 1 -m 1 -d 1 --rep-int 1 --cache".split() + [str(cache)]
    assert console_main(argv) == 0
    cold = digests.canonical(json.loads(capsys.readouterr().out))
    assert console_main(argv + ["--budget", "0"]) == 0
    assert digests.canonical(json.loads(capsys.readouterr().out)) == cold


def test_torn_final_record_is_skipped_and_repaired(tmp_path):
    cache = tmp_path / "t.txt"
    out = tmp_path / "r.json"
    argv = ["symk", "-p", "3", "-n", "1", "-k", "1", "-D", "2",
            "--cache", str(cache), "--out", str(out)]
    assert console_main(argv) == 0
    want = digests.canonical(_read(out))
    full = cache.read_bytes()
    start = full.rstrip(b"\n").rfind(b"\n") + 1  # first byte of the last record
    for cut in range(start, len(full)):
        cache.write_bytes(full[:cut])
        assert console_main(argv) == 0, cut
        report = _read(out)
        assert report["timing"]["cache"]["torn"] == (1 if cut > start else 0)
        assert digests.canonical(report) == want
        # the torn tail is cut off and the lost record appended again
        assert cache.read_bytes() == full

        cache.write_bytes(full[:cut])
        assert console_main(["cache", "compact", "--cache", str(cache),
                             "--out", str(tmp_path / "c.json")]) == 0, cut
        assert cache.read_bytes() == full[:start]


def test_run_builds_each_local_factor_once(monkeypatch):
    built = []
    real = cli.local_factor

    def counting(ev, n, pt, max_degree=None):
        built.append(pt.sort_key())
        return real(ev, n, pt, max_degree=max_degree)

    monkeypatch.setattr(cli, "local_factor", counting)
    report, code = run(RunConfig(p=3, n=1, mode="verify-newton-hodge",
                                 k=2, D=4, V=4))
    assert code == 0
    assert report["derived"]["attempts"] == 3
    points = points_up_to(make_field(3, 1), 4)
    assert len(points) == 31
    assert sorted(built) == sorted(pt.sort_key() for pt in points)


def test_run_derives_the_closed_points_once(monkeypatch):
    degrees = []
    real = ff.closed_points

    def counting(base, d):
        degrees.append(d)
        return real(base, d)

    monkeypatch.setattr(ff, "closed_points", counting)
    report, code = run(RunConfig(p=3, n=1, mode="verify-newton-hodge",
                                 k=2, D=4, V=4))
    assert code == 0
    assert report["derived"]["attempts"] == 3
    assert degrees == [1, 2, 3, 4]


@pytest.mark.parametrize("mode", ["symk", "verify-newton-hodge",
                                  "compare-slopes"])
def test_symk_work_is_bounded_by_the_budget(mode):
    # D k^2 = 3 * 3^2 products against a budget of 26; k = p = 3 lies outside the degree
    # theorem, so the exact series is built to D in every mode
    with pytest.raises(ResourceError, match=r"D\*k\^2 = 27 products, budget 26"):
        run(RunConfig(p=3, mode=mode, k=3, D=3, budget=26))


def test_ring_products_are_bounded_by_the_budget(capsys, monkeypatch):
    # 1008 points of degree 1, each 3 Newton products and 1 Euler product of about
    # 1008^2 steps; refused before any sum or table
    monkeypatch.delenv(cli.CACHE_ENV, raising=False)
    t0 = time.perf_counter()
    assert console_main("symk -p 1009 -k 1 -D 1".split()) == 1
    assert time.perf_counter() - t0 < 5
    assert "take 4032 products in Z[zeta_1009]" in capsys.readouterr().err


def test_the_product_budget_counts_only_the_products_that_run(capsys, monkeypatch):
    # 9095 products of about 10^2 steps fit the default budget; the digest is that of
    # the report at --budget 3000000, pinned when products by the constant term 1
    # were still made and counted (29770 products)
    monkeypatch.delenv(cli.CACHE_ENV, raising=False)
    argv = "symk -p 11 -n 1 -k 1 -D 4"
    assert console_main(argv.split()) == 0
    assert digests.digest(json.loads(capsys.readouterr().out)) == digests.pinned(argv)
    # 100 points, each 3 Newton products and 1 Euler product of about 100^2 steps
    assert console_main("symk -p 101 -n 1 -k 1 -D 1".split()) == 1
    assert "take 400 products in Z[zeta_101], about 4000000 steps" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["syminf", "unitroot"])
def test_padic_modes_do_not_count_symk_work(mode):
    # symk refuses D k^2 = 1600 products; the same run in a p-adic mode passes that
    # and its 22 ring products, and reaches its sums, which the budget then refuses
    config = dict(p=3, n=3, k=40, D=1, budget=1000)
    with pytest.raises(ResourceError, match=r"D\*k\^2 = 1600 products, budget 1000"):
        run(RunConfig(mode="symk", **config))
    with pytest.raises(ResourceError, match="sum over"):
        run(RunConfig(mode=mode, **config))


@pytest.mark.parametrize("mode,work", [("syminf", 300), ("unitroot", 60)])
def test_precision_work_is_bounded_by_the_budget(mode, work):
    # V = 10 at p = 3: N = 6 digits, and w = 4 gives T = 5 weight tuples (1 in unitroot)
    config = dict(p=3, mode=mode, k=1, D=1, V=10)
    report, code = run(RunConfig(budget=work, **config))
    assert (code, report["derived"]["V_used"]) == (0, 10)
    with pytest.raises(ResourceError, match=rf"T\*V\*N = {work} steps, budget {work - 1}"):
        run(RunConfig(budget=work - 1, **config))


@pytest.mark.parametrize("mode,V", [("syminf", "200"), ("unitroot", "10000")])
def test_huge_precision_exits_one_without_traceback(capsys, mode, V):
    # T V N is 100 * 200 * 101 and 1 * 10000 * 5001, over the default budget
    code = console_main([mode, "-p", "3", "-n", "1", "-k", "1", "-D", "1", "-V", V])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: precision V = {V} needs T*V*N = ")
    assert "Traceback" not in err


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this Python has no int-to-str digit limit")
def test_a_report_over_the_digit_limit_exits_one_without_traceback(tmp_path, capsys,
                                                                  monkeypatch):
    # at a limit of 640 digits, c_1 has 635 digits at k = 1500 and 677 at k = 1600
    monkeypatch.delenv(cli.CACHE_ENV, raising=False)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        codes = [console_main(f"symk -p 7 -n 1 -k {k} -D 1 --budget 3000000 "
                              f"--out {tmp_path / str(k)}".split()) for k in (1500, 1600)]
    finally:
        sys.set_int_max_str_digits(limit)
    assert codes == [0, 1]
    assert (tmp_path / "1500").exists() and not (tmp_path / "1600").exists()
    assert capsys.readouterr().err == ("error: the report has an integer of more than "
                                       "640 digits, Python's limit (-X int_max_str_digits "
                                       "raises it)\n")


def test_retry_doubles_precision_then_reports():
    seen = []

    def undecided(V):
        seen.append(V)
        return None, None, Verdict("inconclusive", {"r": 1})

    result, V, attempts = _retry_precision(undecided, [4, 8, 16, 32], None)
    assert seen == [4, 8, 16, 32]
    assert attempts == MAX_RETRIES + 1
    assert V == 32
    assert result[2].status == "inconclusive"

    def decided_at_16(V):
        return None, None, Verdict("pass" if V >= 16 else "inconclusive", None)

    result, V, attempts = _retry_precision(decided_at_16, [4, 8, 16, 32], None)
    assert (V, attempts) == (16, 3)
    assert result[2].status == "pass"

    def starved(V):
        raise PrecisionError("never enough")

    with pytest.raises(PrecisionError, match="undecided after"):
        _retry_precision(starved, [4, 8, 16, 32], None)


def test_retry_stops_where_check_refuses_the_doubled_precision():
    seen = []

    def undecided(V):
        seen.append(V)
        return None, None, Verdict("inconclusive", {"r": 1})

    refusal = ResourceError("V = 16 is over the budget")
    result, V, attempts = _retry_precision(undecided, [4, 8], refusal)
    assert (seen, V, attempts) == ([4, 8], 8, 2)
    assert result[2].status == "inconclusive"

    def starved(V):
        raise PrecisionError("never enough")

    with pytest.raises(ResourceError, match="V = 16 is over the budget"):
        _retry_precision(starved, [4, 8], refusal)


def test_precision_ladder_doubles_while_the_budget_allows():
    # T V N is 55,800 at V = 60, 439,200 at 120 and 3,484,800 at 240,
    # against the default budget of 2,000,000
    config = RunConfig(p=3, n=1, mode="verify-newton-hodge", kappa_digits=(1,), D=3)
    Vs, refusal = _precisions(config, 60)
    assert Vs == [60, 120]
    assert str(refusal) == "precision V = 240 needs T*V*N = 3484800 steps, budget 2000000"
    with pytest.raises(ResourceError, match=r"V = 240 needs T\*V\*N = 3484800 steps"):
        _precisions(config, 240)
    # from V = 10 the retries run out first, at 10 * 2^MAX_RETRIES
    assert _precisions(config, 10) == ([10, 20, 40, 80], None)


def test_retries_stay_within_the_budget():
    # T V N is 55,800 at V = 60, 439,200 at 120 and 3,484,800 at 240,
    # against the default budget of 2,000,000
    config = RunConfig(p=3, n=1, mode="verify-newton-hodge", kappa_digits=(1,), D=3, V=60)
    report, code = run(config)
    assert code == 3
    assert report["derived"] == {"V_initial": 60, "V_used": 120, "attempts": 2}
    assert report["verdict"]["status"] == "inconclusive"
    # one step short of V = 120, the run stops at its first attempt
    report, code = run(config._replace(budget=439_199))
    assert (code, report["derived"]["V_used"]) == (3, 60)
    # from V = 15 every retry fits, and the retry count stops the run at 120
    report, code = run(config._replace(V=15))
    assert report["derived"] == {"V_initial": 15, "V_used": 120, "attempts": 4}


def test_retries_stopped_by_the_budget_exit_three(tmp_path, capsys):
    out = tmp_path / "r.json"
    code = console_main(["verify", "-p", "3", "-n", "1", "--kappa", "1", "-D", "3",
                         "-V", "60", "--out", str(out)])
    assert code == 3
    assert _read(out)["derived"]["V_used"] == 120
    assert "Traceback" not in capsys.readouterr().err


def test_default_precision_scales_with_cap():
    small = default_precision(RunConfig(p=3, n=1, mode="syminf", k=1, D=1))
    large = default_precision(RunConfig(p=3, n=1, mode="syminf", k=1, D=4))
    assert 0 < small < large


@pytest.mark.parametrize("mode", ["unitroot", "syminf", "verify"])
def test_degenerate_factor_is_a_finding(tmp_path, capsys, mode):
    # Kl_1(1, m) = 0 and 6 for m = 1, 2 give the factor 1 + 3T^2: no unit root
    cache = tmp_path / "c.txt"
    cache.write_text("# klsym sum cache v1\nv1|3,1,[0,1]|1|1|[1]|1|3:[0,0]\n"
                     "v1|3,1,[0,1]|1|1|[1]|2|3:[6,0]\n")
    assert console_main([mode, "-p", "3", "-n", "1", "-k", "1", "-D", "1",
                         "--cache", str(cache)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("finding: ")
    assert "Traceback" not in err


def test_unitroot_mode(tmp_path):
    out = tmp_path / "u.json"
    code = console_main(["unitroot", "-p", "3", "-n", "1", "-k", "1",
                         "-D", "2", "--out", str(out)])
    assert code == 0
    report = _read(out)
    rows = report["series"][0]["coefficients"]
    # local factors are slope zero; the first coefficients stay units
    assert rows[0]["ordq"] == [0, 1]
    assert rows[1]["ordq"] == [0, 1]
    assert report["series"][0]["cert"] > 0


def _fuzz(usual):
    """Half usual values, half zero, negative, huge or non-numeric text
    ("\u0663" is an Arabic-Indic 3)."""
    return (usual | st.integers(-2, 9) | st.integers(-10 ** 40, 10 ** 40)
            | st.sampled_from(["", "x", "1.5", "3e2", "0x7", "\u0663"])).map(str)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["symk", "syminf", "unitroot", "verify", "compare"]),
       st.fixed_dictionaries(
           {"-p": _fuzz(st.sampled_from([3, 5, 7])), "-k": _fuzz(st.integers(-3, 6)),
            "-D": _fuzz(st.integers(0, 4))},
           optional={"-a": _fuzz(st.integers(1, 2)), "-n": _fuzz(st.integers(1, 3)),
                     "-V": _fuzz(st.integers(1, 60))}))
def test_fuzzed_run_options_exit_cleanly(command, values):
    # a small budget keeps the valid draws cheap; -V is not an option of symk
    argv = [command, "--budget", "2000"]
    for flag, value in values.items():
        if not (flag == "-V" and command == "symk"):
            argv += [flag, value]
    _exits_cleanly(argv)


def _exits_cleanly(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = console_main(argv)
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err.getvalue(), argv


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["sum", "local"]),
       st.fixed_dictionaries(
           {"-p": _fuzz(st.sampled_from([3, 5, 7])), "-d": _fuzz(st.integers(1, 3)),
            "--rep-int": _fuzz(st.integers(0, 30))},
           optional={"-a": _fuzz(st.integers(1, 2)), "-n": _fuzz(st.integers(1, 3)),
                     "-m": _fuzz(st.integers(1, 3))}))
@example("local", {"-p": "3", "-n": "-1", "-d": "1", "--rep-int": "1"})
def test_fuzzed_point_options_exit_cleanly(command, values):
    # -m is an option of sum only
    argv = [command, "--budget", "2000"]
    for flag, value in values.items():
        if not (flag == "-m" and command == "local"):
            argv += [flag, value]
    _exits_cleanly(argv)
