"""End-to-end checks of the command line driver."""

import json
import os
import subprocess
import sys

import pytest

import klsym
from klsym import cli, ff
from klsym.cli import (
    MAX_RETRIES,
    RunConfig,
    _retry_precision,
    console_main,
    default_precision,
    run,
)
from klsym.errors import PrecisionError, ResourceError
from klsym.expsum import KloostermanEvaluator, SumCache
from klsym.ff import closed_points, make_field, orbit_rep, points_up_to
from klsym.polygon import Verdict


def _read(path):
    with open(path, "r", encoding="ascii") as fh:
        return json.load(fh)


def _strip_timing(report):
    report = dict(report)
    report.pop("timing")
    return json.dumps(report, sort_keys=True)


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


def test_even_characteristic_is_usage_error(tmp_path, capsys):
    code = console_main(["verify", "-p", "2", "-n", "1", "-k", "1", "-D", "1"])
    assert code == 1
    assert "odd prime" in capsys.readouterr().err


def test_bad_arguments_exit_one(tmp_path):
    assert console_main(["verify", "-p", "3", "-D", "2"]) == 1  # no exponent
    assert console_main(["nonsense"]) == 1
    assert console_main(["syminf", "-p", "3", "-k", "1", "--kappa", "1",
                         "-D", "1"]) == 1  # mutually exclusive
    assert console_main(["points", "-p", "3", "-D", "-1"]) == 1
    cache = tmp_path / "c.txt"
    cache.write_text("# klsym sum cache v1\nv1|3,1,[0,1]|1|1|[1]|1|3:[-1,0]\n")
    assert console_main(["cache", "verify", "--cache", str(cache),
                         "--sample", "-1"]) == 1
    assert console_main(["--version"]) == 0


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
    with pytest.raises(Exception, match="nonnegative"):
        run(RunConfig(p=3, mode="symk", k=1, D=-1))
    with pytest.raises(Exception, match="needs an integer exponent"):
        run(RunConfig(p=3, mode="compare-slopes", kappa_digits=(1,), D=1))


def test_worker_count_does_not_change_bytes(tmp_path):
    reports = []
    for workers in ("1", "3"):
        out = tmp_path / f"w{workers}.json"
        code = console_main(["verify", "-p", "3", "-n", "1", "-k", "1",
                             "-D", "3", "--workers", workers,
                             "--out", str(out)])
        assert code == 0
        reports.append(_strip_timing(_read(out)))
    assert reports[0] == reports[1]


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
    assert _strip_timing(outs[0]) == _strip_timing(outs[1])
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


def test_report_goes_to_stdout_by_default(capsys):
    code = console_main(["points", "-p", "3", "-D", "1"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert [pt["rep_int"] for pt in report["points"]] == [1, 2]


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
    assert report["sign"] in (1, -1)


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


def test_cache_verify_non_canonical_base_degree_one(tmp_path):
    # degree-1 points live in the base field itself, not the canonical F_9
    cache = tmp_path / "c.txt"
    base = make_field(3, 2, (2, 2, 1))
    ev = KloostermanEvaluator(base, SumCache(cache))
    for pt in closed_points(base, 1):
        ev.kloosterman(1, pt, 1)
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
], ids=["subfield", "zero", "reducible"])
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
# of the fields whose discrete-log tables the run built
_CHILD = """
import sys
import klsym.ff as ff
from klsym.cli import console_main
code = console_main(sys.argv[1:])
print(sorted(f.size for f in ff._mult_cache), file=sys.stderr)
sys.exit(code)
"""


@pytest.mark.parametrize("argv,tables", [
    (["points", "-p", "3", "-D", "14"], []),
    (["symk", "-p", BIG_LEVEL, "-k", "1", "-D", "1"], []),
    (["symk", "-p", "3", "-a", "100000000", "-k", "1", "-D", "1"], []),
    (["symk", "-p", "3", "-n", "100000000", "-k", "1", "-D", "0"], []),
    (["symk", "-p", "3", "-k", "100000000", "-D", "1"], []),
    # the point is canonicalised on the 6-entry table of F_7 first
    (["sum", "-p", "7", "-n", "100000000", "-d", "1", "--rep-int", "1"], [7]),
    (["cache", "stat", "--cache", "{cache}"], []),
], ids=["points-D", "symk-p", "symk-a", "symk-n", "symk-k", "sum-n",
        "cache-level"])
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


def test_torn_final_record_is_skipped_and_repaired(tmp_path):
    cache = tmp_path / "t.txt"
    out = tmp_path / "r.json"
    argv = ["symk", "-p", "3", "-n", "1", "-k", "1", "-D", "2",
            "--cache", str(cache), "--out", str(out)]
    assert console_main(argv) == 0
    want = _strip_timing(_read(out))
    full = cache.read_bytes()
    start = full.rstrip(b"\n").rfind(b"\n") + 1  # first byte of the last record
    for cut in range(start, len(full)):
        cache.write_bytes(full[:cut])
        assert console_main(argv) == 0, cut
        report = _read(out)
        assert report["timing"]["cache"]["torn"] == (1 if cut > start else 0)
        assert _strip_timing(report) == want
        # the torn tail is cut off and the lost record appended again
        assert cache.read_bytes() == full

        cache.write_bytes(full[:cut])
        assert console_main(["cache", "compact", "--cache", str(cache),
                             "--out", str(tmp_path / "c.json")]) == 0, cut
        assert cache.read_bytes() == full[:start]


def test_run_builds_each_local_factor_once(monkeypatch):
    built = []
    real = cli.local_factor

    def counting(ev, n, pt):
        built.append(pt.sort_key())
        return real(ev, n, pt)

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
    # D k^2 = 3 * 2^2 products against a budget of 11
    with pytest.raises(ResourceError, match=r"D\*k\^2 = 12 products, budget 11"):
        run(RunConfig(p=3, mode=mode, k=2, D=3, budget=11))


@pytest.mark.parametrize("mode", ["syminf", "unitroot"])
def test_padic_modes_do_not_count_symk_work(mode):
    # the same run reaches its sums, which the budget then refuses
    with pytest.raises(ResourceError, match="sum over"):
        run(RunConfig(p=3, mode=mode, k=2, D=3, budget=11))


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


def test_retry_doubles_precision_then_reports():
    seen = []

    def undecided(V):
        seen.append(V)
        return None, None, Verdict("inconclusive", {"r": 1})

    result, V, attempts = _retry_precision(undecided, 4)
    assert seen == [4, 8, 16, 32]
    assert attempts == MAX_RETRIES + 1
    assert V == 32
    assert result[2].status == "inconclusive"

    def decided_at_16(V):
        return None, None, Verdict("pass" if V >= 16 else "inconclusive", None)

    result, V, attempts = _retry_precision(decided_at_16, 4)
    assert (V, attempts) == (16, 3)
    assert result[2].status == "pass"

    def starved(V):
        raise PrecisionError("never enough")

    with pytest.raises(PrecisionError, match="undecided after"):
        _retry_precision(starved, 4)


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
