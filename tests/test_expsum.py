"""Exponential sum engine: frozen values, dual routes, twists, cache."""

import os
import subprocess
import sys
import time
import tracemalloc

import pytest
from hypothesis import example, given, strategies as st

import klsym
from klsym import expsum, ff
from klsym.cli import console_main
from klsym.cyclo import CycInt
from klsym.errors import CacheError, ResourceError, UsageError
from klsym.expsum import (
    CACHE_HEADER,
    KloostermanEvaluator,
    SumCache,
    _direct_sum,
    key_text,
    parse_record,
    record_line,
)
from klsym.ff import closed_points, embed, make_field, orbit_rep, points_up_to
from oracles import (
    direct_reference,
    kloosterman_by_enumeration,
    kloosterman_by_transform,
    kloosterman_table,
    schoolbook_pow,
)


def _point(base, rep_coords, d):
    pts = closed_points(base, d)
    for pt in pts:
        if pt.degree == d and pt.rep == rep_coords:
            return pt
    raise AssertionError("no such point")


# ---------------------------------------------------------------------------
# frozen small values, checked by hand from the definition


def test_kl1_at_one_over_f3():
    base = make_field(3, 1)
    ev = KloostermanEvaluator(base)
    v = ev.kloosterman(1, _point(base, (1,), 1), 1)
    assert v == CycInt(3, (-1, 0))
    assert v.as_integer() == -1


def test_kl1_at_two_over_f3():
    base = make_field(3, 1)
    ev = KloostermanEvaluator(base)
    v = ev.kloosterman(1, _point(base, (2,), 1), 1)
    assert v.as_integer() == 2


def test_kl2_at_one_over_f3():
    base = make_field(3, 1)
    ev = KloostermanEvaluator(base)
    v = ev.kloosterman(2, _point(base, (1,), 1), 1)
    assert v == CycInt(3, (-2, -3))  # 1 + 3*zeta^2


def test_kl1_at_one_second_extension():
    base = make_field(3, 1)
    ev = KloostermanEvaluator(base)
    assert ev.kloosterman(1, _point(base, (1,), 1), 2).as_integer() == 5


def test_kl1_over_f5():
    # x + 1/x over F_5*: 1+1=2, 2+3=0, 3+2=0, 4+4=3
    base = make_field(5, 1)
    ev = KloostermanEvaluator(base)
    v = ev.kloosterman(1, _point(base, (1,), 1), 1)
    assert v == CycInt.from_powers(5, [(0, 2), (2, 1), (3, 1)])


# ---------------------------------------------------------------------------
# dual routes agree


@pytest.mark.parametrize("p,k,n", [(3, 1, 1), (3, 1, 2), (3, 1, 3),
                                   (3, 2, 1), (3, 2, 2), (5, 1, 1),
                                   (5, 1, 2), (7, 1, 2),
                                   (3, 3, 3), (5, 2, 3), (3, 2, 4),
                                   # S = 242: blocks of 135 and 107 rows, one
                                   # of which passes row S at nearly every t
                                   (3, 5, 2)])
def test_table_matches_direct_everywhere(p, k, n):
    # each sum, a row of K_n read from the field's table of K_(n-1) (or, over a
    # prime field, from K_1's phases), against two routes that build no table: the flat enumeration of its S^n phases and
    # the float transform of the whole field
    field = make_field(p, k)
    md = ff._mult_data(field)
    counts = kloosterman_by_transform(n, field)
    for j in range(md.S):
        t = field.from_int(int(md.code[j]))
        via_table = _direct_sum(n, field, t)
        assert via_table == kloosterman_by_enumeration(n, field, t)
        assert via_table == CycInt.from_powers(p, enumerate(counts[j]))


@pytest.mark.parametrize("p,k,n", [(3, 8, 2), (3, 8, 3), (251, 1, 2), (251, 1, 3),
                                   (3, 5, 4), (3, 6, 4), (3, 6, 5)])
def test_every_row_at_reach_size_matches_the_transform(p, k, n):
    # S = 6,560, where the enumeration takes S^2 and S^3 steps a sum: every row of
    # K_2 and K_3, one sum at a time, against the transform; over F_251, K_1 is
    # read as phases in passes of 130 window rows, and K_2 is built from them;
    # K_4 over F_(3^5) and F_(3^6), and K_5 over F_(3^6), are the tables the n = 4
    # and n = 5 rows of tests/digests.txt read
    field = make_field(p, k)
    md = ff._mult_data(field)
    counts = kloosterman_by_transform(n, field)
    for j in range(md.S):
        t = field.from_int(int(md.code[j]))
        assert _direct_sum(n, field, t) == CycInt.from_powers(p, enumerate(counts[j]))


@pytest.mark.parametrize("p,k,n", [(3, 2, 1), (3, 2, 2), (5, 1, 3)])
def test_field_arithmetic_reference_agrees(p, k, n):
    field = make_field(p, k)
    table = kloosterman_table(n, field)
    for t_int in range(1, field.size):
        t = field.from_int(t_int)
        assert table[t].serialize() == direct_reference(p, n, k, t_int)


def test_value_constant_on_frobenius_orbits():
    base = make_field(3, 1)
    big = make_field(3, 2)
    for t_int in range(1, big.size):
        t = big.from_int(t_int)
        assert _direct_sum(2, big, t) == _direct_sum(2, big, schoolbook_pow(big, t, 3))


def test_higher_degree_point_uses_embedded_representative():
    base = make_field(3, 1)
    ev = KloostermanEvaluator(base)
    pts = [pt for pt in closed_points(base, 2) if pt.degree == 2]
    big = make_field(3, 2)
    for pt in pts:
        assert ev.kloosterman(1, pt, 1) == _direct_sum(1, big, embed(pt.field, big, pt.rep))


def test_a_field_table_is_built_once_per_process(monkeypatch):
    # ff and expsum read one cache, so the closed points and then the sums over
    # the same fields build each field's discrete-log table once
    assert expsum._mult_data is ff._mult_data
    built, build = [], ff._MultData.__init__

    def record(self, field):
        built.append(field)
        build(self, field)

    monkeypatch.setattr(ff._MultData, "__init__", record)
    ff._mult_data.cache_clear()  # earlier tests may have built these tables
    base = make_field(5, 1)
    ev = KloostermanEvaluator(base)
    for pt in points_up_to(base, 2):
        ev.kloosterman(1, pt, 1)
    assert built == [base, make_field(5, 2)]


def test_a_window_table_is_built_only_where_a_sum_runs(tmp_path):
    # the sums build one window table per field they run over, once, and K_1 where
    # they run at n = 2 over a field that is not prime (F_5's K_1 is read as
    # phases); the closed points, and a verify run whose sums all come from the
    # cache, build none, and sums at n = 1 build no K table
    assert "trD" not in ff._MultData.__slots__
    assert not hasattr(ff._MultData(make_field(3, 2)), "trD")
    expsum._windows.cache_clear()
    expsum._level.cache_clear()
    base = make_field(5, 1)
    ev = KloostermanEvaluator(base)
    for pt in points_up_to(base, 2):
        for n in (1, 2):
            for m in (1, 2):
                ev.kloosterman(n, pt, m)
    info = expsum._windows.cache_info()
    assert info.misses == info.currsize == 3  # F_5, F_25 and F_625
    assert expsum._level.cache_info().currsize == 2  # K_1 of F_25 and of F_625
    expsum._windows.cache_clear()
    expsum._level.cache_clear()
    assert console_main(["points", "-p", "5", "-D", "4",
                         "--out", str(tmp_path / "points.json")]) == 0
    assert expsum._windows.cache_info().currsize == 0
    argv = ["verify", "-p", "5", "-n", "1", "-k", "2", "-D", "3", "-V", "100",
            "--cache", str(tmp_path / "sums.txt"), "--out", str(tmp_path / "report.json")]
    assert console_main(argv) == 0
    assert expsum._windows.cache_info().currsize > 0
    assert expsum._level.cache_info().currsize == 0
    expsum._windows.cache_clear()
    assert console_main(argv) == 0  # every sum a cache hit
    assert expsum._windows.cache_info().currsize == 0


def test_a_sum_peaks_at_a_few_blocks_whatever_s_to_the_n():
    # S = 6,560: one pass over the whole grid of S^2 phases would hold 344 MB; the
    # first sum at n = 2 and at n = 3 builds K_1 and K_2, each 16 S p bytes, in
    # passes of a few blocks.  Over the prime field F_251, p = S + 1, K_1 is read
    # as phases and only K_2 is stored: the peak stays within twice the bytes of
    # the stored levels, as kloosterman's TABLE_BYTES guard counts them, and a
    # few blocks
    for field in (make_field(3, 8), make_field(251, 1)):
        S, p = field.size - 1, field.p
        for n in (2, 3):
            stored = sum(S**j > p for j in range(1, n))
            expsum._level.cache_clear()
            expsum._gather.cache_clear()
            tracemalloc.start()
            try:
                _direct_sum(n, field, field.from_int(2))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 4 << 20, (field, n)
            assert peak <= 2 * 16 * S * p * stored + 16 * expsum.BLOCK, (field, n)


# ---------------------------------------------------------------------------
# Galois structure


@pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (5, 1), (5, 2)])
def test_galois_twist_rescales_the_point(p, n):
    # applying zeta -> zeta^c matches moving t to c^(n+1) t
    base = make_field(p, 1)
    ev = KloostermanEvaluator(base)
    for m in (1, 2):
        for t_int in range(1, p):
            pt = _point(base, (t_int,), 1)
            for c in range(1, p):
                t2 = (pow(c, n + 1, p) * t_int) % p
                pt2 = _point(base, (t2,), 1)
                assert ev.kloosterman(n, pt, m).galois(c) == ev.kloosterman(n, pt2, m)


def test_twist_law_on_degree_two_points():
    base = make_field(3, 1)
    ev = KloostermanEvaluator(base)
    n = 1
    for pt in closed_points(base, 2):
        if pt.degree != 2:
            continue
        for c in (1, 2):
            scaled = pt.field.element([pow(c, n + 1, 3) * a for a in pt.rep])
            pt2 = orbit_rep(base, pt.field, scaled)
            assert ev.kloosterman(n, pt, 1).galois(c) == ev.kloosterman(n, pt2, 1)


@pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (5, 1), (7, 2)])
def test_full_field_sum_is_a_rational_integer(p, n):
    # t -> c^(n+1) t permutes F_p*, so the summed value is Galois-fixed
    base = make_field(p, 1)
    ev = KloostermanEvaluator(base)
    total = CycInt.from_int(p, 0)
    for t_int in range(1, p):
        total = total + ev.kloosterman(n, _point(base, (t_int,), 1), 1)
    total.as_integer()


# ---------------------------------------------------------------------------
# budgets and validation


def test_budget_refusal():
    base = make_field(3, 1)
    ev = KloostermanEvaluator(base, budget=100)
    with pytest.raises(ResourceError):
        ev.kloosterman(2, _point(base, (1,), 1), 3)  # (27-1)^2 steps > 100


def test_a_sum_past_int64_is_refused_at_any_budget(capsys):
    # a row of K_n counts S^n tuples: 242^8 > 2^63 would wrap int64, so the sum is
    # refused before any table, whatever the budget admits
    expsum._windows.cache_clear()
    expsum._level.cache_clear()
    argv = "sum -p 3 -d 5 --rep-int 5 -n 8 --budget 100000000000000000000".split()
    assert console_main(argv) == 1
    assert capsys.readouterr().err == "error: sum over (F_243)^8 counts 242^8 tuples, past int64\n"
    assert expsum._windows.cache_info().currsize == expsum._level.cache_info().currsize == 0


def test_a_sum_whose_tables_pass_the_bound_is_refused(capsys):
    # over F_10007 at n = 3, K_2 would hold 16 S p bytes, about 1.5 GB, and over
    # F_(307^2) at n = 2, K_1 about 0.4 GB: each is refused before any table,
    # though the budget admits its S^n steps
    for argv, err in [
            ("sum -p 10007 -d 1 --rep-int 2 -n 3 --budget 10000000000000",
             "error: sum over (F_10007)^3 needs 1527 MiB of tables, past 128 MiB\n"),
            ("sum -p 307 -d 2 --rep-int 2 -n 2 --budget 10000000000",
             "error: sum over (F_94249)^2 needs 441 MiB of tables, past 128 MiB\n")]:
        expsum._windows.cache_clear()
        expsum._level.cache_clear()
        assert console_main(argv.split()) == 1
        assert capsys.readouterr().err == err
        assert expsum._windows.cache_info().currsize == expsum._level.cache_info().currsize == 0


def test_a_prime_field_sum_at_n_2_stores_no_table(tmp_path):
    # over F_10007, p = S + 1: a stored K_1 would hold 16 S p bytes, about 1.5 GB,
    # and its gather table and a read as much again; read as phases, the sum's
    # S^2 = 10^8 phases pass in blocks and the run's peak stays at a few of them
    expsum._level.cache_clear()
    expsum._gather.cache_clear()
    argv = ["sum", "-p", "10007", "-d", "1", "--rep-int", "2", "-n", "2", "--budget", "200000000",
            "--cache", str(tmp_path / "sums.txt"), "--out", str(tmp_path / "report.json")]
    tracemalloc.start()
    try:
        assert console_main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 << 20
    assert expsum._level.cache_info().currsize == expsum._gather.cache_info().currsize == 0


def test_rejects_foreign_point_and_bad_args():
    base = make_field(3, 1)
    other = make_field(5, 1)
    ev = KloostermanEvaluator(base)
    pt5 = _point(other, (1,), 1)
    with pytest.raises(UsageError):
        ev.kloosterman(1, pt5, 1)
    pt = _point(base, (1,), 1)
    with pytest.raises(UsageError):
        ev.kloosterman(0, pt, 1)
    with pytest.raises(UsageError):
        ev.kloosterman(1, pt, 0)


# ---------------------------------------------------------------------------
# cache


def test_cache_roundtrip_and_hit_counters(tmp_path):
    path = tmp_path / "sums.cache"
    base = make_field(3, 1)
    pt = _point(base, (1,), 1)

    cache = SumCache(path)
    ev = KloostermanEvaluator(base, cache=cache)
    v1 = ev.kloosterman(2, pt, 1)
    assert cache.misses == 1 and cache.hits == 0
    assert ev.kloosterman(2, pt, 1) == v1
    assert cache.hits == 1
    cache.flush()  # the evaluator holds its sums until a flush

    reloaded = SumCache(path)
    assert len(reloaded) == 1
    ev2 = KloostermanEvaluator(base, cache=reloaded, budget=1)  # too small to recompute
    assert ev2.kloosterman(2, pt, 1) == v1
    assert reloaded.hits == 1


def test_cache_detects_corruption_with_line_number(tmp_path):
    path = tmp_path / "sums.cache"
    cache = SumCache(path)
    base = make_field(3, 1)
    ev = KloostermanEvaluator(base, cache=cache)
    ev.kloosterman(1, _point(base, (1,), 1), 1)
    cache.flush()  # the evaluator holds its sums until a flush
    with open(path, "a") as fh:
        fh.write("v1|3,1,[0,1]|1|1|[2]|one|3:[2,0]\n")
    with pytest.raises(CacheError, match=":3:"):
        SumCache(path)


def test_cache_rejects_conflicting_duplicate(tmp_path):
    path = tmp_path / "sums.cache"
    cache = SumCache(path)
    base = make_field(3, 1)
    ev = KloostermanEvaluator(base, cache=cache)
    ev.kloosterman(1, _point(base, (1,), 1), 1)
    cache.flush()  # the evaluator holds its sums until a flush
    key = (3, 1, (0, 1), 1, 1, (1,), 1)
    with open(path, "a") as fh:
        fh.write(record_line(key, CycInt(3, (7, 7))))
    with pytest.raises(CacheError, match="conflicting"):
        SumCache(path)
    with pytest.raises(CacheError):
        cache.put(key, CycInt(3, (7, 7)))


def test_cache_compact_dedupes(tmp_path):
    path = tmp_path / "sums.cache"
    cache = SumCache(path)
    base = make_field(3, 1)
    ev = KloostermanEvaluator(base, cache=cache)
    v = ev.kloosterman(1, _point(base, (2,), 1), 1)
    key = (3, 1, (0, 1), 1, 1, (2,), 1)
    with open(path, "a") as fh:
        fh.write(record_line(key, v))  # benign duplicate
    assert len(SumCache(path)) == 1
    assert SumCache(path).compact() == 1
    lines = [l for l in path.read_text().splitlines() if l and not l.startswith("#")]
    assert len(lines) == 1
    assert parse_record(lines[0])[1] == v


def test_any_spelling_of_a_key_is_one_key(tmp_path):
    # "[0, 1]", "+1" and "01" spell the integers of 3,1,[0,1]|1|1|[1]|1
    path = tmp_path / "sums.cache"
    base = make_field(3, 1)
    pt = _point(base, (1,), 1)
    v = KloostermanEvaluator(base).kloosterman(1, pt, 1)
    odd = "v1|3,1,[0, 1]|+1|01|[1]|1|"
    canonical = "v1|3,1,[0,1]|1|1|[1]|1|"
    path.write_text(f"{CACHE_HEADER}\n{odd}{v.serialize()}\n{canonical}{v.serialize()}\n")
    cache = SumCache(path)
    assert len(cache) == 1
    assert KloostermanEvaluator(base, cache=cache).kloosterman(1, pt, 1) == v
    assert (cache.hits, cache.misses) == (1, 0)
    assert SumCache(path).compact() == 1
    assert path.read_text() == f"{CACHE_HEADER}\n{canonical}{v.serialize()}\n"
    with open(path, "a") as fh:
        fh.write(f"{odd}{(v + CycInt.from_int(3, 1)).serialize()}\n")
    with pytest.raises(CacheError) as exc:
        SumCache(path)
    assert str(exc.value) == f"{path}:3: conflicting duplicate for 3,1,[0,1]|1|1|[1]|1"


def _record(m):
    """A valid record key and a value of about 3000 digits, distinct per m."""
    return (3, 1, (0, 1), 1, 1, (1,), m), CycInt(3, (10 ** 3000 + m, -m))


def test_cache_put_appends_each_record_in_one_write(tmp_path, monkeypatch):
    path = tmp_path / "sums.cache"
    cache = SumCache(path)
    assert not path.exists()  # the first append creates the file
    writes, real_write = [], os.write

    def write(fd, data):
        writes.append(bytes(data))
        return real_write(fd, data)

    monkeypatch.setattr(os, "write", write)
    lines = []
    for m in (1, 2, 3):
        key, value = _record(m)
        cache.put(key, value)
        lines.append(f"v1|3,1,[0,1]|1|1|[1]|{m}|{value.serialize()}\n".encode("ascii"))
    header = (CACHE_HEADER + "\n").encode("ascii")
    assert writes == [header + lines[0]] + lines[1:]  # the header rides on the first record
    assert path.read_bytes() == header + b"".join(lines)


def test_cache_bytes_do_not_depend_on_workers(tmp_path):
    # a short switch interval interleaves the worker threads more often;
    # the records still land in point order
    files = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for i, workers in enumerate(("1", "2", "2")):
            path = tmp_path / f"w{i}.cache"
            assert console_main(["compare", "-p", "5", "-n", "1", "-k", "1", "-D", "2",
                                 "--workers", workers, "--cache", str(path),
                                 "--out", str(tmp_path / "r.json")]) == 0
            files.append(path.read_bytes())
    finally:
        sys.setswitchinterval(interval)
    assert files[1] == files[0] and files[2] == files[0]


_WRITER = """
import sys, time
from klsym.cyclo import CycInt
from klsym.expsum import SumCache
path, first, count, start = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), float(sys.argv[4])
cache = SumCache(path)
time.sleep(max(0.0, start - time.time()))  # both writers begin together
for m in range(first, first + count):
    cache.put((3, 1, (0, 1), 1, 1, (1,), m), CycInt(3, (10 ** 3000 + m, -m)))
"""


def test_two_processes_append_to_one_cache(tmp_path):
    path = tmp_path / "sums.cache"
    SumCache(path)
    count = 300
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(klsym.__file__)))
    start = str(time.time() + 0.5)
    children = [subprocess.Popen([sys.executable, "-c", _WRITER, str(path),
                                  str(first), str(count), start], env=env)
                for first in (1, count + 1)]
    # a hang fails on the timeout instead of stalling the suite
    assert [child.wait(timeout=60) for child in children] == [0, 0]
    cache = SumCache(path)
    assert cache.torn == 0
    records = cache.records()  # raises CacheError on a torn or interleaved line
    assert sorted(key for _, key, _ in records) == \
        sorted(_record(m)[0] for m in range(1, 2 * count + 1))
    assert all(value == _record(key[-1])[1] for _, key, value in records)


def test_append_after_another_writers_torn_record_heals(tmp_path):
    path = tmp_path / "sums.cache"
    cache = SumCache(path)  # holds the cache open
    key, value = _record(1)
    with open(path, "ab") as fh:  # another writer dies mid-record
        fh.write(record_line(key, value).encode("ascii")[:40])
    cache.put(*_record(2))
    reloaded = SumCache(path)  # raises CacheError if the record joined the torn text
    assert reloaded.torn == 0
    assert [key for _, key, _ in reloaded.records()] == [_record(2)[0]]


def test_two_caches_loaded_over_one_torn_tail_keep_both_records(tmp_path):
    path = tmp_path / "sums.cache"
    SumCache(path)
    with open(path, "ab") as fh:
        fh.write(b"v1|3,1,[0,1]|1|1|[1]|1|3:[5,")
    first, second = SumCache(path), SumCache(path)
    assert first.torn == second.torn == 1
    first.put(*_record(1))
    second.put(*_record(2))  # must not cut first's record at the offset it loaded
    assert sorted(key for _, key, _ in SumCache(path).records()) == \
        sorted(_record(m)[0] for m in (1, 2))


def test_process_appending_while_another_compacts_loses_no_record(tmp_path):
    path = tmp_path / "sums.cache"
    SumCache(path)
    count = 300
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(klsym.__file__)))
    start = time.time() + 0.5
    child = subprocess.Popen([sys.executable, "-c", _WRITER, str(path), "1", str(count),
                              str(start)], env=env)
    time.sleep(max(0.0, start - time.time()))
    deadline = time.time() + 60
    while child.poll() is None and time.time() < deadline:
        SumCache(path).compact()
    # a hang fails on the timeout instead of stalling the suite
    assert child.wait(timeout=60) == 0
    records = SumCache(path).records()
    assert sorted(key for _, key, _ in records) == \
        sorted(_record(m)[0] for m in range(1, count + 1))


def test_second_creator_keeps_the_first_creators_records(tmp_path, monkeypatch):
    path = tmp_path / "sums.cache"
    SumCache(path).put(*_record(1))
    # a second process found the file missing just before the first created it
    real_open, missed = open, []

    def late_open(file, *args, **kwargs):
        if not missed:
            missed.append(file)
            raise FileNotFoundError(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(expsum, "open", late_open, raising=False)
    second = SumCache(path)
    assert missed == [str(path)]
    assert len(second) == 1
    assert [key for _, key, _ in SumCache(path).records()] == [_record(1)[0]]


def test_cache_compact_failing_part_way_leaves_the_file(tmp_path, monkeypatch):
    path = tmp_path / "sums.cache"
    ev = KloostermanEvaluator(make_field(3, 1), cache=SumCache(path))
    for m in (1, 2, 3):
        ev.kloosterman(1, _point(ev.base, (2,), 1), m)
    ev.cache.flush()  # the evaluator holds its sums until a flush
    before = path.read_bytes()
    original, calls = CycInt.serialize, []

    def serialize(self):
        calls.append(self)
        if len(calls) == 2:
            raise OSError("disk full")
        return original(self)

    monkeypatch.setattr(CycInt, "serialize", serialize)
    with pytest.raises(OSError, match="disk full"):
        SumCache(path).compact()
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["sums.cache"]  # no temporary file left


def test_record_format_shape():
    key = (3, 2, (1, 0, 1), 2, 3, (1, 2, 0, 1, 1, 2), 4)
    text = "3,2,[1,0,1]|2|3|[1,2,0,1,1,2]|4"
    line = f"v1|{text}|3:[-2,-3]"
    assert key_text(key) == text
    assert record_line(key, CycInt(3, (-2, -3))) == line + "\n"
    got_key, got_val = parse_record(line)
    assert got_key == key
    assert got_val == CycInt(3, (-2, -3))
    with pytest.raises(CacheError):
        parse_record("v2|" + text + "|3:[1,0]")
    with pytest.raises(CacheError):
        parse_record(f"v1|{text}|5:[1,0,0,0]")  # wrong level for p=3
    # the integer-list reader's texts, and the value checks' own texts after it
    for line, why in [
            (f"v1|{text}|3:[1,x]", "malformed cyclotomic value: '3:[1,x]'"),
            (f"v1|{text}|3:1,2", "malformed cyclotomic value: '3:1,2'"),
            (f"v1|{text}|spam", "malformed cyclotomic value: 'spam'"),
            (f"v1|{text}|3:[1,2", "malformed cyclotomic value: '3:[1,2'"),
            (f"v1|{text}|4:[1,2,3]", "level must be an odd prime, got 4"),
            (f"v1|{text}|3:[1,0,0]", "expected 2 coordinates, got 3"),
            ("v1|3,2,[1,0,1|2|3|[1,2,0,1,1,2]|4|3:[1,0]",
             "malformed integer list: '[1,0,1'"),
            ("v1|3,2,[1,x,1]|2|3|[1,2,0,1,1,2]|4|3:[1,0]",
             "invalid literal for int() with base 10: 'x'"),
            ("v1|3,2,[1,0,1]|2|3|1,2,0,1,1,2]|4|3:[1,0]",
             "malformed integer list: '1,2,0,1,1,2]'"),
            ("v1|3,2,[1,0,1]|2|3|[1,,0,1,1,2]|4|3:[1,0]",
             "invalid literal for int() with base 10: ''")]:
        with pytest.raises(CacheError) as exc:
            parse_record(line)
        assert str(exc.value) == f"corrupt record {line!r}: {why}"


def test_base_degree_zero_is_a_corrupt_record(tmp_path):
    # modulus [1] is monic of length a + 1 and the rep is empty, so only a
    # check on a itself refuses this record
    path = tmp_path / "sums.cache"
    path.write_text("# klsym sum cache v1\nv1|3,0,[1]|1|1|[]|1|3:[0,0]\n")
    with pytest.raises(CacheError, match=r"sums\.cache:2: inconsistent record"):
        SumCache(path)


# records that reach the key and value parsers, and arbitrary text
_record_parts = st.lists(st.text(alphabet="0123456789,[]:-\xff\udcff"),
                         min_size=6, max_size=6)
_records = st.text() | _record_parts.map(lambda parts: "|".join(["v1"] + parts))


@given(_records)
@example("v1|3,1,[0,1]|1|1|[1]|1|1000000000000000000000000000057:[1,0]")
@example("v1|3,1,[0,1]|1|1|[1]|1|3:[1,\xff]")
@example("v1|3,1,[0,1]|1|1|[1]|1|3:[1,\udcff]")  # a \xff byte as the cache reads it
def test_parse_record_raises_only_cache_error(line):
    try:
        parse_record(line)
    except CacheError:
        pass
