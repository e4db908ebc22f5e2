"""Exponential sum engine: frozen values, dual routes, twists, cache."""

import os

import pytest
from hypothesis import example, given, strategies as st

from klsym.cyclo import CycInt
from klsym.errors import CacheError, ResourceError, UsageError
from klsym.expsum import (
    KloostermanEvaluator,
    SumCache,
    _direct_sum,
    parse_record,
    record_key,
)
from klsym.ff import closed_points, embed, make_field, orbit_rep
from oracles import direct_reference, kloosterman_table


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
                                   (5, 1, 2), (7, 1, 2)])
def test_table_matches_direct_everywhere(p, k, n):
    field = make_field(p, k)
    table = kloosterman_table(n, field)
    assert len(table) == field.size - 1
    for t, via_table in table.items():
        assert via_table == _direct_sum(n, field, t)


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
        assert _direct_sum(2, big, t) == _direct_sum(2, big, big.pow(t, 3))


def test_higher_degree_point_uses_embedded_representative():
    base = make_field(3, 1)
    ev = KloostermanEvaluator(base)
    pts = [pt for pt in closed_points(base, 2) if pt.degree == 2]
    big = make_field(3, 2)
    for pt in pts:
        assert ev.kloosterman(1, pt, 1) == _direct_sum(1, big, embed(pt.field, big, pt.rep))


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
    total = CycInt.zero(p)
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
    key = record_key(3, 1, (0, 1), 1, 1, (1,), 1)
    with open(path, "a") as fh:
        fh.write(f"v1|{key}|3:[7,7]\n")
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
    key = record_key(3, 1, (0, 1), 1, 1, (2,), 1)
    with open(path, "a") as fh:
        fh.write(f"v1|{key}|{v.serialize()}\n")  # benign duplicate
    assert len(SumCache(path)) == 1
    assert SumCache(path).compact() == 1
    lines = [l for l in path.read_text().splitlines() if l and not l.startswith("#")]
    assert len(lines) == 1
    assert parse_record(lines[0])[1] == v


def test_cache_compact_failing_part_way_leaves_the_file(tmp_path, monkeypatch):
    path = tmp_path / "sums.cache"
    ev = KloostermanEvaluator(make_field(3, 1), cache=SumCache(path))
    for m in (1, 2, 3):
        ev.kloosterman(1, _point(ev.base, (2,), 1), m)
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
    key = record_key(3, 2, (1, 0, 1), 2, 3, (1, 2, 0, 1, 1, 2), 4)
    line = f"v1|{key}|3:[-2,-3]"
    got_key, got_val = parse_record(line)
    assert got_key == key
    assert got_val == CycInt(3, (-2, -3))
    with pytest.raises(CacheError):
        parse_record("v2|" + key + "|3:[1,0]")
    with pytest.raises(CacheError):
        parse_record(f"v1|{key}|5:[1,0,0,0]")  # wrong level for p=3


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
