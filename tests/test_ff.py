import itertools
import random
from collections import Counter

import numpy as np
import pytest
import sympy

import klsym.ff as ff
from klsym.errors import ResourceError, UsageError
from klsym.ff import (
    ClosedPoint,
    Field,
    canonical_modulus,
    closed_points,
    degree_count,
    embed,
    is_irreducible,
    make_field,
    orbit_rep,
    point_field,
    points_up_to,
)
from oracles import (
    matrix_canonical_modulus,
    matrix_generator,
    matrix_is_irreducible,
    matrix_trace,
    matrix_trace_vector,
    mult_tables_reference,
    schoolbook_generator,
    schoolbook_one,
    schoolbook_pow,
)

X = sympy.symbols("x")


def sympy_irreducible(coeffs, p):
    poly = sympy.Poly(list(reversed(coeffs)), X, domain=sympy.GF(p))
    return poly.is_irreducible


def _elements(field):
    """Every element of field, in lex order."""
    return itertools.product(range(field.p), repeat=field.k)


def _add(field, x, y):
    return tuple((a + b) % field.p for a, b in zip(x, y))


def _mul(field, x, y):
    """x y as x times the multiplication matrix of y, the one product route of ff."""
    return tuple((np.array(x) @ ff._mul_matrix(y, field.modulus, field.p) % field.p).tolist())


def _trace(field, x):
    """AbsTr(x) as the tables hold it: tr at the discrete log of x, and 0 at zero."""
    if not any(x):
        return 0
    md = ff._mult_data(field)
    return int(md.tr[md.dlog[field.to_int(x)]])


def test_canonical_moduli_frozen_values():
    assert canonical_modulus(3, 1) == (0, 1)
    assert canonical_modulus(3, 2) == (1, 0, 1)
    assert canonical_modulus(3, 3) == (1, 0, 2, 1)
    assert canonical_modulus(3, 13) == (1,) + (0,) * 11 + (2, 1)
    assert canonical_modulus(5, 8) == (1, 0, 0, 0, 0, 1, 1, 0, 1)
    assert canonical_modulus(7, 7) == (1, 0, 0, 0, 0, 0, 6, 1)


@pytest.mark.parametrize("p,k", [(3, 2), (3, 3), (3, 4), (5, 2), (5, 3), (7, 2)])
def test_canonical_modulus_is_lex_first_irreducible(p, k):
    found = canonical_modulus(p, k)
    assert sympy_irreducible(found, p)
    # nothing lexicographically earlier is irreducible
    for tail in itertools.product(range(p), repeat=k):
        f = tail + (1,)
        if f == found:
            break
        assert not sympy_irreducible(f, p)


def test_irreducibility_test_matches_sympy():
    rng = random.Random(2024)
    for _ in range(120):
        p = rng.choice([3, 5])
        k = rng.randint(1, 4)
        f = tuple(rng.randrange(p) for _ in range(k)) + (1,)
        assert is_irreducible(f, p) == sympy_irreducible(f, p)


@pytest.mark.parametrize("p,top", [(3, 4), (5, 4), (7, 4), (11, 3)])
def test_irreducibility_test_matches_sympy_and_the_matrix_route_everywhere(p, top):
    # every monic polynomial of degree 1..top: Rabin's test on coefficient lists
    # against sympy and against the same test on powers of multiplication matrices
    for k in range(1, top + 1):
        for tail in itertools.product(range(p), repeat=k):
            f = tail + (1,)
            assert is_irreducible(f, p) == sympy_irreducible(f, p) == \
                matrix_is_irreducible(f, p), f


# every (p, k) with p^k <= 2^14
SMALL_FIELDS = [(p, k) for p in sympy.primerange(3, 1 << 14)
                for k in range(1, 14) if p**k <= 1 << 14]


def test_moduli_generators_and_trace_vectors_match_the_matrix_routes():
    # the modulus by Rabin's test alone over every monic polynomial in lex order, the
    # generator by powers of its multiplication matrix and Tr(X^i) as the trace of
    # the matrix of X^i, against the tables' own reads of g and Tr(X^i)
    assert len(SMALL_FIELDS) == 1947  # 1,899 prime fields, 48 of degree 2 to 8
    for p, k in SMALL_FIELDS:
        field = make_field(p, k)
        assert field.modulus == matrix_canonical_modulus(p, k), (p, k)
        md = ff._MultData(field)  # not cached: 1,947 tables
        assert field.from_int(int(md.code[1])) == matrix_generator(field), (p, k)
        powers = [field.to_int(tuple(int(j == i) for j in range(k))) for i in range(k)]
        assert tuple(md.tr[md.dlog[powers]].tolist()) == matrix_trace_vector(field), (p, k)


def test_make_field_validation():
    with pytest.raises(UsageError):
        make_field(2, 1)
    with pytest.raises(UsageError):
        make_field(3, 2, (1, 2, 1))  # (X+1)^2
    with pytest.raises(UsageError):
        make_field(3, 0)
    with pytest.raises(ResourceError):
        make_field(3, 14)
    F9 = make_field(3, 2, (1, 0, 1))
    assert F9.size == 9


def _sympy_mul(field, x, y):
    """x y as sympy's product of polynomials mod the modulus over GF(p)."""
    dom = sympy.GF(field.p)
    px, py, pm = (sympy.Poly(list(reversed(c)), X, domain=dom)
                  for c in (x, y, field.modulus))
    low = [int(c) % field.p for c in reversed((px * py).rem(pm).all_coeffs())]
    return tuple(low + [0] * (field.k - len(low)))


def test_field_axioms_random():
    rng = random.Random(88)
    for field in (make_field(3, 2), make_field(3, 3), make_field(5, 2),
                  make_field(3, 2, (2, 2, 1))):
        for _ in range(40):
            x = field.from_int(rng.randrange(field.size))
            y = field.from_int(rng.randrange(field.size))
            z = field.from_int(rng.randrange(field.size))
            assert _mul(field, x, y) == _sympy_mul(field, x, y)
            assert _mul(field, x, _mul(field, y, z)) == _mul(field, _mul(field, x, y), z)
            assert _mul(field, x, _add(field, y, z)) == _add(
                field, _mul(field, x, y), _mul(field, x, z)
            )
            if any(x):
                assert (_mul(field, x, schoolbook_pow(field, x, field.size - 2))
                        == schoolbook_one(field))


def test_element_order_is_lex_order():
    field = make_field(3, 2)
    listed = list(_elements(field))
    assert listed == sorted(listed)
    assert [field.to_int(x) for x in listed] == list(range(9))
    for v in range(9):
        assert field.to_int(field.from_int(v)) == v


def test_trace_on_base_and_generator():
    F9 = make_field(3, 2)
    assert F9.modulus == (1, 0, 1)
    # elements of F_3 trace to twice themselves
    for c in range(3):
        assert _trace(F9, (c, 0)) == (2 * c) % 3
    # the generator g with g^2 = -1 has trace g + g^3 = 0
    assert _trace(F9, (0, 1)) == 0


def test_trace_matches_power_sum_definition():
    rng = random.Random(17)
    for field in (make_field(3, 3), make_field(5, 2), make_field(3, 4)):
        for _ in range(25):
            x = field.from_int(rng.randrange(field.size))
            s = (0,) * field.k
            y = x
            for _ in range(field.k):
                s = _add(field, s, y)
                y = schoolbook_pow(field, y, field.p)
            assert not any(s[1:])
            assert _trace(field, x) == s[0]


@pytest.mark.parametrize("p,k", [(3, 2), (3, 3), (3, 4), (5, 2), (5, 3), (7, 2)])
def test_trace_vector_from_modulus_matches_frobenius(p, k):
    """Tr(X^i) in the table equals the sum of its Frobenius conjugates, and the
    power sum of the roots of the modulus by Newton's identities."""
    moduli = [tail + (1,) for tail in itertools.product(range(p), repeat=k)
              if is_irreducible(tail + (1,), p)]
    assert len(moduli) == degree_count(p, k)  # every monic irreducible
    for modulus in moduli:
        field = Field(p, k, modulus)
        trace_vector = []
        for i in range(k):
            s = (0,) * k
            y = tuple(int(j == i) for j in range(k))  # X^i
            trace_vector.append(_trace(field, y))
            for _ in range(k):
                s = _add(field, s, y)
                y = schoolbook_pow(field, y, p)
            assert s == (trace_vector[i],) + (0,) * (k - 1)
        assert tuple(trace_vector) == matrix_trace_vector(field)


def test_trace_additive():
    field = make_field(3, 4)
    rng = random.Random(5)
    for _ in range(30):
        x = field.from_int(rng.randrange(field.size))
        y = field.from_int(rng.randrange(field.size))
        assert (
            _trace(field, _add(field, x, y))
            == (_trace(field, x) + _trace(field, y)) % 3
        )


# (source, target) pairs: a degree-1 source with modulus X, two towers,
# and a source with a non-canonical modulus, into a bigger and an equal field
EMBED_PAIRS = [
    ((3, 1, None), (3, 2)),
    ((3, 2, None), (3, 4)),
    ((5, 2, None), (5, 4)),
    ((3, 2, (2, 2, 1)), (3, 4)),
    ((3, 2, (2, 2, 1)), (3, 2)),
]
PAIR_IDS = ["F3-F9", "F9-F81", "F25-F625", "F9nc-F81", "F9nc-F9"]


def _pair(src_spec, dst_spec):
    return make_field(*src_spec), make_field(*dst_spec)


def _x_class(field):
    """The class of X in field, reduced."""
    if field.k == 1:
        return field.element((-field.modulus[0],))
    return field.element((0, 1) + (0,) * (field.k - 2))


def _eval(field, poly, r):
    acc = (0,) * field.k
    for i, c in enumerate(poly):
        acc = _add(field, acc, tuple(c * a for a in schoolbook_pow(field, r, i)))
    return acc


@pytest.mark.parametrize("src_spec,dst_spec", EMBED_PAIRS, ids=PAIR_IDS)
def test_embed_is_ring_hom(src_spec, dst_spec):
    src, dst = _pair(src_spec, dst_spec)
    assert embed(src, dst, schoolbook_one(src)) == schoolbook_one(dst)
    assert not ff._root_powers(src, dst).flags.writeable  # shared by the cache
    rng = random.Random(101)
    for _ in range(30):
        x = src.from_int(rng.randrange(src.size))
        y = src.from_int(rng.randrange(src.size))
        ex, ey = embed(src, dst, x), embed(src, dst, y)
        assert embed(src, dst, _mul(src, x, y)) == _mul(dst, ex, ey)
        assert embed(src, dst, _add(src, x, y)) == _add(dst, ex, ey)


@pytest.mark.parametrize("src_spec,dst_spec", EMBED_PAIRS, ids=PAIR_IDS)
def test_embed_image_is_the_fixed_subfield(src_spec, dst_spec):
    src, dst = _pair(src_spec, dst_spec)
    image = {embed(src, dst, x) for x in _elements(src)}
    fixed = {y for y in _elements(dst) if schoolbook_pow(dst, y, src.size) == y}
    assert len(image) == src.size
    assert image == fixed


@pytest.mark.parametrize("src_spec,dst_spec", EMBED_PAIRS, ids=PAIR_IDS)
def test_embed_sends_x_to_least_root_of_modulus(src_spec, dst_spec):
    src, dst = _pair(src_spec, dst_spec)
    r = embed(src, dst, _x_class(src))
    assert not any(_eval(dst, src.modulus, r))
    roots = [y for y in _elements(dst) if not any(_eval(dst, src.modulus, y))]
    assert len(roots) == src.k
    if src.k > 1:
        assert r == min(roots)


def test_embed_identity():
    for field in (make_field(3, 1), make_field(3, 2), make_field(3, 2, (2, 2, 1))):
        for x in _elements(field):
            assert embed(field, field, x) == x
    with pytest.raises(UsageError):
        embed(make_field(3, 2), make_field(3, 3), (1, 0))


@pytest.mark.parametrize("src_spec,dst_spec", EMBED_PAIRS, ids=PAIR_IDS)
def test_embed_scales_trace_by_degree(src_spec, dst_spec):
    src, dst = _pair(src_spec, dst_spec)
    r = dst.k // src.k
    for x in _elements(src):
        assert _trace(dst, embed(src, dst, x)) == r * _trace(src, x) % src.p


# every canonical F_(p^k) with at most 20,000 elements, and a non-canonical F_9
TABLE_FIELDS = [(p, k, None) for p in (3, 5, 7, 11, 13)
                for k in range(1, 10) if p**k <= 20_000] + [(3, 2, (2, 2, 1))]


@pytest.mark.parametrize("p,k,modulus", TABLE_FIELDS,
                         ids=[f"{p}^{k}" + ("nc" if m else "") for p, k, m in TABLE_FIELDS])
def test_mult_tables_match_schoolbook_reference(p, k, modulus):
    field = make_field(p, k, modulus)
    md = ff._mult_data(field)
    g, code, tr, dlog = mult_tables_reference(field)
    assert field.from_int(int(md.code[1])) == g
    assert np.array_equal(md.code, code)
    assert np.array_equal(md.tr, tr)
    assert np.array_equal(md.dlog, dlog)


def test_mult_tables_sampled_on_the_largest_fields():
    rng = random.Random(13)
    # F_(3^13) against schoolbook powers of the generator
    field = make_field(3, 13)
    md = ff._MultData(field)  # not cached: the tables are large
    g = schoolbook_generator(field)
    assert field.from_int(int(md.code[1])) == g
    for i in [0, 1, md.S - 1] + [rng.randrange(md.S) for _ in range(60)]:
        x = schoolbook_pow(field, g, i)
        assert md.code[i] == field.to_int(x)
        assert md.tr[i] == matrix_trace(field, x)
        assert md.dlog[md.code[i]] == i
    # F_2097143, the largest prime field under the cap, against builtin pow
    P = sympy.prevprime(ff.MAX_FIELD_SIZE)
    field = make_field(P, 1)
    md = ff._MultData(field)
    primes = sympy.primefactors(P - 1)
    least = next(v for v in range(2, P) if all(pow(v, (P - 1) // r, P) != 1 for r in primes))
    assert (P, md.code[1]) == (2097143, least)
    for i in [0, 1, md.S - 1] + [rng.randrange(md.S) for _ in range(200)]:
        assert md.code[i] == md.tr[i] == pow(least, i, P)
        assert md.dlog[md.code[i]] == i
    assert md.dlog[0] == -1


def test_closed_point_counts_frozen():
    F3 = make_field(3, 1)
    assert [len(closed_points(F3, d)) for d in (1, 2, 3, 4)] == [2, 3, 8, 18]
    assert [degree_count(3, d) for d in (1, 2, 3, 4)] == [2, 3, 8, 18]
    assert len(closed_points(make_field(3, 2), 1)) == 8
    assert len(closed_points(make_field(5, 1), 2)) == 10
    assert degree_count(9, 2) == 36


def test_degree_one_points_over_f3():
    F3 = make_field(3, 1)
    pts = closed_points(F3, 1)
    assert [pt.rep for pt in pts] == [(1,), (2,)]


def test_closed_point_orbits_disjoint_and_canonical():
    F3 = make_field(3, 1)
    pts = closed_points(F3, 3)
    F27 = pts[0].field
    all_seen = set()
    for pt in pts:
        orbit = {pt.rep}
        y = schoolbook_pow(F27, pt.rep, 3)
        while y != pt.rep:
            orbit.add(y)
            y = schoolbook_pow(F27, y, 3)
        assert len(orbit) == 3
        assert min(orbit) == pt.rep
        assert not (orbit & all_seen)
        all_seen |= orbit


def test_degree_cap_enforced(monkeypatch):
    # the field-size cap is the one bound, checked before any table is built
    F3 = make_field(3, 1)
    assert len(closed_points(F3, 5)) == degree_count(3, 5)

    def no_table(field):
        raise AssertionError(f"built the table of {field!r}")

    monkeypatch.setattr(ff, "_mult_data", no_table)
    with pytest.raises(ResourceError):
        points_up_to(F3, 14)


def test_orbit_rep_canonicalizes():
    F3 = make_field(3, 1)
    for pt in closed_points(F3, 2):
        conj = schoolbook_pow(pt.field, pt.rep, 3)
        again = orbit_rep(F3, pt.field, conj)
        assert again == pt
    F9 = make_field(3, 2)
    with pytest.raises(ValueError):
        orbit_rep(F3, F9, (2, 0))  # lies in F_3, degree 1 < 2


@pytest.mark.parametrize("p,a,modulus,d", [
    (3, 1, None, 3), (3, 2, None, 2), (5, 1, None, 2),
    (3, 2, (2, 2, 1), 1), (3, 2, (2, 2, 1), 2),
], ids=["F3-d3", "F9-d2", "F5-d2", "F9nc-d1", "F9nc-d2"])
def test_closed_points_are_the_orbit_reps(p, a, modulus, d):
    base = make_field(p, a, modulus)
    field = point_field(base, d)
    pts = closed_points(base, d)
    assert all(pt.field == field for pt in pts)
    orbit_sizes = Counter()
    for x in _elements(field):
        if not any(x):
            continue
        y, j = schoolbook_pow(field, x, base.size), 1
        while y != x:
            y, j = schoolbook_pow(field, y, base.size), j + 1
        if j == d:
            orbit_sizes[orbit_rep(base, field, x)] += 1
    assert sorted(orbit_sizes, key=ClosedPoint.sort_key) == pts
    assert set(orbit_sizes.values()) == {d}


# the sweep of the orbit-route oracle test in test_cli, and two bases of degree 2
@pytest.mark.parametrize("p,a,n,D", [
    (3, 1, 1, 3), (3, 1, 2, 2), (3, 1, 3, 2), (5, 1, 1, 3), (5, 1, 2, 2), (5, 1, 3, 1),
    (7, 1, 1, 2), (7, 1, 2, 1), (7, 1, 3, 1), (11, 1, 1, 2), (11, 1, 2, 1), (11, 1, 3, 1),
    (3, 2, 2, 2), (5, 2, 1, 1),
])
def test_twist_orbits_agree_with_orbit_rep(p, a, n, D):
    base = make_field(p, a)
    points = points_up_to(base, D)
    twists = ff.twist_orbits(points, n)
    assert list(twists) == points

    def twist(c, pt):
        # [c^(n+1) t]: c is in F_p, so it scales every coordinate
        return orbit_rep(base, pt.field, tuple(pow(c, n + 1, p) * x % p for x in pt.rep))

    for pt in points:
        rep, c = twists[pt]
        assert rep == min((twist(b, pt) for b in range(1, p)), key=ClosedPoint.sort_key)
        assert twist(c, rep) == pt


def test_generator_has_full_order():
    for field in (make_field(3, 2), make_field(5, 1), make_field(3, 3)):
        g = field.from_int(int(ff._mult_data(field).code[1]))
        assert g == schoolbook_generator(field)
        seen = set()
        x = schoolbook_one(field)
        for _ in range(field.size - 1):
            seen.add(x)
            x = _mul(field, x, g)
        assert len(seen) == field.size - 1
        assert x == schoolbook_one(field)
