import math
import random

import pytest
from hypothesis import example, given, strategies as st

from klsym.cyclo import CycInt, is_prime, ord_p
from klsym.errors import UsageError


def rand_elem(rng, p, span=30):
    return CycInt(p, [rng.randint(-span, span) for _ in range(p - 1)])


def one(p):
    return CycInt.from_int(p, 1)


def zeta(p, k=1):
    return CycInt.from_powers(p, [(k, 1)])


def power(x, e):
    return math.prod([x] * e, start=one(x.p))


def test_level_must_be_odd_prime():
    with pytest.raises(UsageError):
        CycInt.from_int(2, 1)
    with pytest.raises(UsageError):
        CycInt.from_int(9, 1)
    assert is_prime(7) and not is_prime(1)


def test_basis_reduction_relations():
    # zeta * zeta^(p-1) = 1 and the level relation 1 + zeta + ... + zeta^(p-1) = 0
    for p in (3, 5, 7):
        z = zeta(p)
        assert z * power(z, p - 1) == one(p)
        total = CycInt.zero(p)
        for k in range(p):
            total = total + power(z, k)
        assert total == CycInt.zero(p)


def test_p3_handworked_products():
    z = zeta(3)
    assert z + z * z == CycInt.from_int(3, -1)
    assert (one(3) + z) * (one(3) + z * z) == one(3)


def test_sum_of_nontrivial_zeta_powers_is_minus_one():
    for p in (3, 5, 7):
        acc = CycInt.zero(p)
        for k in range(1, p):
            acc = acc + zeta(p, k)
        assert acc.as_integer() == -1


def test_pi_val_baseline_values():
    for p in (3, 5, 7):
        assert CycInt.zero(p).pi_val() is None
        assert CycInt.from_int(p, p).pi_val() == p - 1
        pi = one(p) - zeta(p)
        assert pi.pi_val() == 1
        assert zeta(p).pi_val() == 0


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_pi_val_is_ord_p_of_norm(p):
    # (p) = (pi)^(p-1) with residue degree 1, so v_pi(x) = ord_p(N(x))
    rng = random.Random(4100 + p)
    pi = one(p) - zeta(p)
    high = 0
    for _ in range(40):
        x = rand_elem(rng, p)
        if not x:
            continue
        y = x * power(pi, rng.randint(0, 2 * p)) * p ** rng.randint(0, 3)
        for z in (x, y):
            norm = one(p)
            for c in range(1, p):
                norm = norm * z.galois(c)
            assert z.pi_val() == ord_p(p, norm.as_integer()), z
        high = max(high, y.pi_val())
    assert high > 3 * (p - 1)


def test_pi_val_additive_on_products():
    rng = random.Random(20240811)
    for p in (3, 5):
        for _ in range(60):
            x = rand_elem(rng, p)
            y = rand_elem(rng, p)
            if not x or not y:
                continue
            assert (x * y).pi_val() == x.pi_val() + y.pi_val()


def test_pi_val_ultrametric_on_sums():
    rng = random.Random(7)
    for p in (3, 5):
        for _ in range(60):
            x = rand_elem(rng, p)
            y = rand_elem(rng, p)
            if not x or not y or not (x + y):
                continue
            vx, vy = x.pi_val(), y.pi_val()
            vs = (x + y).pi_val()
            assert vs >= min(vx, vy)
            if vx != vy:
                assert vs == min(vx, vy)


def test_galois_is_ring_automorphism():
    rng = random.Random(99)
    for p in (3, 5, 7):
        for _ in range(25):
            x = rand_elem(rng, p)
            y = rand_elem(rng, p)
            for c in range(1, p):
                assert (x * y).galois(c) == x.galois(c) * y.galois(c)
                assert (x + y).galois(c) == x.galois(c) + y.galois(c)
        n = rng.randint(-9, 9)
        assert CycInt.from_int(p, n).galois(p - 1) == CycInt.from_int(p, n)


def test_galois_composition_exact():
    rng = random.Random(5)
    for p in (5, 7):
        x = rand_elem(rng, p)
        for b in range(1, p):
            for c in range(1, p):
                assert x.galois(b).galois(c) == x.galois((b * c) % p)


def test_as_integer_iff_galois_fixed():
    rng = random.Random(31)
    for p in (3, 5):
        for _ in range(40):
            x = rand_elem(rng, p)
            fixed = all(x.galois(c) == x for c in range(2, p))
            try:
                x.as_integer()
                ok = True
            except ValueError:
                ok = False
            assert ok == fixed
    with pytest.raises(ValueError):
        zeta(5).as_integer()


def test_divide_exact_int():
    x = CycInt(3, (6, -9))
    assert x.divide_exact_int(3) == CycInt(3, (2, -3))
    with pytest.raises(ValueError):
        CycInt(3, (1, 3)).divide_exact_int(3)


def test_serialization_roundtrip_and_rejects():
    rng = random.Random(47)
    for p in (3, 5, 7):
        for _ in range(20):
            x = rand_elem(rng, p, span=10**6)
            assert CycInt.deserialize(x.serialize()) == x
    assert CycInt.deserialize("3:[-1,0]") == CycInt(3, (-1, 0))
    for bad in ("3:[1,x]", "3:1,2", "spam", "3:[1,2", "4:[1,2,3]"):
        with pytest.raises((ValueError, UsageError)):
            CycInt.deserialize(bad)


def test_mixed_levels_rejected():
    with pytest.raises(ValueError):
        one(3) + one(5)


@given(st.text() | st.text(alphabet="0123456789:[],-\xff\udcff"))
@example("1000000000000000000000000000057:[1,0]")
@example("3:[1,\xff]")
@example("3:[1,\udcff]")  # a \xff byte as the sum cache reads it
def test_deserialize_raises_only_value_or_usage_error(text):
    try:
        CycInt.deserialize(text)
    except (ValueError, UsageError):
        pass
