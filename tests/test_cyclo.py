import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from klsym.cyclo import CycInt, check_odd_prime, mul_coords, ord_p, prime_factors
from klsym.errors import UsageError
from oracles import divide_exact_cyc, pi_val_reference


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
    assert prime_factors(7) == [7] and prime_factors(1) == []


def test_one_trial_division_matches_sympy():
    # prime_factors is the one trial division: sympy's primes of |n| from n = 2 on,
    # none below; check_odd_prime refuses exactly what is not an odd prime
    sympy = pytest.importorskip("sympy")
    for n in range(-3, 5000):
        assert prime_factors(n) == (sympy.primefactors(n) if n > 1 else []), n
        if sympy.isprime(n) and n != 2:
            check_odd_prime(n)
        else:
            with pytest.raises(UsageError, match="odd prime"):
                check_odd_prime(n)


def test_basis_reduction_relations():
    # zeta * zeta^(p-1) = 1 and the level relation 1 + zeta + ... + zeta^(p-1) = 0
    for p in (3, 5, 7):
        z = zeta(p)
        assert z * power(z, p - 1) == one(p)
        total = CycInt.from_int(p, 0)
        for k in range(p):
            total = total + power(z, k)
        assert total == CycInt.from_int(p, 0)


def test_p3_handworked_products():
    z = zeta(3)
    assert z + z * z == CycInt.from_int(3, -1)
    assert (one(3) + z) * (one(3) + z * z) == one(3)


def test_sum_of_nontrivial_zeta_powers_is_minus_one():
    for p in (3, 5, 7):
        acc = CycInt.from_int(p, 0)
        for k in range(1, p):
            acc = acc + zeta(p, k)
        assert acc.as_integer() == -1


def _product_by_long_division(p, a, b):
    """a * b as polynomials in zeta, then the remainder by Phi_p = 1 + X + ... + X^(p-1)
    by long division from the top degree down."""
    c = [0] * (2 * p - 3)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            c[i + j] += x * y
    for d in range(len(c) - 1, p - 2, -1):
        t = c[d]
        for e in range(d - p + 1, d + 1):
            c[e] -= t
    return tuple(c[: p - 1])


@st.composite
def _sparse_operands(draw):
    """Operands of every sparsity the kernel meets: zero, rational, one nonzero
    coordinate, mostly zeros, dense; with no modulus or a power of p."""
    p = draw(st.sampled_from([3, 5, 7, 11, 13]))
    big = st.integers(-10 ** 30, 10 ** 30)

    def operand(shape):
        if shape == "zero":
            return (0,) * (p - 1)
        if shape == "rational":
            return (draw(big),) + (0,) * (p - 2)
        if shape == "single":
            i = draw(st.integers(0, p - 2))
            return (0,) * i + (draw(big),) + (0,) * (p - 2 - i)
        coord = st.one_of(st.just(0), big) if shape == "sparse" else big
        return tuple(draw(st.lists(coord, min_size=p - 1, max_size=p - 1)))

    shapes = st.sampled_from(["zero", "rational", "single", "sparse", "dense"])
    mod = draw(st.one_of(st.none(), st.integers(1, 40).map(lambda e: p ** e)))
    return p, operand(draw(shapes)), operand(draw(shapes)), mod


@settings(max_examples=400)
@given(_sparse_operands())
@example((3, (0, 0), (0, 0), None))
@example((5, (0, 0, 0, 7), (0, 0, 0, -3), None))        # zeta^3 * zeta^3 = zeta
@example((7, (2, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 5), 7 ** 3))
@example((11, (0,) * 9 + (1,), (1,) * 10, None))
def test_mul_coords_matches_long_division(operands):
    p, a, b, mod = operands
    want = _product_by_long_division(p, a, b)
    if mod is not None:
        want = tuple(c % mod for c in want)
    assert mul_coords(a, b, mod) == want
    assert mul_coords(b, a, mod) == want


def test_pi_val_baseline_values():
    for p in (3, 5, 7):
        assert CycInt.from_int(p, 0).pi_val() is None
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


@given(st.sampled_from([3, 5, 7, 11, 13]),
       st.lists(st.tuples(st.integers(-10 ** 6, 10 ** 6), st.integers(0, 15)),
                min_size=12, max_size=12),
       st.integers(0, 30))
# b_0 = 5 and b_1 = 5^10: the second term stops dividing at 5 > pi_val = 4
@example(5, [(5 - 5 ** 10, 0), (1, 10)] + [(0, 0)] * 10, 0)
def test_pi_val_matches_the_term_by_term_reference(p, coords, k):
    # coordinates c p^e: terms of high ord_p, which pi_val stops dividing early
    x = CycInt(p, [c * p ** e for c, e in coords[: p - 1]])
    x = x * power(one(p) - zeta(p), k)
    assert x.pi_val() == pi_val_reference(x)


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
    # the exact division by a rational integer of the oracles' CycInt loops
    x = CycInt(3, (6, -9))
    assert divide_exact_cyc(x, 3) == CycInt(3, (2, -3))
    with pytest.raises(ValueError):
        divide_exact_cyc(CycInt(3, (1, 3)), 3)


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
