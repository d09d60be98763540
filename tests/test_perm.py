import gc
import math
import random

import pytest
from hypothesis import given, strategies as st

from transferlab.perm import Perm, all_perms, commutator, parse_cycles


def random_perm(rng: random.Random, degree: int) -> Perm:
    images = list(range(degree))
    rng.shuffle(images)
    return Perm(tuple(images))


perms = st.integers(min_value=1, max_value=7).flatmap(
    lambda n: st.permutations(range(n)).map(lambda im: Perm(tuple(im)))
)


def same_degree_pairs(k):
    return st.integers(min_value=1, max_value=7).flatmap(
        lambda n: st.tuples(
            *[st.permutations(range(n)).map(lambda im: Perm(tuple(im))) for _ in range(k)]
        )
    )


@given(same_degree_pairs(3))
def test_associativity(triple):
    a, b, c = triple
    assert (a * b) * c == a * (b * c)


@given(perms)
def test_identity_and_inverse(p):
    e = Perm.identity(p.degree)
    assert p * e == p
    assert e * p == p
    assert p * p.inverse() == e
    assert p.inverse() * p == e


@given(same_degree_pairs(2))
def test_inverse_antihomomorphism(pair):
    a, b = pair
    assert (a * b).inverse() == b.inverse() * a.inverse()


@given(perms)
def test_order_is_exact(p):
    n = p.order()
    assert n >= 1
    e = Perm.identity(p.degree)
    assert p**n == e
    for d in range(1, n):
        if n % d == 0:
            assert p**d != e
    assert n == math.lcm(*(len(c) for c in p.cycles())) if p.cycles() else n == 1


def test_order_is_lcm_of_cycle_lengths(rng):
    """order() walks the images once; cycles() gives the reference."""
    samples = [random_perm(rng, degree) for degree in range(1, 41) for _ in range(25)]
    samples += [Perm.identity(1), Perm.identity(18), Perm.from_cycles(18, [(0, 17)])]
    for p in samples:
        assert p.order() == math.lcm(1, *(len(c) for c in p.cycles()))
    assert Perm.identity(1).order() == Perm.identity(18).order() == 1


@given(same_degree_pairs(2))
def test_conjugation_is_action(pair):
    a, g = pair
    assert a.conjugate(g) == g.inverse() * a * g
    assert a.conjugate(g).order() == a.order()


@given(same_degree_pairs(3))
def test_conjugation_composes(triple):
    a, g, h = triple
    assert a.conjugate(g).conjugate(h) == a.conjugate(g * h)


@given(perms)
def test_cycles_round_trip(p):
    assert Perm.from_cycles(p.degree, p.cycles()) == p


@given(same_degree_pairs(2))
def test_commutator_definition(pair):
    a, b = pair
    assert commutator(a, b) == a.inverse() * b.inverse() * a * b


@given(same_degree_pairs(2))
def test_power_negative_exponent(pair):
    a, _ = pair
    assert a**-1 == a.inverse()
    assert a**0 == Perm.identity(a.degree)
    assert a**3 == a * a * a


def test_composition_is_left_to_right():
    # (0 1) then (1 2): 0 -> 1 -> 2.
    a = Perm.from_cycles(3, [(0, 1)])
    b = Perm.from_cycles(3, [(1, 2)])
    assert (a * b).images == (2, 0, 1)


def test_parse_cycles():
    assert parse_cycles("(0 1 2)(3 4)", 5) == Perm.from_cycles(5, [(0, 1, 2), (3, 4)])
    assert parse_cycles("()", 4) == Perm.identity(4)
    # (0 1)(0 1) read as (0 1), though the product is 1, and (0 1)(1 2)
    # raised "not a permutation of 0..2".
    for text in ["(0 1)(0 1)", "(0 1)(1 2)", "(0 1 0)"]:
        with pytest.raises(ValueError, match="repeated point"):
            parse_cycles(text, 3)
    with pytest.raises(ValueError, match="repeated point 0"):
        Perm.from_cycles(3, [(0, 1), (0, 1)])


def test_all_perms_count():
    assert len(list(all_perms(4))) == 24
    assert len({p.images for p in all_perms(4)}) == 24


def test_transposition_and_smallest_moved_point():
    t = Perm.transposition(5, 1, 3)
    assert t.order() == 2
    assert t.smallest_moved_point() == 1
    assert Perm.identity(5).smallest_moved_point() is None


# The kernel composes bare image tuples and wraps the result unchecked;
# these compare it with products built point by point through the
# validating Perm(...) constructor.


def checked_product(*factors: Perm) -> Perm:
    """a * b * ... left to right: apply a first, then b."""
    images = range(factors[0].degree)
    for f in factors:
        images = [f.images[i] for i in images]
    return Perm(images)


def checked_inverse(p: Perm) -> Perm:
    return Perm(sorted(range(p.degree), key=p.images.__getitem__))


@given(perms)
def test_inverse_is_kept(p):
    assert p.inverse() is p.inverse()
    assert p.inverse() == checked_inverse(p)


@given(perms)
def test_double_inverse_is_equal_and_holds_no_back_reference(p):
    inv = p.inverse()
    assert inv.inverse() == p
    # The kept inverse must not point back at p (a reference cycle).
    assert all(ref is not p for ref in gc.get_referents(inv))
    assert all(ref is not inv for ref in gc.get_referents(inv.inverse()))


@given(same_degree_pairs(2))
def test_products_match_checked_construction(pair):
    a, b = pair
    assert a * b == checked_product(a, b)
    assert a.conjugate(b) == checked_product(checked_inverse(b), a, b)
    assert commutator(a, b) == checked_product(
        checked_inverse(a), checked_inverse(b), a, b
    )


@given(perms)
def test_kernel_results_are_valid_perms(p):
    for q in (p * p, p.inverse(), p.conjugate(p), commutator(p, p.inverse())):
        assert sorted(q.images) == list(range(p.degree))
        assert type(q.images) is tuple and q.degree == p.degree


@pytest.mark.parametrize(
    "op",
    [
        lambda a, b: a * b,
        lambda a, b: a.conjugate(b),
        lambda a, b: commutator(a, b),
    ],
    ids=["mul", "conjugate", "commutator"],
)
def test_degree_mismatch_raises(op):
    a, b = Perm.from_cycles(3, [(0, 1, 2)]), Perm.transposition(4, 0, 3)
    for x, y in ((a, b), (b, a)):
        with pytest.raises(ValueError, match="degree mismatch"):
            op(x, y)
