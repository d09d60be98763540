import gc
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from transferlab.catalog import cyclic, wreath_cyclic
from transferlab.group import PermGroup, centralizer, normalizer
from transferlab.perm import (
    Perm,
    _compose,
    _getter,
    _invert,
    _table_of,
    all_perms,
    commutator,
    parse_cycles,
)


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
    assert tuple((a * b).images) == (2, 0, 1)


def test_parse_cycles():
    assert parse_cycles("(0 1 2)(3 4)", 5) == Perm.from_cycles(5, [(0, 1, 2), (3, 4)])
    assert parse_cycles("()", 4) == Perm.identity(4)
    assert parse_cycles(" (0, 1) (2 3)\n", 4) == Perm.from_cycles(4, [(0, 1), (2, 3)])
    # Each of these read as (0 1), or failed with int()'s message.
    for text in ["((0 1))", "(0 1))(()", "(0 1)x(2)", "(0 (1) 2)"]:
        with pytest.raises(ValueError, match="bad cycle notation"):
            parse_cycles(text, 4)
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
        assert type(q.images) is type(Perm.identity(p.degree).images) and q.degree == p.degree


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


# The kernel across the 256-point boundary: images are bytes up to 256
# points and a wide tuple type above, with one product for both.  Every
# result is compared with a plain-list computation and must have its
# degree's image type, the type of the identity's images.

BOUNDARY_DEGREES = [1, 2, 18, 256, 257, 300]


def list_product(*factors: list[int]) -> list[int]:
    """a * b * ... on plain lists: apply a first."""
    images = list(range(len(factors[0])))
    for f in factors:
        images = [f[i] for i in images]
    return images


def list_inverse(a: list[int]) -> list[int]:
    inv = [0] * len(a)
    for i, x in enumerate(a):
        inv[x] = i
    return inv


def list_power(a: list[int], k: int) -> list[int]:
    base = a if k >= 0 else list_inverse(a)
    result = list(range(len(a)))
    for _ in range(abs(k)):
        result = list_product(result, base)
    return result


boundary_pairs = st.sampled_from(BOUNDARY_DEGREES).flatmap(
    lambda n: st.tuples(st.permutations(range(n)), st.permutations(range(n)))
)


@settings(max_examples=60, deadline=None)
@given(boundary_pairs, st.integers(min_value=-3, max_value=5))
def test_kernel_matches_lists_across_the_bytes_boundary(pair, k):
    a_list, b_list = map(list, pair)
    a, b = Perm(a_list), Perm(b_list)
    n = len(a_list)
    kind = type(Perm.identity(n).images)
    assert (kind is bytes) == (n <= 256)
    ab = list_product(a_list, b_list)
    cases = [
        (a.images, a_list),
        ((a * b).images, ab),
        (a.inverse().images, list_inverse(a_list)),
        (a.conjugate(b).images, list_product(list_inverse(b_list), a_list, b_list)),
        (
            commutator(a, b).images,
            list_product(list_inverse(a_list), list_inverse(b_list), a_list, b_list),
        ),
        ((a**k).images, list_power(a_list, k)),
        (_compose(a.images, b.images), ab),
        (_getter(a.images)(b.images), ab),
        (a.images.translate(_table_of(b.images)), ab),
        (_invert(a.images), list_inverse(a_list)),
    ]
    for images, expected in cases:
        assert list(images) == expected
        assert type(images) is kind


def test_groups_past_256_points_answer_as_below():
    g = cyclic(300)
    r = g.gens[0]
    assert g.order() == 300
    assert g.contains(r**7) and not g.contains(Perm.transposition(300, 0, 1))
    elems = g.elements()
    assert sorted(list(x.images) for x in elems) == sorted(
        [(i + j) % 300 for i in range(300)] for j in range(300)
    )
    assert {type(x.images) for x in elems} == {type(Perm.identity(300).images)}
    assert normalizer(g, PermGroup(300, [r**100])).element_set() == g.element_set()
    # S3 on {0, 1, 2} among 300 points: N(<(0 1)>) and C((0 1)) are <(0 1)>.
    s3 = PermGroup(300, [Perm.from_cycles(300, [(0, 1, 2)]), Perm.transposition(300, 0, 1)])
    h = PermGroup(300, [Perm.transposition(300, 0, 1)])
    assert normalizer(s3, h).element_set() == centralizer(s3, h).element_set() == h.element_set()
    assert wreath_cyclic(17).order() == 17**18
