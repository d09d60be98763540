"""The group kernel against sympy's permutation groups, an independent
implementation (sympy is a development-only oracle, never imported by
the library).

Hypothesis draws random subgroups G of S_n for n <= 8, generated by up
to three random permutations, and subgroups of G as words in G's
generators.  The tests that enumerate G (element sets, Sylow ascent)
draw n <= 6.  [A, B] is checked for two distinct Sylow subgroups of
S4, S5, PSL(2,7) and A5, neither of which contains the other.
"""

import pytest
from hypothesis import given, settings, strategies as st

sympy_comb = pytest.importorskip("sympy.combinatorics")
SymPerm, SymGroup = sympy_comb.Permutation, sympy_comb.PermutationGroup

from transferlab.catalog import alternating, psl2, symmetric  # noqa: E402
from transferlab.group import (  # noqa: E402
    PermGroup,
    centralizer,
    commutator_subgroup,
    normal_closure,
    normalizer,
)
from transferlab.iso import conjugacy_classes, prime_divisors  # noqa: E402
from transferlab.perm import Perm  # noqa: E402
from transferlab.series import (  # noqa: E402
    derived_series,
    is_nilpotent,
    lower_central_series,
)
from transferlab.sylow import all_sylow_subgroups, sylow_subgroup  # noqa: E402


def draw_group(data, max_degree):
    """(degree, generators): up to three random permutations of S_n."""
    n = data.draw(st.integers(min_value=1, max_value=max_degree), label="n")
    gens = data.draw(st.lists(st.permutations(range(n)), max_size=3), label="gens")
    return n, [Perm(g) for g in gens]


def draw_words(data, n, gens, min_words, max_words):
    """Elements of <gens>, each the product of a random word in gens."""
    out = []
    for _ in range(data.draw(st.integers(min_value=min_words, max_value=max_words))):
        x = Perm.identity(n)
        if gens:
            for i in data.draw(st.lists(st.integers(0, len(gens) - 1), max_size=6)):
                x = x * gens[i]
        out.append(x)
    return out


def sym(p: Perm):
    return SymPerm(list(p.images))


def sym_group(n, gens):
    return SymGroup([SymPerm(list(range(n)))] + [sym(x) for x in gens])


def lib_images(x: SymPerm):
    """The images of a sympy permutation, as the library keeps them."""
    return Perm(x.array_form).images


def sym_elements(g) -> frozenset:
    return frozenset(lib_images(x) for x in g.generate())


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_order_and_membership_match_sympy(data):
    n, gens = draw_group(data, 8)
    g, s = PermGroup(n, gens), sym_group(n, gens)
    assert g.order() == s.order()
    for x in draw_words(data, n, gens, 1, 3):
        assert g.contains(x) and s.contains(sym(x))
    for images in data.draw(st.lists(st.permutations(range(n)), min_size=1, max_size=4)):
        x = Perm(images)
        assert g.contains(x) == s.contains(sym(x))


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_centralizer_and_normalizer_match_sympy(data):
    n, gens = draw_group(data, 6)
    g, s = PermGroup(n, gens), sym_group(n, gens)
    h_gens = draw_words(data, n, gens, 2, 3)
    h, sh = PermGroup(n, h_gens), sym_group(n, h_gens)

    assert centralizer(g, h).element_set() == sym_elements(s.centralizer(sh))

    sym_normalizing = frozenset(
        lib_images(x)
        for x in s.generate()
        if all(sh.contains(t ^ x) for t in sh.generators)
    )
    assert normalizer(g, h).element_set() == sym_normalizing


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_normal_closure_matches_sympy(data):
    n, gens = draw_group(data, 8)
    g, s = PermGroup(n, gens), sym_group(n, gens)
    seeds = draw_words(data, n, gens, 1, 2)
    closure = normal_closure(g, seeds)
    sym_closure = s.normal_closure(sym_group(n, seeds))
    # Equal orders and one inside the other: the same subgroup.
    assert closure.order() == sym_closure.order()
    assert all(sym_closure.contains(sym(x)) for x in closure.gens)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_series_and_sylow_orders_match_sympy(data):
    n, gens = draw_group(data, 6)
    g, s = PermGroup(n, gens), sym_group(n, gens)
    assert [t.order() for t in derived_series(g).terms] == [
        t.order() for t in s.derived_series()
    ]
    assert [t.order() for t in lower_central_series(g).terms] == [
        t.order() for t in s.lower_central_series()
    ]
    assert is_nilpotent(g) == s.is_nilpotent
    for p in prime_divisors(g.order()):
        assert sylow_subgroup(g, p).order() == s.sylow_subgroup(p).order()


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_conjugacy_classes_match_sympy(data):
    """The classes are sympy's; each starts with its rep, and the reps are
    the first elements of their classes in `elements()` order, in that
    order."""
    n, gens = draw_group(data, 6)
    g, s = PermGroup(n, gens), sym_group(n, gens)
    classes = conjugacy_classes(g)
    assert {frozenset(x.images for x in cls) for _, cls in classes} == {
        frozenset(lib_images(x) for x in cls) for cls in s.conjugacy_classes()
    }
    position = {x: i for i, x in enumerate(g.elements())}
    assert all(cls[0] == rep for rep, cls in classes)
    assert all(position[rep] == min(map(position.get, cls)) for rep, cls in classes)
    firsts = [position[rep] for rep, _ in classes]
    assert firsts == sorted(firsts)


SYLOW_CASES = [
    (symmetric(4), 2),
    (symmetric(5), 2),
    (psl2(7), 2),
    (symmetric(5), 3),
    (alternating(5), 5),
]


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_commutator_of_distinct_sylow_subgroups_matches_sympy(data):
    """[A, B] for two distinct members of a Sylow family, against sympy's
    normal closure in <A, B> of the gens' commutators."""
    g, p = data.draw(st.sampled_from(SYLOW_CASES), label="case")
    members = all_sylow_subgroups(g, p).members
    i, j = data.draw(
        st.lists(st.integers(0, len(members) - 1), min_size=2, max_size=2, unique=True),
        label="members",
    )
    a, b = members[i], members[j]
    assert not a.is_subgroup_of(b) and not b.is_subgroup_of(a)
    n = g.degree
    joined = sym_group(n, [*a.gens, *b.gens])
    expected = joined.commutator(sym_group(n, a.gens), sym_group(n, b.gens))
    assert commutator_subgroup(a, b).element_set() == sym_elements(expected)
