import functools

import pytest
from hypothesis import assume, given, settings, strategies as st

from transferlab import iso
from transferlab.caps import CapExceeded, Caps, limits
from transferlab.catalog import (
    cyclic,
    default_corpus,
    dihedral,
    direct_product,
    elementary_abelian,
    generalized_quaternion,
    psl2,
    symmetric,
    wreath_cyclic,
)
from transferlab.group import InvariantError, PermGroup, span
from transferlab.iso import (
    GeneratorMap,
    abelian_invariants,
    abelianization_invariants,
    all_subgroups,
    automorphism_group,
    is_isomorphic,
    normal_subgroups,
    prime_divisors,
)
from transferlab.perm import Perm
from transferlab.series import center
from transferlab.sylow import characteristic_subgroups_above, sylow_subgroup

from aut_oracles import every_automorphism, is_characteristic_by_images

CORPUS = {e.label: e for e in default_corpus()}
PAIRS = [
    (label, p) for label, e in CORPUS.items() for p in prime_divisors(e.expected_order)
]


def test_abelian_invariants_closed_forms():
    assert abelian_invariants(cyclic(12)) == (3, 4)
    assert abelian_invariants(elementary_abelian(2, 3)) == (2, 2, 2)
    assert abelian_invariants(elementary_abelian(5, 2)) == (5, 5)
    assert abelian_invariants(direct_product(cyclic(2), cyclic(4))) == (2, 4)
    assert abelian_invariants(PermGroup(3, [])) == ()


def test_abelian_invariants_rejects_nonabelian():
    with pytest.raises(ValueError):
        abelian_invariants(symmetric(3))


def test_abelianization_invariants():
    assert abelianization_invariants(symmetric(4)) == (2,)
    assert abelianization_invariants(dihedral(8)) == (2, 2)
    assert abelianization_invariants(generalized_quaternion(8)) == (2, 2)
    assert abelianization_invariants(cyclic(6)) == (2, 3)


def test_is_isomorphic_positive():
    ok, gm = is_isomorphic(symmetric(3), dihedral(6))
    assert ok
    assert gm.is_isomorphism()
    ok2, _ = is_isomorphic(cyclic(4), PermGroup(4, [Perm.from_cycles(4, [(0, 1, 2, 3)])]))
    assert ok2


def test_is_isomorphic_negative():
    assert not is_isomorphic(dihedral(8), generalized_quaternion(8))[0]
    assert not is_isomorphic(cyclic(4), elementary_abelian(2, 2))[0]
    assert not is_isomorphic(cyclic(6), symmetric(3))[0]


def test_automorphism_group_sizes():
    assert len(automorphism_group(dihedral(8))) == 8
    assert len(automorphism_group(elementary_abelian(2, 2))) == 6  # GL(2,2)
    assert len(automorphism_group(cyclic(8))) == 4
    assert len(automorphism_group(generalized_quaternion(8))) == 24


def _matches_oracle(p_grp: PermGroup) -> None:
    """|Aut(P)| and the characteristic subgroups agree with the
    brute-force list of all automorphisms."""
    aut = automorphism_group(p_grp)
    auts = every_automorphism(p_grp)
    assert isinstance(aut, PermGroup) and aut.degree == p_grp.order()
    assert len(aut) == len(auts)
    expected = [
        c.element_set() for c in all_subgroups(p_grp) if is_characteristic_by_images(c, auts)
    ]
    trivial = PermGroup(p_grp.degree, [])
    found = characteristic_subgroups_above(p_grp, trivial)
    assert [c.element_set() for c in found] == expected


def _matches_normal_filter(h: PermGroup) -> None:
    """normal_subgroups(H) is all_subgroups(H) filtered by normality, in
    the same order."""
    expected = [k.element_set() for k in all_subgroups(h) if k.is_normal_in(h)]
    assert [k.element_set() for k in normal_subgroups(h)] == expected


@pytest.mark.parametrize("label,p", PAIRS, ids=[f"{label}-p{p}" for label, p in PAIRS])
def test_automorphism_group_matches_oracle_on_corpus_sylows(label, p):
    _matches_oracle(sylow_subgroup(CORPUS[label].build(), p))


@pytest.mark.parametrize("label,p", PAIRS, ids=[f"{label}-p{p}" for label, p in PAIRS])
def test_normal_subgroups_match_filter_on_corpus_sylows(label, p):
    _matches_normal_filter(sylow_subgroup(CORPUS[label].build(), p))


SMALL = [label for label, e in CORPUS.items() if e.expected_order <= Caps().subgroup_enum_cap]


@pytest.mark.parametrize("label", SMALL)
def test_normal_subgroups_match_filter_on_small_corpus_groups(label):
    _matches_normal_filter(CORPUS[label].build())


@functools.cache
def _sylow_of_symmetric(n: int, p: int) -> PermGroup:
    return sylow_subgroup(symmetric(n), p)


@st.composite
def small_p_groups(draw) -> PermGroup:
    """A subgroup of a Sylow p-subgroup of S_n, n <= 8, from 1-3 elements."""
    n = draw(st.integers(2, 8))
    p = draw(st.sampled_from([q for q in (2, 3, 5, 7) if q <= n]))
    elems = _sylow_of_symmetric(n, p).elements()
    picks = draw(st.lists(st.sampled_from(elems), min_size=1, max_size=3))
    return span(n, picks)


@settings(max_examples=40, deadline=None)
@given(small_p_groups())
def test_automorphism_group_matches_oracle_on_small_p_groups(p_grp):
    # The oracle builds a table per automorphism: order 128 takes seconds.
    assume(p_grp.order() <= 32)
    _matches_oracle(p_grp)
    _matches_normal_filter(p_grp)


def test_automorphism_group_cap():
    with pytest.raises(CapExceeded, match="automorphism search: needs 8, cap is 7"):
        with limits(Caps(aut_cap=7)):
            automorphism_group(dihedral(8))
    with limits(Caps(aut_cap=8)):
        assert len(automorphism_group(dihedral(8))) == 8


def test_orbit_product_mismatch_raises_invariant_error(monkeypatch):
    """An orbit that comes out one point short makes the orbit product
    smaller than the order of the group the generators make."""
    real = iso._orbit

    def short(start, gens, act, key=None):
        orbit = real(start, gens, act, key)
        return orbit[:-1] if len(orbit) > 1 else orbit

    monkeypatch.setattr(iso, "_orbit", short)
    with pytest.raises(InvariantError):
        automorphism_group(dihedral(8))
    with pytest.raises(AssertionError):
        automorphism_group(dihedral(8))


# case -> (builds a and b, the witness's source gens, their images in b).
# Pinned so that a change to the search order shows as a changed witness.
WITNESS_PINS = {
    "s4_sylow_wreath": (
        lambda: (sylow_subgroup(symmetric(4), 2), wreath_cyclic(2)),
        [(3, 2, 0, 1), (2, 3, 0, 1)],
        [(2, 3, 1, 0), (0, 1, 3, 2)],
    ),
    "psl217_sylow_d16": (
        lambda: (sylow_subgroup(psl2(17), 2), dihedral(16)),
        [
            (0, 1, 7, 10, 5, 13, 9, 6, 15, 12, 8, 16, 11, 14, 3, 4, 17, 2),
            (1, 0, 2, 5, 10, 3, 16, 17, 15, 11, 4, 9, 12, 14, 13, 8, 6, 7),
        ],
        [(1, 2, 3, 4, 5, 6, 7, 0), (0, 7, 6, 5, 4, 3, 2, 1)],
    ),
    "s3_d6": (
        lambda: (symmetric(3), dihedral(6)),
        [(1, 2, 0), (0, 2, 1)],
        [(1, 2, 0), (0, 2, 1)],
    ),
    "c4": (
        lambda: (cyclic(4), PermGroup(4, [Perm.from_cycles(4, [(0, 1, 2, 3)])])),
        [(1, 2, 3, 0)],
        [(1, 2, 3, 0)],
    ),
}


@pytest.mark.parametrize("case", WITNESS_PINS)
def test_is_isomorphic_witness_is_pinned(case):
    """The witnesses of verify_paper_witnesses and test_is_isomorphic_positive."""
    build, source_gens, images = WITNESS_PINS[case]
    ok, gm = is_isomorphic(*build())
    assert ok and gm.is_isomorphism()
    assert [x.images for x in gm.source.gens] == source_gens
    assert [x.images for x in gm.images] == images


def test_generator_map_homomorphism_detection(s3):
    a3 = Perm.from_cycles(3, [(0, 1, 2)])
    t = Perm.from_cycles(3, [(0, 1)])
    src = PermGroup(3, [a3, t])
    # Swap images of a 3-cycle and a transposition: not a homomorphism.
    bad = GeneratorMap(src, s3, (t, a3))
    assert not bad.is_homomorphism()
    good = GeneratorMap(src, s3, (a3 * a3, t))
    assert good.is_homomorphism()


def test_generator_map_apply_extends_once(monkeypatch, s4):
    """The element table is built once, by whichever of is_isomorphism and
    apply asks first, and kept for the other."""
    calls = []
    extend = GeneratorMap.extend

    def counted(self):
        calls.append(self)
        return extend(self)

    monkeypatch.setattr(GeneratorMap, "extend", counted)
    phi = GeneratorMap(s4, s4, s4.gens)
    assert all(phi.apply(x) == x for x in s4.elements())
    assert len(calls) == 1
    calls.clear()
    psi = GeneratorMap(s4, s4, s4.gens)
    assert psi.is_isomorphism() and psi.is_homomorphism()
    assert all(psi.apply(x) == x for x in s4.elements())
    assert len(calls) == 1


def test_all_subgroups_counts():
    assert len(all_subgroups(dihedral(8))) == 10
    assert len(all_subgroups(generalized_quaternion(8))) == 6
    assert len(all_subgroups(elementary_abelian(2, 2))) == 5
    assert len(all_subgroups(symmetric(3))) == 6
    s4_subs = all_subgroups(symmetric(4))
    assert len(s4_subs) == 30
    # Lagrange on every subgroup.
    assert all(24 % h.order() == 0 for h in s4_subs)


def test_all_subgroups_deterministic():
    a = [h.order() for h in all_subgroups(dihedral(8))]
    b = [h.order() for h in all_subgroups(dihedral(8))]
    assert a == b == sorted(a)


def test_is_characteristic():
    d8 = dihedral(8)
    chars = {c.element_set() for c in characteristic_subgroups_above(d8, PermGroup(d8.degree, []))}
    z = center(d8)
    assert z.element_set() in chars
    # The cyclic subgroup of order 4 is the unique one, hence characteristic.
    c4 = next(h for h in all_subgroups(d8) if h.order() == 4 and len(
        [x for x in h.elements() if x.order() == 4]) == 2)
    assert c4.element_set() in chars
    # A non-central reflection subgroup of order 2 is not characteristic.
    refl = next(
        h for h in all_subgroups(d8)
        if h.order() == 2 and not h.is_subgroup_of(z)
    )
    assert refl.element_set() not in chars
