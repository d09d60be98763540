import pytest

from transferlab.catalog import (
    cyclic,
    dihedral,
    direct_product,
    elementary_abelian,
    generalized_quaternion,
    symmetric,
)
from transferlab.group import PermGroup
from transferlab.iso import (
    GeneratorMap,
    abelian_invariants,
    abelianization_invariants,
    all_subgroups,
    automorphism_group,
    automorphism_representatives,
    is_characteristic,
    is_isomorphic,
)
from transferlab.perm import Perm
from transferlab.series import center


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


def test_automorphism_representatives_cover_full_group():
    """Every automorphism is (representative) . (inner)."""
    for g in (dihedral(8), generalized_quaternion(8), symmetric(3)):
        full = automorphism_group(g)
        reps = automorphism_representatives(g)
        elems = g.elements()
        images_full = {tuple(gm.apply(x).images for x in g.gens) for gm in full}
        images_covered = set()
        for gm in reps:
            for c in elems:
                images_covered.add(
                    tuple((c.inverse() * gm.apply(x) * c).images for x in g.gens)
                )
        assert images_full == images_covered


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
    auts = automorphism_representatives(d8)
    z = center(d8)
    assert is_characteristic(d8, z, auts)
    # The cyclic subgroup of order 4 is the unique one, hence characteristic.
    c4 = next(h for h in all_subgroups(d8) if h.order() == 4 and len(
        [x for x in h.elements() if x.order() == 4]) == 2)
    assert is_characteristic(d8, c4, auts)
    # A non-central reflection subgroup of order 2 is not characteristic
    # (not even normal, but the test sees an automorphism moving it).
    refl = next(
        h for h in all_subgroups(d8)
        if h.order() == 2 and not h.is_subgroup_of(z)
    )
    assert not is_characteristic(d8, refl, auts)
