import random
from itertools import product

import pytest

import transferlab.group as group_module
from transferlab.catalog import (
    alternating,
    cyclic,
    dihedral,
    direct_product,
    elementary_abelian,
    generalized_quaternion,
    sl23,
    symmetric,
    wreath_cyclic,
)
from transferlab.group import (
    PermGroup,
    _orbit,
    _orbits,
    centralizer,
    commutator_subgroup,
    conjugate_subgroup,
    core,
    derived_subgroup,
    double_coset_reps,
    intersection,
    is_maximal,
    normal_closure,
    normalizer,
    quotient_group,
    right_transversal,
    span,
    trivial_group,
)
from transferlab.perm import Perm
from transferlab.iso import all_subgroups
from transferlab.sylow import all_sylow_subgroups, sylow_subgroup
from test_scanned_subgroups import PAIRS, _levels, _pair_id


def brute_closure_count(g: PermGroup) -> int:
    """Order by raw multiplication closure, independent of the chain."""
    gens = [p.images for p in g.gens]
    if not gens:
        return 1
    n = len(gens[0])
    idx = tuple(range(n))
    seen = {idx}
    frontier = [idx]
    while frontier:
        nxt = []
        for a in frontier:
            for b in gens:
                c = tuple(b[x] for x in a)
                if c not in seen:
                    seen.add(c)
                    nxt.append(c)
        frontier = nxt
    return len(seen)


SMALL_GROUPS = [
    symmetric(3),
    symmetric(4),
    alternating(4),
    alternating(5),
    dihedral(12),
    generalized_quaternion(16),
    cyclic(12),
    elementary_abelian(3, 2),
    sl23(),
    wreath_cyclic(2),
]


@pytest.mark.parametrize("g", SMALL_GROUPS, ids=lambda g: g.name or "group")
def test_order_matches_brute_closure(g):
    assert g.order() == brute_closure_count(g)


def test_known_orders():
    assert symmetric(6).order() == 720
    assert alternating(6).order() == 360
    assert dihedral(16).order() == 16
    assert generalized_quaternion(32).order() == 32
    assert wreath_cyclic(3).order() == 81


def test_contains_and_elements(s4, a4):
    elems = s4.elements()
    assert len(elems) == 24
    assert len({p.images for p in elems}) == 24
    for p in elems:
        assert s4.contains(p)
    assert not a4.contains(Perm.from_cycles(4, [(0, 1)]))


def test_span_equals_group(s4, rng):
    elems = s4.elements()
    sample = [s4.random_element(rng) for _ in range(6)]
    h = span(4, sample)
    for x in sample:
        assert h.contains(x)
    assert h.order() == PermGroup(4, sample).order()
    assert span(4, elems).order() == 24


def test_span_builds_its_chain_once(monkeypatch, s4, rng):
    """span makes one chain build and keeps that chain: a fresh group on
    the gens it kept has the same chain and element set."""
    builds = []
    real_build = group_module._build_chain

    def counted_build(*args, **kwargs):
        builds.append(args)
        return real_build(*args, **kwargs)

    s5 = symmetric(5)
    inputs = [
        (4, s4.elements()),
        (4, [s4.random_element(rng) for _ in range(6)]),
        (5, [x * y for x in s5.gens for y in s5.gens] + list(s5.gens)),
        (8, sl23().elements()[::-1]),
    ]
    for degree, elems in inputs:
        monkeypatch.setattr(group_module, "_build_chain", counted_build)
        builds.clear()
        h = span(degree, elems)
        h.elements()
        assert len(builds) == 1
        monkeypatch.setattr(group_module, "_build_chain", real_build)
        fresh = PermGroup(degree, h.gens)
        assert _levels(h.chain) == _levels(fresh.chain)
        assert h.element_set() == fresh.element_set()
        assert {x.images for x in h.gens} <= {x.images for x in elems}
        assert all(h.contains(x) for x in elems)


def test_subgroup_and_normality(s4, a4):
    a4_in_s4 = PermGroup(4, a4.gens)
    assert a4_in_s4.is_subgroup_of(s4)
    assert a4_in_s4.is_normal_in(s4)
    d8 = PermGroup(4, [Perm.from_cycles(4, [(0, 1, 2, 3)]), Perm.from_cycles(4, [(0, 2)])])
    assert d8.order() == 8
    assert d8.is_subgroup_of(s4)
    assert not d8.is_normal_in(s4)


def test_conjugate_subgroup_order_preserved(s4, rng):
    d8 = PermGroup(4, [Perm.from_cycles(4, [(0, 1, 2, 3)]), Perm.from_cycles(4, [(0, 2)])])
    for _ in range(10):
        g = s4.random_element(rng)
        c = conjugate_subgroup(d8, g)
        assert c.order() == 8
        assert all(s4.contains(x) for x in c.gens)


def test_normalizer_centralizer(s4):
    v4 = PermGroup(
        4, [Perm.from_cycles(4, [(0, 1), (2, 3)]), Perm.from_cycles(4, [(0, 2), (1, 3)])]
    )
    assert normalizer(s4, v4).order() == 24
    assert centralizer(s4, v4).order() == 4
    d8 = PermGroup(4, [Perm.from_cycles(4, [(0, 1, 2, 3)]), Perm.from_cycles(4, [(0, 2)])])
    assert normalizer(s4, d8).order() == 8


def test_elements_keep_the_known_element_set():
    """Enumerating a group whose element set is already known (a scanned
    subgroup such as N_{S5}(Syl_2), a lattice join such as S4 among its
    subgroups) keeps that set instead of building a second one."""
    s5 = symmetric(5)
    n = normalizer(s5, sylow_subgroup(s5, 2))
    join_s4 = all_subgroups(symmetric(4))[-1]
    for h in (n, join_s4):
        before = h.element_set()
        h.elements()
        assert h.element_set() is before


def _normalizer_oracle(g: PermGroup, h: PermGroup) -> frozenset:
    """N_G(H) by brute force: the x of G with {t^x : t in H} = H, comparing
    whole element sets."""
    hset = h.element_set()
    return frozenset(
        x.images
        for x in g.elements()
        if frozenset(t.conjugate(x).images for t in h.elements()) == hset
    )


@pytest.mark.parametrize("pair", PAIRS, ids=_pair_id)
def test_normalizer_of_sylow_intersections_matches_oracle(pair):
    """Every D = P cap Q the scan meets: the base Sylow P against each
    member Q of the family, once per element set of D."""
    entry, p = pair
    g = entry.build()
    fam = all_sylow_subgroups(g, p)
    seen = set()
    for q in fam.members:
        d = intersection(fam.base_member, q)
        if d.element_set() not in seen:
            seen.add(d.element_set())
            assert normalizer(g, d).element_set() == _normalizer_oracle(g, d)


def test_intersection_and_join_oracle(s4):
    """Intersection agrees with element-set arithmetic."""
    a = PermGroup(4, [Perm.from_cycles(4, [(0, 1, 2, 3)])])
    b = PermGroup(4, [Perm.from_cycles(4, [(0, 1)]), Perm.from_cycles(4, [(2, 3)])])
    inter = intersection(a, b)
    expected = a.element_set() & b.element_set()
    assert inter.element_set() == expected


def test_normal_closure(s5):
    h = PermGroup(5, [Perm.from_cycles(5, [(0, 1, 2)])])
    nc = normal_closure(s5, h)
    assert nc.order() == 60  # A5
    assert nc.is_normal_in(s5)


def test_derived_subgroup_oracle(s4, a5, c12):
    """G' equals the span of all generator-pair commutators' closure."""
    d = derived_subgroup(s4)
    assert d.order() == 12
    assert derived_subgroup(a5).order() == 60
    assert derived_subgroup(c12).order() == 1
    # Brute oracle: normal closure of all element-pair commutators.
    elems = s4.elements()
    comms = []
    for a, b in product(elems, repeat=2):
        comms.append(a.inverse() * b.inverse() * a * b)
    assert span(4, comms).order() == 12


def test_commutator_subgroup_mixed(s4):
    v4 = PermGroup(
        4, [Perm.from_cycles(4, [(0, 1), (2, 3)]), Perm.from_cycles(4, [(0, 2), (1, 3)])]
    )
    c = commutator_subgroup(s4, v4)
    assert c.same_group_as(v4)  # [S4, V4] = V4


def _frontier_orbit(start, gens, act, key):
    """The orbit of start, level by level: each level is the new points
    found from the one before, in the order found."""
    seen = {key(start)}
    orbit = frontier = [start]
    while frontier:
        nxt = []
        for x in frontier:
            for s in gens:
                y = act(x, s)
                if key(y) not in seen:
                    seen.add(key(y))
                    nxt.append(y)
        orbit = orbit + nxt
        frontier = nxt
    return orbit


def test_orbit_is_breadth_first_from_start():
    a = Perm.from_cycles(6, [(0, 1, 2, 3, 4, 5)])
    b = Perm.from_cycles(6, [(0, 3)])
    # From 0: a and b reach 1 and 3; then 2 (from 1), 4 (from 3); then 5.
    assert _orbit(0, [a, b], lambda x, s: s(x)) == [0, 1, 3, 2, 4, 5]
    assert _orbit(4, [a, b], lambda x, s: s(x)) == [4, 5, 0, 1, 3, 2]


@pytest.mark.parametrize("g", [symmetric(4), dihedral(8), alternating(5)], ids=lambda g: g.name)
def test_orbit_matches_the_frontier_search(g):
    """On points, and on right cosets of a Sylow subgroup told apart by
    their coset key, the orbit comes out in frontier order."""
    on_point = lambda x, s: s(x)
    assert _orbit(0, g.gens, on_point) == _frontier_orbit(0, g.gens, on_point, lambda x: x)
    h = sylow_subgroup(g, 2)
    key = lambda c: group_module._coset_key(h, c)
    cosets = _orbit(g.identity(), g.gens, Perm.__mul__, key)
    assert cosets == _frontier_orbit(g.identity(), g.gens, Perm.__mul__, key)
    assert len(cosets) == g.order() // h.order()


def test_orbit_keeps_the_first_point_per_key():
    # From 0: 2 and 1 are new residues mod 3; 4, 3, 3 and 2 are not.
    assert _orbit(0, [2, 1], lambda x, s: x + s, key=lambda x: x % 3) == [0, 2, 1]


def test_orbit_without_key_compares_points(s4):
    """With key None the points themselves are told apart: the orbit of
    x under conjugation is its conjugacy class, each element once."""
    for x in s4.elements():
        cls = _orbit(x, s4.gens, Perm.conjugate)
        assert cls[0] == x
        assert len(set(cls)) == len(cls)
        assert set(cls) == {x.conjugate(g) for g in s4.elements()}
    assert _orbit(s4.identity(), [], Perm.conjugate) == [s4.identity()]


def test_orbits_partition_the_points_in_first_point_order():
    """Each orbit is the `_orbit` of the first point not yet covered, the
    orbits come in the order of their first points, and `points` is read
    only as far as the orbit asked for needs."""
    a = Perm.from_cycles(7, [(0, 4), (1, 5, 3)])
    read = []

    def points():
        for x in [6, 5, 4, 3, 2, 1, 0]:
            read.append(x)
            yield x

    on_point = lambda x, s: s(x)
    orbits = _orbits(points(), [a], on_point)
    assert next(orbits) == [6]
    assert read == [6]
    assert next(orbits) == _orbit(5, [a], on_point) == [5, 3, 1]
    assert read == [6, 5]
    assert list(orbits) == [[4, 0], [2]]
    assert read == [6, 5, 4, 3, 2, 1, 0]
    assert list(_orbits([], [a], on_point)) == []


def test_right_transversal_properties(s4, rng):
    d8 = PermGroup(4, [Perm.from_cycles(4, [(0, 1, 2, 3)]), Perm.from_cycles(4, [(0, 2)])])
    trans = right_transversal(s4, d8)
    assert len(trans.reps) == 3
    assert trans.reps[0].is_identity()
    # Reps hit pairwise distinct cosets and cover the group.
    covered = set()
    for t in trans.reps:
        coset = {(h * t).images for h in d8.elements()}
        assert not (coset & covered)
        covered |= coset
    assert len(covered) == 24
    # rep_of is constant on cosets, dot is a right action.
    for _ in range(20):
        g = s4.random_element(rng)
        h = d8.random_element(rng)
        assert trans.rep_of(h * g) == trans.rep_of(g)
    for _ in range(20):
        g1 = s4.random_element(rng)
        g2 = s4.random_element(rng)
        t = trans.reps[rng.randrange(3)]
        assert trans.dot(trans.dot(t, g1), g2) == trans.dot(t, g1 * g2)


def test_dot_fixed_points_on_core(s4, rng):
    """t.g = t for every g in the core of H."""
    d8 = PermGroup(4, [Perm.from_cycles(4, [(0, 1, 2, 3)]), Perm.from_cycles(4, [(0, 2)])])
    trans = right_transversal(s4, d8)
    cr = core(s4, d8)
    assert cr.order() == 4  # V4
    for g in cr.elements():
        for t in trans.reps:
            assert trans.dot(t, g) == t


def test_double_coset_reps_partition(s4):
    d8 = PermGroup(4, [Perm.from_cycles(4, [(0, 1, 2, 3)]), Perm.from_cycles(4, [(0, 2)])])
    v4 = PermGroup(
        4, [Perm.from_cycles(4, [(0, 1), (2, 3)]), Perm.from_cycles(4, [(0, 2), (1, 3)])]
    )
    reps = double_coset_reps(s4, d8, v4)
    assert reps[0].is_identity()
    seen = set()
    for x in reps:
        dc = {
            (h * x * k).images
            for h in d8.elements()
            for k in v4.elements()
        }
        assert not (dc & seen)
        seen |= dc
    assert len(seen) == 24


def test_quotient_group(s4):
    v4 = PermGroup(
        4, [Perm.from_cycles(4, [(0, 1), (2, 3)]), Perm.from_cycles(4, [(0, 2), (1, 3)])]
    )
    q = quotient_group(s4, v4)
    assert q.image.order() == 6
    # Projection is a homomorphism with kernel V4.
    for a in s4.elements():
        for b in s4.gens:
            assert q.project(a * b) == q.project(a) * q.project(b)
    kernel = [x for x in s4.elements() if q.project(x).is_identity()]
    assert len(kernel) == 4
    # Preimage of the whole image is the whole group.
    pre = q.preimage_subgroup(q.image)
    assert pre.order() == 24


def test_core_and_maximal(s4, a4):
    d8 = PermGroup(4, [Perm.from_cycles(4, [(0, 1, 2, 3)]), Perm.from_cycles(4, [(0, 2)])])
    assert core(s4, d8).order() == 4
    assert is_maximal(s4, d8)
    a4_in = PermGroup(4, a4.gens)
    assert is_maximal(s4, a4_in)
    c4 = PermGroup(4, [Perm.from_cycles(4, [(0, 1, 2, 3)])])
    assert not is_maximal(s4, c4)


def test_direct_product_order():
    g = direct_product(symmetric(3), cyclic(4))
    assert g.order() == 24
    assert g.degree == 7


def test_trivial_group():
    t = trivial_group(5)
    assert t.order() == 1
    assert t.is_trivial()
