import os
import subprocess
import sys
from pathlib import Path

import pytest

from transferlab.catalog import (
    alternating,
    dihedral,
    psl2,
    sl23,
    symmetric,
)
from transferlab.group import PermGroup, conjugate_subgroup, intersection, normalizer
from transferlab.iso import is_isomorphic
from transferlab.perm import Perm
from transferlab.series import is_p_group, norm, p_part, z_k
from transferlab.sylow import (
    all_sylow_subgroups,
    characteristic_subgroups_above,
    is_tame_intersection,
    is_weakly_closed,
    max_intersection_order,
    sylow_intersections,
    sylow_subgroup,
    tame_intersections_between,
)
from test_scanned_subgroups import PAIRS, _levels, _pair_id


@pytest.mark.parametrize(
    "g,p,count",
    [
        (symmetric(3), 2, 3),
        (symmetric(3), 3, 1),
        (symmetric(4), 2, 3),
        (symmetric(4), 3, 4),
        (alternating(5), 2, 5),
        (alternating(5), 5, 6),
        (sl23(), 2, 1),
        (psl2(7), 2, 21),
    ],
    ids=lambda v: getattr(v, "name", None) or str(v),
)
def test_sylow_family(g, p, count):
    fam = all_sylow_subgroups(g, p)
    n = g.order()
    expected_order = p_part(n, p)
    assert len(fam.members) == count
    # Sylow count congruence and divisibility.
    assert count % p == 1
    assert (n // expected_order) % count == 0
    for s in fam.members:
        assert s.order() == expected_order
        assert is_p_group(s, p)
        assert s.is_subgroup_of(g)


def test_sylow_subgroup_is_p_subgroup_of_full_order(s5):
    s = sylow_subgroup(s5, 2)
    assert s.order() == 8
    assert sylow_subgroup(s5, 5).order() == 5
    assert sylow_subgroup(s5, 3).order() == 3


def test_max_intersection_s4(s4):
    assert max_intersection_order(s4, 2) == 4


def test_tame_intersection_s4(s4):
    fam = all_sylow_subgroups(s4, 2)
    p, q = fam.members[0], fam.members[1]
    d = intersection(p, q)
    assert d.order() == 4
    rec = is_tame_intersection(s4, p, q, 2)
    assert rec.d.same_group_as(d)
    assert rec.tame
    assert rec.normalizer.order() == 24  # V4 is normal in S4
    assert not rec.normalizer_p_nilpotent


def test_is_tame_intersection_rejects_a_subgroup_outside_g():
    """<(0 1 2 3)> is a 2-group of A4's Sylow order, but not in A4."""
    g = alternating(4)
    p_syl = sylow_subgroup(g, 2)
    outside = PermGroup(4, [Perm.from_cycles(4, [(0, 1, 2, 3)])])
    for p_arg, q_arg in ((p_syl, outside), (outside, p_syl)):
        with pytest.raises(ValueError, match="subgroups of G"):
            is_tame_intersection(g, p_arg, q_arg, 2)


def test_tame_intersections_between_bounds(s4):
    trivial = PermGroup(4, [])
    # Inclusive at both ends picks up D = P as well.
    recs_all = tame_intersections_between(s4, 2, trivial, False, strict_lower=False)
    recs_proper = tame_intersections_between(s4, 2, trivial, True, strict_lower=False)
    assert len(recs_all) == len(recs_proper) + 1
    orders_proper = sorted(r.d.order() for r in recs_proper)
    assert orders_proper == [4]


@pytest.mark.parametrize("pair", PAIRS, ids=_pair_id)
def test_sylow_intersections_on_corpus(pair):
    """Each D is P cap Q for its Q, as an element set and as the subgroup
    `intersection` makes; every member's intersection with P is listed
    once, in family order, with the first member that gives it."""
    entry, p = pair
    g = entry.build()
    fam = all_sylow_subgroups(g, p)
    p_syl = fam.base_member
    first = {}
    for q_syl in fam.members:
        first.setdefault(p_syl.element_set() & q_syl.element_set(), q_syl)
    found = sylow_intersections(g, p)
    assert [d.element_set() for d, _ in found] == list(first)
    assert all(q is kept for (_, q), kept in zip(found, first.values()))
    for d, q_syl in found:
        fresh = intersection(p_syl, q_syl)
        assert [x.images for x in d.gens] == [x.images for x in fresh.gens]
        assert _levels(d.chain) == _levels(fresh.chain)
    assert max_intersection_order(g, p) == max(
        (len(dset) for dset in list(first)[1:]), default=1
    )


def _tame_loop(g, p, lower, strict_upper, strict_lower):
    """tame_intersections_between as it was before `sylow_intersections`:
    P cap Q formed for every member Q, deduplicated by D after the
    filters, and classified by `is_tame_intersection`."""
    fam = all_sylow_subgroups(g, p)
    p_syl = fam.base_member
    lower_order = lower.order()
    seen = set()
    out = []
    for q_syl in fam.members[1:] if strict_upper else fam.members:
        d = intersection(p_syl, q_syl)
        if strict_upper and d.order() == p_syl.order():
            continue
        if d.order() < lower_order or not lower.is_subgroup_of(d):
            continue
        if strict_lower and d.order() == lower_order:
            continue
        key = d.element_set()
        if key in seen:
            continue
        seen.add(key)
        rec = is_tame_intersection(g, p_syl, q_syl, p)
        if rec.tame:
            out.append(rec)
    return out


def _record(rec):
    return (
        [x.images for x in rec.d.gens],
        rec.d.element_set(),
        rec.tame,
        [x.images for x in rec.normalizer.gens],
        rec.normalizer_p_nilpotent,
        rec.n_over_c_is_p_group,
    )


@pytest.mark.parametrize("pair", PAIRS, ids=_pair_id)
def test_tame_intersections_between_matches_the_per_member_loop(pair):
    """For the lower bounds the checkers and `analyze` use, and every
    choice of strict ends, the records equal those of the loop that
    intersected P with each member itself.  The loop runs on a second
    build of G, so it gets no record kept on the first."""
    entry, p = pair
    g, oracle_g = entry.build(), entry.build()
    p_syl = sylow_subgroup(g, p)
    lowers = [PermGroup(g.degree, []), z_k(p_syl, p - 1), norm(p_syl)]
    for lower in lowers:
        for strict_upper in (True, False):
            for strict_lower in (True, False):
                args = (p, lower, strict_upper)
                found = tame_intersections_between(g, *args, strict_lower=strict_lower)
                expected = _tame_loop(oracle_g, *args, strict_lower)
                assert [_record(r) for r in found] == [_record(r) for r in expected]


def test_weak_closure(s4, a5):
    fam = all_sylow_subgroups(s4, 2)
    p = fam.base_member
    from transferlab.series import center, o_p

    v4 = o_p(s4, 2)
    closed, mover = is_weakly_closed(s4, p, v4)
    assert closed and mover is None
    z = center(p)
    closed_z, mover_z = is_weakly_closed(s4, p, z)
    assert not closed_z
    assert mover_z is not None
    # The returned conjugator really moves Z outside itself inside P.
    moved = PermGroup(4, [x.conjugate(mover_z) for x in z.gens])
    assert moved.is_subgroup_of(p)
    assert not moved.same_group_as(z)


@pytest.mark.parametrize("pair", PAIRS, ids=_pair_id)
def test_weak_closure_conjugators_on_corpus(pair):
    """For the K the checkers test (Z_{p-1}(P) and the characteristic
    subgroups above it), each returned conjugator t moves K into P and
    lies outside N_G(K), so K^t != K."""
    entry, p = pair
    g = entry.build()
    p_syl = sylow_subgroup(g, p)
    z = z_k(p_syl, p - 1)
    for k in [z, *characteristic_subgroups_above(p_syl, z)]:
        closed, t = is_weakly_closed(g, p_syl, k)
        if not closed:
            assert conjugate_subgroup(k, t).is_subgroup_of(p_syl)
            assert not normalizer(g, k).contains(t)


def test_characteristic_subgroups_above(d8):
    z = PermGroup(d8.degree, [])
    chars = characteristic_subgroups_above(d8, z)
    orders = sorted(c.order() for c in chars)
    # Trivial, center, Frattini = center? For D8: 1, Z = 2, C4 = 4, D8 = 8.
    assert orders == [1, 2, 4, 8]


def test_psl217_sylow_shape(psl217):
    s = sylow_subgroup(psl217, 2)
    assert s.order() == 16
    ok, _ = is_isomorphic(s, dihedral(16))
    assert ok
    ngp = normalizer(psl217, s)
    assert ngp.order() == 16  # self-normalizing


def test_sylow_conjugacy(s4, rng):
    fam = all_sylow_subgroups(s4, 2)
    keys = {m.element_set() for m in fam.members}
    assert len(keys) == 3
    # Conjugating the base by random elements stays inside the family.
    for _ in range(10):
        g = s4.random_element(rng)
        c = PermGroup(4, [x.conjugate(g) for x in fam.base_member.gens])
        assert c.element_set() in keys


@pytest.mark.parametrize("p", [1, -1, 0, 4, 6])
def test_non_prime_is_rejected(p):
    """sylow_subgroup rejects a p that is not a prime, and p_part a p
    below 2.  Run in a subprocess with a timeout, so that a p-part loop
    that never ends fails the test instead of hanging the suite."""
    code = (
        "from transferlab.catalog import symmetric\n"
        "from transferlab.series import p_part\n"
        "from transferlab.sylow import sylow_subgroup\n"
        f"for call in (lambda: sylow_subgroup(symmetric(4), {p}), lambda: p_part(24, {p})):\n"
        "    try:\n"
        "        print(call())\n"
        "    except ValueError:\n"
        "        print('ValueError')\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert proc.returncode == 0, proc.stderr
    p_part_result = "ValueError" if p < 2 else str(p)
    assert proc.stdout.split() == ["ValueError", p_part_result]
