"""[A, B] closes the commutators of A's and B's gens under conjugation by
those gens, with no chain of <A, B> built.

`commutator_by_join` is the route `commutator_subgroup` took before: the
normal closure of the same commutators in a fresh <A, B>, whose chain
build only served the check that the seeds lie in it, written out here
with its own saturation loop.  Its gens, chain and elements() order must
be those of `commutator_subgroup` for G' and every lower central term of
each corpus group, and for pairs of distinct Sylow subgroups, where
neither contains the other.
"""

import pytest

from test_known_order_scans import _assert_same
from test_scanned_subgroups import PAIRS, _pair_id
from transferlab import group as group_module
from transferlab.catalog import default_corpus, dihedral, psl2, symmetric
from transferlab.group import PermGroup, commutator_subgroup, derived_subgroup, trivial_group
from transferlab.perm import commutator
from transferlab.series import lower_central_series
from transferlab.sylow import all_sylow_subgroups

CORPUS = default_corpus()


def commutator_by_join(a: PermGroup, b: PermGroup) -> PermGroup:
    """[A, B] as the normal closure in <A, B> of the gens' commutators."""
    comms = [c for x in a.gens for y in b.gens if not (c := commutator(x, y)).is_identity()]
    if not comms:
        return trivial_group(a.degree)
    joined = PermGroup(a.degree, [*a.gens, *b.gens])
    assert all(joined.contains(c) for c in comms)
    current = PermGroup(a.degree, comms)
    while True:
        new = []
        for s in current.gens:
            for x in joined.gens:
                c = s.conjugate(x)
                if not current.contains(c):
                    new.append(c)
        if not new:
            return current
        current = PermGroup(a.degree, list(current.gens) + new)


def _assert_same_build(fast: PermGroup, slow: PermGroup) -> None:
    _assert_same(fast, slow)
    assert [x.images for x in fast.elements()] == [x.images for x in slow.elements()]


@pytest.mark.parametrize("entry", CORPUS, ids=lambda e: e.label)
def test_derived_and_lower_central_terms_match_the_join_route(entry):
    g = entry.build()
    _assert_same_build(derived_subgroup(g), commutator_by_join(g, g))
    for term in lower_central_series(g).terms:
        _assert_same_build(commutator_subgroup(term, g), commutator_by_join(term, g))


SYLOW_PAIRS = [pair for pair in PAIRS if len(all_sylow_subgroups(pair[0].build(), pair[1])) > 1]


@pytest.mark.parametrize("pair", SYLOW_PAIRS, ids=_pair_id)
def test_distinct_sylow_subgroups_match_the_join_route(pair):
    """P and a conjugate Q != P, which have one order, so neither
    contains the other: [P, Q] and [Q, P]."""
    entry, p = pair
    members = all_sylow_subgroups(entry.build(), p).members
    for a, b in [(members[0], members[1]), (members[-1], members[0])]:
        assert not a.is_subgroup_of(b) and not b.is_subgroup_of(a)
        _assert_same_build(commutator_subgroup(a, b), commutator_by_join(a, b))


@pytest.mark.parametrize(
    "build",
    [lambda: symmetric(4), lambda: psl2(7), lambda: dihedral(8)],
    ids=["S4", "PSL(2,7)", "D8"],
)
def test_the_derived_subgroup_builds_no_chain_on_g_s_own_gens(monkeypatch, build):
    """With G's chain built, G' builds none from G's generator tuple, as
    the normal closure in a fresh <G, G> did."""
    g = build()
    g.chain
    own = [x.images for x in g.gens]
    built = []
    original = group_module._build_chain

    def recording(degree, gens, order=None):
        if isinstance(gens, tuple):
            built.append([x.images for x in gens])
        return original(degree, gens, order)

    monkeypatch.setattr(group_module, "_build_chain", recording)
    d = derived_subgroup(g)
    assert built and own not in built
    assert d.is_normal_in(g) and d.order() == commutator_by_join(g, g).order()


def test_commutator_subgroup_rejects_another_degree():
    with pytest.raises(ValueError, match="degree mismatch"):
        commutator_subgroup(symmetric(4), symmetric(5))
