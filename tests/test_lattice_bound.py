"""Lattice joins stop at Lagrange's bound.

`iso._subgroup_lattice` closes the element set of each join <H, atom> by
cosets of H, and the join's order is a multiple of |H| that divides |P|,
so a set with more elements than the largest such order below |P| is P.
Stopping there must not change the lattice: the subgroups, their element
sets and gens, in the same order, are those of closures run until a set
has |P| elements (`aut_oracles.lattice_by_closures_to_p`).  This is
checked for the partition into single elements (`all_subgroups`) and into
conjugacy classes (`normal_subgroups`), on every corpus Sylow subgroup and
every corpus group of order at most 200.
"""

import pytest

from aut_oracles import lattice_by_closures_to_p
from transferlab import iso as iso_mod
from transferlab.catalog import default_corpus
from transferlab.iso import _subgroup_lattice, conjugacy_classes, prime_divisors
from transferlab.sylow import sylow_subgroup

CORPUS = default_corpus()
GROUPS = [(f"{e.label}-p{p}", e, p) for e in CORPUS for p in prime_divisors(e.expected_order)]
GROUPS += [(e.label, e, None) for e in CORPUS if e.expected_order <= 200]


def _partitions(p_grp):
    return {
        "elements": [[x] for x in p_grp.elements()],
        "classes": [cls for _, cls in conjugacy_classes(p_grp)],
    }


@pytest.mark.parametrize("case", GROUPS, ids=[c[0] for c in GROUPS])
def test_lattice_with_the_bound_matches_closures_to_p(case):
    _, entry, p = case
    g = entry.build()
    p_grp = g if p is None else sylow_subgroup(g, p)
    for orbits in _partitions(p_grp).values():
        fast = _subgroup_lattice(p_grp, orbits)
        slow = lattice_by_closures_to_p(p_grp, orbits)
        assert [h.element_set() for h in fast] == [h.element_set() for h in slow]
        assert [[x.images for x in h.gens] for h in fast] == [
            [x.images for x in h.gens] for h in slow
        ]


def test_join_closures_stop_below_p(monkeypatch):
    """Each join is closed with stop top + 1, top the largest multiple of
    |H| below |P| that divides |P|: for S4, whose subgroups of order 12
    and 8 join to S4, no join's closure is asked for 24 elements."""
    real = iso_mod._closure
    stops = []

    def recording(degree, hset, gens, stop):
        stops.append((len(hset), stop))
        return real(degree, hset, gens, stop)

    monkeypatch.setattr(iso_mod, "_closure", recording)
    g = next(e for e in CORPUS if e.label == "S4").build()
    iso_mod.all_subgroups(g)
    joins = [(h, stop) for h, stop in stops if h > 1]
    assert joins and all(stop == 24 // prime_divisors(24 // h)[0] + 1 for h, stop in joins)
