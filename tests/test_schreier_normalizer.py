"""N_G(H) from the stabilizer of H's conjugate orbit.

`normalizer` counts H's conjugates by a breadth-first search over G's
gens, keeps for each conjugate the element that first reached it, and
forms N's Schreier generators from the search's edges.  One chain build
over H's gens and those generators must reach |G| over the count, and
N's element set is listed from that chain, so the member test on G's
elements is one set lookup.  Nothing of N may change: gens, chain levels
and element set must be those of the full scan in scan_oracles.py, for
subgroups drawn at random as well as for the corpus pairs that
test_known_order_scans.py covers.  `centralizer` of the trivial group
takes G's elements and element set without testing any element.
"""

import random

import pytest

from sampling import random_subgroup
from scan_oracles import normalizer_by_scan
from test_known_order_scans import _assert_same
from transferlab import group as group_mod
from transferlab.catalog import corpus_group, default_corpus
from transferlab.group import (
    InvariantError,
    PermGroup,
    _scan_subgroup,
    centralizer,
    normalizer,
    trivial_group,
)
from transferlab.perm import Perm
from transferlab.sylow import sylow_subgroup

CORPUS = default_corpus()


@pytest.mark.parametrize("entry", CORPUS, ids=[e.label for e in CORPUS])
def test_normalizer_of_drawn_subgroups_matches_full_scan(entry):
    g = entry.build()
    assert g.order() <= 2448
    rng = random.Random(f"normalizer-{entry.label}")
    for _ in range(5):
        h = random_subgroup(g, rng)
        _assert_same(normalizer(g, h), normalizer_by_scan(g, h))


def test_schreier_generators_short_of_n_raise(monkeypatch):
    """A transposition of S4 has 6 conjugates, so |N| = 4; with the edges
    dropped the build sees only H's gens and stops at order 2."""
    monkeypatch.setattr(group_mod, "_schreier_generators", lambda edges: iter(()))
    g = corpus_group("S4")
    h = PermGroup(g.degree, [Perm.transposition(g.degree, 0, 1)])
    with pytest.raises(InvariantError, match=r"reached order 2, not \|G\|/6"):
        normalizer(g, h)


def test_normalizer_builds_getters_only_for_the_count(monkeypatch):
    """The member test on G's elements builds no getter (a full scan builds
    one per element read, 2448 here).  The getters built are those of the
    scan for Z(P), one per gen and one per element of P, and of the
    conjugate counts, one per gen of the group counted in: G for Z(P),
    and N_G(Z(P)) for P, though P is normal there and is not counted."""
    g = corpus_group("PSL(2,17)")
    h = sylow_subgroup(g, 2)
    real = group_mod._getter
    built = []

    def counting(a):
        built.append(a)
        return real(a)

    monkeypatch.setattr(group_mod, "_getter", counting)
    n = normalizer(g, h)
    assert n.order() == 16
    assert len(built) <= len(h.gens) + h.order() + len(g.gens) + len(n.gens)


@pytest.mark.parametrize("entry", CORPUS, ids=[e.label for e in CORPUS])
def test_centralizer_of_trivial_group_is_the_scan_of_every_element(entry):
    g = entry.build()
    c = centralizer(g, trivial_group(g.degree))
    _assert_same(c, _scan_subgroup(g, lambda x: True))
    assert c.element_set() is g.element_set()
