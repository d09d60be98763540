"""What a subgroup is told when it is made is checked.

`group._subgroup` is the one constructor for a subgroup whose order,
element set, chain or conjugate source is already known.  A chain handed
to it is checked against the order its element set gives, and a chain
built later is checked against the told order (`PermGroup._keep_chain`).
Each test below tells a subgroup a wrong fact through the constructor and
expects InvariantError where the fact meets a chain.  A build told too
small an order can stop once a partial chain reaches it, so the gens it
did not read are sifted (`PermGroup.chain`).
"""

import pytest

from transferlab import group as group_mod
from transferlab import iso as iso_mod
from transferlab.catalog import corpus_group
from transferlab.group import (
    InvariantError,
    _subgroup,
    centralizer,
    conjugate_subgroup,
    intersection,
    normalizer,
    right_transversal,
)
from transferlab.iso import all_subgroups
from transferlab.perm import _IDENTITY
from transferlab.sylow import all_sylow_subgroups, sylow_subgroup


@pytest.mark.parametrize("scan", [centralizer, intersection], ids=["centralizer", "intersection"])
def test_scanned_subgroup_handed_a_short_element_set_raises(monkeypatch, scan):
    g = corpus_group("S4")
    p_syl, q_syl = all_sylow_subgroups(g, 2).members[:2]

    def short(degree, gens, *, element_set=None, chain=None, **facts):
        if chain is not None and element_set is not None:
            element_set = element_set - {_IDENTITY[degree]}
        return _subgroup(degree, gens, element_set=element_set, chain=chain, **facts)

    monkeypatch.setattr(group_mod, "_subgroup", short)
    with pytest.raises(InvariantError, match="reached the wrong order"):
        scan(p_syl, q_syl)


def test_conjugate_told_a_wrong_order_raises_at_its_first_chain_build(monkeypatch):
    g = corpus_group("S4")
    p_syl = sylow_subgroup(g, 2)
    t = right_transversal(g, normalizer(g, p_syl)).reps[1]

    def doubled(degree, gens, *, order=None, source=None, **facts):
        if source is not None:
            order *= 2
        return _subgroup(degree, gens, order=order, source=source, **facts)

    monkeypatch.setattr(group_mod, "_subgroup", doubled)
    conj = conjugate_subgroup(p_syl, t)
    # The told order is read without a chain, and membership goes through
    # P, so nothing is checked until the chain is built.
    assert conj.order() == 16 and conj.contains(conj.gens[0])
    for _ in range(2):  # the rejected chain is not kept
        with pytest.raises(InvariantError, match="reached the wrong order: 8, told 16"):
            conj.chain
    assert conj._chain is None


def test_lattice_join_told_a_wrong_order_raises_at_its_first_chain_build(monkeypatch):
    p_syl = sylow_subgroup(corpus_group("S4"), 2)

    def doubled(degree, gens, *, element_set):
        # A join has the gens of two subgroups, an atom <x> only x.
        if len(gens) == 1:
            return _subgroup(degree, gens, element_set=element_set)
        return _subgroup(degree, gens, order=2 * len(element_set))

    monkeypatch.setattr(iso_mod, "_subgroup", doubled)
    with pytest.raises(InvariantError, match="reached the wrong order"):
        all_subgroups(p_syl)



@pytest.mark.parametrize(
    "label, told", [("S4", 4), ("PSL(2,17)", 8), ("PSL(2,17)", 4)], ids=["S4-4", "PSL-8", "PSL-4"]
)
def test_sylow_told_too_small_an_order_raises_at_its_chain_build(label, told):
    p_syl = sylow_subgroup(corpus_group(label), 2)
    h = _subgroup(p_syl.degree, p_syl.gens, order=told)
    with pytest.raises(InvariantError, match=f"stopped at the told order {told}"):
        h.chain
    assert h._chain is None
