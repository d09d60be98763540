"""`GeneratorMap.extend` composes target images along the source's word
plan (`iso._cayley_plan`), built once per source, and gives the table
the old closure over Perm products gave (kept as
`aut_oracles.extend_by_products`): the same dict, or None for both, on
every map the corpus searches try and on drawn image tuples, most of
which are no homomorphism.  A map needs one image per generator of its
source, of the target's degree."""

import pytest
from hypothesis import given, settings, strategies as st

from aut_oracles import extend_by_products
from test_scanned_subgroups import PAIRS, _pair_id
from transferlab.catalog import (
    cyclic,
    dihedral,
    elementary_abelian,
    generalized_quaternion,
    symmetric,
    wreath_cyclic,
)
from transferlab.group import PermGroup, span
from transferlab.iso import (
    GeneratorMap,
    _cayley_plan,
    automorphism_group,
    is_isomorphic,
)
from transferlab.perm import Perm
from transferlab.sylow import sylow_subgroup


def _record_extends(monkeypatch) -> list:
    """Every (map, table) that `GeneratorMap.extend` returns from now on."""
    seen = []
    extend = GeneratorMap.extend

    def recording(self):
        table = extend(self)
        seen.append((self, table))
        return table

    monkeypatch.setattr(GeneratorMap, "extend", recording)
    return seen


@pytest.mark.parametrize("pair", PAIRS, ids=_pair_id)
def test_extend_matches_products_on_every_corpus_search(monkeypatch, pair):
    """Aut(P), P against a copy of P on other generators, and P against
    Z_p wr Z_p when the orders agree."""
    entry, p = pair
    p_syl = sylow_subgroup(entry.build(), p)
    seen = _record_extends(monkeypatch)
    automorphism_group(p_syl)
    copy = span(p_syl.degree, reversed(p_syl.elements()))
    assert is_isomorphic(p_syl, copy)[0]
    wreath = wreath_cyclic(p)
    if wreath.order() == p_syl.order():
        is_isomorphic(p_syl, wreath)
    assert seen
    for gm, table in seen:
        assert table == extend_by_products(gm)


SOURCES = [symmetric(3), symmetric(4), dihedral(8), generalized_quaternion(8), cyclic(6),
           elementary_abelian(2, 3), wreath_cyclic(2)]
TARGETS = SOURCES + [span(4, symmetric(4).gens[::-1]), PermGroup(5, [])]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_extend_matches_products_on_drawn_images(data):
    source = data.draw(st.sampled_from(SOURCES))
    target = data.draw(st.sampled_from(TARGETS))
    elems = target.elements()
    images = tuple(data.draw(st.sampled_from(elems)) for _ in source.gens)
    gm = GeneratorMap(source, target, images)
    table = gm.extend()
    assert table == extend_by_products(gm)
    if table is not None:
        assert gm.is_homomorphism() and len(table) == source.order()


def test_the_plan_is_the_cayley_graph_of_the_source():
    """Breadth-first from the identity over the gens: every element once,
    and row i, entry j is the index of element i times gen j."""
    g = dihedral(8)
    elems, rows = _cayley_plan(g)
    assert elems[0] == tuple(range(g.degree))
    assert sorted(elems) == sorted(g.element_set()) and len(set(elems)) == g.order()
    index = {x: i for i, x in enumerate(elems)}
    for i, row in enumerate(rows):
        assert list(row) == [index[(Perm(elems[i]) * s).images] for s in g.gens]
    # breadth-first: each element after the first is first reached from an earlier row
    first_seen = {}
    for i, row in enumerate(rows):
        for k in row:
            first_seen.setdefault(k, i)
    assert all(first_seen[k] < k for k in range(1, len(elems)))


def test_extend_multiplies_no_perm(monkeypatch):
    """Once the plan is kept on the source, a candidate map composes image
    tuples only: no Perm product on either side."""
    s4 = symmetric(4)
    gm = GeneratorMap(s4, s4, s4.gens)
    _cayley_plan(s4)
    products = []
    mul = Perm.__mul__

    def counting(a, b):
        products.append(None)
        return mul(a, b)

    monkeypatch.setattr(Perm, "__mul__", counting)
    assert gm.is_isomorphism()
    assert products == []


def test_the_plan_is_built_once_per_source(monkeypatch):
    """Every candidate of one Aut(P) search reads the one plan kept on
    the generating sequence."""
    seen = _record_extends(monkeypatch)
    automorphism_group(wreath_cyclic(2))
    sources = {id(gm.source) for gm, _ in seen}
    assert len(seen) > 1 and len(sources) == 1
    plans = {id(_cayley_plan(gm.source)) for gm, _ in seen}
    assert len(plans) == 1


@pytest.mark.parametrize("count", [0, 1, 3])
def test_generator_map_rejects_a_wrong_number_of_images(count):
    """S4 has two generators: one image or three is refused, where the
    old map took the first image alone for a homomorphism, or dropped the
    third."""
    s4 = symmetric(4)
    images = (s4.gens * 2)[:count]
    with pytest.raises(ValueError, match="images for 2 generators"):
        GeneratorMap(s4, s4, images)


def test_generator_map_rejects_images_of_another_degree():
    s4 = symmetric(4)
    with pytest.raises(ValueError, match="degree"):
        GeneratorMap(s4, s4, (Perm.identity(5), Perm.identity(5)))
