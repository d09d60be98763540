"""N_G(H) and O^p(G) are built knowing (or bounding) their order.

`normalizer` counts H's conjugates to get |N| (or returns N_G(Z(H)) for
a non-abelian H normal in it, among them some non-abelian subgroups of a
Sylow P of order <= 32) and stops reading G once its members generate
N; `o_upper_p` tells its span |G|, which it reaches only when
O^p(G) = G; `sylow_subgroup` knows the order of each step of its
ascent; `norm` tests one generator per cyclic subgroup.  None of this may
change a result: gens, chain levels and element set must be those of the
full scans kept in scan_oracles.py, on every corpus pair.
"""

import pytest

from scan_oracles import norm_by_every_element, normalizer_by_scan, o_upper_p_by_span
from test_scanned_subgroups import _levels
from transferlab import sylow as sylow_mod
from transferlab.caps import CapExceeded, Caps, limits
from transferlab.catalog import corpus_group, default_corpus
from transferlab.group import (
    InvariantError,
    PermGroup,
    is_abelian,
    normalizer,
    span,
    trivial_group,
)
from transferlab.iso import all_subgroups, prime_divisors
from transferlab.perm import Perm
from transferlab.series import element_p_part, norm, o_upper_p, p_part
from transferlab.sylow import sylow_intersections, sylow_subgroup

PAIRS = [(e, p) for e in default_corpus() for p in prime_divisors(e.build().order())]


def _pair_id(pair) -> str:
    entry, p = pair
    return f"{entry.label}-p{p}"


def _assert_same(fast: PermGroup, slow: PermGroup) -> None:
    assert [x.images for x in fast.gens] == [x.images for x in slow.gens]
    assert _levels(fast.chain) == _levels(slow.chain)
    assert fast.element_set() == slow.element_set()


def _ascent_by_scan(g: PermGroup, p: int) -> tuple[list[PermGroup], PermGroup]:
    """sylow_subgroup's ascent with full chain builds and the oracle
    normalizer: the subgroups it takes the normalizer of, and P."""
    x = next(x for x in g.elements() if not element_p_part(x, p).is_identity())
    current = PermGroup(g.degree, [element_p_part(x, p)])
    steps = []
    while current.order() < p_part(g.order(), p):
        steps.append(current)
        n = normalizer_by_scan(g, current)
        y = next(
            y for y in n.elements() if not current.contains(y) and current.contains(y**p)
        )
        current = PermGroup(g.degree, list(current.gens) + [y])
    return steps, current


@pytest.mark.parametrize("pair", PAIRS, ids=_pair_id)
def test_normalizer_matches_full_scan(pair):
    entry, p = pair
    g = entry.build()
    steps, p_syl = _ascent_by_scan(g, p)
    _assert_same(sylow_subgroup(g, p), p_syl)
    subgroups = steps + [d for d, _ in sylow_intersections(g, p)]
    if p_syl.order() <= 32:
        # N_G(H) of a non-abelian H may be the kept N_G(Z(H)).
        subgroups += [h for h in all_subgroups(p_syl) if not is_abelian(h)]
    for h in subgroups + [p_syl, trivial_group(g.degree)]:
        n = normalizer(g, h)
        assert n._element_set is not None
        _assert_same(n, normalizer_by_scan(g, h))


def test_sylow_ascent_checks_the_order_it_reached(monkeypatch):
    """Steps told twice their order fail the ascent: the first chain built
    for one finds the true order and raises."""
    subgroup = sylow_mod._subgroup
    monkeypatch.setattr(
        sylow_mod, "_subgroup", lambda degree, gens, order: subgroup(degree, gens, order=2 * order)
    )
    with pytest.raises(InvariantError, match="reached the wrong order"):
        sylow_subgroup(corpus_group("S4"), 2)


@pytest.mark.parametrize("pair", PAIRS, ids=_pair_id)
def test_o_upper_p_matches_full_span(pair):
    entry, p = pair
    g = entry.build()
    _assert_same(o_upper_p(g, p), o_upper_p_by_span(g, p))
    for d, _ in sylow_intersections(g, p):
        n = normalizer(g, d)
        _assert_same(o_upper_p(n, p), o_upper_p_by_span(n, p))


@pytest.mark.parametrize("pair", PAIRS, ids=_pair_id)
def test_norm_matches_every_element_test(pair):
    entry, p = pair
    p_syl = sylow_subgroup(entry.build(), p)
    _assert_same(norm(p_syl), norm_by_every_element(p_syl))


def test_span_rejects_an_element_of_another_degree():
    with pytest.raises(ValueError, match="generator degree 2 != group degree 3"):
        span(3, [Perm([1, 0, 2]), Perm([1, 0])])


class _CountingList(list):
    """A list that counts the items read through iteration."""

    read = 0

    def __iter__(self):
        for x in super().__iter__():
            self.read += 1
            yield x


def _counted(g: PermGroup) -> _CountingList:
    g._elements = _CountingList(g.elements())
    return g._elements


def test_normalizer_of_trivial_group_stops_before_reading_all_of_g():
    g = corpus_group("PSL(2,17)")
    elems = _counted(g)
    n = normalizer(g, trivial_group(g.degree))
    assert n.order() == g.order()
    assert 0 < elems.read < g.order()


def test_o_upper_p_of_perfect_group_stops_before_reading_all_of_g():
    g = corpus_group("PSL(2,17)")
    elems = _counted(g)
    assert o_upper_p(g, 2).order() == g.order()
    assert 0 < elems.read < g.order()


@pytest.mark.parametrize("build", [normalizer, o_upper_p], ids=["normalizer", "o_upper_p"])
def test_element_cap_below_g_raises_for_g(build):
    h = sylow_subgroup(corpus_group("S5"), 2)
    h.element_set()
    g = corpus_group("S5")  # its elements not listed yet
    arg = h if build is normalizer else 2
    with pytest.raises(CapExceeded, match="element enumeration: needs 120, cap is 100"):
        with limits(Caps(element_cap=100)):
            build(g, arg)
