"""Slow reference versions of the routes that went through a quotient by
the trivial group, and of the power count of the abelian invariants.

These are the bodies `iso.abelian_invariants`,
`iso.abelianization_invariants`, `transfer._ap_quotient_invariants`,
`series.norm_series` and `checkers._has_wreath_quotient` had before
G/1 became G itself and the invariants were counted from element orders:
one x^{p^k} per element for each k, the regular representation of G
whenever G' = 1 or A^p(G) = 1, norm_series stepping from 1 through the
quotient by 1, and the Z_p wr Z_p test taking every normal N of P, N = 1
included, through its quotient.  They stay here, and only here, as the
oracles for test_trivial_quotients.py.

`quotient_group` takes G/1 as G itself, so these oracles, and those
of the p-series and of the preimage scan, go through `coset_quotient`,
which builds G/1 as the right regular representation (`RegularQuotient`):
a second route across the trivial kernel, independent of that branch.
"""

from transferlab.catalog import wreath_cyclic
from transferlab.group import (
    PermGroup,
    QuotientGroup,
    _unkept_right_transversal,
    derived_subgroup,
    quotient_group,
    trivial_group,
)
from transferlab.iso import _ilog, is_abelian, is_isomorphic, normal_subgroups, prime_divisors
from transferlab.series import SeriesResult, _series, a_p, norm, o_upper_p


class RegularQuotient(QuotientGroup):
    """G/1 as G acting on its right cosets of 1, its elements, by right
    multiplication: the right regular representation of degree |G|,
    built by the coset route `QuotientGroup` takes for a nontrivial
    kernel, so its maps are that route's too."""

    def __init__(self, source: PermGroup):
        self.source, self.kernel = source, trivial_group(source.degree)
        self.transversal = _unkept_right_transversal(source, self.kernel)
        self.image = PermGroup(len(self.transversal), [self._coset_perm(s) for s in source.gens])


def coset_quotient(g: PermGroup, n: PermGroup) -> QuotientGroup:
    """G/N by G's action on the right cosets of N, G/1 included."""
    return quotient_group(g, n) if n.gens else RegularQuotient(g)


def abelian_invariants_by_powers(g: PermGroup) -> tuple[int, ...]:
    if not is_abelian(g):
        raise ValueError("group is not abelian")
    n = g.order()
    if n == 1:
        return ()
    elems = g.elements()
    out: list[int] = []
    for p in prime_divisors(n):
        prev, k, heights = 1, 1, []
        while True:
            count = sum(1 for x in elems if (x ** (p**k)).is_identity())
            layers = _ilog(count // prev, p)
            if layers == 0:
                break
            heights.append(layers)
            prev = count
            k += 1
        for e, cnt in enumerate(heights):
            nxt = heights[e + 1] if e + 1 < len(heights) else 0
            out.extend([p ** (e + 1)] * (cnt - nxt))
    return tuple(sorted(out))


def abelianization_invariants_by_quotient(g: PermGroup) -> tuple[int, ...]:
    return abelian_invariants_by_powers(coset_quotient(g, derived_subgroup(g)).image)


def ap_quotient_invariants_by_quotient(g: PermGroup, p: int) -> tuple[int, ...]:
    if o_upper_p(g, p).order() == g.order():
        return ()
    return abelian_invariants_by_powers(coset_quotient(g, a_p(g, p)).image)


def norm_series_by_quotients(p: PermGroup) -> SeriesResult:
    def step(prev: PermGroup) -> PermGroup:
        q = coset_quotient(p, prev)
        return q.preimage_subgroup(norm(q.image))

    return _series(trivial_group(p.degree), step, p.order())


def has_wreath_quotient_by_quotients(p_syl: PermGroup, p: int) -> bool:
    target = p ** (p + 1)
    if p_syl.order() % target:
        return False
    wreath = wreath_cyclic(p)
    for n in normal_subgroups(p_syl):
        if n.order() * target != p_syl.order():
            continue
        if is_isomorphic(coset_quotient(p_syl, n).image, wreath)[0]:
            return True
    return False
