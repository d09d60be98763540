"""Slow reference versions of the normalizer, of O^p, of the norm and
of the upper p-series.

These are the bodies `group.normalizer`, `series.o_upper_p` and
`series.norm` had before their builds were told the order of the
subgroup they make and the norm tested one generator per cyclic
subgroup: a member test on every element of G, then one chain build over
all members (the normalizer), one span over every p'-element of G (O^p),
and a member test against the powers of every element (the norm).  They
stay here, and only here, as oracles for the differential tests in
test_known_order_scans.py.  `p_series_by_flags` is the loop
`series.p_series` had before it became one `_series` call, kept as the
oracle for test_series.py; it builds G/1 as the right regular
representation (`quotient_oracles.coset_quotient`), as that loop did.
`core_by_chains` and `o_p_by_chains` are
`group.core` and `series.o_p` with each conjugate a plain group on the
conjugated generators, which builds its own chain to test membership,
as every conjugate did before it tested membership through its source;
they are the oracles for test_conjugate_membership.py.
"""

from quotient_oracles import coset_quotient
from transferlab.group import (
    PermGroup,
    _scan_subgroup,
    intersection,
    normalizer,
    right_transversal,
    span,
    trivial_group,
)
from transferlab.perm import _getter
from transferlab.series import SeriesResult, o_p, o_p_prime


def normalizer_by_scan(g: PermGroup, h: PermGroup) -> PermGroup:
    """N_G(H) by testing every element of G."""
    hset = h.element_set()
    getters = [_getter(t.images) for t in h.gens]

    def keep(x) -> bool:
        xs, xi = x.images, _getter(x.inverse().images)
        return all(xi(t(xs)) in hset for t in getters)

    return _scan_subgroup(g, keep)


def o_upper_p_by_span(g: PermGroup, p: int) -> PermGroup:
    """O^p(G) as the span of every p'-element of G."""
    return span(g.degree, (x for x in g.elements() if x.order() % p != 0))


def norm_by_every_element(p_grp: PermGroup) -> PermGroup:
    """The norm, testing x against <y> for every element y."""
    power_sets = []
    for y in p_grp.elements():
        powers = {y.images}
        z = y
        while not z.is_identity():
            z = z * y
            powers.add(z.images)
        power_sets.append((y, powers))
    return _scan_subgroup(
        p_grp,
        lambda x: all(y.conjugate(x).images in powers for y, powers in power_sets),
    )


def p_series_by_flags(g: PermGroup, p: int) -> SeriesResult:
    """The upper p-series, asking for O_{p'} and O_p in turn and stopping
    after two trivial cores in a row."""
    terms = [trivial_group(g.degree)]
    factors: list[str] = []
    current = terms[0]
    want_p = False
    stalled_once = False
    while current.order() < g.order():
        q = coset_quotient(g, current)
        nxt_img = o_p(q.image, p) if want_p else o_p_prime(q.image, p)
        if nxt_img.is_trivial():
            if stalled_once:
                break
            stalled_once = True
            want_p = not want_p
            continue
        stalled_once = False
        current = q.preimage_subgroup(nxt_img)
        terms.append(current)
        factors.append("p" if want_p else "p'")
        want_p = not want_p
    return SeriesResult(terms, factors)


def conjugate_by_chain(h: PermGroup, t) -> PermGroup:
    """H^t on the conjugated generators, with no source: its membership
    test sifts in its own chain."""
    return PermGroup(h.degree, [x.conjugate(t) for x in h.gens])


def core_by_chains(g: PermGroup, h: PermGroup) -> PermGroup:
    """Core_G(H), intersecting H with `conjugate_by_chain` conjugates, one
    per right coset of N_G(H)."""
    result = h
    for t in right_transversal(g, normalizer(g, h)).reps[1:]:
        result = intersection(result, conjugate_by_chain(h, t))
        if result.is_trivial():
            break
    return result


def o_p_by_chains(g: PermGroup, p: int) -> PermGroup:
    """O_p(G) as `core_by_chains` of a Sylow p-subgroup P."""
    from transferlab.sylow import sylow_subgroup

    if g.order() % p:
        return trivial_group(g.degree)
    return core_by_chains(g, sylow_subgroup(g, p))
