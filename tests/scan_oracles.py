"""Slow reference versions of the normalizer, of O^p and of the norm.

These are the bodies `group.normalizer`, `series.o_upper_p` and
`series.norm` had before their builds were told the order of the
subgroup they make and the norm tested one generator per cyclic
subgroup: a member test on every element of G, then one chain build over
all members (the normalizer), one span over every p'-element of G (O^p),
and a member test against the powers of every element (the norm).  They
stay here, and only here, as oracles for the differential tests in
test_known_order_scans.py.
"""

from transferlab.group import PermGroup, _scan_subgroup, span
from transferlab.perm import _getter


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
