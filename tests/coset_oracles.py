"""Slow reference versions of the coset, quotient and maximality
algorithms.

These are the algorithms the group layer used before cosets were looked
up by canonical key, and before a quotient looked up the lift of an image
element.  They stay here, and only here, as oracles for the differential
tests in test_cosets.py.
"""

from itertools import combinations

from transferlab.group import PermGroup, QuotientGroup, Transversal
from transferlab.perm import Perm
from transferlab.sylow import SylowFamily


def bfs_transversal_reps(g: PermGroup, h: PermGroup) -> list[Perm]:
    """right_transversal's reps, by a BFS over cosets that tests each
    candidate against every rep found so far (O(index^2) membership
    tests)."""
    reps = [Perm.identity(g.degree)]
    frontier = [reps[0]]
    while frontier:
        nxt = []
        for r in frontier:
            for s in g.gens:
                c = r * s
                if not any(h.contains(c * r2.inverse()) for r2 in reps):
                    reps.append(c)
                    nxt.append(c)
        frontier = nxt
    return [reps[0]] + sorted(reps[1:])


def brute_rep_of(trans: Transversal, g: Perm) -> Perm:
    """The rep r with g * r^-1 in H, by trying every rep."""
    for r in trans.reps:
        if trans.subgroup.contains(g * r.inverse()):
            return r
    raise ValueError("element is not in the parent group")


def is_maximal_by_joins(g: PermGroup, h: PermGroup) -> bool:
    """The definition: <H, t> = G for every t outside H.  One t per
    non-trivial coset suffices, since <H, t> only depends on Ht."""
    order_g = g.order()
    return all(
        PermGroup(g.degree, list(h.gens) + [t]).order() == order_g
        for t in bfs_transversal_reps(g, h)[1:]
    )


def all_pairs_max_intersection(family: SylowFamily) -> int:
    """max |P cap Q| over all pairs of distinct members, by element sets."""
    sets = [m.element_set() for m in family.members]
    return max((len(a & b) for a, b in combinations(sets, 2)), default=1)


def preimage_by_scan(quot: QuotientGroup, q: PermGroup) -> PermGroup:
    """QuotientGroup.preimage_subgroup by computing the coset action of
    every rep, in transversal order, until each generator of q is found
    (O(|G:N|^2) coset keys)."""
    lifts = []
    needed = {x.images for x in q.gens}
    for r in quot.transversal.reps:
        if not needed:
            break
        img = quot.project(r).images
        if img in needed:
            lifts.append(r)
            needed.discard(img)
    if needed:
        raise ValueError("subgroup generators not found in the image")
    return PermGroup(quot.source.degree, list(quot.kernel.gens) + lifts)
