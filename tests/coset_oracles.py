"""Slow reference versions of the coset, quotient and maximality
algorithms.

These are the algorithms the group layer used before cosets were looked
up by canonical key, before a quotient looked up the lift of an image
element, before the maximality test ran one block test per H-orbit and
before the pretransfer ran on image tuples.  They stay here, and only
here, as oracles for the differential tests in test_cosets.py and
test_transfer.py.
"""

from itertools import combinations

from quotient_oracles import RegularQuotient
from transferlab.group import PermGroup, QuotientGroup, Transversal, _joins_all_cosets
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


def is_maximal_all_cosets(trans: Transversal, g: PermGroup) -> bool:
    """is_maximal's primitivity test with one block test per coset other
    than H itself, on a transversal of H in G."""
    actions = [trans.action(s) for s in g.gens]
    return all(_joins_all_cosets(actions, a) for a in range(1, len(trans)))


def pretransfer_by_perms(trans: Transversal, x: Perm) -> Perm:
    """The product over t in trans of t * x * (t.x)^-1, multiplied as
    Perms in list order."""
    result = Perm.identity(x.degree)
    for t in trans.reps:
        result = result * (t * x * trans.dot(t, x).inverse())
    return result


def all_pairs_max_intersection(family: SylowFamily) -> int:
    """max |P cap Q| over all pairs of distinct members, by element sets."""
    sets = [m.element_set() for m in family.members]
    return max((len(a & b) for a, b in combinations(sets, 2)), default=1)


def preimage_by_scan(quot: QuotientGroup, q: PermGroup) -> PermGroup:
    """QuotientGroup.preimage_subgroup by computing the coset action of
    every rep, in transversal order, until each generator of q is found
    (O(|G:N|^2) coset keys).

    G/1 is G, and the preimage of Q is Q: the scan runs in G's right
    regular representation (`quotient_oracles.RegularQuotient`), where
    each generator of q must lift to itself, and the lifts keep q's
    order."""
    if quot.transversal is None:
        regular = RegularQuotient(quot.source)
        found = preimage_by_scan(regular, regular.project_subgroup(q))
        lifts = {x.images: x for x in found.gens}
        return PermGroup(quot.source.degree, [lifts[x.images] for x in q.gens])
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
