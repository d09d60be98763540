"""Slow reference version of the automorphism search.

This is the search the iso layer used before Aut(P) became a permutation
group: every tuple of images of the generating sequence, pruned only by
subgroup orders, each checked by building its full multiplication
table.  It stays here, and only here, as the oracle for the
differential tests in test_iso.py.  `extend_by_products` is the body
`GeneratorMap.extend` had before it read the source's word plan: a
depth-first closure that multiplies Perms on both sides for every
candidate map; it is the oracle for test_word_plan.py.
`lattice_by_closures_to_p` is `iso._subgroup_lattice` as it was before
its joins stopped at Lagrange's bound: each join closed until it has
|P| elements; it is the oracle for test_lattice_bound.py.
"""

from transferlab.group import PermGroup, _subgroup, span
from transferlab.iso import GeneratorMap, _closure, _generating_sequence
from transferlab.perm import _IDENTITY, Perm


def every_automorphism(p: PermGroup) -> list[GeneratorMap]:
    """Every automorphism of p, as a generator map on the generating
    sequence."""
    source, _ = _generating_sequence(p)
    seq = list(source.gens)
    by_order: dict[int, list[Perm]] = {}
    for x in p.elements():
        by_order.setdefault(x.order(), []).append(x)
    pools = [by_order.get(x.order(), []) for x in seq]
    sub_orders = [PermGroup(p.degree, seq[: i + 1]).order() for i in range(len(seq))]
    found = []
    partial = [[]]
    for i in range(len(seq)):
        partial = [
            chosen + [cand]
            for chosen in partial
            for cand in pools[i]
            if PermGroup(p.degree, chosen + [cand]).order() == sub_orders[i]
        ]
    for chosen in partial:
        gm = GeneratorMap(source, p, tuple(chosen))
        if gm.is_isomorphism():
            found.append(gm)
    return found


def extend_by_products(gm: GeneratorMap) -> dict[tuple[int, ...], Perm] | None:
    """The element table of gm, or None if gm is no homomorphism."""
    src_id = Perm.identity(gm.source.degree)
    tgt_id = Perm.identity(gm.target.degree)
    mapping: dict[tuple[int, ...], Perm] = {src_id.images: tgt_id}
    queue: list[tuple[Perm, Perm]] = [(src_id, tgt_id)]
    while queue:
        a, b = queue.pop()
        for g, gi in zip(gm.source.gens, gm.images):
            a2 = a * g
            b2 = b * gi
            known = mapping.get(a2.images)
            if known is None:
                mapping[a2.images] = b2
                queue.append((a2, b2))
            elif known != b2:
                return None
    return mapping


def is_characteristic_by_images(c: PermGroup, auts: list[GeneratorMap]) -> bool:
    """Does every automorphism map every element of c into c?"""
    cset = c.element_set()
    return all(phi.apply(x).images in cset for phi in auts for x in c.elements())


def lattice_by_closures_to_p(p: PermGroup, orbits) -> list[PermGroup]:
    """Every join of the atoms <orbit>, each join's set closed until it
    has |P| elements, sorted by (order, sorted element tuple)."""
    order = p.order()
    atoms: dict[frozenset, PermGroup] = {}
    one = frozenset([_IDENTITY[p.degree]])
    for orbit in orbits:
        if len(orbit) == 1:
            aset = _closure(p.degree, one, orbit, order)
            if aset not in atoms:
                atoms[aset] = _subgroup(p.degree, orbit, element_set=aset)
        else:
            a = span(p.degree, orbit)
            atoms.setdefault(a.element_set(), a)
    known = dict(atoms)
    frontier = list(atoms.items())
    while frontier:
        nxt = []
        for hset, h in frontier:
            for aset, a in atoms.items():
                if aset <= hset:
                    continue
                key = _closure(p.degree, hset, h.gens + a.gens, order)
                if key not in known:
                    known[key] = _subgroup(p.degree, h.gens + a.gens, element_set=key)
                    nxt.append((key, known[key]))
        frontier = nxt
    subs = list(known.values())
    subs.sort(key=lambda h: (h.order(), sorted(h.element_set())))
    return subs
