"""Isomorphism testing, automorphism groups, subgroup lattices.

One capped backtracking search over images of a short generating
sequence finds isomorphisms.  The sequence, and each choice of images
the search tries, is sized by its element set (`_closure`), not by a
chain build.  Aut(P) is a permutation group on the positions of P's
elements, built level by level from first hits of that search; its
order is checked against the product of the orbit lengths.  A
candidate map is extended along the source's word plan (`_cayley_plan`,
its Cayley graph on images, built once per source), so each candidate
composes only target images, each product one `translate` by a
generator's table (`perm._table_of`).  One join-closure over a
partition of P's elements lists all, normal or characteristic subgroups
(`_subgroup_lattice`).  A one-element block's atom, a cyclic subgroup,
and each join's element set come first, closed by whole cosets of the
smaller subgroup on images; only a set not seen before becomes a
subgroup, made with that element set by `group._subgroup` (so is the
generating sequence), and builds its chain only on first use, where the
build checks the set's size as its order.  `is_isomorphic` compares the
invariants of the two groups one at a time, cheapest first
(`_invariants`), so a pair told apart by its element orders computes
no center, derived subgroup or abelianization.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from math import prod
from typing import Iterable, Iterator, Sequence

from .caps import check_cap, current_caps
from .group import (
    InvariantError,
    PermGroup,
    _orbit,
    _orbits,
    _subgroup,
    centralizer,
    derived_subgroup,
    is_abelian,
    memoized,
    quotient_group,
    span,
)
from .perm import _IDENTITY, Images, Perm, _compose, _getter, _perm, _table_of


@dataclass
class GeneratorMap:
    """A map defined on the generators of `source`, into `target`."""

    source: PermGroup
    target: PermGroup
    images: tuple[Perm, ...]

    def __post_init__(self) -> None:
        if len(self.images) != len(self.source.gens):
            raise ValueError(f"{len(self.images)} images for {len(self.source.gens)} generators")
        if any(x.degree != self.target.degree for x in self.images):
            raise ValueError("image degree differs from the target's")

    def extend(self) -> dict[Images, Perm] | None:
        """Extend to a full homomorphism along the source's word plan.

        Returns the element-wise map, or None if the generator images
        are inconsistent (no homomorphism exists).  Target images are
        composed along the source's Cayley graph (`_cayley_plan`): the
        first edge into an element gives its image, and every later edge
        must agree.  A homomorphism is unique, so the table does not
        depend on the order of the edges.
        """
        elems, rows = _cayley_plan(self.source)
        tables = [_table_of(x.images) for x in self.images]
        imgs = [_IDENTITY[self.target.degree]] + [None] * (len(elems) - 1)
        for i, row in enumerate(rows):
            times = imgs[i].translate  # set: breadth-first, i was reached from a row < i
            for s, k in zip(tables, row):
                y = times(s)
                known = imgs[k]
                if known is None:
                    imgs[k] = y
                elif known != y:
                    return None
        return dict(zip(elems, map(_perm, imgs)))

    @cached_property
    def _table(self) -> dict[Images, Perm] | None:
        return self.extend()

    def is_homomorphism(self) -> bool:
        return self._table is not None

    def is_isomorphism(self) -> bool:
        mapping = self._table
        if mapping is None or len(mapping) != self.source.order():
            return False
        values = {p.images for p in mapping.values()}
        return len(values) == self.target.order()

    def apply(self, x: Perm) -> Perm:
        if self._table is None:
            raise ValueError("generator map is not a homomorphism")
        return self._table[x.images]


@memoized
def _cayley_plan(g: PermGroup) -> tuple[list[Images], list[tuple[int, ...]]]:
    """The word plan of g: its elements as images, breadth-first from
    the identity over g's gens, and per element a row whose entry j is the
    index of element * gens[j].  Kept on g for every `GeneratorMap.extend`
    from g."""
    tables = [_table_of(s.images) for s in g.gens]
    elems = [_IDENTITY[g.degree]]
    index = {elems[0]: 0}
    rows = []
    for x in elems:
        times = x.translate
        row = []
        for s in tables:
            y = times(s)
            k = index.get(y)
            if k is None:
                k = index[y] = len(elems)
                elems.append(y)
            row.append(k)
        rows.append(tuple(row))
    return elems, rows


def element_order_profile(g: PermGroup) -> Counter:
    return Counter(x.order() for x in g.elements())


def abelian_invariants(g: PermGroup) -> tuple[int, ...]:
    """Elementary divisor multiset (prime powers, sorted) of an abelian group.

    Derived from the counts of elements of order dividing p^k: for an
    abelian p-group with invariants p^{l_1},...,p^{l_r}, the number of
    cyclic factors of order >= p^k is log_p of the ratio of consecutive
    counts.  x^{p^k} = 1 exactly when ord(x) divides p^k, so the counts
    come from one order per element (`element_order_profile`).
    """
    if not is_abelian(g):
        raise ValueError("group is not abelian")
    n = g.order()
    if n == 1:
        return ()
    profile = element_order_profile(g)
    out: list[int] = []
    for p in prime_divisors(n):
        prev = 1
        k = 1
        heights: list[int] = []
        while True:
            count = sum(c for o, c in profile.items() if p**k % o == 0)
            layers = _ilog(count // prev, p)
            if layers == 0:
                break
            heights.append(layers)
            prev = count
            k += 1
        # heights[k-1] = number of invariants with exponent >= k
        for exponent_minus_1, cnt in enumerate(heights):
            nxt = heights[exponent_minus_1 + 1] if exponent_minus_1 + 1 < len(heights) else 0
            out.extend([p ** (exponent_minus_1 + 1)] * (cnt - nxt))
    if prod(out) != n:
        raise InvariantError(f"invariants {out} do not multiply to the order {n}")
    return tuple(sorted(out))


def prime_divisors(n: int) -> list[int]:
    """The distinct primes dividing n, ascending, by trial division."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def is_prime_divisor(p: int, n: int) -> bool:
    """Is p a prime dividing n?  p < 2 and n % p are tested first, so a p
    that does not divide n is never factored."""
    return not (p < 2 or n % p or prime_divisors(p) != [p])


def _ilog(n: int, p: int) -> int:
    k = 0
    while n % p == 0 and n > 1:
        n //= p
        k += 1
    return k


def abelianization_invariants(g: PermGroup) -> tuple[int, ...]:
    """Abelian invariants of G/G'; of G itself when G' = 1, as G/1 is G
    (see `QuotientGroup`)."""
    return abelian_invariants(quotient_group(g, derived_subgroup(g)).image)


def _invariants(g: PermGroup) -> Iterator:
    """Isomorphism invariants of g beyond its order, cheapest first, each
    computed when asked for: the element-order profile, |Z(g)|, |g'| and
    the abelianization."""
    yield element_order_profile(g)
    yield centralizer(g, g).order()
    yield derived_subgroup(g).order()
    yield abelianization_invariants(g)


def _generating_sequence(g: PermGroup) -> tuple[PermGroup, list[int]]:
    """<s_1..s_k> for a short generating sequence s_1..s_k of g (its gens),
    and the orders |<s_1..s_i>| for i = 1..k.

    Each step adjoins the element that grows the generated subgroup the
    most, the first such in g's elements() order.  Short sequences keep
    the backtracking searches below small.  The subgroups are element
    sets grown by `_closure`, stopped once a set reaches |g| (a subset of
    g that large is g), so no chain is built; the group returned carries
    its order and element set.
    """
    n = g.order()
    gens: tuple[Perm, ...] = ()
    current = frozenset([_IDENTITY[g.degree]])
    orders: list[int] = []
    while len(current) < n:
        best, best_set = None, current
        for x in g.elements():
            if x.images in current:
                continue
            cand = _closure(g.degree, current, gens + (x,), n)
            if len(cand) > len(best_set):
                best, best_set = x, cand
                if len(cand) == n:
                    break
        if best is None:
            raise InvariantError("no element grows a proper subgroup")
        gens += (best,)
        current = best_set
        orders.append(len(current))
    return _subgroup(g.degree, gens, element_set=current), orders


def conjugacy_classes(g: PermGroup) -> list[tuple[Perm, list[Perm]]]:
    """The conjugacy classes of g as (representative, class) pairs.

    Classes come in the order of their first element in chain
    enumeration order, and that element is the representative.  Each
    class lists its elements in breadth-first order from the
    representative under conjugation by the generators.
    """
    return [(orbit[0], orbit) for orbit in _orbits(g.elements(), g.gens, Perm.conjugate)]


def _image_pools(seq: Sequence[Perm], target: PermGroup) -> list[list[Perm]]:
    """Candidate images in target for each generator in seq, by element order."""
    by_order: dict[int, list[Perm]] = {}
    for x in target.elements():
        by_order.setdefault(x.order(), []).append(x)
    return [by_order.get(x.order(), []) for x in seq]


def _iso_search(
    source: PermGroup,
    orders: list[int],
    target: PermGroup,
    pools: list[list[Perm]],
    chosen: tuple[Perm, ...] = (),
    chosen_set: frozenset[Images] | None = None,
) -> Iterator[GeneratorMap]:
    """Yield each isomorphism source -> target that sends source.gens[i]
    into pools[i], in pool order.

    Backtracking over generator images: a choice of the first i + 1
    images survives only if they generate a subgroup of order orders[i].
    That subgroup is sized by its element set, closed from the set of
    the first i images (chosen_set, the identity alone at the root) by
    `_closure`, which gives up once the set exceeds orders[i]; no
    candidate builds a chain.
    """
    i = len(chosen)
    if i == len(pools):
        gm = GeneratorMap(source, target, chosen)
        if gm.is_isomorphism():
            yield gm
        return
    if chosen_set is None:
        chosen_set = frozenset([_IDENTITY[target.degree]])
    for cand in pools[i]:
        images = chosen + (cand,)
        key = _closure(target.degree, chosen_set, images, orders[i] + 1)
        if len(key) == orders[i]:
            yield from _iso_search(source, orders, target, pools, images, key)


def is_isomorphic(a: PermGroup, b: PermGroup) -> tuple[bool, GeneratorMap | None]:
    """Decide isomorphism; on success also return a witness map."""
    check_cap("isomorphism test", max(a.order(), b.order()), current_caps().iso_cap)
    if a.order() != b.order():
        return False, None
    if a.order() == 1:
        return True, GeneratorMap(a, b, ())
    if any(x != y for x, y in zip(_invariants(a), _invariants(b))):
        return False, None
    source, orders = _generating_sequence(a)
    pools = _image_pools(source.gens, b)
    # Post-composing with an inner automorphism of b moves the first
    # image to its class representative.
    first = source.gens[0].order()
    pools[0] = [rep for rep, _ in conjugacy_classes(b) if rep.order() == first]
    gm = next(_iso_search(source, orders, b, pools), None)
    return gm is not None, gm


def automorphism_group(p: PermGroup) -> PermGroup:
    """Aut(P), acting on the positions of p.elements().

    An automorphism is fixed by its images of the generating sequence
    s_1..s_k.  Level by level from the deepest, every automorphism found
    so far fixes s_1..s_{i-1}; for each candidate image of s_i outside
    the orbit of s_i under them, one first-hit search for an
    automorphism that fixes s_1..s_{i-1} and sends s_i there adds a
    generator.  The orbit is then the whole orbit of the stabilizer of
    s_1..s_{i-1}, so |Aut(P)| is the product of the orbit lengths (Sims's
    stabilizer search; Holt, Eick and O'Brien, Handbook of CGT, ch. 4).
    """
    check_cap("automorphism search", p.order(), current_caps().aut_cap)
    elems = p.elements()
    position = {x.images: i for i, x in enumerate(elems)}
    source, orders = _generating_sequence(p)
    seq = source.gens
    pools = _image_pools(seq, p)
    gens: list[Perm] = []
    orbit_product = 1
    for i in reversed(range(len(seq))):
        start = position[seq[i].images]
        orbit = set(_orbit(start, gens, lambda x, s: s(x)))
        for cand in pools[i]:
            if position[cand.images] in orbit:
                continue
            fixing = [[s] for s in seq[:i]] + [[cand]] + pools[i + 1 :]
            phi = next(_iso_search(source, orders, p, fixing), None)
            if phi is not None:
                gens.append(Perm(position[phi.apply(x).images] for x in elems))
                orbit = set(_orbit(start, gens, lambda x, s: s(x)))
        orbit_product *= len(orbit)
    aut = PermGroup(len(elems), gens)
    if aut.order() != orbit_product:
        raise InvariantError(f"|Aut| = {aut.order()} != orbit product {orbit_product}")
    return aut


def _closure(
    degree: int,
    hset: frozenset[Images],
    gens: Sequence[Perm],
    stop: int,
) -> frozenset[Images]:
    """The element set of <H, gens>, from H's element set, as images.

    gens must generate H together with the new elements (H's gens among
    them).  The set grows by whole cosets y*H: for each coset rep r found
    so far (first the identity) and each generator g, a product y = g*r
    outside the set adds the coset y*H, and y becomes a rep.  The set is
    then closed under left multiplication by every generator, so it is
    the group.  Left cosets let one getter of y (`perm._getter`) form
    every y*x of the coset, `perm._compose(y, x)`, with the image type of
    the set's members, so the products are found in the set.

    The closure returns as soon as the set has at least stop elements;
    it is then a part of the group that large.  A caller that rejects a
    group larger than m passes stop = m + 1; one that closes inside a
    known group of order m passes m, since a subset that large is the
    whole group.
    """
    hlist = list(hset)
    found = set(hset)
    gen_imgs = [g.images for g in gens]
    reps = [_IDENTITY[degree]]
    for r in reps:
        for g in gen_imgs:
            y = _compose(g, r)
            if y not in found:
                found.update(map(_getter(y), hlist))
                if len(found) >= stop:
                    return frozenset(found)
                reps.append(y)
    return frozenset(found)


def _subgroup_lattice(p: PermGroup, orbits: Iterable[list[Perm]]) -> list[PermGroup]:
    """Every join of the atoms <orbit>, one per block of a partition of
    p's elements, sorted by (order, sorted element tuple).  For the orbits
    of a group of operators (none, P by conjugation, Aut(P)) these are
    the subgroups closed under them: each is the join of the atoms of its
    elements (Holt, Eick and O'Brien, Handbook of CGT).  The identity's
    block spans 1.  A one-element block [x] gives <x> as its `_closure`
    from 1, with gens (x,) as `span([x])` has; a larger block is a `span`.

    The frontier is joined with each atom in turn.  An atom inside H is
    skipped; otherwise the element set of <H, atom> comes first, closed
    by cosets of H (`_closure`, as in the cyclic extension method of the
    Handbook), stopped at Lagrange's bound: the join's order is a
    multiple of |H| that divides |P|, so once the set has more elements
    than top, the largest such order below |P|, the join is P, and its
    key is P's element set.  Only a set not yet known
    becomes a subgroup, generated by the gens of H and the atom and made
    by `group._subgroup` with that element set: its chain, built on first
    use and stopped at the set's size, is the one a full build makes,
    and the build checks that size.  The first join that
    reaches a set keeps it, as a build of every join would.
    """
    order = p.order()
    check_cap("subgroup enumeration", order, current_caps().subgroup_enum_cap)
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
    pset = p.element_set()
    known: dict[frozenset, PermGroup] = dict(atoms)
    frontier = list(atoms.items())
    while frontier:
        nxt = []
        for hset, h in frontier:
            if len(hset) == order:
                continue  # every atom lies in P
            top = order // prime_divisors(order // len(hset))[0]
            for aset, a in atoms.items():
                if aset <= hset:
                    continue
                key = _closure(p.degree, hset, h.gens + a.gens, top + 1)
                if len(key) > top:
                    key = pset
                if key not in known:
                    known[key] = _subgroup(p.degree, h.gens + a.gens, element_set=key)
                    nxt.append((key, known[key]))
        frontier = nxt
    subs = list(known.values())
    subs.sort(key=lambda h: (h.order(), sorted(h.element_set())))
    return subs


def all_subgroups(p: PermGroup) -> list[PermGroup]:
    """Every subgroup: the joins of the cyclic subgroups."""
    return _subgroup_lattice(p, ([x] for x in p.elements()))


def normal_subgroups(p: PermGroup) -> list[PermGroup]:
    """Every normal subgroup: the joins of the normal closures of classes."""
    return _subgroup_lattice(p, (cls for _, cls in conjugacy_classes(p)))
