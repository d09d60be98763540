"""Isomorphism testing, automorphism groups, subgroup enumeration.

All searches are capped brute force with invariant pruning: adequate for
the desk-scale groups this library targets (orders up to a few hundred
for anything that reaches these routines).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from math import prod

from .caps import DEFAULT_CAPS, Caps, check_cap
from .group import (
    InvariantError,
    PermGroup,
    centralizer,
    derived_subgroup,
    join,
    memoized,
    quotient_group,
)
from .perm import Perm


@dataclass
class GeneratorMap:
    """A map defined on the generators of `source`, into `target`."""

    source: PermGroup
    target: PermGroup
    images: tuple[Perm, ...]

    def extend(self) -> dict[tuple[int, ...], Perm] | None:
        """Extend to a full homomorphism by multiplication-table closure.

        Returns the element-wise map, or None if the generator images
        are inconsistent (no homomorphism exists).
        """
        src_id = Perm.identity(self.source.degree)
        tgt_id = Perm.identity(self.target.degree)
        mapping: dict[tuple[int, ...], Perm] = {src_id.images: tgt_id}
        queue: list[tuple[Perm, Perm]] = [(src_id, tgt_id)]
        while queue:
            a, b = queue.pop()
            for g, gi in zip(self.source.gens, self.images):
                a2 = a * g
                b2 = b * gi
                known = mapping.get(a2.images)
                if known is None:
                    mapping[a2.images] = b2
                    queue.append((a2, b2))
                elif known != b2:
                    return None
        return mapping

    @cached_property
    def _table(self) -> dict[tuple[int, ...], Perm] | None:
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


def element_order_profile(g: PermGroup, caps: Caps = DEFAULT_CAPS) -> Counter:
    return Counter(x.order() for x in g.elements(caps))


def abelian_invariants(g: PermGroup, caps: Caps = DEFAULT_CAPS) -> tuple[int, ...]:
    """Elementary divisor multiset (prime powers, sorted) of an abelian group.

    Derived from the counts of elements of order dividing p^k: for an
    abelian p-group with invariants p^{l_1},...,p^{l_r}, the number of
    cyclic factors of order >= p^k is log_p of the ratio of consecutive
    counts.
    """
    for a in g.gens:
        for b in g.gens:
            if a * b != b * a:
                raise ValueError("group is not abelian")
    n = g.order()
    if n == 1:
        return ()
    elems = g.elements(caps)
    out: list[int] = []
    for p in prime_divisors(n):
        prev = 1
        k = 1
        heights: list[int] = []
        while True:
            count = sum(1 for x in elems if (x ** (p**k)).is_identity())
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


def _ilog(n: int, p: int) -> int:
    k = 0
    while n % p == 0 and n > 1:
        n //= p
        k += 1
    return k


def abelianization_invariants(g: PermGroup, caps: Caps = DEFAULT_CAPS) -> tuple[int, ...]:
    """Abelian invariants of G/G'."""
    gprime = derived_subgroup(g, caps)
    q = quotient_group(g, gprime, caps)
    return abelian_invariants(q.image, caps)


def _fingerprint(g: PermGroup, caps: Caps) -> tuple:
    z = centralizer(g, g, caps)
    return (
        g.order(),
        tuple(sorted(element_order_profile(g, caps).items())),
        z.order(),
        derived_subgroup(g, caps).order(),
        abelianization_invariants(g, caps),
    )


def _generating_sequence(g: PermGroup, caps: Caps = DEFAULT_CAPS) -> list[Perm]:
    """A short generating sequence, chosen greedily.

    Each step adjoins the element that grows the generated subgroup the
    most.  Short sequences keep the backtracking searches below small.
    """
    elems = g.elements(caps)
    seq: list[Perm] = []
    current = PermGroup(g.degree, [])
    target = g.order()
    while current.order() < target:
        best = None
        best_group = None
        best_order = current.order()
        for x in elems:
            if current.contains(x):
                continue
            cand = PermGroup(g.degree, seq + [x])
            o = cand.order()
            if o > best_order:
                best, best_group, best_order = x, cand, o
                if o == target:
                    break
        if best is None:
            raise InvariantError("no element grows a proper subgroup")
        seq.append(best)
        current = best_group
    return seq


def conjugacy_classes(
    g: PermGroup, caps: Caps = DEFAULT_CAPS
) -> list[tuple[Perm, list[Perm]]]:
    """The conjugacy classes of g as (representative, class) pairs.

    Classes come in the order of their first element in chain
    enumeration order, and that element is the representative.  Each
    class lists its elements in breadth-first order from the
    representative under conjugation by the generators.
    """
    seen: set[tuple[int, ...]] = set()
    out = []
    for x in g.elements(caps):
        if x.images in seen:
            continue
        orbit = [x]
        seen.add(x.images)
        queue = [x]
        while queue:
            y = queue.pop(0)
            for s in g.gens:
                c = y.conjugate(s)
                if c.images not in seen:
                    seen.add(c.images)
                    orbit.append(c)
                    queue.append(c)
        out.append((x, orbit))
    return out


def _image_pools(
    seq: list[Perm], target: PermGroup, caps: Caps, reps_first: bool
) -> list[list[Perm]]:
    """Candidate images in target for each generator in seq, by element order.

    With reps_first the first image is restricted to conjugacy-class
    representatives: any map can be post-composed with an inner
    automorphism of the target.
    """
    by_order: dict[int, list[Perm]] = {}
    for x in target.elements(caps):
        by_order.setdefault(x.order(), []).append(x)
    pools = [by_order.get(x.order(), []) for x in seq]
    if reps_first:
        first_order = seq[0].order()
        classes = conjugacy_classes(target, caps)
        pools[0] = [rep for rep, _ in classes if rep.order() == first_order]
    return pools


def _iso_search(
    a: PermGroup,
    b: PermGroup,
    seq: list[Perm],
    candidate_pools: list[list[Perm]],
    collect_all: bool,
) -> list[GeneratorMap]:
    """Backtracking over generator images, pruned by subgroup orders."""
    sub_orders = []
    for i in range(len(seq)):
        sub_orders.append(PermGroup(a.degree, seq[: i + 1]).order())
    found: list[GeneratorMap] = []

    def recurse(i: int, chosen: list[Perm]) -> bool:
        if i == len(seq):
            gm = GeneratorMap(PermGroup(a.degree, seq), b, tuple(chosen))
            if gm.is_isomorphism():
                found.append(gm)
                return not collect_all
            return False
        for cand in candidate_pools[i]:
            if PermGroup(b.degree, chosen + [cand]).order() != sub_orders[i]:
                continue
            if recurse(i + 1, chosen + [cand]):
                return True
        return False

    recurse(0, [])
    # Break the closure's reference to itself, which would keep a and b alive.
    del recurse
    return found


def is_isomorphic(
    a: PermGroup, b: PermGroup, caps: Caps = DEFAULT_CAPS
) -> tuple[bool, GeneratorMap | None]:
    """Decide isomorphism; on success also return a witness map."""
    check_cap("isomorphism test", max(a.order(), b.order()), caps.iso_cap)
    if a.order() != b.order():
        return False, None
    if a.order() == 1:
        return True, GeneratorMap(a, b, ())
    if _fingerprint(a, caps) != _fingerprint(b, caps):
        return False, None
    seq = _generating_sequence(a)
    pools = _image_pools(seq, b, caps, reps_first=True)
    found = _iso_search(a, b, seq, pools, collect_all=False)
    if found:
        return True, found[0]
    return False, None


def _automorphisms(p: PermGroup, caps: Caps, reps_first: bool) -> list[GeneratorMap]:
    check_cap("automorphism search", p.order(), caps.aut_cap)
    if p.order() == 1:
        return [GeneratorMap(p, p, ())]
    seq = _generating_sequence(p)
    return _iso_search(p, p, seq, _image_pools(seq, p, caps, reps_first), collect_all=True)


def automorphism_group(p: PermGroup, caps: Caps = DEFAULT_CAPS) -> list[GeneratorMap]:
    """The complete list of automorphisms, as generator maps."""
    return _automorphisms(p, caps, reps_first=False)


def automorphism_representatives(p: PermGroup, caps: Caps = DEFAULT_CAPS) -> list[GeneratorMap]:
    """Automorphisms S with Aut(P) = S . Inn(P).

    The first generator image is restricted to conjugacy-class
    representatives, so the list covers every automorphism up to
    composition with an inner one.  Sufficient for testing whether a
    normal subgroup is characteristic; much smaller than the full list.
    """
    return _automorphisms(p, caps, reps_first=True)


@memoized
def all_subgroups(p: PermGroup, caps: Caps = DEFAULT_CAPS) -> list[PermGroup]:
    """Every subgroup, by join-closure of the cyclic subgroups.

    Deterministic output order: sorted by (order, sorted element tuple).
    """
    check_cap("subgroup enumeration", p.order(), caps.subgroup_enum_cap)
    cyclics: dict[frozenset, PermGroup] = {}
    for x in p.elements(caps):
        c = PermGroup(p.degree, [x])
        cyclics.setdefault(c.element_set(caps), c)
    known: dict[frozenset, PermGroup] = dict(cyclics)
    trivial = PermGroup(p.degree, [])
    known.setdefault(trivial.element_set(caps), trivial)
    frontier = list(cyclics.values())
    while frontier:
        nxt = []
        for h in frontier:
            for c in cyclics.values():
                j = join(h, c)
                key = j.element_set(caps)
                if key not in known:
                    known[key] = j
                    nxt.append(j)
        frontier = nxt
    subs = list(known.values())
    subs.sort(key=lambda h: (h.order(), sorted(h.element_set(caps))))
    return subs


def is_characteristic(p: PermGroup, c: PermGroup, auts: list[GeneratorMap]) -> bool:
    cset = c.element_set()
    for phi in auts:
        for x in c.gens:
            if phi.apply(x).images not in cset:
                return False
    return True
