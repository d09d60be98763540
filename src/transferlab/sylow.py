"""Sylow subgroups, Sylow intersections, tame-intersection and
weak-closure predicates, characteristic subgroups: the joins of the
subgroups generated by the Aut(P)-orbits on P's elements.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .group import (
    InvariantError,
    PermGroup,
    _from_elements,
    _orbits,
    _subgroup,
    centralizer,
    conjugate_subgroup,
    intersection,
    intersection_order,
    memoized,
    normalizer,
    right_transversal,
)
from .iso import _subgroup_lattice, automorphism_group, is_prime_divisor
from .perm import Perm
from .series import (
    element_p_part,
    is_p_nilpotent,
    p_part,
)


@memoized
def sylow_subgroup(g: PermGroup, p: int) -> PermGroup:
    """A Sylow p-subgroup, by normalizer ascent.

    Start from the p-part of the first p-singular element in enumeration
    order; while not full, adjoin an element of the normalizer whose
    image in N/current has order p.  Deterministic.  p < 2 and |G| % p
    are tested before p's primality, so a huge p is never factored
    (`iso.is_prime_divisor`).
    """
    if not is_prime_divisor(p, g.order()):
        raise ValueError(f"{p} is not a prime dividing the group order")
    target = p_part(g.order(), p)
    current: PermGroup | None = None
    for x in g.elements():
        xp = element_p_part(x, p)
        if not xp.is_identity():
            current = _subgroup(g.degree, [xp], order=xp.order())
            break
    if current is None:
        raise InvariantError(f"no element of order divisible by {p} (contradicts Cauchy)")
    while current.order() < target:
        n = normalizer(g, current)
        grown = False
        for y in n.elements():
            if current.contains(y):
                continue
            if current.contains(y**p):
                # y normalizes current, y is outside it and y^p inside, so
                # <current, y> has order |current| * p.
                current = _subgroup(
                    g.degree, list(current.gens) + [y], order=current.order() * p
                )
                grown = True
                break
        if not grown:
            raise InvariantError("normalizer ascent stalled (should be impossible)")
    # The orders above come from the ascent's arithmetic.  P's chain, which
    # every caller of P needs, is built here, and its build checks the last
    # one (see `PermGroup.chain`).
    current.chain
    return current


@dataclass
class SylowFamily:
    """The Sylow p-subgroups of G: members[0] is sylow_subgroup(G, p) itself,
    the others its conjugates by a transversal of normalizer = N_G(P)."""

    members: list[PermGroup]
    normalizer: PermGroup

    @property
    def base_member(self) -> PermGroup:
        return self.members[0]

    def __len__(self) -> int:
        return len(self.members)


@memoized
def all_sylow_subgroups(g: PermGroup, p: int) -> SylowFamily:
    """All Sylow p-subgroups: conjugates of one by a transversal of its
    normalizer."""
    syl = sylow_subgroup(g, p)
    n = normalizer(g, syl)
    trans = right_transversal(g, n)
    members = [syl] + [conjugate_subgroup(syl, t) for t in trans.reps[1:]]
    return SylowFamily(members, n)


@memoized
def sylow_intersections(g: PermGroup, p: int) -> list[tuple[PermGroup, PermGroup]]:
    """The distinct D = P cap Q, for the base member P and each member Q
    of the Sylow p-family, as (D, Q) pairs with the first Q in family
    order that gives D.  The first pair is (P cap P, P); no other member
    meets P in P.  Every pair of Sylow subgroups is conjugate to one
    containing P, so every Sylow intersection is conjugate to one of
    these.  Each P cap Q is listed from P's elements, and only a new
    member set is built into a group, as `intersection` builds it (one
    chain per distinct D: 14, not 153, for PSL(2,17) at p = 2).  Kept
    on G: D and Q never reference G.
    """
    fam = all_sylow_subgroups(g, p)
    elems = fam.base_member.elements()
    first: dict[frozenset, tuple[PermGroup, PermGroup]] = {}
    for q_syl in fam.members:
        members = [x for x in elems if q_syl.contains(x)]
        key = frozenset(x.images for x in members)
        if key not in first:
            first[key] = (_from_elements(g.degree, members, len(members), key), q_syl)
    return list(first.values())


@memoized
def max_intersection_order(g: PermGroup, p: int) -> int:
    """Largest |P cap Q| over distinct Sylow p-subgroups P, Q: the largest
    proper intersection of the base member (see `sylow_intersections`)."""
    return max((d.order() for d, _ in sylow_intersections(g, p)[1:]), default=1)


@dataclass
class TameIntersectionRecord:
    """The tame test of D = P cap Q, and the predicates the theorems read.

    Whether N_G(D) is p-nilpotent and whether N_G(D)/C_G(D) is a p-group
    are worked out together, once, when either is first read, under the
    caps in force at that read, and kept.  The first read also checks
    that a p-nilpotent N_G(D) has N/C a p-group (InvariantError
    otherwise); a read that raises keeps nothing.  A kept record fills
    its own cache once, and no caller may change it.
    """

    d: PermGroup  # P cap Q
    tame: bool
    normalizer: PermGroup  # N_G(D)
    prime: int

    @cached_property
    def _predicates(self) -> tuple[bool, bool]:
        n_g_d, p = self.normalizer, self.prime
        # C_G(D) <= N_G(D), so C_N(D) is C_G(D): scan N's elements, not G's.
        n_over_c = n_g_d.order() // centralizer(n_g_d, self.d).order()
        p_nilpotent = is_p_nilpotent(n_g_d, p)
        n_over_c_is_p_group = p_part(n_over_c, p) == n_over_c
        # A p-nilpotent normalizer always forces N/C to be a p-group (the
        # normal p'-part centralizes D).
        if p_nilpotent and not n_over_c_is_p_group:
            raise InvariantError("p-nilpotent N_G(D) with N/C not a p-group")
        return p_nilpotent, n_over_c_is_p_group

    @property
    def normalizer_p_nilpotent(self) -> bool:
        return self._predicates[0]

    @property
    def n_over_c_is_p_group(self) -> bool:
        return self._predicates[1]


def is_tame_intersection(
    g: PermGroup, p_syl: PermGroup, q_syl: PermGroup, prime: int
) -> TameIntersectionRecord:
    """Classify P cap Q for two Sylow p-subgroups P and Q of G, and record
    the predicates the theorems need (see `_tame_record`); ValueError
    unless prime is a prime dividing |G|."""
    if not (p_syl.is_subgroup_of(g) and q_syl.is_subgroup_of(g)):
        raise ValueError("both subgroups must be subgroups of G")
    if not is_prime_divisor(prime, g.order()):
        raise ValueError(f"{prime} is not a prime dividing the group order")
    target = p_part(g.order(), prime)
    if p_syl.order() != target or q_syl.order() != target:
        raise ValueError("both subgroups must be Sylow p-subgroups")
    return _tame_record(g, p_syl, intersection(p_syl, q_syl), q_syl, prime)


@memoized
def _tame_record(
    g: PermGroup, p_syl: PermGroup, d: PermGroup, q_syl: PermGroup, prime: int
) -> TameIntersectionRecord:
    """The record of D = P cap Q: D is tame when N_P(D) = N_G(D) cap P
    and N_Q(D) are both Sylow in N_G(D), a test of their orders alone,
    which `intersection_order` counts with no group built.  Its other
    predicates wait for their first read (see `TameIntersectionRecord`).
    Kept on G: it holds only D and N_G(D), subgroups of G that never
    reference G."""
    n_g_d = normalizer(g, d)
    sylow_order_in_n = p_part(n_g_d.order(), prime)
    tame = (
        intersection_order(n_g_d, p_syl) == sylow_order_in_n
        and intersection_order(n_g_d, q_syl) == sylow_order_in_n
    )
    return TameIntersectionRecord(d=d, tame=tame, normalizer=n_g_d, prime=prime)


@memoized
def tame_intersections_between(
    g: PermGroup,
    p: int,
    lower: PermGroup,
    strict_upper: bool,
    strict_lower: bool = True,
) -> list[TameIntersectionRecord]:
    """Tame intersections D = P cap Q with `lower` below D (strictly by
    default), and D < P when strict_upper, one record per D.

    P is the family's base member and Q the first member that gives D
    (see `sylow_intersections`); D = P, from Q = P, only when
    strict_upper is off.
    """
    p_syl = all_sylow_subgroups(g, p).base_member
    lower_order = lower.order()
    out = []
    for d, q_syl in sylow_intersections(g, p)[1 if strict_upper else 0 :]:
        if d.order() < lower_order or not lower.is_subgroup_of(d):
            continue
        if strict_lower and d.order() == lower_order:
            continue
        rec = _tame_record(g, p_syl, d, q_syl, p)
        if rec.tame:
            out.append(rec)
    return out


@memoized
def is_weakly_closed(g: PermGroup, p_syl: PermGroup, k: PermGroup) -> tuple[bool, Perm | None]:
    """Is K weakly closed in P (wrt G)?  On failure, return a conjugating
    element g with K^g <= P but K^g != K; ValueError unless K <= P <= G.
    Kept on G: the answer holds no group, and depends only on the elements
    of P and K, so the check runs once per distinct call."""
    if not (k.is_subgroup_of(p_syl) and p_syl.is_subgroup_of(g)):
        raise ValueError("K <= P <= G is required")
    n = normalizer(g, k)
    trans = right_transversal(g, n)
    # Every rep t after the first lies outside N_G(K), so K^t != K.
    for t in trans.reps[1:]:
        if conjugate_subgroup(k, t).is_subgroup_of(p_syl):
            return False, t
    return True, None


def characteristic_subgroups_above(p_grp: PermGroup, lower: PermGroup) -> list[PermGroup]:
    """All characteristic subgroups C with lower <= C <= P, in the order
    of all_subgroups: the joins of the subgroups generated by the orbits
    of Aut(P) on P's elements."""
    aut = automorphism_group(p_grp)
    elems = p_grp.elements()
    orbits = [
        [elems[i] for i in orbit]
        for orbit in _orbits(range(len(elems)), aut.gens, lambda x, s: s(x))
    ]
    return [c for c in _subgroup_lattice(p_grp, orbits) if lower.is_subgroup_of(c)]
