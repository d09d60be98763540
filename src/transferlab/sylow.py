"""Sylow subgroups, Sylow intersections, tame-intersection and
weak-closure predicates, characteristic subgroup enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass

from .caps import DEFAULT_CAPS, Caps, check_cap
from .group import (
    InvariantError,
    PermGroup,
    centralizer,
    conjugate_subgroup,
    intersection,
    memoized,
    normalizer,
    right_transversal,
)
from .iso import all_subgroups, automorphism_group, is_characteristic
from .perm import Perm
from .series import (
    element_p_part,
    is_p_nilpotent,
    p_part,
)


@memoized
def sylow_subgroup(g: PermGroup, p: int, caps: Caps = DEFAULT_CAPS) -> PermGroup:
    """A Sylow p-subgroup, by normalizer ascent.

    Start from the p-part of the first p-singular element in enumeration
    order; while not full, adjoin an element of the normalizer whose
    image in N/current has order p.  Deterministic.
    """
    target = p_part(g.order(), p)
    if target == 1:
        raise ValueError(f"{p} does not divide the group order")
    current: PermGroup | None = None
    for x in g.elements(caps):
        xp = element_p_part(x, p)
        if not xp.is_identity():
            current = PermGroup(g.degree, [xp])
            break
    if current is None:
        raise InvariantError(f"no element of order divisible by {p} (contradicts Cauchy)")
    while current.order() < target:
        n = normalizer(g, current, caps)
        grown = False
        for y in n.elements(caps):
            if current.contains(y):
                continue
            if current.contains(y**p):
                current = PermGroup(g.degree, list(current.gens) + [y])
                grown = True
                break
        if not grown:
            raise InvariantError("normalizer ascent stalled (should be impossible)")
    return current


@dataclass
class SylowFamily:
    """The Sylow p-subgroups of G: members[0] is sylow_subgroup(G, p) itself,
    the others its conjugates by a transversal of normalizer = N_G(P)."""

    prime: int
    members: list[PermGroup]
    normalizer: PermGroup

    @property
    def base_member(self) -> PermGroup:
        return self.members[0]

    def __len__(self) -> int:
        return len(self.members)


@memoized
def all_sylow_subgroups(g: PermGroup, p: int, caps: Caps = DEFAULT_CAPS) -> SylowFamily:
    """All Sylow p-subgroups: conjugates of one by a transversal of its
    normalizer."""
    syl = sylow_subgroup(g, p, caps)
    n = normalizer(g, syl, caps)
    count = g.order() // n.order()
    check_cap("Sylow family", count, caps.sylow_family_cap)
    trans = right_transversal(g, n, caps)
    members = [syl] + [conjugate_subgroup(syl, t) for t in trans.reps[1:]]
    return SylowFamily(p, members, n)


@memoized
def max_intersection_order(g: PermGroup, p: int, caps: Caps = DEFAULT_CAPS) -> int:
    """Largest |P cap Q| over distinct Sylow p-subgroups P, Q.

    Every pair is conjugate to a pair containing the base member, so the
    intersections with the base member attain the maximum.
    """
    fam = all_sylow_subgroups(g, p, caps)
    base = fam.base_member
    return max(
        (intersection(base, q, caps).order() for q in fam.members[1:]), default=1
    )


@dataclass
class TameIntersectionRecord:
    p_subgroup: PermGroup  # P
    q_subgroup: PermGroup  # Q
    d: PermGroup  # P cap Q
    tame: bool
    normalizer: PermGroup  # N_G(D)
    normalizer_p_nilpotent: bool
    n_over_c_is_p_group: bool


@memoized
def is_tame_intersection(
    g: PermGroup,
    p_syl: PermGroup,
    q_syl: PermGroup,
    prime: int,
    caps: Caps = DEFAULT_CAPS,
) -> TameIntersectionRecord:
    """Classify P cap Q, and record the predicates the theorems need.

    Kept on G: the record never references G, and P and Q are members of
    the Sylow family, which is kept on G already.
    """
    target = p_part(g.order(), prime)
    if p_syl.order() != target or q_syl.order() != target:
        raise ValueError("both subgroups must be Sylow p-subgroups")
    d = intersection(p_syl, q_syl, caps)
    n_g_d = normalizer(g, d, caps)
    n_p_d = intersection(n_g_d, p_syl, caps)
    n_q_d = intersection(n_g_d, q_syl, caps)
    sylow_order_in_n = p_part(n_g_d.order(), prime)
    tame = n_p_d.order() == sylow_order_in_n and n_q_d.order() == sylow_order_in_n
    n_over_c = n_g_d.order() // centralizer(g, d, caps).order()  # C_G(D) <= N_G(D)
    rec = TameIntersectionRecord(
        p_subgroup=p_syl,
        q_subgroup=q_syl,
        d=d,
        tame=tame,
        normalizer=n_g_d,
        normalizer_p_nilpotent=is_p_nilpotent(n_g_d, prime, caps),
        n_over_c_is_p_group=p_part(n_over_c, prime) == n_over_c,
    )
    # A p-nilpotent normalizer always forces N/C to be a p-group (the
    # normal p'-part centralizes D).
    if rec.normalizer_p_nilpotent and not rec.n_over_c_is_p_group:
        raise InvariantError("p-nilpotent N_G(D) with N/C not a p-group")
    return rec


@memoized
def tame_intersections_between(
    g: PermGroup,
    p: int,
    lower: PermGroup,
    strict_upper: bool,
    caps: Caps = DEFAULT_CAPS,
    strict_lower: bool = True,
) -> list[TameIntersectionRecord]:
    """Tame intersections D = P cap Q with `lower` below D (strictly by
    default), and D < P when strict_upper, deduplicated by D.

    The base Sylow subgroup P is the family's distinguished member; Q
    ranges over the whole family (including Q = P when strict_upper is
    off, which yields D = P).
    """
    fam = all_sylow_subgroups(g, p, caps)
    p_syl = fam.base_member
    lower_order = lower.order()
    seen: set[frozenset] = set()
    out = []
    for q_syl in fam.members[1:] if strict_upper else fam.members:
        d = intersection(p_syl, q_syl, caps)
        if strict_upper and d.order() == p_syl.order():
            continue
        if d.order() < lower_order or not lower.is_subgroup_of(d):
            continue
        if strict_lower and d.order() == lower_order:
            continue
        key = d.element_set(caps)
        if key in seen:
            continue
        seen.add(key)
        rec = is_tame_intersection(g, p_syl, q_syl, p, caps)
        if rec.tame:
            out.append(rec)
    return out


def is_weakly_closed(
    g: PermGroup, p_syl: PermGroup, k: PermGroup, caps: Caps = DEFAULT_CAPS
) -> tuple[bool, Perm | None]:
    """Is K weakly closed in P (wrt G)?  On failure, return a conjugating
    element g with K^g <= P but K^g != K."""
    n = normalizer(g, k, caps)
    kset = k.element_set(caps)
    trans = right_transversal(g, n, caps)
    for t in trans.reps[1:]:
        conj = conjugate_subgroup(k, t)
        if conj.is_subgroup_of(p_syl) and conj.element_set(caps) != kset:
            return False, t
    return True, None


def characteristic_subgroups_above(
    p_grp: PermGroup, lower: PermGroup, caps: Caps = DEFAULT_CAPS
) -> list[PermGroup]:
    """All characteristic subgroups C with lower <= C <= P, in the order
    of all_subgroups.

    Only normal subgroups can be characteristic, and the cheap normality
    test runs first; the rest are tested against the generators of
    Aut(P).
    """
    aut = automorphism_group(p_grp, caps)
    out = []
    for c in all_subgroups(p_grp, caps):
        if (
            lower.is_subgroup_of(c)
            and c.is_normal_in(p_grp)
            and is_characteristic(p_grp, c, aut)
        ):
            out.append(c)
    return out
