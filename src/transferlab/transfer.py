"""Pretransfer and transfer maps, their congruences, focal subgroups,
and the control-of-p-transfer machinery.

Conventions match the rest of the library: right cosets Ht, the dot
action t.g = representative of Htg, and left-to-right composition.
"""

from __future__ import annotations

from dataclasses import dataclass

from .group import (
    InvariantError,
    PermGroup,
    Transversal,
    _orbits,
    conjugate_subgroup,
    derived_subgroup,
    double_coset_reps,
    intersection,
    memoized,
    quotient_group,
    right_transversal,
)
from .iso import abelian_invariants, all_subgroups, is_isomorphic
from .perm import _IDENTITY, Perm, _compose, _perm
from .series import a_p, o_upper_p, p_part
from .sylow import sylow_subgroup


def pretransfer(g: PermGroup, h: PermGroup, trans: Transversal, x: Perm) -> Perm:
    """V(x) = product over t in the transversal of t * x * (t.x)^-1.

    Each factor lies in H, so the product does; the factor order is the
    transversal's list order.  The loop runs on bare images: for each t
    it forms u = t * x, looks up the rep r = t.x of Hu by u's coset key,
    and multiplies the product by u * r^-1.  Only the final value is
    wrapped as a Perm.
    """
    if x.degree != g.degree:
        raise ValueError("degree mismatch")
    reps, xs = trans.reps, x.images
    value = _IDENTITY[g.degree]
    for t in reps:
        u = _compose(t.images, xs)
        r = reps[trans._index_of_images(u)]
        value = _compose(value, _compose(u, r.inverse().images))
    result = _perm(value)
    if not h.contains(result):
        raise InvariantError("pretransfer value lies outside H")
    return result


@dataclass
class TransferResult:
    """A transfer value: an element of H read modulo H'."""

    target: PermGroup  # H
    modulus: PermGroup  # H'
    value: Perm

    def same_as(self, other: "TransferResult") -> bool:
        return self.modulus.contains(self.value * other.value.inverse())

    def is_trivial(self) -> bool:
        return self.modulus.contains(self.value)


def transfer(g: PermGroup, h: PermGroup, x: Perm) -> TransferResult:
    """The transfer value of x, using the canonical transversal."""
    trans = right_transversal(g, h)
    value = pretransfer(g, h, trans, x)
    return TransferResult(h, derived_subgroup(h), value)


def shuffled_transversal(g: PermGroup, h: PermGroup, rng) -> Transversal:
    """A transversal with randomized representatives in randomized order.

    Each canonical rep is replaced by a random element of its coset.
    Used to exercise transversal independence of the transfer.
    """
    trans = right_transversal(g, h)
    reps = [h.random_element(rng) * t for t in trans.reps]
    rng.shuffle(reps)
    return Transversal(h, reps)


def check_transitivity(g: PermGroup, k: PermGroup, h: PermGroup, x: Perm) -> bool:
    """For H <= K <= G: V(x) == W(U(x)) mod H', with V: G -> H,
    U: G -> K, W: K -> H."""
    if not (h.is_subgroup_of(k) and k.is_subgroup_of(g)):
        raise ValueError("need H <= K <= G")
    t_gh = right_transversal(g, h)
    t_gk = right_transversal(g, k)
    t_kh = right_transversal(k, h)
    v = pretransfer(g, h, t_gh, x)
    u = pretransfer(g, k, t_gk, x)
    w = pretransfer(k, h, t_kh, u)
    return derived_subgroup(h).contains(v * w.inverse())


def check_mackey(g: PermGroup, h: PermGroup, k: PermGroup, elem: Perm) -> bool:
    """For k in K: V(k) == prod over (H, K) double-coset reps x of
    x * W_x(k) * x^-1 mod H', with W_x: K -> K cap H^x."""
    if not k.contains(elem):
        raise ValueError("element must lie in K")
    t_gh = right_transversal(g, h)
    v = pretransfer(g, h, t_gh, elem)
    product = Perm.identity(g.degree)
    for x in double_coset_reps(g, h, k):
        target = intersection(k, conjugate_subgroup(h, x))
        t_x = right_transversal(k, target)
        w = pretransfer(k, target, t_x, elem)
        product = product * (x * w * x.inverse())
    return derived_subgroup(h).contains(v * product.inverse())


def transfer_evaluation(p_grp: PermGroup, r: PermGroup, u: Perm) -> list[tuple[Perm, int]]:
    """Evaluate the pretransfer P -> R at u by <u>-orbits on cosets.

    Returns orbit representatives s with orbit lengths n_s; the factor
    of each orbit collapses to s * u^n_s * s^-1, which lies in R, and
    the full product agrees with the pretransfer mod R'.
    """
    trans = right_transversal(p_grp, r)
    out = [(orbit[0], len(orbit)) for orbit in _orbits(trans.reps, [u], trans.dot)]
    if sum(n for _, n in out) != len(trans.reps):
        raise InvariantError("<u>-orbit lengths do not add up to the index")
    product = Perm.identity(p_grp.degree)
    for s, n in out:
        factor = s * u**n * s.inverse()
        if not r.contains(factor):
            raise InvariantError("orbit factor lies outside R")
        product = product * factor
    direct = pretransfer(p_grp, r, trans, u)
    if not derived_subgroup(r).contains(product * direct.inverse()):
        raise InvariantError("orbit evaluation disagrees with the pretransfer mod R'")
    return out


def focal_subgroup(g: PermGroup, p_syl: PermGroup) -> PermGroup:
    """P cap G', the focal subgroup of P in G."""
    return intersection(p_syl, derived_subgroup(g))


@dataclass
class ControlReport:
    """The control test's answer, with the Sylow subgroup P of N it used."""

    sylow: PermGroup  # P
    focal_g: PermGroup  # P cap G'
    focal_n: PermGroup  # P cap N'
    controls: bool
    quotient_invariants_g: tuple[int, ...]  # of G / A^p(G)
    quotient_invariants_n: tuple[int, ...]  # of N / A^p(N)


@memoized
def _ap_quotient_invariants(g: PermGroup, p: int) -> tuple[int, ...]:
    """The abelian invariants of G/A^p(G); () with no quotient built when
    O^p(G) = G, since A^p(G) = G' * O^p(G) is then G.  When A^p(G) = 1 (G
    is an abelian p-group) they are those of G, as G/1 is G (see
    `QuotientGroup`)."""
    if o_upper_p(g, p).order() == g.order():
        return ()
    return abelian_invariants(quotient_group(g, a_p(g, p)).image)


def controls_p_transfer(g: PermGroup, n: PermGroup, p: int) -> ControlReport:
    """Does N control p-transfer in G?

    Primary test: focal equality P cap G' = P cap N' for a Sylow
    p-subgroup P of N (which must be Sylow in G).  Cross-checked
    against the abelian invariants of G/A^p(G) and N/A^p(N).  N must be
    a subgroup of G.  P is G's own (memoized) Sylow subgroup whenever it
    lies in N, as it does when N = G or N = N_G(P), and otherwise a
    Sylow subgroup of N found by N's own ascent.  The answer and the
    focal orders do not depend on which Sylow subgroup of N is used.
    """
    if not n.is_subgroup_of(g):
        raise ValueError("N is not a subgroup of G")
    if (g.order() // n.order()) % p == 0:
        raise ValueError("index of N in G must be prime to p")
    p_syl = sylow_subgroup(g, p)
    if not p_syl.is_subgroup_of(n):
        p_syl = sylow_subgroup(n, p)
    if p_syl.order() != p_part(g.order(), p):
        raise ValueError("Sylow subgroup of N is not Sylow in G")
    focal_g = focal_subgroup(g, p_syl)
    inv_g = _ap_quotient_invariants(g, p)
    if n.order() == g.order():
        focal_n, inv_n = focal_g, inv_g
    else:
        focal_n = focal_subgroup(n, p_syl)
        inv_n = _ap_quotient_invariants(n, p)
    controls = focal_g.same_group_as(focal_n)
    if controls != (inv_g == inv_n):
        raise InvariantError("focal test and quotient test disagree")
    return ControlReport(p_syl, focal_g, focal_n, controls, inv_g, inv_n)


@dataclass
class NonControlWitness:
    """The data promised when N fails to control p-transfer.

    M is normal of index p in N with all transfer values inside it;
    for each u in (a Sylow P) outside M there is a nonidentity
    double-coset rep x where the pretransfer P -> P cap N^x sends u
    outside P cap M^x, with |P cap N^x : P cap M^x| = p.
    """

    m: PermGroup
    double_coset_reps: list[Perm]
    per_u: list[tuple[Perm, Perm, PermGroup, PermGroup]]  # (u, x, R, Q)


def lemma23_witness(g: PermGroup, n: PermGroup, p: int) -> NonControlWitness | str:
    """The full non-control witness structure, or "controls", over the P the
    control test used (`ControlReport.sylow`): N = N_G(P) runs no ascent."""
    report = controls_p_transfer(g, n, p)
    if report.controls:
        return "controls"
    p_syl = report.sylow
    # Candidate M: preimages of the index-p subgroups of the abelian
    # p-group N / A^p(N).
    apn = a_p(n, p)
    quot = quotient_group(n, apn)
    n_trans = right_transversal(g, n)
    gen_values = [pretransfer(g, n, n_trans, x) for x in g.gens]
    m: PermGroup | None = None
    for sub in all_subgroups(quot.image):
        if sub.order() * p != quot.image.order():
            continue
        candidate = quot.preimage_subgroup(sub)
        if all(candidate.contains(v) for v in gen_values):
            m = candidate
            break
    if m is None:
        raise InvariantError("no index-p subgroup of N captures the transfer image")
    if not m.is_normal_in(n):
        raise InvariantError("the index-p witness M is not normal in N")
    reps = double_coset_reps(g, n, p_syl)
    per_u = []
    for u in p_syl.elements():
        if m.contains(u):
            continue
        hit = None
        for x in reps[1:]:
            r = intersection(p_syl, conjugate_subgroup(n, x))
            q = intersection(p_syl, conjugate_subgroup(m, x))
            t_r = right_transversal(p_syl, r)
            w = pretransfer(p_syl, r, t_r, u)
            if not q.contains(w):
                if r.order() >= p_syl.order() or r.order() != q.order() * p:
                    raise InvariantError("R = P cap N^x is not proper, or |R : Q| != p")
                hit = (u, x, r, q)
                break
        if hit is None:
            raise InvariantError("no double-coset rep witnesses the failure")
        per_u.append(hit)
    return NonControlWitness(m, reps, per_u)


def tate_agreement(g: PermGroup, n: PermGroup, p: int) -> bool:
    """Do the A^p-quotient and O^p-quotient formulations of control agree?"""
    report = controls_p_transfer(g, n, p)
    abelian_side = report.quotient_invariants_g == report.quotient_invariants_n
    qg = quotient_group(g, o_upper_p(g, p)).image
    qn = quotient_group(n, o_upper_p(n, p)).image
    full_side = is_isomorphic(qg, qn)[0]
    return abelian_side == full_side
