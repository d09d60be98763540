"""Structural subgroup functors: derived/central/norm series, Frattini,
omega, p-cores, p-residuals, p-nilpotency, the upper p-series, and the
centrality-height predicates.

Everything is computed by exact enumeration under the caps in force (the
corpus tops out at order 2448), but an enumeration stops where the
mathematics says the answer is complete.  A subgroup defined as a set
of elements (the center, the terms of the upper central series, the
norm) is scanned from the group's elements (`_scan_subgroup`); the norm
tests one generator per cyclic subgroup.  A subgroup defined by
generators (Phi, Omega, O_{p'}) is a `span`.  O^p(G) is the span of the
p'-elements, trivial for a p-group and otherwise told |G| as its order,
so a build that reaches G stops reading G's elements there (see
`o_upper_p`).  The derived, lower central, upper central, norm and
upper p-series are each one call to `_series`, which steps from a first
term until a term reaches a given order or a step leaves the order
unchanged; the upper p-series reads each factor's label from the orders
of its terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .group import (
    PermGroup,
    _from_elements,
    _scan_subgroup,
    _subgroup,
    centralizer,
    commutator_subgroup,
    core,
    derived_subgroup,
    intersection,
    memoized,
    normal_closure,
    quotient_group,
    span,
    trivial_group,
)
from .iso import all_subgroups, conjugacy_classes, is_prime_divisor
from .perm import Perm, commutator


@dataclass
class SeriesResult:
    terms: list[PermGroup]
    factors: list[str] | None = None  # p_series only: "p" or "p'" per step

    @property
    def length(self) -> int:
        return len(self.terms) - 1


def p_part(n: int, p: int) -> int:
    if n < 1 or p < 2:
        raise ValueError(f"p-part needs n >= 1 and p >= 2, got n = {n}, p = {p}")
    q = 1
    while n % p == 0:
        n //= p
        q *= p
    return q


def p_prime_part(n: int, p: int) -> int:
    return n // p_part(n, p)


def is_p_group(g: PermGroup, p: int) -> bool:
    return p_part(g.order(), p) == g.order()


def element_p_part(x: Perm, p: int) -> Perm:
    """The p-part of x: a power of x of p-power order."""
    n = x.order()
    pp = p_part(n, p)
    m = n // pp
    # x = x_p * x_{p'}; x_p = x^(m * inv(m) mod pp)
    if pp == 1:
        return Perm.identity(x.degree)
    return x ** (m * pow(m, -1, pp))


def _series(first: PermGroup, step: Callable[[PermGroup], PermGroup], end: int) -> SeriesResult:
    """first, step(first), step(step(first)), ... until a term has order
    end or a step leaves the order unchanged (that step's result is not
    a term)."""
    terms = [first]
    while terms[-1].order() != end:
        nxt = step(terms[-1])
        if nxt.order() == terms[-1].order():
            break
        terms.append(nxt)
    return SeriesResult(terms)


# derived series -----------------------------------------------------------

def derived_series(g: PermGroup) -> SeriesResult:
    return _series(g, derived_subgroup, 1)


def is_solvable(g: PermGroup) -> bool:
    return derived_series(g).terms[-1].is_trivial()


# lower central series -----------------------------------------------------

def lower_central_series(g: PermGroup) -> SeriesResult:
    return _series(g, lambda h: commutator_subgroup(h, g), 1)


def is_nilpotent(g: PermGroup) -> bool:
    return nilpotency_class(g) is not None


@memoized
def nilpotency_class(g: PermGroup) -> int | None:
    """Number of steps of the lower central series; None if not nilpotent."""
    s = lower_central_series(g)
    return s.length if s.terms[-1].is_trivial() else None


# upper central series -----------------------------------------------------

def center(g: PermGroup) -> PermGroup:
    return centralizer(g, g)


@memoized
def upper_central_series(g: PermGroup) -> SeriesResult:
    def step(prev: PermGroup) -> PermGroup:
        return _scan_subgroup(g, lambda x: all(prev.contains(commutator(x, s)) for s in g.gens))

    return _series(trivial_group(g.degree), step, g.order())


def z_k(g: PermGroup, k: int) -> PermGroup:
    """The k-th term of the upper central series (stabilized if k is large)."""
    if k < 0:
        raise ValueError(f"z_k needs k >= 0, got {k}")
    terms = upper_central_series(g).terms
    return terms[min(k, len(terms) - 1)]


# norm and norm series -----------------------------------------------------

@memoized
def norm(p: PermGroup) -> PermGroup:
    """The norm: intersection of the normalizers of all subgroups.

    Computed over cyclic subgroups only; normalizing every cyclic
    subgroup normalizes every subgroup.
    """
    # One generator per cyclic subgroup: x normalizes <y> iff it sends
    # any one generator of <y> into <y>.
    generator_of: dict[frozenset, Perm] = {}
    for y in p.elements():
        powers = {y.images}
        z = y
        while not z.is_identity():
            z = z * y
            powers.add(z.images)
        generator_of.setdefault(frozenset(powers), y)
    return _scan_subgroup(
        p,
        lambda x: all(y.conjugate(x).images in powers for powers, y in generator_of.items()),
    )


def is_dedekind(p: PermGroup) -> bool:
    return norm(p).order() == p.order()


def norm_series(p: PermGroup) -> SeriesResult:
    """Ascending series of iterated norms, lifted through quotients; it
    stalls where the norm of the quotient is trivial.

    The first step is norm(P), as P/1 is P (see `QuotientGroup`).  A later
    step depends only on the element set of the term before it (see
    `right_transversal`)."""
    def step(prev: PermGroup) -> PermGroup:
        q = quotient_group(p, prev)
        return q.preimage_subgroup(norm(q.image))

    return _series(trivial_group(p.degree), step, p.order())


def norm_length(p: PermGroup) -> int | None:
    s = norm_series(p)
    if s.terms[-1].order() != p.order():
        return None
    return s.length


# p-group functors ---------------------------------------------------------

def frattini_p(p_grp: PermGroup, p: int) -> PermGroup:
    """Phi(P) = P' * <x^p> for a p-group P."""
    if not is_p_group(p_grp, p):
        raise ValueError("not a p-group for the given prime")
    dp = derived_subgroup(p_grp)
    powers = (x**p for x in p_grp.elements())
    return span(p_grp.degree, list(dp.gens) + list(powers))


def frattini_by_maximals(p_grp: PermGroup, p: int) -> PermGroup:
    """Phi(P) as the intersection of the maximal subgroups (oracle route)."""
    if not is_p_group(p_grp, p):
        raise ValueError("not a p-group for the given prime")
    if p_grp.is_trivial():
        return p_grp
    maximals = [h for h in all_subgroups(p_grp) if h.order() == p_grp.order() // p]
    result = p_grp
    for m in maximals:
        result = intersection(result, m)
    return result


def omega(p_grp: PermGroup, p: int, i: int = 1) -> PermGroup:
    """Omega_i(P): generated by the elements of order dividing p^i;
    ValueError for i < 0."""
    if not is_p_group(p_grp, p):
        raise ValueError("not a p-group for the given prime")
    if i < 0:
        raise ValueError(f"i must be >= 0, got {i}")
    q = p**i
    return span(p_grp.degree, (x for x in p_grp.elements() if (x**q).is_identity()))


# p-cores and p-residuals --------------------------------------------------

def _check_prime(p: int) -> None:
    """ValueError unless p is a prime (`iso.is_prime_divisor(p, p)`)."""
    if not is_prime_divisor(p, p):
        raise ValueError(f"{p} is not a prime")


@memoized
def o_p(g: PermGroup, p: int) -> PermGroup:
    """O_p(G): the p-core, Core_G(P) for a Sylow p-subgroup P (see
    `group.core`), so a normal P is returned itself; trivial when the
    prime p does not divide |G|.  ValueError for a p that is no prime."""
    from .sylow import sylow_subgroup  # sylow imports series

    _check_prime(p)
    if g.order() % p:
        return trivial_group(g.degree)
    return core(g, sylow_subgroup(g, p))


def _core_by_closure(g: PermGroup, is_pi: Callable[[int], bool]) -> PermGroup:
    """<x : x and its normal closure have pi-order>, for the pi-orders
    is_pi accepts, spanned from whole conjugacy classes."""
    good: list[Perm] = []
    for rep, orbit in conjugacy_classes(g):
        if rep.is_identity() or not is_pi(rep.order()):
            continue
        if is_pi(normal_closure(g, [rep]).order()):
            good.extend(orbit)
    return span(g.degree, good)


def o_p_by_closure(g: PermGroup, p: int) -> PermGroup:
    """O_p(G) as <x : the normal closure of x is a p-group> (oracle route)."""
    return _core_by_closure(g, lambda n: p_part(n, p) == n)


def o_p_prime(g: PermGroup, p: int) -> PermGroup:
    """O_{p'}(G): generated by the x whose normal closure is a p'-group;
    G itself when the prime p does not divide |G|.  ValueError for a p
    that is no prime."""
    _check_prime(p)
    return _core_by_closure(g, lambda n: n % p != 0)


@memoized
def o_upper_p(g: PermGroup, p: int) -> PermGroup:
    """O^p(G): generated by all p'-elements (smallest normal subgroup with
    p-group quotient), spanned in G's elements() order.

    It is trivial for a p-group, and G itself when the prime p does not
    divide |G|; ValueError for a p that is no prime.  Otherwise the span
    is told |G| as its order: the orbit lengths of a partial chain
    multiply to at most the order of the group it spans, so they reach
    |G| only when O^p(G) = G, and then the build stops there with the
    chain a full span gives (see `_build_chain`).  A smaller O^p(G)
    never reaches it, and its build reads every p'-element, as a plain
    span does.
    """
    _check_prime(p)
    elems = g.elements()  # first, so an element cap fires as for a full span
    if is_p_group(g, p):
        return span(g.degree, ())
    return _from_elements(g.degree, (x for x in elems if x.order() % p != 0), g.order())


def a_p(g: PermGroup, p: int) -> PermGroup:
    """A^p(G) = G' * O^p(G): smallest normal subgroup with abelian p-group
    quotient, generated by the gens of G' and then of O^p(G).

    When O^p(G) = G (a known order, see `o_upper_p`), A^p(G) is G, and
    it is told |G|, so its chain build stops there (see `_build_chain`)
    with the chain a full build gives.
    """
    d, k = derived_subgroup(g), o_upper_p(g, p)
    order = g.order() if k.order() == g.order() else None
    return _subgroup(g.degree, [*d.gens, *k.gens], order=order)


def is_p_nilpotent(g: PermGroup, p: int) -> bool:
    """True iff the p'-elements form a (normal Hall p') subgroup."""
    k = o_upper_p(g, p)
    return k.order() == p_prime_part(g.order(), p)


# upper p-series -----------------------------------------------------------

@memoized
def p_series(g: PermGroup, p: int) -> SeriesResult:
    """1 <= O_{p'} <= O_{p',p} <= ... ; factors alternate p' and p.

    Terms are subgroups of g (preimages under the successive quotients).
    Each step lifts O_{p'} of G/prev, or O_p of G/prev when that is
    trivial: right after a p' step O_{p'}(G/prev) = 1 and right after a p
    step O_p(G/prev) = 1, so the steps alternate, and the series stops
    when it reaches g or both cores are trivial.  The first step, from
    prev = 1, takes the cores of g itself, as G/1 is G (see
    `QuotientGroup`).  A factor is "p" when p divides its index.  Kept on
    g: no term is g itself (a core is a span, an intersection or a Sylow
    ascent's subgroup, never g), so the result never references g.  When
    the prime p does not divide |G|, the one step is O_{p'}(G) = G;
    ValueError for a p that is no prime.
    """
    _check_prime(p)

    def step(prev: PermGroup) -> PermGroup:
        q = quotient_group(g, prev)
        core = o_p_prime(q.image, p)
        return q.preimage_subgroup(o_p(q.image, p) if core.is_trivial() else core)

    s = _series(trivial_group(g.degree), step, g.order())
    orders = [t.order() for t in s.terms]
    s.factors = ["p" if (b // a) % p == 0 else "p'" for a, b in zip(orders, orders[1:])]
    return s


def is_p_solvable(g: PermGroup, p: int) -> bool:
    return p_series(g, p).terms[-1].order() == g.order()


def p_length(g: PermGroup, p: int) -> int | None:
    s = p_series(g, p)
    if s.terms[-1].order() != g.order():
        return None
    return s.factors.count("p")


def p_prime_length(g: PermGroup, p: int) -> int | None:
    """Count of p'-factors strictly between the first and last p-factors."""
    s = p_series(g, p)
    if s.terms[-1].order() != g.order():
        return None
    factors = s.factors
    if "p" not in factors:
        return 0
    first = factors.index("p")
    last = len(factors) - 1 - factors[::-1].index("p")
    return factors[first:last].count("p'")


# commutator predicates ----------------------------------------------------

def iterated_commutator(u: Perm, g: Perm, k: int) -> Perm:
    """[u, g, ..., g]_k: c_1 = [u,g]; c_{i+1} = [c_i, g]."""
    if k < 1:
        raise ValueError("k must be >= 1")
    c = commutator(u, g)
    for _ in range(k - 1):
        c = commutator(c, g)
    return c


def is_pi_central_of_height(
    p_grp: PermGroup, p: int, i: int, k: int, order_divides: bool = False
) -> bool:
    """Every element of order p^i (or dividing p^i, with the flag) lies in
    the k-th center; ValueError for i < 0."""
    if not is_p_group(p_grp, p):
        raise ValueError("not a p-group for the given prime")
    if i < 0:
        raise ValueError(f"i must be >= 0, got {i}")
    zk = z_k(p_grp, k)
    target = p**i
    for x in p_grp.elements():
        n = x.order()
        hit = (n != 1 and target % n == 0) if order_divides else n == target
        if hit and not zk.contains(x):
            return False
    return True
