"""Permutation groups with deterministic stabilizer chains.

Everything here is immutable after construction; derived objects
(transversals, quotients) hold references to the groups they were built
from and never mutate them.  Identical generator lists always produce
identical chains, orderings and transversals, which keeps every
downstream computation (including transfer values) reproducible.
Derived subgroups, right transversals and the like are kept on the group
they come from by one decorator (`memoized`), keyed by the call's
arguments with defaults filled in, each other group argument by its
element set, so a fresh subgroup with the same elements gets the kept
result under any caps (see `caps`).  A kept object is shared by every
caller that asks for it, so no caller may mutate it (a transversal's
`reps` included).

A subgroup whose facts are known when it is made (its order, element
set, chain or conjugate source) is made by one constructor, `_subgroup`,
the only code outside PermGroup's methods that sets them.  A subgroup
built from elements, by `span`, by scanning a group's elements
(`_scan_subgroup`) or by `normalizer`, comes from one chain build over
the elements, read lazily (`_from_elements`), keeps as gens only the
elements that build used, and keeps that chain.  A build given a stop
ends once the orbit lengths multiply to it, with the chain a full build
gives, and reads no element past the one that completed the chain:
`normalizer` takes |N_G(H)| as |M| over the number of conjugates of H
under M's gens, where M is G or, for a non-abelian H, N_G(Z(H)), and so
reads G only until its members generate N.  Its member test is one
lookup in N's element set, listed from a chain of N's Schreier
generators, which the search for H's conjugates yields (see
`normalizer`).  A normal H gets the one N = G kept for the trivial
group, as does the centralizer of the trivial group, with no element
tested, and an H normal in N_G(Z(H)) gets that kept normalizer.  A
subgroup told its order (a conjugate, a Sylow ascent step, A^p(G) when
O^p(G) = G) or element set (the trivial group, a scanned subgroup, a
lattice atom or join) builds its chain on first use, stopped at that
order, and every chain is checked against a told order
(`PermGroup._keep_chain`), a stopped build also by sifting the gens it
did not read (`PermGroup.chain`).  A conjugate H^t keeps H and
t and tests membership through H (see `conjugate_subgroup`), so its
chain is built only for `elements()` and for readers of `chain`: the
Sylow family's members and the conjugates in `core`, Mackey and Lemma
2.3 share the one chain or element set of H.

Every orbit is found by one breadth-first search (`_keyed_orbit`, whose
points `_orbit` lists): right cosets (`right_transversal`, which hands
the coset keys it found to its `Transversal`), double cosets, conjugacy
classes, the <u>-orbits of the transfer evaluation and the
Aut(P)-orbits.  One loop (`_orbits`) splits a set of points into orbits
for each of these partitions but the right cosets, and for the H-orbits
of the maximality test.  Only the chain build and
`normalizer` keep their own searches: the chain build
(`_orbit_transversal`) because it also needs the transversal, and the
count of H's conjugates in `normalizer` because it also needs the
element that first reached each conjugate and the edges outside its
search tree.  Right cosets are told apart by their coset key
(`_coset_key`): the images of one canonical element of the coset Hg,
found by walking H's stabilizer chain and, at each level, stepping to
the coset element that sends the base point to its smallest image.
Transversals, quotients, double cosets, the maximality test and the
pretransfer look cosets up by this key instead of testing g * r^-1
against H for every representative r.  `right_transversal` is memoized;
a quotient builds its transversal unkept, and a quotient by the trivial
group builds none, as G/1 is G (see `QuotientGroup`).

A chain level (`_Level`) keeps its transversal and inverses as image
tuples, during the build and after it; only strong generators are
Perms.  The build and `contains` sift through one loop (`_sift`);
`contains` looks an element up in the element set first when the group
has one, a conjugate sifts in its source's chain, and a residue is
compared with the identity kept for its degree (`perm._IDENTITY`).  The
inner loops compose bare image tuples (`perm._compose`) and wrap a Perm
only for a value that leaves them: the orbit BFS, the sifts and the
Schreier loop of `_build_chain` (which wraps a strong generator when it
is inserted), `contains`, `elements()`, `_coset_key`, the conjugate
count and Schreier generators of `normalizer`, and the member test of
`centralizer`.  The count conjugates through one prebuilt getter
(`perm._getter`) per generator of G.  The centralizer's member test
composes through one getter per generator of H, built before the scan,
and one of each scanned element x, so each product is one itemgetter
call and makes no new itemgetter.
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass
import itertools
from math import prod
from typing import Callable, Iterable, Iterator, Sequence

from .caps import check_cap, current_caps
from .perm import _IDENTITY, Perm, _compose, _getter, _invert, _perm, commutator


class InvariantError(AssertionError):
    """An internal invariant failed.

    Raised explicitly, so the check survives ``python -O``; it subclasses
    AssertionError so existing ``except AssertionError`` handlers keep
    catching it.
    """


@dataclass
class _Level:
    """One level of a stabilizer chain: the strong generators first found
    at this level, as Perms, and the transversal and inverses as image
    tuples."""

    base: int
    gens: list[Perm]
    transversal: dict[int, tuple[int, ...]]  # point -> u with u(base) = point
    inverses: dict[int, tuple[int, ...]]  # point -> u^-1 for the u above


def _keyed_orbit(start, gens: Sequence, act: Callable, key: Callable | None = None) -> dict:
    """The orbit of start under gens, as a dict key -> point in
    breadth-first order.

    act(x, s) is the image of the point x under the generator s, and
    key(x) tells points apart (the point itself when key is None); of
    points with one key, the first one found is kept.  The points are
    visited first in, first out, generators in order, so the order is
    the level-by-level order of a frontier search (Holt, Eick and
    O'Brien, Handbook of CGT, ch. 4).
    """
    found = {start if key is None else key(start): start}
    orbit = [start]
    for x in orbit:
        for s in gens:
            y = act(x, s)
            k = y if key is None else key(y)
            if k not in found:
                found[k] = y
                orbit.append(y)
    return found


def _orbit(start, gens: Sequence, act: Callable, key: Callable | None = None) -> list:
    """The points of `_keyed_orbit`, in breadth-first order."""
    return list(_keyed_orbit(start, gens, act, key).values())


def _orbits(points: Iterable, gens: Sequence, act: Callable) -> Iterator[list]:
    """The orbits of gens on points: the `_orbit` of each point that no
    earlier orbit covered, lazily and in the order of points, which gens
    must map into points."""
    seen: set = set()
    for x in points:
        if x not in seen:
            orbit = _orbit(x, gens, act)
            seen.update(orbit)
            yield orbit


def _orbit_transversal(
    base: int, gens: Sequence[Perm], degree: int
) -> tuple[dict[int, tuple[int, ...]], dict[int, tuple[int, ...]]]:
    """BFS orbit of base: the image tuples of the transversal and of the
    inverse of each transversal element."""
    ident = _IDENTITY[degree]
    trans = {base: ident}
    invs = {base: ident}
    gen_imgs = [(g.images, g.inverse().images) for g in gens]
    queue = [base]
    for x in queue:
        ux, vx = trans[x], invs[x]
        for g, g_inv in gen_imgs:
            y = g[x]
            if y not in trans:
                trans[y] = _compose(ux, g)
                invs[y] = _compose(g_inv, vx)
                queue.append(y)
    return trans, invs


def _sift(levels: Sequence[_Level], g: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """Sift g down the chain: the residue and the level where it stopped,
    len(levels) if it passed every level.  g is in the group iff the
    residue is the identity."""
    for i, lvl in enumerate(levels):
        x = g[lvl.base]
        inv = lvl.inverses.get(x)
        if inv is None:
            return g, i
        if x != lvl.base:
            g = _compose(g, inv)
    return g, len(levels)


def _build_chain(
    degree: int, gens: Iterable[Perm], order: int | None = None
) -> tuple[list[_Level], list[Perm]]:
    """Deterministic Schreier-Sims; base points are smallest moved points.

    levels[i].gens holds the strong generators first discovered at level
    i; the generating set of the i-th stabilizer group is the union of
    the gens of levels i..end (all of them fix base points 0..i-1).

    Also returns the input generators whose insert changed the chain.  An
    input generator whose insert fails sifts to the identity and leaves
    every level as it was, so a build from only the returned generators
    gives the same chain: the same base, level generators, transversals
    and elements() order.

    When the group's order is known, the build returns as soon as the
    product of the orbit lengths reaches it (Seress, Permutation Group
    Algorithms, 4.5).  Each level's orbit is an orbit of a subgroup of
    the true point stabilizer, so the product never exceeds the order;
    reaching it means the base and strong generating set are complete,
    and every input or Schreier generator left would sift to the
    identity.  When every element is an input generator, the first loop
    always reaches it.  An order above the group's is never reached, so
    the build then runs to the end, as with no order (see
    `series.o_upper_p`).  gens is read once, in order, and not past the
    generator that completed the chain.

    The build sifts (`_sift`) and forms Schreier generators on image
    tuples.  The levels keep transversals and inverses as image tuples,
    and a sifted tuple becomes a Perm only when it is inserted as a
    strong generator.
    """
    levels: list[_Level] = []
    ident = _IDENTITY[degree]

    def eff_gens(i: int) -> list[Perm]:
        return [s for lvl in levels[i:] for s in lvl.gens]

    def refresh(i: int) -> None:
        # Only levels 0..i see the new generator; deeper levels keep their
        # generating sets, so their BFS would come out unchanged.
        for lvl_i in range(i + 1):
            lvl = levels[lvl_i]
            lvl.transversal, lvl.inverses = _orbit_transversal(
                lvl.base, eff_gens(lvl_i), degree
            )

    def insert(g: tuple[int, ...]) -> bool:
        h, i = _sift(levels, g)
        if h == ident:
            return False
        s = _perm(h)
        if i == len(levels):
            levels.append(_Level(s.smallest_moved_point(), [], {}, {}))
        levels[i].gens.append(s)
        refresh(i)
        return True

    used = []
    for g in gens:
        if insert(g.images):
            used.append(g)
            if prod(len(lvl.transversal) for lvl in levels) == order:
                return levels, used

    # Close under Schreier generators until every one sifts to the identity.
    changed = True
    while changed:
        changed = False
        for i in range(len(levels)):
            lvl = levels[i]
            level_gens = [s.images for s in eff_gens(i)]
            for x in sorted(lvl.transversal):
                ux = lvl.transversal[x]
                for s in level_gens:
                    us = _compose(ux, s)
                    y = us[lvl.base]
                    if us == lvl.transversal[y]:
                        continue  # a tree edge: the Schreier generator is 1
                    if insert(_compose(us, lvl.inverses[y])):
                        changed = True
    return levels, used


def _chain_images(degree: int, levels: Sequence[_Level]) -> list[tuple[int, ...]]:
    """The image tuples of the group with this chain, in elements() order:
    each element once, as the product of one transversal element per
    level, deepest level first."""
    result = [_IDENTITY[degree]]
    for lvl in reversed(levels):
        reps = [lvl.transversal[x] for x in sorted(lvl.transversal)]
        result = [_compose(h, u) for u in reps for h in result]
    return result


class PermGroup:
    """A finitely generated permutation group on {0..degree-1}."""

    def __init__(self, degree: int, generators: Iterable[Perm], name: str | None = None):
        if degree < 1:
            raise ValueError("degree must be positive")
        self.degree = degree
        self.gens: tuple[Perm, ...] = tuple(_distinct(degree, generators))
        self.name = name
        self._chain: list[_Level] | None = None
        self._order: int | None = None
        self._elements: list[Perm] | None = None
        self._element_set: frozenset[tuple[int, ...]] | None = None
        # A conjugate K^t (see `conjugate_subgroup`): K and the images of t
        # and t^-1, through which `contains` tests membership.
        self._source: tuple[PermGroup, tuple[int, ...], tuple[int, ...]] | None = None
        self._memo: dict = {}

    # chain / order / membership ------------------------------------------

    @property
    def chain(self) -> list[_Level]:
        """The stabilizer chain, built on first access.

        A group told its order (see `_subgroup`) passes it to the build,
        which then stops as soon as the orbit lengths multiply to it, with
        the chain a full build gives (see `_build_chain`); one told too
        large an order runs to the end, and `_keep_chain` rejects it.  A
        build that stopped left the gens after the last one it used
        unread, so each of those is sifted, and one outside the chain
        (told too small an order) raises InvariantError.  A build that
        read every gen can still stop at too small an order with a partial
        chain (S4's two gens told 12), which no sift of a gen shows.
        """
        if self._chain is None:
            levels, used = _build_chain(self.degree, self.gens, self._order)
            if self._order is not None and len(used) < len(self.gens):
                for x in self.gens[self.gens.index(used[-1]) + 1 :]:
                    if _sift(levels, x.images)[0] != _IDENTITY[self.degree]:
                        raise InvariantError(
                            f"the chain stopped at the told order {self._order}, short of a gen"
                        )
            self._keep_chain(levels)
        return self._chain

    def _keep_chain(self, levels: list[_Level]) -> None:
        """Keep levels and the product of their orbit lengths as chain and
        order; InvariantError for a told order other than that product."""
        found = prod(len(lvl.transversal) for lvl in levels)
        if self._order not in (None, found):
            raise InvariantError(f"the chain reached the wrong order: {found}, told {self._order}")
        self._chain, self._order = levels, found

    def order(self) -> int:
        if self._order is None:
            self.chain  # its build sets the order (see `_keep_chain`)
        return self._order

    def __len__(self) -> int:
        return self.order()

    def contains(self, g: Perm) -> bool:
        """Is g in the group?  One lookup when the element set is known,
        else one sift in the chain.  A conjugate K^t with no element set
        tests t * g * t^-1 against K instead (see `conjugate_subgroup`), so
        it never builds its own chain to answer."""
        if g.degree != self.degree:
            raise ValueError("degree mismatch")
        if self._element_set is not None:
            return g.images in self._element_set
        if self._source is None:
            return _sift(self.chain, g.images)[0] == _IDENTITY[self.degree]
        source, t, t_inv = self._source
        imgs = _compose(_compose(t, g.images), t_inv)
        if source._element_set is not None:
            return imgs in source._element_set
        return _sift(source.chain, imgs)[0] == _IDENTITY[self.degree]

    def __contains__(self, g: Perm) -> bool:
        return self.contains(g)

    def elements(self) -> list[Perm]:
        """All elements, in chain order, each exactly once."""
        if self._elements is None:
            check_cap("element enumeration", self.order(), current_caps().element_cap)
            result = _chain_images(self.degree, self.chain)
            self._elements = [_perm(x) for x in result]
            if self._element_set is None:
                self._element_set = frozenset(result)
        return self._elements

    def element_set(self) -> frozenset[tuple[int, ...]]:
        if self._element_set is None:
            self.elements()
        return self._element_set

    def __iter__(self) -> Iterator[Perm]:
        return iter(self.elements())

    def identity(self) -> Perm:
        return Perm.identity(self.degree)

    def is_trivial(self) -> bool:
        return self.order() == 1

    def random_element(self, rng) -> Perm:
        """A uniformly random element: one rng.choice of a transversal
        element per chain level, multiplied in elements() order."""
        g = _IDENTITY[self.degree]
        for lvl in reversed(self.chain):
            g = _compose(g, lvl.transversal[rng.choice(sorted(lvl.transversal))])
        return _perm(g)

    # relations ------------------------------------------------------------

    def is_subgroup_of(self, other: "PermGroup") -> bool:
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        return all(other.contains(g) for g in self.gens)

    def same_group_as(self, other: "PermGroup") -> bool:
        return self.order() == other.order() and self.is_subgroup_of(other)

    def is_normal_in(self, other: "PermGroup") -> bool:
        """True iff self is normalized by every generator of other."""
        return all(self.contains(h.conjugate(g)) for g in other.gens for h in self.gens)

    def __repr__(self) -> str:
        label = self.name or "PermGroup"
        return f"<{label} deg={self.degree} |G|={self.order()}>"


def is_abelian(g: PermGroup) -> bool:
    """Do the generators of g commute pairwise?"""
    return all(a * b == b * a for a in g.gens for b in g.gens)


def memoized(fn):
    """Keep fn(g, ...) on g, keyed by fn and the call's other arguments.

    The arguments are bound to fn's parameters with defaults filled in,
    so a default passed or left out is one call.  Arguments compare by
    value, and each group argument by its element set.  A kept answer is
    returned under any caps (see `caps`).  A call that raises,
    CapExceeded included, keeps nothing.  Memoize fn only if (a) its
    result never references g, which would make g and its memo a
    reference cycle (hence nilpotency_class is memoized, but not
    lower_central_series, whose first term is g), and (b) its result
    depends only on the element sets of its other group arguments.  A
    subgroup in the result may carry the generators of the first call's
    arguments, and a kept transversal holds the first call's H (see
    `right_transversal`).  Every caller gets the one kept object, so none
    may mutate it.  A kept object may fill a cache of its own on first
    read, once (see `sylow.TameIntersectionRecord`); no caller may change
    that either.
    """
    params = list(inspect.signature(fn).parameters.values())[1:]
    names = [q.name for q in params]
    defaults = [q.default for q in params]

    @functools.wraps(fn)
    def wrapper(g: PermGroup, *args, **kwargs):
        # A missing argument binds as Parameter.empty; fn raises its
        # TypeError for it, so the key is never kept.
        bound = [*args, *defaults[len(args) :]]
        for name, value in kwargs.items():
            if name not in names:
                return fn(g, *args, **kwargs)  # raises fn's TypeError
            bound[names.index(name)] = value
        key = (fn, *[a.element_set() if isinstance(a, PermGroup) else a for a in bound])
        if key not in g._memo:
            g._memo[key] = fn(g, *args, **kwargs)
        return g._memo[key]

    return wrapper


# constructors -------------------------------------------------------------

def trivial_group(degree: int) -> PermGroup:
    """The trivial group, whose order and element set need no chain."""
    h = _subgroup(degree, (), element_set=frozenset([_IDENTITY[degree]]))
    h.name = "1"
    return h


def _distinct(degree: int, elems: Iterable[Perm]) -> Iterator[Perm]:
    """The elements of elems other than the identity, each once, in
    order, read lazily; ValueError for an element of another degree."""
    seen = {_IDENTITY[degree]}
    for g in elems:
        if g.degree != degree:
            raise ValueError(f"generator degree {g.degree} != group degree {degree}")
        if g.images not in seen:
            seen.add(g.images)
            yield g


def _subgroup(
    degree: int, gens: Iterable[Perm], *, order=None, element_set=None, chain=None, source=None
) -> PermGroup:
    """<gens>, made with what is known of it: its order, its element set
    (a frozenset of image tuples, whose size is the order), its chain
    (levels built from gens), or a conjugate's source (see
    `conjugate_subgroup`).  A chain is checked against the order
    (`PermGroup._keep_chain`)."""
    h = PermGroup(degree, gens)
    h._order = order if element_set is None else len(element_set)
    h._element_set, h._source = element_set, source
    if chain is not None:
        h._keep_chain(chain)
    return h


def _from_elements(
    degree: int, elems: Iterable[Perm], stop: int | None = None, element_set=None
) -> PermGroup:
    """<elems> from one chain build over elems, ended once the orbit
    lengths multiply to stop if given: a bound, not a told order, which a
    smaller group never reaches (see `series.o_upper_p`).  element_set,
    if given, goes to `_subgroup` with the chain.

    elems is read lazily, so a stopped build reads no element past the
    one that completed the chain.  The group's gens are the elements
    whose insert changed the chain, so it keeps the chain just built: a
    build from those gens alone gives the same chain (see `_build_chain`).
    """
    levels, used = _build_chain(degree, _distinct(degree, elems), stop)
    return _subgroup(degree, used, element_set=element_set, chain=levels)


def span(degree: int, elems: Iterable[Perm]) -> PermGroup:
    """<elems>, generated by the elements its one chain build used."""
    return _from_elements(degree, elems)


# subgroup operations ------------------------------------------------------

def conjugate_subgroup(h: PermGroup, g: Perm) -> PermGroup:
    """H^g, generated by the conjugates of H's gens.

    H^g has the order of H, so the conjugate knows its order without a
    chain, and a chain built later stops at that order (see
    `PermGroup.chain`).  It keeps H as its source and tests membership
    through it: x is in H^g iff g * x * g^-1 is in H (Holt, Eick and
    O'Brien, Handbook of CGT, ch. 4), one lookup in H's element set or
    one sift in H's chain, which all of H's conjugates share.  A
    conjugate of a conjugate K^s keeps K and s * g, so every test is one
    step from a group that is no conjugate.
    """
    if g.degree != h.degree:
        raise ValueError("degree mismatch")
    source, t = h, g.images
    if h._source is not None:
        source, s, _ = h._source
        t = _compose(s, t)
    gens = [x.conjugate(g) for x in h.gens]
    return _subgroup(h.degree, gens, order=h.order(), source=(source, t, _invert(t)))


def _scan_subgroup(g: PermGroup, keep) -> PermGroup:
    """The subgroup of the elements x of G with keep(x).

    Built like `span` over the members in G's elements() order, but the
    build stops at the known order |members| (see `_build_chain`), which
    leaves the chain unchanged.  The group keeps its member set as the
    set `contains` looks up.
    """
    members = [x for x in g.elements() if keep(x)]
    return _from_elements(g.degree, members, len(members), frozenset(x.images for x in members))


@memoized
def normalizer(g: PermGroup, h: PermGroup) -> PermGroup:
    """N_G(H): the x of G's elements() with H^x = H as a set, in that
    order, so the result (gens and chain too) depends only on H's
    elements; ValueError for an H that is not a subgroup of G.

    The conjugates are counted inside a group M that holds N: for a
    non-abelian H, M = N_G(Z(H)), since Z(H) is characteristic in H and
    so normalized by N_G(H) (Holt, Eick and O'Brien, Handbook of CGT);
    for an abelian H, or when M is G, M is G with G's own gens, not the
    gens kept by N_G(1)'s build.  An H normal in M returns the kept M
    (N_G(P) for the Sylow 2-subgroup P of PSL(2,17) is N_G(Z(P)) = P),
    with no count.  Otherwise the conjugates of H are the orbit of H's
    element set, less the identity, which conjugation fixes, under
    conjugation by M's gens, found breadth first, so |N| is |M| over
    their count.  The search keeps, for each conjugate K, the u with
    H^u = K by which it first reached K, and each edge K -> K^s outside
    the search tree, s a generator of M, gives the Schreier generator
    u * s * v^-1 of N, where H^v = K^s (orbit and stabilizer; Seress,
    Permutation Group Algorithms, 4.1); a tree edge would give 1.  A
    conjugate's set found again is dropped at once, so the search keeps
    alive no more sets than the count needs.  H's gens and
    then these generators feed one chain build, stopped at |N|; a build
    that does not reach |N| raises InvariantError, which checks the count.
    N's element set is listed from that chain.  N itself is built over
    G's elements in order, a member being one lookup in that set, and
    its build stops at |N|, so it reads G only until the members read
    generate N; its chain and gens are those of a build over every
    member (see `_build_chain`).  A returned M was built the same way
    from the same element set, so it is the N this build would give.

    The trivial group (an H with no gens) has N = G, built over all of
    G's elements with G's element set and no conjugates counted, kept on
    G.  A nontrivial H that G's gens conjugate into H is normal, and the
    call returns that N of the trivial group: every normal H shares one
    N = G, and so does `centralizer(G, 1)`.
    """
    if g.degree != h.degree:
        raise ValueError("degree mismatch")
    elems = g.elements()  # first, so an element cap fires as for a full scan
    if not h.is_subgroup_of(g):
        raise ValueError("H is not a subgroup of G")
    if not h.gens:
        return _from_elements(g.degree, elems, g.order(), g.element_set())
    if h.is_normal_in(g):
        return normalizer(g, trivial_group(g.degree))  # one kept N = G per G
    within, count_gens = g, g.gens  # M and the gens the count runs under
    if not is_abelian(h):
        m = normalizer(g, centralizer(h, h))
        if m.order() < g.order():
            if h.is_normal_in(m):
                return m
            within, count_gens = m, m.gens
    # Each generator s as its images and the getter of s^-1, which conjugate
    # an element set as t^s = s^-1 * (t * s).
    by_gen = [(s.images, _getter(s.inverse().images)) for s in count_gens]
    hset = h.element_set() - {_IDENTITY[g.degree]}  # conjugation fixes 1
    reach = {hset: _IDENTITY[g.degree]}  # K -> the u with H^u = K that first reached K
    queue, edges = [hset], []  # edges: (u * s, v) for K -> K^s = H^v outside the tree
    for k in queue:
        u = reach[k]
        for s, s_inv in by_gen:
            us, ks = _compose(u, s), frozenset([s_inv(_compose(t, s)) for t in k])
            v = reach.setdefault(ks, us)
            if v is us:
                queue.append(ks)
            else:
                edges.append((us, v))
    order = within.order() // len(reach)
    gens = itertools.chain(h.gens, _schreier_generators(edges))
    levels, _ = _build_chain(g.degree, gens, order)
    found = prod(len(lvl.transversal) for lvl in levels)
    if found != order:
        name = "G" if within is g else "N_G(Z(H))"
        raise InvariantError(
            f"the Schreier generators of N_G(H) reached order {found}, not |{name}|/{len(reach)}"
        )
    nset = frozenset(_chain_images(g.degree, levels))
    return _from_elements(g.degree, (x for x in elems if x.images in nset), order, nset)


def _schreier_generators(edges: list) -> Iterator[Perm]:
    """u * s * v^-1 for each edge (u * s, v) of `normalizer`'s conjugate
    search, lazily: each fixes H."""
    for us, v in edges:
        yield _perm(_compose(us, _invert(v)))


def centralizer(g: PermGroup, h: PermGroup) -> PermGroup:
    """C_G(H): the x of G's elements() that commute with each of H's
    gens, scanned as `_scan_subgroup` does.  An H with no gens (the
    trivial group) is centralized by all of G, and C_G(1) is the one kept
    N_G(1) = G, which tests no element (see `normalizer`)."""
    if g.degree != h.degree:
        raise ValueError("degree mismatch")
    if not h.gens:
        return normalizer(g, h)

    hgens = [(t.images, _getter(t.images)) for t in h.gens]

    def keep(x: Perm) -> bool:
        # t * x == x * t, composed as t's getter of x and x's getter of t
        xs = x.images
        gx = _getter(xs)
        return all(gt(xs) == gx(t) for t, gt in hgens)

    return _scan_subgroup(g, keep)


def intersection(a: PermGroup, b: PermGroup) -> PermGroup:
    """A ∩ B by enumerating the smaller group."""
    if a.degree != b.degree:
        raise ValueError("degree mismatch")
    small, large = (a, b) if a.order() <= b.order() else (b, a)
    return _scan_subgroup(small, large.contains)


def intersection_order(a: PermGroup, b: PermGroup) -> int:
    """|A ∩ B|, counted over the smaller group's elements, as `intersection`
    scans them, with no group built."""
    if a.degree != b.degree:
        raise ValueError("degree mismatch")
    small, large = (a, b) if a.order() <= b.order() else (b, a)
    return sum(map(large.contains, small.elements()))


def normal_closure(g: PermGroup, seeds: Iterable[Perm]) -> PermGroup:
    """Smallest normal subgroup of G containing the seeds, read once (an
    iterator will do); ValueError for a seed outside G."""
    seeds = tuple(seeds)
    if not all(map(g.contains, seeds)):
        raise ValueError("seed not in ambient group")
    return _closure(g.degree, seeds, g.gens)


def _closure(degree: int, seeds: Sequence[Perm], gens: Sequence[Perm]) -> PermGroup:
    """<seeds> closed under conjugation by gens: the normal closure in <gens>."""
    current = PermGroup(degree, seeds)
    while True:
        new = [c for s in current.gens for x in gens if not current.contains(c := s.conjugate(x))]
        if not new:
            return current
        current = PermGroup(degree, [*current.gens, *new])
        check_cap("normal closure", current.order(), current_caps().element_cap)


def commutator_subgroup(a: PermGroup, b: PermGroup) -> PermGroup:
    """[A, B]: the gens' commutators closed under A's, then B's gens; no
    chain of <A, B> is built."""
    if a.degree != b.degree:
        raise ValueError("degree mismatch")
    comms = [c for x in a.gens for y in b.gens if not (c := commutator(x, y)).is_identity()]
    if not comms:
        return trivial_group(a.degree)
    return _closure(a.degree, comms, tuple(_distinct(a.degree, [*a.gens, *b.gens])))


@memoized
def derived_subgroup(g: PermGroup) -> PermGroup:
    return commutator_subgroup(g, g)


# transversals and coset machinery ----------------------------------------

def _coset_key(h: PermGroup, g: Perm) -> tuple[int, ...]:
    """Images of the canonical element of the right coset Hg (see
    `_coset_key_of_images`)."""
    if g.degree != h.degree:
        raise ValueError("degree mismatch")
    return _coset_key_of_images(h, g.images)


def _coset_key_of_images(h: PermGroup, imgs: tuple[int, ...]) -> tuple[int, ...]:
    """`_coset_key` of the element with these images, of H's degree.

    Walk H's chain; at each level, step to the coset element that sends
    the base point to its smallest possible image.  The elements left
    after a level depend only on the coset, and after the last level one
    element is left.
    """
    for lvl in h.chain:
        y = min(lvl.transversal, key=imgs.__getitem__)
        if y != lvl.base:
            imgs = _compose(lvl.transversal[y], imgs)
    return imgs


class Transversal:
    """Ordered right-coset representatives for H in G.

    The identity comes first; the rest are sorted by image tuple, so a
    given (G, H) pair always yields the same transversal and therefore
    the same raw pretransfer values.  Each rep is filed under its coset
    key (see `_coset_key`), so the rep of any g is one key computation
    and one lookup.  keys, when given, are the reps' coset keys in the
    order of reps, as the coset search has already computed them.  A
    transversal holds H, whose chain its keys come from, but not G, so
    G can keep it (see `right_transversal`).
    """

    def __init__(
        self,
        subgroup: PermGroup,
        reps: list[Perm],
        keys: Iterable[tuple[int, ...]] | None = None,
    ):
        self.subgroup = subgroup
        self.reps = reps
        self._rep_set = {r.images for r in reps}
        if keys is None:
            keys = (_coset_key(subgroup, r) for r in reps)
        self._index = {k: i for i, k in enumerate(keys)}
        if len(self._index) != len(reps):
            raise ValueError("two representatives lie in the same coset")

    def __len__(self) -> int:
        return len(self.reps)

    def __iter__(self) -> Iterator[Perm]:
        return iter(self.reps)

    def index_of(self, g: Perm) -> int:
        """The position in reps of the rep of Hg."""
        if g.degree != self.subgroup.degree:
            raise ValueError("degree mismatch")
        return self._index_of_images(g.images)

    def _index_of_images(self, imgs: tuple[int, ...]) -> int:
        """`index_of` the element with these images, of H's degree."""
        i = self._index.get(_coset_key_of_images(self.subgroup, imgs))
        if i is None:
            raise ValueError("element is not in the parent group")
        return i

    def rep_of(self, g: Perm) -> Perm:
        """The unique rep r with g * r^-1 in H."""
        return self.reps[self.index_of(g)]

    def action(self, g: Perm) -> list[int]:
        """g acting on the cosets: entry i is the index of H reps[i] g."""
        if g.degree != self.subgroup.degree:
            raise ValueError("degree mismatch")
        gs = g.images
        return [self._index_of_images(_compose(r.images, gs)) for r in self.reps]

    def dot(self, t: Perm, g: Perm) -> Perm:
        """The coset rep of H t g (the 'dot action' t.g)."""
        if t.images not in self._rep_set:
            raise ValueError("t is not a listed representative")
        return self.rep_of(t * g)


@memoized
def right_transversal(g: PermGroup, h: PermGroup) -> Transversal:
    """The right transversal of H in G, kept on G.

    The reps are found by a breadth-first search over G's generators that
    keeps the first element found in each coset, so they depend only on
    G's generators and on the partition of G into cosets of H: another
    key function that tells the same cosets apart finds the same reps in
    the same order.  So the reps depend only on H's element set, as the
    memo requires.  The coset keys do depend on H's chain, but the kept
    transversal carries the first call's H as `subgroup`, and every
    lookup walks that same chain, so keys and lookups agree.  When H is
    G itself, the transversal gets a copy of G that shares G's chain,
    since the kept result must not reference G.
    """
    if not h.is_subgroup_of(g):
        raise ValueError("H is not a subgroup of G")
    index = g.order() // h.order()
    check_cap("transversal", index, current_caps().element_cap)
    if h is g:
        h = _subgroup(g.degree, g.gens, chain=g.chain)
    # A coset is new when its key has not been seen.
    by_key = _keyed_orbit(
        Perm.identity(g.degree), g.gens, Perm.__mul__, lambda c: _coset_key(h, c)
    )
    if len(by_key) != index:
        raise InvariantError(f"coset BFS found {len(by_key)} cosets, expected {index}")
    first, *rest = by_key.items()
    ordered = [first] + sorted(rest, key=lambda item: item[1])
    return Transversal(h, [r for _, r in ordered], (k for k, _ in ordered))


# The unkept build, bound here so that a wrapper later put on the public
# name does not bring the memo back (see `QuotientGroup`).
_unkept_right_transversal = right_transversal.__wrapped__


def double_coset_reps(g: PermGroup, h: PermGroup, k: PermGroup) -> list[Perm]:
    """Representatives of the (H, K) double cosets, identity first.

    Computed as orbits of K on the right cosets of H; each orbit rep is
    the transversal element of smallest index, so the output is
    deterministic.
    """
    trans = right_transversal(g, h)
    actions = [trans.action(s) for s in k.gens]
    orbits = _orbits(range(len(trans)), actions, lambda j, act: act[j])
    return [trans.reps[orbit[0]] for orbit in orbits]


# quotients ----------------------------------------------------------------

class QuotientGroup:
    """G/N acting on the right cosets of N; N must be normal in G.

    G/1 is G: a trivial kernel gives image G and no transversal, and the
    maps return their argument (ValueError for one outside G), so no
    caller builds the regular representation of degree |G|.
    """

    def __init__(self, source: PermGroup, kernel: PermGroup):
        if not kernel.is_subgroup_of(source):
            raise ValueError("kernel is not a subgroup of the source")
        if not kernel.is_normal_in(source):
            raise ValueError("kernel is not normal in the source")
        self.source = source
        self.kernel = kernel
        self.transversal: Transversal | None = None
        self.image = source
        if kernel.gens:
            # Unkept: the kernel is often a fresh join whose elements nobody
            # has listed, and the memo key would enumerate them.
            self.transversal = _unkept_right_transversal(source, kernel)
            self.image = PermGroup(
                len(self.transversal.reps), [self._coset_perm(g) for g in source.gens]
            )

    def _coset_perm(self, g: Perm) -> Perm:
        return Perm(self.transversal.action(g))

    def project(self, g: Perm) -> Perm:
        if not self.source.contains(g):
            raise ValueError("element not in the source group")
        return g if self.transversal is None else self._coset_perm(g)

    def project_subgroup(self, h: PermGroup) -> PermGroup:
        gens = [self.project(x) for x in h.gens]
        return h if self.transversal is None else PermGroup(self.image.degree, gens)

    def preimage_subgroup(self, q: PermGroup) -> PermGroup:
        """Full inverse image of a subgroup of the image.

        G/N acts regularly on the cosets of N, so an image element x is the
        action of the one rep that sends coset 0 (N itself) to coset x(0):
        the lift of x is reps[x(0)].  The lifts come in transversal order.
        """
        if self.transversal is None:
            return self.project_subgroup(q)
        reps = self.transversal.reps
        for x in q.gens:
            i = x.images[0]
            if i >= len(reps) or self._coset_perm(reps[i]) != x:
                raise ValueError("subgroup generators not found in the image")
        lifts = [reps[i] for i in sorted({x.images[0] for x in q.gens})]
        return PermGroup(self.source.degree, list(self.kernel.gens) + lifts)


def quotient_group(g: PermGroup, n: PermGroup) -> QuotientGroup:
    return QuotientGroup(g, n)


def core(g: PermGroup, h: PermGroup) -> PermGroup:
    """Core_G(H): H met with one conjugate H^t per right coset of N_G(H),
    as H^{nt} = H^t, until trivial; a normal H is its own core.  For a
    Sylow P, N_G(P)'s kept transversal is the one its family is listed by."""
    if not h.is_subgroup_of(g):
        raise ValueError("H is not a subgroup of G")
    result = h
    for t in right_transversal(g, normalizer(g, h)).reps[1:]:
        result = intersection(result, conjugate_subgroup(h, t))
        if result.is_trivial():
            break
    return result


def _joins_all_cosets(actions: list[list[int]], a: int) -> bool:
    """True iff the finest block system with 0 and a in one block has a
    single block: Atkinson's union-find closure over the generators'
    actions on 0..n-1."""
    n = len(actions[0])
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    parent[a] = 0
    classes = n - 1
    pending = [(0, a)]
    while pending and classes > 1:
        x, y = pending.pop()
        for act in actions:
            u, v = find(act[x]), find(act[y])
            if u != v:
                parent[v] = u
                classes -= 1
                pending.append((u, v))
    return classes == 1


def is_maximal(g: PermGroup, h: PermGroup) -> bool:
    """H is maximal in G iff G acts primitively on the right cosets of H,
    i.e. iff no block system other than the single block joins coset H
    to another coset.

    One coset a per H-orbit on the other cosets is tested: H fixes coset
    0, and for h in H the finest block system joining 0 and a.h is the
    image under h of the one joining 0 and a, so it has as many blocks.
    """
    if h.same_group_as(g):
        raise ValueError("H must be a proper subgroup of G")
    if not h.is_subgroup_of(g):
        raise ValueError("H is not a subgroup of G")
    trans = right_transversal(g, h)
    actions = [trans.action(s) for s in g.gens]
    h_actions = [trans.action(s) for s in h.gens]
    orbits = _orbits(range(1, len(trans)), h_actions, lambda j, act: act[j])
    return all(_joins_all_cosets(actions, orbit[0]) for orbit in orbits)
