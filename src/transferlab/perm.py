"""Permutations of {0..n-1} stored as image tuples.

Composition is left-to-right: (a * b) applies a first, then b.  This
matches the right-coset conventions used everywhere else in the library
(right transversals, the dot action, pretransfer products).

Hot loops (here and in `group`) compose bare image tuples with
`_compose`, or with a `_getter` built once for a factor they reuse, and
wrap a result in a Perm, with `_perm`, only when it leaves the loop.
`_perm` skips the check that `Perm(...)` makes on outside input: the
composite or inverse of valid permutations of one degree is again one,
so only such products may be wrapped unchecked.
"""

from __future__ import annotations

import itertools
from math import lcm
from operator import itemgetter
from typing import Iterable, Iterator

_new = object.__new__


def _compose(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """The image tuple of a then b: entry i is b[a[i]].

    a and b must be image tuples of permutations of one degree; nothing
    is checked, so callers holding outside input check the degrees first.
    """
    # itemgetter with one index returns a bare item; degree <= 1 has only
    # the identity, so the product is b.
    return itemgetter(*a)(b) if len(a) > 1 else b


def _same(b: tuple[int, ...]) -> tuple[int, ...]:
    return b


def _getter(a: tuple[int, ...]):
    """The function b -> _compose(a, b), to apply a to many b.

    A loop that composes one a with many tuples builds this once instead
    of an itemgetter per product.  At degree <= 1 it returns b, as
    `_compose` does.
    """
    return itemgetter(*a) if len(a) > 1 else _same


def _invert(a: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(a)
    for i, x in enumerate(a):
        inv[x] = i
    return tuple(inv)


class _Identities(dict):
    """degree -> the image tuple of the identity, each built once."""

    def __missing__(self, degree: int) -> tuple[int, ...]:
        ident = self[degree] = tuple(range(degree))
        return ident


_IDENTITY = _Identities()


def _perm(images: tuple[int, ...]) -> "Perm":
    """A Perm of an image tuple that is already known to be a permutation."""
    p = _new(Perm)
    p.images = images
    p._inverse = None
    return p


class Perm:
    """A bijection of {0..degree-1}, immutable and hashable.

    The inverse is computed once, on the first `inverse()` call, and kept
    in the `_inverse` slot.  The kept inverse does not point back at its
    Perm: a Perm and its inverse would otherwise form a reference cycle,
    which only the cyclic garbage collector could free.
    """

    __slots__ = ("images", "_inverse")

    def __init__(self, images: Iterable[int]):
        imgs = tuple(images)
        if sorted(imgs) != list(range(len(imgs))):
            raise ValueError(f"not a permutation of 0..{len(imgs) - 1}: {imgs!r}")
        self.images = imgs
        self._inverse = None

    # construction helpers -------------------------------------------------

    @staticmethod
    def identity(degree: int) -> "Perm":
        return _perm(_IDENTITY[degree])

    @staticmethod
    def from_cycles(degree: int, cycles: Iterable[Iterable[int]]) -> "Perm":
        """The product of disjoint cycles; ValueError for a point out of
        range or met twice, in one cycle or across two."""
        imgs = list(range(degree))
        placed: set[int] = set()
        for cycle in cycles:
            pts = list(cycle)
            for a, b in zip(pts, pts[1:] + pts[:1]):
                if not 0 <= a < degree:
                    raise ValueError(f"point {a} out of range for degree {degree}")
                if a in placed:
                    raise ValueError(f"repeated point {a} in the cycles")
                placed.add(a)
                imgs[a] = b
        return Perm(imgs)

    @staticmethod
    def transposition(degree: int, a: int, b: int) -> "Perm":
        return Perm.from_cycles(degree, [(a, b)])

    # core operations ------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.images)

    def __mul__(self, other: "Perm") -> "Perm":
        a, b = self.images, other.images
        if len(a) != len(b):
            raise ValueError("degree mismatch in composition")
        return _perm(_compose(a, b))

    def inverse(self) -> "Perm":
        inv = self._inverse
        if inv is None:
            inv = self._inverse = _perm(_invert(self.images))
        return inv

    def __pow__(self, n: int) -> "Perm":
        if n < 0:
            return self.inverse() ** (-n)
        result = Perm.identity(self.degree)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def conjugate(self, g: "Perm") -> "Perm":
        """self^g = g^-1 * self * g."""
        if len(g.images) != len(self.images):
            raise ValueError("degree mismatch in composition")
        return _perm(_compose(_compose(g.inverse().images, self.images), g.images))

    def __call__(self, point: int) -> int:
        return self.images[point]

    def is_identity(self) -> bool:
        return self.images == _IDENTITY[len(self.images)]

    def order(self) -> int:
        """The lcm of the cycle lengths, from one pass over the images."""
        imgs = self.images
        seen = bytearray(len(imgs))
        n = 1
        for i, x in enumerate(imgs):
            if seen[i] or x == i:
                continue
            k = 1
            while x != i:
                seen[x] = 1
                x = imgs[x]
                k += 1
            n = lcm(n, k)
        return n

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each starting at its smallest point."""
        seen = set()
        out = []
        for i in range(self.degree):
            if i in seen or self.images[i] == i:
                continue
            cycle = [i]
            j = self.images[i]
            while j != i:
                seen.add(j)
                cycle.append(j)
                j = self.images[j]
            out.append(tuple(cycle))
        return out

    def smallest_moved_point(self) -> int | None:
        for i, x in enumerate(self.images):
            if x != i:
                return i
        return None

    # dunder plumbing ------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Perm) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __lt__(self, other: "Perm") -> bool:
        return self.images < other.images

    def __repr__(self) -> str:
        return f"Perm({list(self.images)})"

    def __str__(self) -> str:
        cyc = self.cycles()
        if not cyc:
            return "()"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in cyc)


def commutator(a: Perm, b: Perm) -> Perm:
    """[a, b] = a^-1 b^-1 a b."""
    if len(a.images) != len(b.images):
        raise ValueError("degree mismatch in composition")
    ai, bi = a.inverse().images, b.inverse().images
    return _perm(_compose(_compose(_compose(ai, bi), a.images), b.images))


def parse_cycles(text: str, degree: int) -> Perm:
    """Parse cycle notation like "(0 1 2)(3 4)" into a Perm.

    Accepts comma or whitespace separated points; "()" and "e" mean the
    identity.
    """
    s = text.strip()
    if s in ("()", "e", ""):
        return Perm.identity(degree)
    if s.count("(") != s.count(")") or not s.startswith("("):
        raise ValueError(f"bad cycle notation: {text!r}")
    cycles = []
    for chunk in s.replace(")", ")\n").split("\n"):
        chunk = chunk.strip()
        if not chunk:
            continue
        body = chunk.strip("()").replace(",", " ")
        pts = [int(tok) for tok in body.split()]
        if pts:
            cycles.append(pts)
    return Perm.from_cycles(degree, cycles)


def all_perms(degree: int) -> Iterator[Perm]:
    """Every permutation of the given degree (use only for tiny degrees)."""
    for imgs in itertools.permutations(range(degree)):
        yield _perm(imgs)
