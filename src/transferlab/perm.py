"""Permutations of {0..n-1} stored as their images.

Composition is left-to-right: (a * b) applies a first, then b.  This
matches the right-coset conventions used everywhere else in the library
(right transversals, the dot action, pretransfer products).

A permutation of degree n <= 256 keeps its images as `bytes`: entry i is
the image of i.  The product a * b is `a.translate(b + _PAD[n])`, the
gather b[a[i]] done in C, and a `bytes` object computes its hash once,
so element sets and memo keys look images up cheaply.  At one length,
`bytes` compare and sort as the tuples of their ints do.  A wider
permutation keeps a `_Wide` tuple, whose `translate` gathers through an
itemgetter, and whose pad is empty; so the one product `_compose` serves
every degree.  `_images` turns outside input into the degree's type,
and every image sequence of the library comes from it, from `_IDENTITY`
or from the kernel below.

Hot loops (here and in `group` and `iso`) compose bare images with
`_compose`, with a `_getter` built once for a left factor they reuse, or
with the `_table_of` of a right factor they reuse, and wrap a result in a
Perm, with `_perm`, only when it leaves the loop.  `_perm` skips the
check that `Perm(...)` makes on outside input: the composite or inverse
of valid permutations of one degree is again one, so only such products
may be wrapped unchecked.
"""

from __future__ import annotations

import itertools
import re
from math import lcm
from operator import itemgetter
from typing import Iterable, Iterator, Sequence, Union

_new = object.__new__

# The degree up to which images are bytes: a translate table has 256 entries.
_NARROW = 256


class _Wide(tuple):
    """The images of a permutation of degree above 256: a tuple of ints
    with the one `bytes` method the kernel uses."""

    __slots__ = ()

    def translate(self, table) -> "_Wide":
        """Entry i is table[self[i]], as `bytes.translate` gives."""
        return _Wide(itemgetter(*self)(table))


Images = Union[bytes, _Wide]

# _PAD[n] completes the images of degree n to a 256-entry translate table:
# the points n..255, which no image of degree n reaches.  A wide degree's
# pad is empty (see `_Identities`).
_PAD: list = [bytes(range(n, _NARROW)) for n in range(_NARROW + 1)]


def _compose(a: Images, b: Images) -> Images:
    """The images of a then b: entry i is b[a[i]].

    a and b must be images of permutations of one degree; nothing is
    checked, so callers holding outside input check the degrees first.
    """
    return a.translate(b + _PAD[len(b)])


def _table_of(b: Images):
    """The translate table of b: `a.translate(_table_of(b))` is
    `_compose(a, b)`, for a loop that reuses the right factor b."""
    return b + _PAD[len(b)]


def _getter(a: Images):
    """The function b -> _compose(a, b), to apply a to many b."""
    translate, pad = a.translate, _PAD[len(a)]
    return lambda b: translate(b + pad)


def _invert(a: Images) -> Images:
    n = len(a)
    if n <= _NARROW:
        # maketrans scatters: its table sends a[i] to i.
        return bytes.maketrans(a, _IDENTITY[n])[:n]
    inv = [0] * n
    for i, x in enumerate(a):
        inv[x] = i
    return _Wide(inv)


class _Identities(dict):
    """degree -> the images of the identity, each built once.  A wide
    degree's first identity extends `_PAD` to it with empty pads."""

    def __missing__(self, degree: int) -> Images:
        if degree <= _NARROW:
            ident = bytes(range(degree))
        else:
            _PAD.extend([()] * (degree + 1 - len(_PAD)))
            ident = _Wide(range(degree))
        self[degree] = ident
        return ident


_IDENTITY = _Identities()


def _images(points: Sequence[int]) -> Images:
    """points as the image type of their degree; nothing is checked."""
    if len(points) <= _NARROW:
        return bytes(points)
    _IDENTITY[len(points)]  # extends _PAD to this degree
    return _Wide(points)


def _perm(images: Images) -> "Perm":
    """A Perm of images that are already known to be a permutation."""
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
        self.images = _images(imgs)
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


# A product of cycles, each of points split by commas or whitespace; the
# cycles may be split by whitespace too.
_CYCLE_NOTATION = re.compile(r"(\(\s*\d+([\s,]+\d+)*\s*\)\s*)+", re.ASCII)
_CYCLE = re.compile(r"\(([^)]*)\)")


def parse_cycles(text: str, degree: int) -> Perm:
    """Parse cycle notation like "(0 1 2)(3 4)" into a Perm.

    Accepts comma or whitespace separated points; "()", "e" and "" mean
    the identity.  Any other text must be a product of cycles, each of
    one or more points, or ValueError("bad cycle notation ...").
    """
    s = text.strip()
    if s in ("()", "e", ""):
        return Perm.identity(degree)
    if not _CYCLE_NOTATION.fullmatch(s):
        raise ValueError(f"bad cycle notation: {text!r}")
    cycles = [[int(tok) for tok in body.replace(",", " ").split()] for body in _CYCLE.findall(s)]
    return Perm.from_cycles(degree, cycles)


def all_perms(degree: int) -> Iterator[Perm]:
    """Every permutation of the given degree (use only for tiny degrees)."""
    for imgs in itertools.permutations(range(degree)):
        yield _perm(_images(imgs))
