"""Built-in group constructors, the default corpus, and catalog files.

Catalog files are line-delimited JSON records with explicit 0-indexed
image arrays.  The command line names a group by catalog label or by a
builtin spec such as "psl2:17".
"""

from __future__ import annotations

import inspect
import json
from dataclasses import dataclass, field
from typing import Callable

from .group import InvariantError, PermGroup
from .iso import is_prime_divisor
from .perm import Perm


def _checked_order(g: PermGroup, order: int) -> PermGroup:
    """g itself, after checking that a construction reached its stated order."""
    if g.order() != order:
        raise InvariantError(f"{g.name} has order {g.order()}, expected {order}")
    return g


# built-in constructors ------------------------------------------------------


def symmetric(n: int) -> PermGroup:
    if n < 1:
        raise ValueError("need n >= 1")
    if n == 1:
        return PermGroup(1, [], name="S1")
    gens = [Perm.transposition(n, 0, 1), Perm.from_cycles(n, [range(n)])]
    return PermGroup(n, gens, name=f"S{n}")


def alternating(n: int) -> PermGroup:
    if n < 3:
        raise ValueError("need n >= 3")
    three = Perm.from_cycles(n, [(0, 1, 2)])
    if n % 2 == 1:
        big = Perm.from_cycles(n, [range(n)])
    else:
        big = Perm.from_cycles(n, [range(1, n)])
    return PermGroup(n, [three, big], name=f"A{n}")


def cyclic(n: int) -> PermGroup:
    if n < 1:
        raise ValueError("need n >= 1")
    if n == 1:
        return PermGroup(1, [], name="C1")
    return PermGroup(n, [Perm.from_cycles(n, [range(n)])], name=f"C{n}")


def dihedral(order: int) -> PermGroup:
    """The dihedral group of the given (even, >= 4) order, on order/2 points."""
    if order < 4 or order % 2:
        raise ValueError("dihedral order must be an even number >= 4")
    n = order // 2
    rot = Perm.from_cycles(n, [range(n)])
    flip = Perm([(n - i) % n for i in range(n)])
    return PermGroup(n, [rot, flip], name=f"D{order}")


def generalized_quaternion(order: int) -> PermGroup:
    """Q_{2^n} in its regular representation; the unique-involution
    property is verified on construction."""
    if order < 8 or order & (order - 1):
        raise ValueError("generalized quaternion order must be 2^n >= 8")
    half = order // 2
    # Points are a^i b^j with 0 <= i < half, j in {0, 1}; right
    # multiplication by a and b gives the regular action, using
    # b^2 = a^{half/2} and a^i b = b a^{-i}.
    def idx(i: int, j: int) -> int:
        return j * half + i

    a_imgs = [0] * order
    b_imgs = [0] * order
    for j in range(2):
        for i in range(half):
            a_imgs[idx(i, j)] = idx((i + (1 if j == 0 else -1)) % half, j)
    for i in range(half):
        b_imgs[idx(i, 0)] = idx(i, 1)
        b_imgs[idx(i, 1)] = idx((i + half // 2) % half, 0)
    g = PermGroup(order, [Perm(a_imgs), Perm(b_imgs)], name=f"Q{order}")
    _checked_order(g, order)
    involutions = [x for x in g.elements() if x.order() == 2]
    if len(involutions) != 1:
        raise InvariantError("generalized quaternion must have a unique involution")
    return g


def elementary_abelian(p: int, k: int) -> PermGroup:
    if not is_prime_divisor(p, p) or k < 1:
        raise ValueError("need a prime p and k >= 1")
    gens = []
    degree = p * k
    for i in range(k):
        gens.append(Perm.from_cycles(degree, [range(i * p, (i + 1) * p)]))
    return PermGroup(degree, gens, name=f"E{p}^{k}")


def direct_product(a: PermGroup, b: PermGroup, name: str | None = None) -> PermGroup:
    degree = a.degree + b.degree
    gens = [Perm(list(g.images) + list(range(a.degree, degree))) for g in a.gens]
    gens += [Perm(list(range(a.degree)) + [x + a.degree for x in g.images]) for g in b.gens]
    label = name or f"{a.name}x{b.name}"
    return PermGroup(degree, gens, name=label)


def wreath_cyclic(p: int) -> PermGroup:
    """Z_p wr Z_p in its imprimitive action on p^2 points; order p^(p+1)."""
    degree = p * p
    base = Perm.from_cycles(degree, [range(p)])
    top = Perm([(i + p) % degree for i in range(degree)])
    g = PermGroup(degree, [base, top], name=f"Z{p}wrZ{p}")
    return _checked_order(g, p ** (p + 1))


def psl2(q: int) -> PermGroup:
    """PSL(2, q) for an odd prime q, acting on the q+1 projective points.

    Points 0..q-1 are the affine line, point q is infinity; generators
    are the Mobius maps z -> z+1 and z -> z/(z+1).
    """
    if q < 3 or not is_prime_divisor(q, q):
        raise ValueError("q must be an odd prime")
    inf = q

    def mobius(a: int, b: int, c: int, d: int) -> Perm:
        imgs = []
        for z in range(q + 1):
            if z == inf:
                imgs.append((a * pow(c, -1, q)) % q if c % q else inf)
                continue
            num, den = (a * z + b) % q, (c * z + d) % q
            imgs.append((num * pow(den, -1, q)) % q if den else inf)
        return Perm(imgs)

    g = PermGroup(q + 1, [mobius(1, 1, 0, 1), mobius(1, 0, 1, 1)], name=f"PSL(2,{q})")
    return _checked_order(g, q * (q * q - 1) // 2)


def sl23() -> PermGroup:
    """SL(2, 3) acting on the 8 nonzero vectors of F_3^2."""
    vectors = [(x, y) for x in range(3) for y in range(3) if (x, y) != (0, 0)]
    index = {v: i for i, v in enumerate(vectors)}

    def action(a: int, b: int, c: int, d: int) -> Perm:
        return Perm(
            index[((a * x + c * y) % 3, (b * x + d * y) % 3)] for x, y in vectors
        )

    g = PermGroup(8, [action(1, 1, 0, 1), action(1, 0, 1, 1)], name="SL(2,3)")
    return _checked_order(g, 24)


_BUILTINS = {
    "symmetric": (symmetric, "symmetric n: S_n on n points"),
    "alternating": (alternating, "alternating n: A_n on n points"),
    "cyclic": (cyclic, "cyclic n: Z_n"),
    "dihedral": (dihedral, "dihedral m: dihedral group of order m (m even)"),
    "generalized_quaternion": (
        generalized_quaternion,
        "generalized_quaternion m: Q_m of order m = 2^n, regular representation",
    ),
    "elementary_abelian": (elementary_abelian, "elementary_abelian p k: (Z_p)^k"),
    "wreath_cyclic": (wreath_cyclic, "wreath_cyclic p: Z_p wr Z_p on p^2 points"),
    "psl2": (psl2, "psl2 q: PSL(2,q) on q+1 points, q an odd prime"),
    "sl23": (sl23, "sl23: SL(2,3) on the 8 nonzero vectors of F_3^2"),
}


def builtin_names() -> list[tuple[str, str]]:
    return [(name, desc) for name, (_, desc) in sorted(_BUILTINS.items())]


def builtin_group(name: str, *args: int) -> PermGroup:
    if name not in _BUILTINS:
        raise ValueError(f"unknown builtin: {name}")
    ctor, usage = _BUILTINS[name]
    try:
        inspect.signature(ctor).bind(*args)
    except TypeError:
        raise ValueError(f"wrong number of parameters for {name}; usage: {usage}") from None
    return ctor(*args)


# catalog entries and files --------------------------------------------------


@dataclass
class CatalogEntry:
    label: str
    degree: int
    generators: list[list[int]]
    tags: list[str] = field(default_factory=list)
    annotations: dict = field(default_factory=dict)
    expected_order: int | None = None

    def build(self) -> PermGroup:
        gens = [Perm(images) for images in self.generators]
        group = PermGroup(self.degree, gens, name=self.label)
        if self.expected_order is not None and group.order() != self.expected_order:
            raise ValueError(
                f"{self.label}: order {group.order()} != expected {self.expected_order}"
            )
        return group

    def to_json(self) -> str:
        record = {"label": self.label, "degree": self.degree, "generators": self.generators}
        if self.tags:
            record["tags"] = self.tags
        if self.annotations:
            record["annotations"] = self.annotations
        if self.expected_order is not None:
            record["expected_order"] = self.expected_order
        return json.dumps(record, sort_keys=True)


def entry_for(group: PermGroup, tags: list[str] | None = None) -> CatalogEntry:
    return CatalogEntry(
        label=group.name or "unnamed",
        degree=group.degree,
        generators=[list(g.images) for g in group.gens],
        tags=tags or [],
        expected_order=group.order(),
    )


def _is_int(x) -> bool:
    return type(x) is int  # not bool, which JSON true/false parse to


# field -> (type test, what it asks for); tags and annotations are only copied
_FIELD_TYPES = {
    "label": (lambda v: isinstance(v, str) and v != "", "a non-empty string"),
    "degree": (_is_int, "an integer"),
    "generators": (
        lambda v: isinstance(v, list)
        and all(isinstance(g, list) and all(map(_is_int, g)) for g in v),
        "a list of lists of integers",
    ),
    "expected_order": (lambda v: v is None or _is_int(v), "an integer"),
}


def load_catalog(path: str) -> list[CatalogEntry]:
    """The entries of a JSONL catalog; a bad record or a label that repeats
    an earlier one raises ValueError naming its line."""
    entries = []
    lines_by_label: dict[str, int] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                record = json.loads(line)
                if not isinstance(record, dict):
                    raise ValueError("a record must be a JSON object")
                entry = CatalogEntry(
                    label=record["label"],
                    degree=record["degree"],
                    generators=record["generators"],
                    tags=record.get("tags", []),
                    annotations=record.get("annotations", {}),
                    expected_order=record.get("expected_order"),
                )
                for name, (ok, kind) in _FIELD_TYPES.items():
                    if not ok(getattr(entry, name)):
                        raise ValueError(f"{name} must be {kind}")
                entry.build()
            except (KeyError, ValueError, json.JSONDecodeError) as exc:
                raise ValueError(f"{path}:{lineno}: bad catalog entry: {exc}") from exc
            first = lines_by_label.setdefault(entry.label, lineno)
            if first != lineno:
                raise ValueError(
                    f"{path}:{lineno}: duplicate label {entry.label!r} (first on line {first})"
                )
            entries.append(entry)
    return entries


def save_catalog(entries: list[CatalogEntry], path: str) -> None:
    with open(path, "w") as fh:
        for entry in entries:
            fh.write(entry.to_json() + "\n")


# The shipped corpus in order: (label, constructor).  A group is built
# only when its constructor is called, so a label lookup builds one group.
_CORPUS: tuple[tuple[str, Callable[[], PermGroup]], ...] = (
    *((f"S{n}", lambda n=n: symmetric(n)) for n in range(2, 7)),
    *((f"A{n}", lambda n=n: alternating(n)) for n in range(3, 7)),
    *((f"C{n}", lambda n=n: cyclic(n)) for n in (2, 3, 4, 5, 6, 8, 9, 12)),
    *((f"D{m}", lambda m=m: dihedral(m)) for m in (6, 8, 10, 12, 16)),
    *((f"Q{m}", lambda m=m: generalized_quaternion(m)) for m in (8, 16, 32)),
    *((f"E{p}^{k}", lambda p=p, k=k: elementary_abelian(p, k))
      for p, k in ((2, 2), (2, 3), (3, 2), (5, 2))),
    *((f"Z{p}wrZ{p}", lambda p=p: wreath_cyclic(p)) for p in (2, 3)),
    *((f"PSL(2,{q})", lambda q=q: psl2(q)) for q in (5, 7, 17)),
    ("SL(2,3)", lambda: sl23()),
    ("C2xC4", lambda: direct_product(cyclic(2), cyclic(4))),
    ("C2xD8", lambda: direct_product(cyclic(2), dihedral(8))),
    ("C2xQ8", lambda: direct_product(cyclic(2), generalized_quaternion(8))),
    ("S3xS3", lambda: direct_product(symmetric(3), symmetric(3))),
    ("A4xC2", lambda: direct_product(alternating(4), cyclic(2))),
    ("D6xC3", lambda: direct_product(dihedral(6), cyclic(3))),
    ("C3xC9", lambda: direct_product(cyclic(3), cyclic(9))),
)


def _corpus_build(label: str, ctor: Callable[[], PermGroup]) -> PermGroup:
    g = ctor()
    if g.name != label:
        raise InvariantError(f"corpus entry {label!r} builds a group named {g.name!r}")
    return g


def corpus_group(label: str) -> PermGroup | None:
    """The default-corpus group with this label, built alone (no other
    corpus group is built); None when no entry has the label."""
    ctor = dict(_CORPUS).get(label)
    return None if ctor is None else _corpus_build(label, ctor)


def default_corpus() -> list[CatalogEntry]:
    """The shipped corpus: 40+ groups of order up to 2448."""
    entries = [
        entry_for(_corpus_build(label, ctor), tags=["builtin"]) for label, ctor in _CORPUS
    ]
    labels = [e.label for e in entries]
    if len(labels) != len(set(labels)):
        raise InvariantError("corpus labels must be unique")
    if len(entries) < 40:
        raise InvariantError(f"the default corpus has only {len(entries)} groups")
    return entries
