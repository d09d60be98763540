"""Pins the subgroups found by scanning elements, and checks how they
are built.

N_G(P), C_G(P) and P cap G' are scanned subgroups: a filter over the
elements of a group.  Each keeps as generators only the members its chain
build used, and the build stops once the orbit lengths reach the known
order.  Neither may change the chain: base points, level generators,
transversals and elements() order must be those of a build from every
member with no early exit.  The digests (first 16 hex digits of
test_chain_pin.chain_digest) were taken while scanned subgroups still kept
every member as a generator.
"""

import pytest

from test_chain_pin import chain_digest
from transferlab.catalog import default_corpus
from transferlab.group import (
    PermGroup,
    _build_chain,
    centralizer,
    derived_subgroup,
    intersection,
    normalizer,
)
from transferlab.iso import prime_divisors
from transferlab.sylow import sylow_subgroup

# "<label>-p<prime>": (N_G(P), C_G(P), P cap G')
PINNED = {
    "S2-p2": ("f09220afcc63e69c", "f09220afcc63e69c", "33e32926e3d7687d"),
    "S3-p2": ("05492c222dc9687d", "05492c222dc9687d", "e43eb6be9546415b"),
    "S3-p3": ("c12bdf9ca8d68a26", "982a4ed0b8554046", "982a4ed0b8554046"),
    "S4-p2": ("7ae197bf9e346543", "98d2ff32e09a64b7", "3c7c2d9c131569bc"),
    "S4-p3": ("34b5f87d3d93af7a", "a7ff77f2f3fbf08e", "a7ff77f2f3fbf08e"),
    "S5-p2": ("725786c2d54a75a1", "aa0cd0555be93a6e", "f0ee25cb287166e6"),
    "S5-p3": ("2147e27db3db0cb0", "a54b1da958dffaba", "1d7366c81273f6b0"),
    "S5-p5": ("46da3ae620e9c036", "51ea000ade871b91", "51ea000ade871b91"),
    "S6-p2": ("917c471fff99715c", "d93717066dcc8fb8", "61884086ae525abf"),
    "S6-p3": ("e37d9131e4eaf15c", "5573d629f75791e2", "98284a9a0fc6139e"),
    "S6-p5": ("7188e7f83860ca36", "0c601229888c3573", "0c601229888c3573"),
    "A3-p3": ("982a4ed0b8554046", "982a4ed0b8554046", "e43eb6be9546415b"),
    "A4-p2": ("340e5910c2c0dfc6", "3c7c2d9c131569bc", "3c7c2d9c131569bc"),
    "A4-p3": ("a7ff77f2f3fbf08e", "a7ff77f2f3fbf08e", "f186e5328ad3f45b"),
    "A5-p2": ("56e31c632d0f70af", "d1fd798833d5c565", "d1fd798833d5c565"),
    "A5-p3": ("17476e5a5ac80d9e", "8db68057c9caaee5", "8db68057c9caaee5"),
    "A5-p5": ("297f68b6be685a81", "474b3a5728de48c5", "474b3a5728de48c5"),
    "A6-p2": ("0e3525f1fade40e4", "911adc23b92f0ecf", "2adb3352b7de1f88"),
    "A6-p3": ("1073346628aed081", "5573d629f75791e2", "98284a9a0fc6139e"),
    "A6-p5": ("0b59b95b6e18ef9c", "0c601229888c3573", "0c601229888c3573"),
    "C2-p2": ("f09220afcc63e69c", "f09220afcc63e69c", "33e32926e3d7687d"),
    "C3-p3": ("982a4ed0b8554046", "982a4ed0b8554046", "e43eb6be9546415b"),
    "C4-p2": ("980bb935fd7db28a", "980bb935fd7db28a", "f186e5328ad3f45b"),
    "C5-p5": ("51ea000ade871b91", "51ea000ade871b91", "21bf56c78cc5b8c6"),
    "C6-p2": ("f43667bd663edfc1", "f43667bd663edfc1", "0b10c57ce6d31ed7"),
    "C6-p3": ("f43667bd663edfc1", "f43667bd663edfc1", "0b10c57ce6d31ed7"),
    "C8-p2": ("28d2feb8a5e9610a", "28d2feb8a5e9610a", "f7f6f8d0a7002405"),
    "C9-p3": ("a42e1125f4678d36", "a42e1125f4678d36", "13829605d87a9a69"),
    "C12-p2": ("aca863e378a72ec4", "aca863e378a72ec4", "aea9f3e08053e9d8"),
    "C12-p3": ("aca863e378a72ec4", "aca863e378a72ec4", "aea9f3e08053e9d8"),
    "D6-p2": ("05492c222dc9687d", "05492c222dc9687d", "e43eb6be9546415b"),
    "D6-p3": ("d67b06e38b167a82", "982a4ed0b8554046", "982a4ed0b8554046"),
    "D8-p2": ("4bd819ef06281d1c", "9ef065b774c156db", "9ef065b774c156db"),
    "D10-p2": ("ab4b3cc020e2a714", "ab4b3cc020e2a714", "21bf56c78cc5b8c6"),
    "D10-p5": ("ad34b1bd7baf5ed1", "51ea000ade871b91", "51ea000ade871b91"),
    "D12-p2": ("7174868240e8f3aa", "7174868240e8f3aa", "0b10c57ce6d31ed7"),
    "D12-p3": ("49e192a913803ce6", "f43667bd663edfc1", "ad406fa1263f7999"),
    "D16-p2": ("eb429b1c64a8af74", "c8fce9ee9d4bc4f9", "6603aa1210854675"),
    "Q8-p2": ("46b4bdadb804cfe7", "6ed4ccbcec560b47", "6ed4ccbcec560b47"),
    "Q16-p2": ("e3c8c4f558afb005", "3801e3d42b9b5be3", "4bb4c5af5bfb34d1"),
    "Q32-p2": ("3c2f94e871249e1b", "d6802080f563a857", "b3b0cf80d64d28b3"),
    "E2^2-p2": ("92d2ac86a70d1b02", "92d2ac86a70d1b02", "f186e5328ad3f45b"),
    "E2^3-p2": ("880f370efbfe74d5", "880f370efbfe74d5", "0b10c57ce6d31ed7"),
    "E3^2-p3": ("5573d629f75791e2", "5573d629f75791e2", "0b10c57ce6d31ed7"),
    "E5^2-p5": ("ce7d127a80295d6b", "ce7d127a80295d6b", "df2077ea619fc47c"),
    "Z2wrZ2-p2": ("7ae197bf9e346543", "98d2ff32e09a64b7", "98d2ff32e09a64b7"),
    "Z3wrZ3-p3": ("3e24eec2086340f9", "92f7e51cae31733c", "3a9f80045a8cfa8b"),
    "PSL(2,5)-p2": ("fad5389d5cb6f628", "25d2b1dbe641b019", "48e0d4514cefbef9"),
    "PSL(2,5)-p3": ("a49d746e7fd4660b", "6f3432cb47ae52e6", "6f3432cb47ae52e6"),
    "PSL(2,5)-p5": ("2bfd4e09c1f8ee35", "3bb7bc81bccd04e8", "3bb7bc81bccd04e8"),
    "PSL(2,7)-p2": ("02ea611d64064839", "5bee5049d7ad0ee7", "02ea611d64064839"),
    "PSL(2,7)-p3": ("06a045b72357a4fc", "9b96ce6a5576af4a", "9b96ce6a5576af4a"),
    "PSL(2,7)-p7": ("513b2ff52c8aa9ee", "40b41c8a3f2b0afa", "40b41c8a3f2b0afa"),
    "PSL(2,17)-p2": ("170e6e92ec939c01", "e658be0cc5aba02e", "08b6416faf20cc29"),
    "PSL(2,17)-p3": ("313761cc88b1c5f5", "8cdf6b0cf33971e4", "8cdf6b0cf33971e4"),
    "PSL(2,17)-p17": ("81020cecb4d5d454", "4acbe7f0f255a752", "4acbe7f0f255a752"),
    "SL(2,3)-p2": ("30e4f71eac790aea", "a8b214facb270f8c", "f219ca846d537370"),
    "SL(2,3)-p3": ("575846389bf27612", "575846389bf27612", "f7f6f8d0a7002405"),
    "C2xC4-p2": ("725767b2368f2005", "725767b2368f2005", "0b10c57ce6d31ed7"),
    "C2xD8-p2": ("604765c32256484b", "4cc541bb2da426eb", "e526693cc094d204"),
    "C2xQ8-p2": ("cad19f4d5b20ba35", "a6bb8d6ebdb10ef9", "00ed0eb89442dfdb"),
    "S3xS3-p2": ("3140b59a11d23f65", "3140b59a11d23f65", "0b10c57ce6d31ed7"),
    "S3xS3-p3": ("595a14de0d8257f1", "5573d629f75791e2", "98284a9a0fc6139e"),
    "A4xC2-p2": ("d1b124a8b325058e", "da2c4ce0c22e3540", "db7c273577dc3812"),
    "A4xC2-p3": ("8ec1c757b376e049", "8ec1c757b376e049", "0b10c57ce6d31ed7"),
    "D6xC3-p2": ("0e74a32fc666c7f5", "0e74a32fc666c7f5", "0b10c57ce6d31ed7"),
    "D6xC3-p3": ("5d3c1982cd8b7699", "5573d629f75791e2", "5ac5b2e95bee4dac"),
    "C3xC9-p3": ("eed973029039dfb1", "eed973029039dfb1", "aea9f3e08053e9d8"),
}

PAIRS = [(e, p) for e in default_corpus() for p in prime_divisors(e.build().order())]


def _pair_id(pair) -> str:
    entry, p = pair
    return f"{entry.label}-p{p}"


def _scans(g: PermGroup, p: int):
    """Each scanned subgroup beside its members, listed in the order the
    scan meets them and found here by the defining property."""
    p_syl = sylow_subgroup(g, p)
    derived = derived_subgroup(g)
    pset, dset = p_syl.element_set(), derived.element_set()
    small, large = (p_syl, dset) if p_syl.order() <= derived.order() else (derived, pset)
    normalizing = [
        x for x in g.elements() if all(t.conjugate(x).images in pset for t in p_syl.gens)
    ]
    centralizing = [x for x in g.elements() if all(t * x == x * t for t in p_syl.gens)]
    common = [x for x in small.elements() if x.images in large]
    return [
        (normalizer(g, p_syl), normalizing),
        (centralizer(g, p_syl), centralizing),
        (intersection(p_syl, derived), common),
    ]


def _levels(chain):
    return [
        (
            lvl.base,
            [s.images for s in lvl.gens],
            list(lvl.transversal.items()),
            list(lvl.inverses.items()),
        )
        for lvl in chain
    ]


def test_pin_covers_every_pair():
    assert sorted(PINNED) == sorted(_pair_id(pair) for pair in PAIRS)


@pytest.mark.parametrize("pair", PAIRS, ids=_pair_id)
def test_scanned_chain_digest_pinned(pair):
    entry, p = pair
    digests = tuple(chain_digest(h)[:16] for h, _ in _scans(entry.build(), p))
    assert digests == PINNED[_pair_id(pair)]


@pytest.mark.parametrize("pair", PAIRS, ids=_pair_id)
def test_scanned_group_matches_full_build(pair):
    entry, p = pair
    for h, members in _scans(entry.build(), p):
        levels, used = _build_chain(h.degree, members)
        assert _levels(h.chain) == _levels(levels)
        assert [x.images for x in h.gens] == [x.images for x in used]
        assert h._element_set == frozenset(x.images for x in members)
        assert h.order() == len(members)
        assert PermGroup(h.degree, h.gens).element_set() == h._element_set
