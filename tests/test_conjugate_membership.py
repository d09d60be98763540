"""A conjugate H^t tests membership through its source H: x is in H^t
iff t * x * t^-1 is in H, one lookup in H's element set or one sift in
H's chain, and H^t never builds its own chain to answer.

The answers must be those of a copy of H^t that sifts in its own chain,
for every member of every corpus pair's Sylow family; `core` and `o_p`,
which intersect conjugates, must give the gens, chain and elements of
the full-chain routes kept in scan_oracles.py.  Two counts pin the work
saved: `sylow_intersections` builds one chain per intersection and none
for a member, and `controls_p_transfer` runs no Sylow ascent on an N
with the elements of G.
"""

import random
import sys

import pytest

from scan_oracles import conjugate_by_chain, core_by_chains, o_p_by_chains
from test_known_order_scans import _assert_same
from test_scanned_subgroups import PAIRS, _pair_id
from transferlab import group as group_module
from transferlab.catalog import psl2, symmetric
from transferlab.group import PermGroup, conjugate_subgroup, core, normalizer
from transferlab.iso import all_subgroups, prime_divisors
from transferlab.series import o_p
from transferlab.sylow import all_sylow_subgroups, sylow_intersections, sylow_subgroup
from transferlab.transfer import controls_p_transfer

SMALL_PAIRS = [pair for pair in PAIRS if pair[0].expected_order <= 200]


def _probes(g: PermGroup) -> list:
    """Every element of G up to order 720, else a seeded sample of 720."""
    elems = g.elements()
    if len(elems) <= 720:
        return elems
    return random.Random(len(elems)).sample(elems, 720)


@pytest.mark.parametrize("pair", PAIRS, ids=_pair_id)
def test_sylow_members_answer_as_their_own_chain(pair):
    entry, p = pair
    g = entry.build()
    fam = all_sylow_subgroups(g, p)
    probes = _probes(g)
    for q in fam.members[1:]:
        copy = PermGroup(q.degree, q.gens)
        assert [q.contains(x) for x in probes] == [copy.contains(x) for x in probes]
        assert q._chain is None


def test_a_conjugate_sifts_in_its_source_chain():
    """A source with no element set builds its chain once, for all its
    conjugates, and a conjugate of a conjugate tests through the first
    source; no conjugate builds a chain."""
    g = symmetric(5)
    h = PermGroup(g.degree, sylow_subgroup(g, 2).gens)
    s, t = g.elements()[7], g.elements()[50]
    once, twice = conjugate_subgroup(h, s), conjugate_subgroup(conjugate_subgroup(h, s), t)
    copies = [conjugate_by_chain(h, s), conjugate_by_chain(conjugate_by_chain(h, s), t)]
    for conj, copy in zip((once, twice), copies):
        assert [conj.contains(x) for x in g] == [copy.contains(x) for x in g]
        assert conj._chain is None and conj._element_set is None
    assert h._chain is not None and h._element_set is None
    assert twice.elements() == copies[1].elements()


@pytest.mark.parametrize("pair", SMALL_PAIRS, ids=_pair_id)
def test_core_and_o_p_match_the_full_chain_routes(pair):
    entry, p = pair
    g = entry.build()
    _assert_same(o_p.__wrapped__(g, p), o_p_by_chains(g, p))
    p_syl = sylow_subgroup(g, p)
    for h in [p_syl, normalizer(g, p_syl)] + all_subgroups(p_syl)[1:4]:
        _assert_same(core(g, h), core_by_chains(g, h))


def _count_builds(monkeypatch) -> list:
    """Count `_build_chain` calls in every module that holds it."""
    real = group_module._build_chain
    calls = []

    def counting(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("transferlab") and getattr(module, "_build_chain", None) is real:
            monkeypatch.setattr(module, "_build_chain", counting)
    return calls


def test_sylow_intersections_builds_no_chain_for_a_member(monkeypatch):
    """PSL(2,17) at p = 2 has 153 Sylow subgroups and 14 distinct P cap Q.
    With P's elements listed, each P cap Q is listed from them and only a
    new D builds a chain; when every P cap Q was built the count was 153,
    and when each member built its own chain to test membership, 305."""
    g = psl2(17)
    fam = all_sylow_subgroups(g, 2)
    fam.base_member.elements()
    calls = _count_builds(monkeypatch)
    pairs = sylow_intersections(g, 2)
    assert len(fam) == 153
    assert len(calls) == len(pairs) == 14
    assert all(q._chain is None for q in fam.members[1:])


@pytest.mark.parametrize("build", [lambda: symmetric(4), lambda: psl2(17)], ids=["S4", "PSL(2,17)"])
def test_controls_runs_no_sylow_ascent_on_a_copy_of_g(build):
    """N with G's elements is G, so the control test takes G's Sylow
    subgroup and leaves N unlisted, with the answer it gives for G."""
    g = build()
    for p in prime_divisors(g.order()):
        n = PermGroup(g.degree, list(reversed(g.gens)))
        report = controls_p_transfer(g, n, p)
        assert report.controls and report.focal_n is report.focal_g
        assert report.focal_g.element_set() == controls_p_transfer(g, g, p).focal_g.element_set()
        assert not any(key[0] is sylow_subgroup.__wrapped__ for key in n._memo)
        assert n._elements is None
