"""Checks the shortcuts that find a group's order, or a subgroup, without
the work they replace, and that each gives what that work gave.

- A conjugate H^g knows its order |H|, so its chain build stops early;
  the chain must be the one a full build makes.
- The generating sequence of the iso searches grows element sets by
  cosets instead of building a chain per candidate; its gens and orders
  must be those of the chain-based search, kept here as the oracle.
- `_closure` stops once its set reaches a stop size; a stopped closure
  must accept and reject as the full one does.
- `is_tame_intersection` counts C_G(D) inside N_G(D); it must be C_G(D),
  and its N_G(D) must be p-nilpotent just when the N_G(D) found by
  testing every element of G is.
- The member tests of `normalizer` and `centralizer` compose through
  prebuilt getters, which must hold at degree 1 and 2 as well.
"""

import random
import sys

import pytest

from scan_oracles import normalizer_by_scan
from test_scanned_subgroups import PAIRS, _levels, _pair_id
from transferlab import group as group_module
from transferlab.catalog import default_corpus, symmetric
from transferlab.group import (
    InvariantError,
    PermGroup,
    _build_chain,
    centralizer,
    conjugate_subgroup,
    normalizer,
    right_transversal,
    span,
)
from transferlab.iso import _closure, _generating_sequence, automorphism_group
from transferlab.perm import Perm, _compose, _getter, all_perms
from transferlab.series import is_p_nilpotent, p_part
from transferlab.sylow import (
    all_sylow_subgroups,
    is_tame_intersection,
    sylow_intersections,
    sylow_subgroup,
)

CORPUS = {e.label: e for e in default_corpus()}


def chain_based_generating_sequence(g: PermGroup) -> tuple[PermGroup, list[int]]:
    """The generating sequence as it was found before element sets: a
    fresh group, and so a chain build, for every candidate."""
    orders: list[int] = []
    current = PermGroup(g.degree, [])
    while current.order() < g.order():
        best = current
        for x in g.elements():
            if current.contains(x):
                continue
            cand = PermGroup(g.degree, current.gens + (x,))
            if cand.order() > best.order():
                best = cand
                if cand.order() == g.order():
                    break
        if best is current:
            raise InvariantError("no element grows a proper subgroup")
        orders.append(best.order())
        current = best
    return current, orders


@pytest.mark.parametrize("pair", PAIRS, ids=_pair_id)
def test_conjugate_sylows_keep_the_full_chain(pair):
    entry, p = pair
    g = entry.build()
    fam = all_sylow_subgroups(g, p)
    p_syl = fam.base_member
    for t in right_transversal(g, fam.normalizer).reps[1:]:
        conj = conjugate_subgroup(p_syl, t)
        assert conj._order == p_syl.order() and conj._chain is None
        levels, _ = _build_chain(conj.degree, conj.gens)
        assert _levels(conj.chain) == _levels(levels)


@pytest.mark.parametrize("pair", PAIRS, ids=_pair_id)
def test_generating_sequence_matches_chain_based_search(pair):
    entry, p = pair
    p_syl = sylow_subgroup(entry.build(), p)
    seq, orders = _generating_sequence(p_syl)
    oracle, oracle_orders = chain_based_generating_sequence(p_syl)
    assert [x.images for x in seq.gens] == [x.images for x in oracle.gens]
    assert orders == oracle_orders
    assert seq.order() == p_syl.order()
    assert seq._element_set == p_syl.element_set()


@pytest.mark.parametrize("seed", range(12))
def test_stopped_closure_decides_as_the_full_one(seed):
    """Random H = <a few elements> and new generators in S5, PSL(2,7) or
    Z3wrZ3.  Stopped at m + 1, the closure has m elements exactly when
    the full one (stopped at |G| + 1, which no subgroup reaches) does:
    the iso search's test.  Stopped at |G| it is the full set: the
    lattice's."""
    rng = random.Random(seed)
    g = CORPUS[rng.choice(["S5", "PSL(2,7)", "Z3wrZ3"])].build()
    n = g.order()
    divisors = [m for m in range(1, n + 1) if n % m == 0]
    for _ in range(8):
        h = span(g.degree, [g.random_element(rng) for _ in range(rng.randint(0, 2))])
        new = [g.random_element(rng) for _ in range(rng.randint(1, 2))]
        hset = h.element_set()
        full = _closure(g.degree, hset, h.gens + tuple(new), n + 1)
        assert full == span(g.degree, list(h.gens) + new).element_set()
        for m in divisors:
            stopped = _closure(g.degree, hset, h.gens + tuple(new), m + 1)
            assert (len(stopped) == m) == (len(full) == m)
            assert stopped <= full
        assert _closure(g.degree, hset, h.gens + tuple(new), n) == full


@pytest.mark.parametrize("pair", PAIRS, ids=_pair_id)
def test_centralizer_inside_the_normalizer_is_c_g_d(pair):
    """For every D = P cap Q from `sylow_intersections`, tame or not,
    C_{N_G(D)}(D) = C_G(D), the record's N/C answer is the one C_G(D)
    gives, and its p-nilpotency answer is that of N_G(D) found by testing
    every element of G."""
    entry, p = pair
    g = entry.build()
    base = all_sylow_subgroups(g, p).base_member
    for d, q_syl in sylow_intersections(g, p):
        rec = is_tame_intersection(g, base, q_syl, p)
        assert rec.d.element_set() == d.element_set()
        c_g_d = centralizer(g, rec.d)
        assert centralizer(rec.normalizer, rec.d).element_set() == c_g_d.element_set()
        n_over_c = rec.normalizer.order() // c_g_d.order()
        assert rec.n_over_c_is_p_group == (p_part(n_over_c, p) == n_over_c)
        assert rec.normalizer_p_nilpotent == is_p_nilpotent(normalizer_by_scan(g, d), p)


def _subgroups_by_brute_force(degree: int) -> list[PermGroup]:
    """Every subgroup of S_degree, as the span of each set of elements."""
    elems = list(all_perms(degree))
    found = {}
    for mask in range(1 << len(elems)):
        h = span(degree, [x for i, x in enumerate(elems) if mask >> i & 1])
        found.setdefault(h.element_set(), h)
    return list(found.values())


@pytest.mark.parametrize("degree", [1, 2])
def test_normalizer_and_centralizer_at_small_degree(degree):
    """The prebuilt getters keep the degree <= 1 case of `perm._compose`."""
    subgroups = _subgroups_by_brute_force(degree)
    assert len(subgroups) == degree  # S1: 1; S2: 1 and S2
    for g in subgroups:
        for h in subgroups:
            if not h.is_subgroup_of(g):
                continue
            hset = h.element_set()
            norm = {x.images for x in g if {t.conjugate(x).images for t in h} == hset}
            cent = {x.images for x in g if all(t * x == x * t for t in h)}
            assert normalizer(g, h).element_set() == norm
            assert centralizer(g, h).element_set() == cent
    s1 = symmetric(1)
    assert normalizer(s1, s1).order() == centralizer(s1, s1).order() == 1


def test_perm_getter_at_degree_one_and_two():
    one = Perm([0]).images
    assert _getter(one)(one) == _compose(one, one) == one
    swap = Perm([1, 0]).images
    assert _getter(swap)(swap) == _compose(swap, swap) == (0, 1)


@pytest.mark.parametrize("label", ["Q32", "Z3wrZ3"])
def test_automorphism_group_builds_one_chain(monkeypatch, label):
    """The generating sequence and every search candidate are sized by
    element sets, so the one chain built is Aut(P)'s own; while each
    candidate built a chain, Q32 took 48 builds and Z3wrZ3 162.  Every
    module that holds `_build_chain` under its own name is counted."""
    p = CORPUS[label].build()
    p.elements()
    real = group_module._build_chain
    calls = []

    def counting(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("transferlab") and getattr(module, "_build_chain", None) is real:
            monkeypatch.setattr(module, "_build_chain", counting)
    aut = automorphism_group(p)
    assert aut.order() > 1
    assert len(calls) == 1
