"""Coset keys, quotient preimages, maximality by primitivity and Sylow
intersections against the slow reference algorithms in coset_oracles.py,
plus the explicit invariant checks and the uniform random_element."""

import functools
import os
import subprocess
import sys
from itertools import product

import pytest

import transferlab
from transferlab import group as group_mod
from transferlab.catalog import (
    alternating,
    default_corpus,
    dihedral,
    generalized_quaternion,
    psl2,
    symmetric,
)
from transferlab.group import (
    InvariantError,
    PermGroup,
    Transversal,
    _coset_key,
    derived_subgroup,
    is_maximal,
    normalizer,
    quotient_group,
    right_transversal,
)
from transferlab.iso import all_subgroups, prime_divisors
from transferlab.perm import Perm
from transferlab.series import a_p, o_p, o_p_prime
from transferlab.sylow import all_sylow_subgroups, max_intersection_order, sylow_subgroup

from coset_oracles import (
    all_pairs_max_intersection,
    bfs_transversal_reps,
    brute_rep_of,
    is_maximal_all_cosets,
    is_maximal_by_joins,
    preimage_by_scan,
)

CORPUS = {e.label: e for e in default_corpus()}
PAIRS = [
    (label, p) for label, e in CORPUS.items() for p in prime_divisors(e.expected_order)
]
PAIR_IDS = [f"{label}-p{p}" for label, p in PAIRS]
# Elements of G per pair checked against brute-force rep_of.
REP_OF_SAMPLE = 48
# Largest |G:N| whose quotient has every subgroup's preimage checked.
PREIMAGE_MAX_INDEX = 64


@functools.cache
def corpus_pair(label: str, p: int):
    """(G, Sylow family, N_G(P)) for a corpus pair, P the family's base."""
    g = CORPUS[label].build()
    fam = all_sylow_subgroups(g, p)
    return g, fam, normalizer(g, fam.base_member)


def _d8_in_s4() -> PermGroup:
    return PermGroup(4, [Perm.from_cycles(4, [(0, 1, 2, 3)]), Perm.from_cycles(4, [(0, 2)])])


def test_corpus_has_68_pairs():
    assert len(PAIRS) == 68


@pytest.mark.parametrize("label,p", PAIRS, ids=PAIR_IDS)
def test_right_transversal_matches_bfs_oracle(label, p):
    g, fam, n = corpus_pair(label, p)
    assert fam.normalizer.same_group_as(n)
    for h in (fam.base_member, n):
        assert right_transversal(g, h).reps == bfs_transversal_reps(g, h)


@pytest.mark.parametrize("label,p", PAIRS, ids=PAIR_IDS)
def test_transversal_files_each_rep_under_its_own_coset_key(label, p):
    """right_transversal hands Transversal the keys its coset search found;
    a Transversal that computes the keys itself looks every rep up alike."""
    g, fam, n = corpus_pair(label, p)
    for h in (fam.base_member, n):
        trans = right_transversal(g, h)
        recomputed = Transversal(h, trans.reps)
        assert [trans.index_of(r) for r in trans.reps] == list(range(len(trans)))
        assert [recomputed.index_of(r) for r in trans.reps] == list(range(len(trans)))


@pytest.mark.parametrize("label,p", PAIRS, ids=PAIR_IDS)
def test_action_matches_index_of_each_product(label, p):
    """action looks each coset up on image tuples; the Perm route forms
    r * s for every rep r."""
    g, fam, n = corpus_pair(label, p)
    for h in (fam.base_member, n):
        trans = right_transversal(g, h)
        for s in g.gens:
            assert trans.action(s) == [trans.index_of(r * s) for r in trans.reps]


@pytest.mark.parametrize("label,p", PAIRS, ids=PAIR_IDS)
def test_rep_of_matches_brute_force(label, p):
    g, fam, _ = corpus_pair(label, p)
    trans = right_transversal(g, fam.base_member)
    elems = g.elements()
    for x in elems[:: max(1, len(elems) // REP_OF_SAMPLE)]:
        assert trans.rep_of(x) is brute_rep_of(trans, x)


@pytest.mark.parametrize("label,p", PAIRS, ids=PAIR_IDS)
def test_max_intersection_matches_all_pairs(label, p):
    g, fam, _ = corpus_pair(label, p)
    assert max_intersection_order(g, p) == all_pairs_max_intersection(fam)


@pytest.mark.parametrize("label,p", PAIRS, ids=PAIR_IDS)
def test_preimage_subgroup_matches_scan_oracle(label, p):
    """The quotients the p-series and the non-control witness take, by
    O_p(G), O_{p'}(G), G' and A^p(G): the preimage of every subgroup of
    G/N (for |G:N| <= 64) has the generators, in order, of the scan."""
    g = corpus_pair(label, p)[0]
    kernels = (o_p(g, p), o_p_prime(g, p), derived_subgroup(g), a_p(g, p))
    kernels = {n.element_set(): n for n in kernels}
    for n in kernels.values():
        if g.order() // n.order() > PREIMAGE_MAX_INDEX:
            continue
        quot = quotient_group(g, n)
        for sub in all_subgroups(quot.image):
            got, want = quot.preimage_subgroup(sub), preimage_by_scan(quot, sub)
            assert [x.images for x in got.gens] == [x.images for x in want.gens]


def test_preimage_subgroup_rejects_a_generator_outside_the_image(s4):
    v4 = PermGroup(
        4, [Perm.from_cycles(4, [(0, 1), (2, 3)]), Perm.from_cycles(4, [(0, 2), (1, 3)])]
    )
    quot = quotient_group(s4, v4)  # S3 acting regularly on 6 cosets
    assert quot.image.degree == 6
    outside = [
        PermGroup(6, [Perm.transposition(6, 0, 1)]),
        PermGroup(7, [Perm.transposition(7, 0, 6)]),
    ]
    for q in outside:
        for preimage in (quot.preimage_subgroup, functools.partial(preimage_by_scan, quot)):
            with pytest.raises(ValueError, match="not found in the image"):
                preimage(q)


@pytest.mark.parametrize(
    "g", [symmetric(4), dihedral(8), generalized_quaternion(16)], ids=lambda g: g.name
)
def test_is_maximal_matches_join_definition(g):
    proper = [h for h in all_subgroups(g) if h.order() < g.order()]
    verdicts = [is_maximal(g, h) for h in proper]
    assert verdicts == [is_maximal_by_joins(g, h) for h in proper]
    assert any(verdicts) and not all(verdicts)


def test_is_maximal_psl217_sylow2():
    """The witness case: a Sylow 2-subgroup of index 153 in PSL(2,17)."""
    g = psl2(17)
    p = sylow_subgroup(g, 2)
    assert len(right_transversal(g, p)) == 153
    assert is_maximal(g, p) and is_maximal_by_joins(g, p)


def test_is_maximal_one_coset_per_orbit_matches_every_coset():
    """is_maximal tests one coset per H-orbit; testing every coset gives
    the same answer, for N_G(P) of each corpus pair where it is proper and
    every proper subgroup of S4 and A5."""
    cases = [corpus_pair(label, p) for label, p in PAIRS]
    cases = [(g, n) for g, _, n in cases if n.order() < g.order()]
    for g in (symmetric(4), alternating(5)):
        cases += [(g, h) for h in all_subgroups(g) if h.order() < g.order()]
    verdicts = [is_maximal(g, h) for g, h in cases]
    assert verdicts == [is_maximal_all_cosets(right_transversal(g, h), g) for g, h in cases]
    assert any(verdicts) and not all(verdicts)


def test_right_transversal_is_kept_by_element_set():
    """A D8 with other generators gets the transversal kept for the first
    D8, which carries the first D8 as its subgroup."""
    g, d8 = symmetric(4), _d8_in_s4()
    copy = PermGroup(4, list(reversed(d8.elements())))
    assert copy.element_set() == d8.element_set()
    assert [x.images for x in copy.gens] != [x.images for x in d8.gens]
    kept = right_transversal(g, d8)
    assert right_transversal(g, copy) is kept and kept.subgroup is d8
    assert [kept.index_of(x) for x in g] == [Transversal(copy, kept.reps).index_of(x) for x in g]


def test_transversal_of_g_in_itself_keeps_no_reference_to_g():
    g = symmetric(4)
    trans = right_transversal(g, g)
    assert trans.subgroup is not g and trans.subgroup.chain is g.chain
    assert [trans.index_of(x) for x in g] == [0] * 24


def test_quotient_keeps_no_transversal_and_lists_no_kernel():
    """The quotient builds its transversal unkept: keying the memo by a
    fresh kernel would list the kernel's elements."""
    g = symmetric(4)
    n = PermGroup(4, [Perm.from_cycles(4, [(0, 1), (2, 3)]), Perm.from_cycles(4, [(0, 2), (1, 3)])])
    quot = quotient_group(g, n)
    assert quot.image.order() == 6
    assert n._element_set is None and n._elements is None
    assert not any(key[0] is right_transversal.__wrapped__ for key in g._memo)


def test_rep_of_rejects_elements_outside_parent():
    a4 = alternating(4)
    v4 = PermGroup(
        4, [Perm.from_cycles(4, [(0, 1), (2, 3)]), Perm.from_cycles(4, [(0, 2), (1, 3)])]
    )
    trans = right_transversal(a4, v4)
    with pytest.raises(ValueError):
        trans.rep_of(Perm.transposition(4, 0, 1))
    with pytest.raises(ValueError):
        trans.rep_of(Perm.identity(5))


def test_action_rejects_an_element_of_another_degree(s4):
    trans = right_transversal(s4, _d8_in_s4())
    with pytest.raises(ValueError, match="degree mismatch"):
        trans.action(Perm.identity(5))


def test_transversal_rejects_two_reps_of_one_coset(s4):
    d8 = _d8_in_s4()
    with pytest.raises(ValueError):
        Transversal(d8, [s4.identity(), d8.gens[0]])
    key = _coset_key(d8, s4.identity())
    with pytest.raises(ValueError):
        Transversal(d8, [s4.identity(), s4.gens[0]], [key, key])


def test_coset_key_is_constant_on_cosets_and_separates_them(s4):
    d8 = _d8_in_s4()
    keys = {}
    for x in s4.elements():
        keys.setdefault(_coset_key(d8, x), set()).update(
            (h * x).images for h in d8.elements()
        )
    assert len(keys) == 3
    assert all(len(coset) == 8 for coset in keys.values())
    assert all(key in coset for key, coset in keys.items())


def test_collapsed_cosets_raise_invariant_error(monkeypatch, s4):
    """Two cosets that share a key leave the coset BFS one short.  The
    patched calls run on a freshly built S4, which has no transversal of
    D8 kept yet (the one computed here stays on the shared s4)."""
    d8 = _d8_in_s4()
    reps = right_transversal(s4, d8).reps
    real = group_mod._coset_key
    merged, kept = real(d8, reps[2]), real(d8, reps[1])

    def collapsed(h, x):
        key = real(h, x)
        return kept if key == merged else key

    monkeypatch.setattr(group_mod, "_coset_key", collapsed)
    with pytest.raises(InvariantError):
        right_transversal(symmetric(4), d8)
    with pytest.raises(AssertionError):
        right_transversal(symmetric(4), d8)


PYTHON_O_TESTS = {
    "collapsed_cosets": "test_cosets.py::test_collapsed_cosets_raise_invariant_error",
    "control_cross_check": "test_transfer.py::test_control_cross_check_raises_invariant_error",
    "aut_orbit_product": "test_iso.py::test_orbit_product_mismatch_raises_invariant_error",
}


@pytest.fixture(scope="module")
def python_O_report():
    """One fresh interpreter under -O, which strips asserts, runs every
    test in PYTHON_O_TESTS; -rA lists each outcome as "PASSED <id>"."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(transferlab.__file__)))
    here = os.path.dirname(os.path.abspath(__file__))
    ids = [os.path.join(here, test_id) for test_id in PYTHON_O_TESTS.values()]
    return subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider", *ids],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize("name", list(PYTHON_O_TESTS))
def test_invariant_error_survives_python_O(python_O_report, name):
    """The test named runs and passes under -O."""
    passed = [
        line.split()[1]
        for line in python_O_report.stdout.splitlines()
        if line.startswith("PASSED ")
    ]
    assert any(test_id.endswith(PYTHON_O_TESTS[name]) for test_id in passed), (
        python_O_report.stdout + python_O_report.stderr
    )


class _ScriptedRng:
    """An rng whose choice() answers with the next index of a fixed tuple."""

    def __init__(self, picks):
        self._picks = iter(picks)

    def choice(self, seq):
        return seq[next(self._picks)]


@pytest.mark.parametrize("g", [symmetric(4), dihedral(8)], ids=lambda g: g.name)
def test_random_element_is_uniform(g):
    """Every tuple of per-level choices gives a different element, so a
    uniform choice per level gives a uniform element."""
    sizes = [len(lvl.transversal) for lvl in reversed(g.chain)]
    drawn = [g.random_element(_ScriptedRng(picks)) for picks in product(*map(range, sizes))]
    assert len(drawn) == g.order()
    assert {x.images for x in drawn} == g.element_set()
