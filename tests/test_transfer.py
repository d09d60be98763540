import importlib
import random

import pytest

from coset_oracles import pretransfer_by_perms
from sampling import sample_chain, sample_ghx, sample_mackey, sample_pool
from test_scanned_subgroups import PAIRS, _pair_id
from transferlab.catalog import alternating, dihedral, symmetric
from transferlab.group import (
    InvariantError,
    PermGroup,
    derived_subgroup,
    intersection,
    normalizer,
    right_transversal,
)
from transferlab.perm import Perm
from transferlab.series import center, o_p, p_part
from transferlab.sylow import sylow_subgroup
from transferlab.transfer import (
    check_mackey,
    check_transitivity,
    controls_p_transfer,
    focal_subgroup,
    lemma23_witness,
    pretransfer,
    shuffled_transversal,
    tate_agreement,
    transfer,
    transfer_evaluation,
)
from transferlab.group import core

# The package re-exports the function transfer under the module's name.
transfer_mod = importlib.import_module("transferlab.transfer")


def test_pretransfer_identity_is_identity(s4):
    d8 = sylow_subgroup(s4, 2)
    trans = right_transversal(s4, d8)
    assert pretransfer(s4, d8, trans, Perm.identity(4)).is_identity()


def test_pretransfer_s3_hand_values(s3):
    """Two-factor products over the canonical transversal {e, (0 1)}."""
    a3 = PermGroup(3, [Perm.from_cycles(3, [(0, 1, 2)])])
    trans = right_transversal(s3, a3)
    assert trans.reps[0].is_identity()
    assert trans.reps[1] == Perm.from_cycles(3, [(0, 1)])
    t = Perm.from_cycles(3, [(0, 1)])
    assert pretransfer(s3, a3, trans, t).is_identity()
    # g = (0 1 2): factors are (0 1 2) and (0 1)(0 1 2)(0 1) = (0 2 1),
    # whose product is the identity.
    g = Perm.from_cycles(3, [(0, 1, 2)])
    assert pretransfer(s3, a3, trans, g).is_identity()


# Seeded elements x per corpus pair compared with the Perm route.
PRETRANSFER_ELEMENTS = 3
# The corpus pairs whose Sylow subgroup P is proper in G.
PROPER_PAIRS = [(e, p) for e, p in PAIRS if p_part(e.expected_order, p) < e.expected_order]


@pytest.mark.parametrize("pair", PROPER_PAIRS, ids=_pair_id)
def test_pretransfer_matches_the_perm_route_on_corpus(pair):
    """The image-tuple loop gives the same raw value, as a tuple, as the
    product of Perms t * x * (t.x)^-1 in list order."""
    entry, p = pair
    g = entry.build()
    p_syl = sylow_subgroup(g, p)
    trans = right_transversal(g, p_syl)
    rng = random.Random(f"pretransfer:{entry.label}:{p}")
    for _ in range(PRETRANSFER_ELEMENTS):
        x = g.random_element(rng)
        got = pretransfer(g, p_syl, trans, x)
        assert got.images == pretransfer_by_perms(trans, x).images


def test_pretransfer_rejects_x_of_another_degree_or_outside_g(s4):
    d8 = sylow_subgroup(s4, 2)
    a4 = alternating(4)
    v4 = o_p(a4, 2)
    for g, h, x in (
        (s4, d8, Perm.identity(5)),
        (s4, d8, Perm.identity(3)),
        (a4, v4, Perm.transposition(4, 0, 1)),
    ):
        with pytest.raises(ValueError):
            pretransfer(g, h, right_transversal(g, h), x)


def test_pretransfer_lands_in_target(s4, rng):
    d8 = sylow_subgroup(s4, 2)
    trans = right_transversal(s4, d8)
    for _ in range(20):
        x = s4.random_element(rng)
        assert d8.contains(pretransfer(s4, d8, trans, x))


def test_transfer_well_defined_100(rng):
    pool = sample_pool()
    ok = 0
    for _ in range(100):
        g, h, x = sample_ghx(pool, rng)
        base = transfer(g, h, x)
        other_trans = shuffled_transversal(g, h, rng)
        other = pretransfer(g, h, other_trans, x)
        if base.modulus.contains(base.value * other.inverse()):
            ok += 1
    assert ok == 100


def test_transfer_homomorphism_100(rng):
    pool = sample_pool()
    ok = 0
    for _ in range(100):
        g, h, x = sample_ghx(pool, rng)
        y = g.random_element(rng)
        vxy = transfer(g, h, x * y)
        vx = transfer(g, h, x)
        vy = transfer(g, h, y)
        if vxy.modulus.contains(vxy.value * (vx.value * vy.value).inverse()):
            ok += 1
    assert ok == 100


def test_transitivity_examples(s4, a4):
    d8 = sylow_subgroup(s4, 2)
    v4 = o_p(s4, 2)
    assert check_transitivity(s4, d8, v4, Perm.from_cycles(4, [(0, 1, 2, 3)]))
    a4_in = PermGroup(4, a4.gens)
    assert check_transitivity(s4, a4_in, v4, Perm.from_cycles(4, [(0, 1, 2)]))
    with pytest.raises(ValueError):
        check_transitivity(s4, v4, d8, Perm.identity(4))


def test_transitivity_100(rng):
    pool = sample_pool()
    ok = 0
    for _ in range(100):
        g, k, h, x = sample_chain(pool, rng)
        if check_transitivity(g, k, h, x):
            ok += 1
    assert ok == 100


def test_mackey_examples(s3, s4):
    p = sylow_subgroup(s4, 2)
    k = Perm.from_cycles(4, [(0, 2), (1, 3)])
    assert check_mackey(s4, p, p, k)
    h = PermGroup(3, [Perm.from_cycles(3, [(0, 1)])])
    kk = PermGroup(3, [Perm.from_cycles(3, [(0, 1, 2)])])
    assert check_mackey(s3, h, kk, Perm.from_cycles(3, [(0, 1, 2)]))


def test_mackey_100(rng):
    pool = sample_pool()
    ok = 0
    for _ in range(100):
        g, h, k, elem = sample_mackey(pool, rng)
        if check_mackey(g, h, k, elem):
            ok += 1
    assert ok == 100


def test_transfer_evaluation_d8():
    d8 = dihedral(8)
    z = center(d8)
    r = next(x for x in d8.elements() if x.order() == 4)
    factors = transfer_evaluation(d8, z, r)
    assert sum(n for _, n in factors) == 4
    for s, n in factors:
        assert z.contains(s * r**n * s.inverse())


def test_transfer_evaluation_core_case(s4):
    """u in Core_P(R) gives all orbit lengths 1."""
    p = sylow_subgroup(s4, 2)
    v4 = o_p(s4, 2)
    cr = core(p, v4)
    for u in cr.elements():
        factors = transfer_evaluation(p, v4, u)
        assert all(n == 1 for _, n in factors)


def test_focal_subgroup_values(s4, a5):
    p = sylow_subgroup(s4, 2)
    f = focal_subgroup(s4, p)
    assert f.order() == 4
    assert f.same_group_as(o_p(s4, 2))
    v4 = sylow_subgroup(a5, 2)
    assert focal_subgroup(a5, v4).same_group_as(v4)
    c12 = PermGroup(12, [Perm.from_cycles(12, [tuple(range(12))])])
    assert focal_subgroup(c12, sylow_subgroup(c12, 2)).order() == 1


def test_controls_p_transfer_examples(s4, a5):
    p = sylow_subgroup(s4, 2)
    rep = controls_p_transfer(s4, p, 2)
    assert not rep.controls
    assert rep.focal_g.order() == 4
    assert rep.focal_n.order() == 2
    assert controls_p_transfer(s4, s4, 2).controls
    a4_in = PermGroup(5, [Perm.from_cycles(5, [(0, 1, 2)]), Perm.from_cycles(5, [(0, 1), (2, 3)])])
    assert a4_in.order() == 12
    rep2 = controls_p_transfer(a5, a4_in, 2)
    assert rep2.controls
    assert rep2.focal_g.order() == 4


def test_controls_rejects_bad_index(s4):
    a4_in = PermGroup(4, alternating(4).gens)
    with pytest.raises(ValueError):
        controls_p_transfer(s4, a4_in, 2)


def test_controls_rejects_n_outside_g():
    """<(0 1 2 3)> has order 4 = |A4|_2 but is no subgroup of A4, so its
    focal subgroup P cap N' says nothing about control in A4."""
    g = alternating(4)
    n = PermGroup(4, [Perm.from_cycles(4, [(0, 1, 2, 3)])])
    with pytest.raises(ValueError, match="N is not a subgroup of G"):
        controls_p_transfer(g, n, 2)


def test_control_cross_check_raises_invariant_error(monkeypatch, s4):
    """A quotient test that disagrees with the focal test is an invariant
    failure, under python -O too."""
    ngp = normalizer(s4, sylow_subgroup(s4, 2))
    assert not controls_p_transfer(s4, ngp, 2).controls
    # Equal invariants for every group claim control.
    monkeypatch.setattr(transfer_mod, "_ap_quotient_invariants", lambda g, p: ())
    with pytest.raises(InvariantError):
        controls_p_transfer(s4, ngp, 2)


def test_lemma23_witness_s4(s4):
    p = sylow_subgroup(s4, 2)
    wit = lemma23_witness(s4, p, 2)
    assert wit != "controls"
    assert wit.m.order() * 2 == p.order()
    assert wit.m.is_normal_in(p)
    # Transfer image of G sits inside M.
    trans = right_transversal(s4, p)
    for x in s4.elements():
        assert wit.m.contains(pretransfer(s4, p, trans, x))
    # Per-u data verifies Lemma conditions (b) and (c) independently.
    assert wit.per_u
    for u, x, r, q in wit.per_u:
        assert not x.is_identity()
        assert r.order() < p.order()
        assert r.order() == q.order() * 2
        assert q.is_subgroup_of(r)


def test_lemma23_controls_cases(s4, a5):
    assert lemma23_witness(s4, s4, 2) == "controls"
    a4_in = PermGroup(5, [Perm.from_cycles(5, [(0, 1, 2)]), Perm.from_cycles(5, [(0, 1), (2, 3)])])
    assert lemma23_witness(a5, a4_in, 2) == "controls"


def test_tate_agreement_examples(s4, a5):
    p = sylow_subgroup(s4, 2)
    assert tate_agreement(s4, p, 2)
    assert tate_agreement(s4, s4, 2)
    a4_in = PermGroup(5, [Perm.from_cycles(5, [(0, 1, 2)]), Perm.from_cycles(5, [(0, 1), (2, 3)])])
    assert tate_agreement(a5, a4_in, 2)


def test_focal_identity_bridge(s4, s5):
    """P/(P cap G') and G/A^p(G) have the same abelian invariants."""
    from transferlab.iso import abelian_invariants
    from transferlab.group import quotient_group
    from transferlab.series import a_p

    for g, p in ((s4, 2), (s4, 3), (s5, 2), (s5, 3), (s5, 5)):
        syl = sylow_subgroup(g, p)
        focal = focal_subgroup(g, syl)
        left = abelian_invariants(quotient_group(syl, focal).image)
        right = abelian_invariants(quotient_group(g, a_p(g, p)).image)
        assert left == right
