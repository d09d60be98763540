"""N_G(H) for a non-abelian H is found inside M = N_G(Z(H)), and the
Sylow-intersection layer lists or counts what it does not keep.

Z(H) is characteristic in H, so N_G(H) <= M: an H normal in M gets M
itself, with no count of H's conjugates, and otherwise the conjugates
are counted under M's gens (G's own when M is G).  Nothing of N may
change: gens, chain levels and element set must be those of the full
scan in scan_oracles.py (test_known_order_scans.py also checks each
non-abelian subgroup of the small corpus Sylow subgroups).
`sylow_intersections` builds one chain per distinct D, and
`_tame_record` counts N_G(D) cap P and N_G(D) cap Q with
`intersection_order`, which builds no group.
"""

import pytest

from scan_oracles import normalizer_by_scan
from test_known_order_scans import PAIRS, _assert_same, _pair_id
from transferlab import group as group_mod
from transferlab import sylow as sylow_mod
from transferlab.catalog import psl2, symmetric
from transferlab.group import (
    PermGroup,
    centralizer,
    intersection,
    intersection_order,
    normalizer,
    trivial_group,
)
from transferlab.perm import Perm
from transferlab.series import p_part
from transferlab.sylow import all_sylow_subgroups, sylow_intersections, sylow_subgroup


def _count_calls(monkeypatch, module, name: str) -> list:
    """Patch module.name with a wrapper that logs each call's args."""
    calls, real = [], getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_n_g_p_in_psl2_17_at_2_is_n_g_z_p_with_no_count_of_p(monkeypatch):
    """P = D16 is normal in M = N_G(Z(P)), which is P itself, so N_G(P) is
    the kept M: no conjugate of P is counted, and the one chain built is
    that of the scan for Z(P), of order 2."""
    g = psl2(17)
    p_syl = sylow_subgroup(g, 2)
    m = normalizer(g, centralizer(p_syl, p_syl))
    counts = _count_calls(monkeypatch, group_mod, "_schreier_generators")
    builds = _count_calls(monkeypatch, group_mod, "_build_chain")
    n = normalizer(g, p_syl)
    assert n is m and n.order() == 16
    assert counts == []
    assert [args[2] for args in builds] == [2]
    _assert_same(n, normalizer_by_scan(g, p_syl))


def test_a_z_h_normal_in_g_counts_under_g_s_own_gens(monkeypatch):
    """H = S3 on {0, 1, 2} in S6 is not normal, but Z(H) = 1 is, so M is
    the kept N_G(1) = G, whose build over G's elements kept 8 gens; the
    count runs under G's own 2 gens, and its 20 conjugates give |N| = 36."""
    g = symmetric(6)
    h = PermGroup(6, [Perm.from_cycles(6, [c]) for c in [(0, 1, 2), (0, 1)]])
    m = normalizer(g, centralizer(h, h))
    assert m is normalizer(g, trivial_group(g.degree))
    assert (len(g.gens), len(m.gens)) == (2, 8)
    getters = _count_calls(monkeypatch, group_mod, "_getter")
    n = normalizer(g, h)
    _assert_same(n, normalizer_by_scan(g, h))
    assert n.order() == 36
    # The scan for Z(H) builds a getter per gen and per element of H; the
    # count then builds one per gen of G.
    assert len(getters) == len(h.gens) + h.order() + len(g.gens)
    assert [args[0] for args in getters[-len(g.gens) :]] == [s.inverse().images for s in g.gens]


def test_an_h_not_normal_in_m_is_counted_under_m_s_gens(monkeypatch):
    """H = S3 x <(3 4)> in S6: Z(H) = <(3 4)>, M = C_G((3 4)) has order 48,
    and H is not normal in M; its 4 conjugates under M's gens give
    |N| = 12."""
    g = symmetric(6)
    h = PermGroup(6, [Perm.from_cycles(6, [c]) for c in [(0, 1, 2), (0, 1), (3, 4)]])
    m = normalizer(g, centralizer(h, h))
    assert (h.order(), m.order(), h.is_normal_in(m)) == (12, 48, False)
    getters = _count_calls(monkeypatch, group_mod, "_getter")
    n = normalizer(g, h)
    _assert_same(n, normalizer_by_scan(g, h))
    assert n.order() == 12
    # The scan for Z(H) builds a getter per gen and per element of H; the
    # count then builds one per gen of M.
    assert len(getters) == len(h.gens) + h.order() + len(m.gens)
    assert [args[0] for args in getters[-len(m.gens) :]] == [s.inverse().images for s in m.gens]


@pytest.mark.parametrize("pair", PAIRS, ids=_pair_id)
def test_tame_is_the_test_with_two_intersections(pair):
    """The record's tame flag, from two `intersection_order` counts, is the
    test that built N_G(D) cap P and N_G(D) cap Q."""
    entry, p = pair
    g = entry.build()
    p_syl = all_sylow_subgroups(g, p).base_member
    for d, q_syl in sylow_intersections(g, p):
        n = normalizer(g, d)
        sylow_order = p_part(n.order(), p)
        meets = [intersection(n, p_syl).order(), intersection(n, q_syl).order()]
        assert [intersection_order(n, p_syl), intersection_order(n, q_syl)] == meets
        rec = sylow_mod._tame_record(g, p_syl, d, q_syl, p)
        assert rec.tame == (meets == [sylow_order, sylow_order])


@pytest.mark.parametrize("pair", PAIRS, ids=_pair_id)
def test_a_tame_record_builds_no_chain_beyond_n_g_d(monkeypatch, pair):
    """With N_G(D) kept and Q's elements listed (the memo key lists them),
    the record builds no chain: its two meets are counted, not built."""
    entry, p = pair
    g = entry.build()
    p_syl = all_sylow_subgroups(g, p).base_member
    pairs = sylow_intersections(g, p)
    for d, q_syl in pairs:
        normalizer(g, d)
        q_syl.elements()
    builds = _count_calls(monkeypatch, group_mod, "_build_chain")
    for d, q_syl in pairs:
        sylow_mod._tame_record(g, p_syl, d, q_syl, p)
    assert builds == []


def test_intersection_order_builds_no_group(monkeypatch):
    """|Q cap V4| and |Q cap S4| for S4's Sylow 2-subgroups Q are counted
    over the smaller group's elements, with no subgroup made."""
    g = symmetric(4)
    fam = all_sylow_subgroups(g, 2)
    v4 = sylow_intersections(g, 2)[1][0]
    made = _count_calls(monkeypatch, group_mod, "_subgroup")
    for q_syl in fam.members:
        assert intersection_order(q_syl, g) == 8
        assert intersection_order(v4, q_syl) == 4
        assert intersection_order(q_syl, fam.members[1]) in (2, 4, 8)
    assert made == []
    for a in fam.members:
        for b in fam.members:
            assert intersection_order(a, b) == intersection(a, b).order()
    with pytest.raises(ValueError, match="degree mismatch"):
        intersection_order(g, symmetric(5))
