"""Work whose answer G already gives is skipped, and each shortcut gives
what the work it skips gave.

- The trivial group knows its element set, so it builds no chain.
- A normal H has N_G(H) = G.  `normalizer` tests H's generators
  conjugated by G's and hands every normal H one kept group per G: the
  group the member build over all of G's elements makes, with G's
  element set.
- `controls_p_transfer` takes G's memoized Sylow subgroup whenever it
  lies in N, so N_G(P) runs no Sylow ascent of its own.
- O^p(G) = G gives A^p(G) = G: `a_p` knows its order, and
  `_ap_quotient_invariants` builds no quotient.
"""

import importlib

import pytest

from scan_oracles import normalizer_by_scan
from test_known_order_scans import _assert_same
from test_scanned_subgroups import PAIRS, _pair_id
from transferlab.catalog import psl2, symmetric
from transferlab.group import PermGroup, derived_subgroup, normalizer, quotient_group, trivial_group
from transferlab.iso import abelian_invariants, prime_divisors
from transferlab.perm import Perm
from transferlab.series import a_p, o_p, o_upper_p
from transferlab.sylow import all_sylow_subgroups, sylow_intersections, sylow_subgroup
from transferlab.transfer import _ap_quotient_invariants, controls_p_transfer, focal_subgroup

# transferlab.transfer is also the name of the function the package exports
transfer_module = importlib.import_module("transferlab.transfer")
SMALL_PAIRS = [pair for pair in PAIRS if pair[0].expected_order <= 200]


def _ran_sylow_ascent(n) -> bool:
    return any(key[0] is sylow_subgroup.__wrapped__ for key in n._memo)


def test_trivial_group_needs_no_chain():
    t = trivial_group(5)
    assert t.order() == 1 and t.contains(Perm.identity(5))
    assert not t.contains(Perm.transposition(5, 0, 1))
    assert t._chain is None
    assert t.elements() == [Perm.identity(5)] and t.chain == []


@pytest.mark.parametrize("pair", SMALL_PAIRS, ids=_pair_id)
def test_normal_subgroups_share_one_kept_normalizer(pair):
    entry, p = pair
    g = entry.build()
    normal = [o_p(g, p), trivial_group(g.degree)]
    normal += [d for d, _ in sylow_intersections(g, p) if d.is_normal_in(g)]
    kept = normalizer(g, normal[0])
    assert all(normalizer(g, h) is kept for h in normal)
    assert kept._element_set is g.element_set()
    _assert_same(kept, normalizer_by_scan(g, trivial_group(g.degree)))


@pytest.mark.parametrize("build", [lambda: symmetric(4), lambda: psl2(17)], ids=["S4", "PSL(2,17)"])
def test_controls_runs_no_sylow_ascent_on_n_g_p(build):
    """N_G(P) contains G's P, so the control test uses it, and the focal
    orders are those N's own Sylow subgroup gives."""
    g = build()
    for p in prime_divisors(g.order()):
        ngp = normalizer(g, sylow_subgroup(g, p))
        assert ngp.order() < g.order()
        report = controls_p_transfer(g, ngp, p)
        assert not _ran_sylow_ascent(ngp)
        p_n = sylow_subgroup(ngp, p)
        assert report.focal_g.order() == focal_subgroup(g, p_n).order()
        assert report.focal_n.order() == focal_subgroup(ngp, p_n).order()


@pytest.mark.parametrize("pair", SMALL_PAIRS, ids=_pair_id)
def test_controls_takes_n_s_sylow_when_g_s_is_outside_n(pair):
    """N = N_G(Q) for the last Sylow Q of the family: G's P lies in N only
    when P = Q.  The report is the one N_G(P) gives."""
    entry, p = pair
    g = entry.build()
    fam = all_sylow_subgroups(g, p)
    ngq = normalizer(g, fam.members[-1])
    report = controls_p_transfer(g, ngq, p)
    inside = sylow_subgroup(g, p).is_subgroup_of(ngq)
    assert _ran_sylow_ascent(ngq) == (ngq.order() < g.order() and not inside)
    expected = controls_p_transfer(g, fam.normalizer, p)
    assert report.controls == expected.controls
    assert report.focal_n.order() == expected.focal_n.order()
    assert report.quotient_invariants_n == expected.quotient_invariants_n


def test_psl2_17_a_p_builds_no_quotient_and_no_chain(monkeypatch):
    g = psl2(17)
    kernels = []
    quotient = transfer_module.quotient_group
    monkeypatch.setattr(
        transfer_module, "quotient_group", lambda g, k: kernels.append(k) or quotient(g, k)
    )
    assert _ap_quotient_invariants(g, 2) == ()
    assert kernels == []
    a = a_p(g, 2)
    assert a.order() == g.order() and a._chain is None


@pytest.mark.parametrize("pair", SMALL_PAIRS, ids=_pair_id)
def test_a_p_and_its_quotient_match_the_join(pair):
    entry, p = pair
    g = entry.build()
    d, k = derived_subgroup(g), o_upper_p(g, p)
    full = PermGroup(g.degree, [*d.gens, *k.gens])
    _assert_same(a_p(g, p), full)
    assert _ap_quotient_invariants(g, p) == abelian_invariants(quotient_group(g, full).image)
