"""G/1 is G: a quotient by the trivial group is its source, with no
transversal, so no regular representation of degree |G| is built, and
the abelian invariants are counted from element orders.

- `QuotientGroup` with a trivial kernel takes G as its image, and its
  three maps return their argument, refusing one outside G;
- so `abelianization_invariants` with G' = 1 and `_ap_quotient_invariants`
  with A^p(G) = 1 read G's own invariants, `norm_series` takes norm(P)
  as its first step, and `tate_agreement` compares G with itself where
  O^p(G) = 1;
- `_has_wreath_quotient` with |P| = p^{p+1}, where N = 1 is the only
  kernel, tests P itself against Z_p wr Z_p, with no normal subgroups;
- `abelian_invariants` takes one order per element in place of a power
  per element for each p^k.

Each gives what the route through the regular representation gives (kept
in quotient_oracles.py), and every quotient by 1 that a full scan or an
`analyze` call takes is its source: 61 and 90 regular representations
were built there before.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from quotient_oracles import (
    abelian_invariants_by_powers,
    abelianization_invariants_by_quotient,
    ap_quotient_invariants_by_quotient,
    has_wreath_quotient_by_quotients,
    norm_series_by_quotients,
)
from test_scanned_subgroups import PAIRS, _pair_id
from transferlab import checkers, cli
from transferlab import group as group_module
from transferlab.catalog import (
    cyclic,
    default_corpus,
    direct_product,
    generalized_quaternion,
    psl2,
    symmetric,
    wreath_cyclic,
)
from transferlab.checkers import _has_wreath_quotient
from transferlab.group import PermGroup, normalizer, quotient_group, trivial_group
from transferlab.iso import abelian_invariants, abelianization_invariants, is_abelian
from transferlab.perm import Perm
from transferlab.series import center, norm, norm_series, o_upper_p
from transferlab.sylow import sylow_subgroup
from transferlab.transfer import _ap_quotient_invariants, tate_agreement

GOLDEN = Path(__file__).parent.parent / "perfbench" / "golden"


def _sylow(pair):
    entry, p = pair
    return sylow_subgroup(entry.build(), p), p


@pytest.fixture
def quotients(monkeypatch) -> list[tuple[int, bool]]:
    """(kernel order, whether the image is the source) of every quotient
    built from now on, wherever the library holds `quotient_group` under
    its own name."""
    real = group_module.quotient_group
    seen = []

    def recording(g, n):
        q = real(g, n)
        seen.append((n.order(), q.image is g))
        return q

    for name, module in list(sys.modules.items()):
        if name.startswith("transferlab") and getattr(module, "quotient_group", None) is real:
            monkeypatch.setattr(module, "quotient_group", recording)
    return seen


def _no_regular_representation(quotients: list[tuple[int, bool]]) -> bool:
    """Some quotient is by 1, and every quotient by 1 is its source."""
    return (1, True) in quotients and (1, False) not in quotients


def _cli(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


def test_scan_builds_no_regular_representation(quotients):
    assert _cli(["scan", "--format", "records"]) == (GOLDEN / "scan_records.jsonl").read_text()
    assert _no_regular_representation(quotients)


def test_analyze_builds_no_regular_representation(quotients):
    golden = json.loads((GOLDEN / "analyze.json").read_text())
    for argv in golden:
        assert _cli(argv.split()) == golden[argv], argv
    assert _no_regular_representation(quotients)


TRIVIAL_KERNEL_GROUPS = pytest.mark.parametrize(
    "build", [lambda: psl2(17), lambda: generalized_quaternion(32)], ids=["PSL(2,17)", "Q32"]
)


@TRIVIAL_KERNEL_GROUPS
def test_quotient_by_the_trivial_group_is_its_source(build):
    g = build()
    quot = quotient_group(g, trivial_group(g.degree))
    assert quot.image is g and quot.transversal is None
    p_syl = sylow_subgroup(g, 2)
    for x in g.gens + p_syl.gens:
        assert quot.project(x) is x
    assert quot.project_subgroup(p_syl) is p_syl
    assert quot.preimage_subgroup(p_syl) is p_syl


@TRIVIAL_KERNEL_GROUPS
def test_quotient_by_the_trivial_group_refuses_what_is_outside_g(build):
    """A transposition lies in neither group (PSL(2,17) on 18 points, Q32
    regular on 32), and a permutation of another degree in no group of
    this degree."""
    g = build()
    quot = quotient_group(g, trivial_group(g.degree))
    for x in (Perm.transposition(g.degree, 0, 1), Perm.transposition(g.degree + 1, 0, 1)):
        outside = PermGroup(x.degree, [x])
        with pytest.raises(ValueError):
            quot.project(x)
        with pytest.raises(ValueError):
            quot.project_subgroup(outside)
        with pytest.raises(ValueError):
            quot.preimage_subgroup(outside)


def test_tate_agreement_on_q32_builds_no_regular_representation(quotients):
    """O^2(Q32) = 1 and N_G(P) = G, so both sides are quotients by 1."""
    g = generalized_quaternion(32)
    assert o_upper_p(g, 2).is_trivial()
    assert tate_agreement(g, normalizer(g, sylow_subgroup(g, 2)), 2)
    assert _no_regular_representation(quotients)


@pytest.mark.parametrize("pair", PAIRS, ids=_pair_id)
def test_wreath_quotient_matches_every_kernel(pair):
    p_syl, p = _sylow(pair)
    assert _has_wreath_quotient(p_syl, p) == has_wreath_quotient_by_quotients(p_syl, p)


def test_order_p_to_the_p_plus_1_lists_no_normal_subgroups(monkeypatch, quotients):
    """The Sylow 2-subgroup of S4 (D8) and Z3wrZ3 are tested as they are,
    as their quotients by 1; the others are those by P' that the
    isomorphism test's fingerprint takes."""

    def refused(p):
        raise AssertionError("normal_subgroups listed")

    monkeypatch.setattr(checkers, "normal_subgroups", refused)
    assert _has_wreath_quotient(sylow_subgroup(symmetric(4), 2), 2)
    assert _has_wreath_quotient(wreath_cyclic(3), 3)
    assert _no_regular_representation(quotients)


@pytest.mark.parametrize("pair", PAIRS, ids=_pair_id)
def test_ap_quotient_invariants_match_the_quotient(pair):
    entry, p = pair
    g = entry.build()
    assert _ap_quotient_invariants(g, p) == ap_quotient_invariants_by_quotient(g, p)


@pytest.mark.parametrize("pair", PAIRS, ids=_pair_id)
def test_abelianization_invariants_match_the_quotient(pair):
    p_syl, _ = _sylow(pair)
    for h in (pair[0].build(), p_syl, center(p_syl)):
        assert abelianization_invariants(h) == abelianization_invariants_by_quotient(h)


@pytest.mark.parametrize("pair", PAIRS, ids=_pair_id)
def test_norm_series_matches_the_quotient_route(pair):
    """The same number of terms, each with the element set (and so the
    order) of the step through the quotient by 1; the first step is the
    kept norm(P)."""
    p_syl, _ = _sylow(pair)
    fast, slow = norm_series(p_syl), norm_series_by_quotients(p_syl)
    assert [t.element_set() for t in fast.terms] == [t.element_set() for t in slow.terms]
    if len(fast.terms) > 1:
        assert fast.terms[1] is norm(p_syl)


ABELIAN = [
    h
    for e in default_corpus()
    if e.expected_order <= 200
    for h in (e.build(), center(e.build()))
    if is_abelian(h)
]


@pytest.mark.parametrize("h", ABELIAN, ids=lambda h: f"{h.name or 'Z'}-{h.order()}")
def test_abelian_invariants_match_the_power_count(h):
    assert abelian_invariants(h) == abelian_invariants_by_powers(h)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(2, 9), min_size=1, max_size=3))
def test_abelian_invariants_of_drawn_products_match_the_power_count(ns):
    g = cyclic(ns[0])
    for n in ns[1:]:
        g = direct_product(g, cyclic(n))
    assert abelian_invariants(g) == abelian_invariants_by_powers(g)
