"""No quotient by the trivial group is built where G/1 = G is all that is
asked, and the abelian invariants are counted from element orders.

- `abelianization_invariants` with G' = 1 and `_ap_quotient_invariants`
  with A^p(G) = 1 read G's own invariants;
- `norm_series` takes norm(P) as its first step;
- `_has_wreath_quotient` with |P| = p^{p+1}, where N = 1 is the only
  kernel, tests P itself against Z_p wr Z_p, with no normal subgroups;
- `abelian_invariants` takes one order per element in place of a power
  per element for each p^k.

Each gives what the route it replaces gives (kept in quotient_oracles.py),
and a full scan and every `analyze` call build no quotient by 1: 61 and
90 of them were built before.
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
from transferlab.catalog import cyclic, default_corpus, direct_product, symmetric, wreath_cyclic
from transferlab.checkers import _has_wreath_quotient
from transferlab.iso import abelian_invariants, abelianization_invariants, is_abelian
from transferlab.series import center, norm, norm_series
from transferlab.sylow import sylow_subgroup
from transferlab.transfer import _ap_quotient_invariants

GOLDEN = Path(__file__).parent.parent / "perfbench" / "golden"


def _sylow(pair):
    entry, p = pair
    return sylow_subgroup(entry.build(), p), p


@pytest.fixture
def kernel_orders(monkeypatch) -> list[int]:
    """The kernel order of every quotient built from now on, wherever the
    library holds `quotient_group` under its own name."""
    real = group_module.quotient_group
    orders = []

    def recording(g, n):
        orders.append(n.order())
        return real(g, n)

    for name, module in list(sys.modules.items()):
        if name.startswith("transferlab") and getattr(module, "quotient_group", None) is real:
            monkeypatch.setattr(module, "quotient_group", recording)
    return orders


def _cli(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


def test_scan_builds_no_quotient_by_the_trivial_group(kernel_orders):
    assert _cli(["scan", "--format", "records"]) == (GOLDEN / "scan_records.jsonl").read_text()
    assert kernel_orders and 1 not in kernel_orders


def test_analyze_builds_no_quotient_by_the_trivial_group(kernel_orders):
    golden = json.loads((GOLDEN / "analyze.json").read_text())
    for argv in golden:
        assert _cli(argv.split()) == golden[argv], argv
    assert kernel_orders and 1 not in kernel_orders


@pytest.mark.parametrize("pair", PAIRS, ids=_pair_id)
def test_wreath_quotient_matches_every_kernel(pair):
    p_syl, p = _sylow(pair)
    assert _has_wreath_quotient(p_syl, p) == has_wreath_quotient_by_quotients(p_syl, p)


def test_order_p_to_the_p_plus_1_lists_no_normal_subgroups(monkeypatch, kernel_orders):
    """The Sylow 2-subgroup of S4 (D8) and Z3wrZ3 are tested as they are;
    the only quotients are those by P' that the isomorphism test's
    fingerprint takes."""

    def refused(p):
        raise AssertionError("normal_subgroups listed")

    monkeypatch.setattr(checkers, "normal_subgroups", refused)
    assert _has_wreath_quotient(sylow_subgroup(symmetric(4), 2), 2)
    assert _has_wreath_quotient(wreath_cyclic(3), 3)
    assert 1 not in kernel_orders


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
