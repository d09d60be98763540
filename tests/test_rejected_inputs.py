"""Inputs rejected before any work: a prime that does not divide |G| is
never factored, a catalog label must be a non-empty string, the weak
closure test needs K <= P <= G, the normalizer N_G(H) needs H <= G, and
Omega_i and the centrality height need i >= 0, the p-functors need a
prime p, and a scan refuses an entry with an empty label.  A prime that
does not divide |G| is a good input to the p-functors, as is an
iterator of seeds to the normal closure, read once."""

import pytest

from transferlab import iso
from transferlab.catalog import CatalogEntry, alternating, dihedral, load_catalog, symmetric
from transferlab.checkers import CHECKERS, scan_corpus
from transferlab.cli import main
from transferlab.group import PermGroup, normal_closure, normalizer
from transferlab.perm import Perm
from transferlab.series import (
    a_p,
    is_p_nilpotent,
    is_p_solvable,
    is_pi_central_of_height,
    o_p,
    o_p_prime,
    o_upper_p,
    omega,
    p_length,
    p_series,
)
from transferlab.sylow import is_weakly_closed, sylow_subgroup

HUGE_PRIME = 1000000000000000003  # factoring it by trial division runs to 10^9


def _refuse_factoring(monkeypatch):
    def refuse(n):
        raise AssertionError(f"factored {n}")

    monkeypatch.setattr(iso, "prime_divisors", refuse)


@pytest.mark.parametrize("p", [HUGE_PRIME, 0, -2, 1, 25])
def test_a_prime_not_dividing_the_order_is_rejected_unfactored(monkeypatch, capsys, p):
    _refuse_factoring(monkeypatch)
    assert main(["analyze", "S4", "--prime", str(p)]) == 2
    assert "--prime must be a prime dividing the group order 24" in capsys.readouterr().err
    with pytest.raises(ValueError, match="not a prime dividing"):
        sylow_subgroup(symmetric(4), p)


@pytest.mark.parametrize("p", [4, 6, 12])
def test_the_cli_rejects_a_composite_divisor(capsys, p):
    """A divisor of |G| reaches the primality test, the last one."""
    assert main(["analyze", "S4", "--prime", str(p)]) == 2
    assert capsys.readouterr().err.startswith("error: --prime must be a prime")


def test_an_empty_catalog_label_is_rejected_with_its_line(tmp_path):
    """An empty label would have `run_checker` name the group by its
    degree, "group(deg 3)", which another entry may use as its label."""
    path = tmp_path / "cat.jsonl"
    path.write_text(
        '{"label": "group(deg 3)", "degree": 3, "generators": [[1, 2, 0]]}\n'
        '{"label": "", "degree": 3, "generators": [[1, 0, 2]]}\n'
    )
    with pytest.raises(ValueError, match=r"cat.jsonl:2: .*label must be a non-empty string"):
        load_catalog(str(path))


def test_a_scan_rejects_an_empty_entry_label_before_any_checker_runs(monkeypatch):
    """The scan's loop walks the entries by label and so writes the records
    in label order; an empty label would name its verdicts "group(deg 3)",
    out of that order."""
    ran = []
    monkeypatch.setattr(CHECKERS["burnside"], "run", ran.append)
    entries = [
        CatalogEntry(label="S3", degree=3, generators=[[1, 2, 0], [1, 0, 2]]),
        CatalogEntry(label="", degree=3, generators=[[1, 0, 2]]),
    ]
    with pytest.raises(ValueError, match="empty entry label"):
        scan_corpus(entries, ["burnside"])
    assert ran == []


def test_weak_closure_needs_k_in_p_in_g():
    """A 3-cycle's subgroup is no subgroup of S4's Sylow 2-subgroup P,
    and P is no subgroup of A4, though its (0 2)(1 3) lies in A4."""
    s4 = symmetric(4)
    p_syl = sylow_subgroup(s4, 2)
    three = PermGroup(4, [Perm.from_cycles(4, [(0, 1, 2)])])
    with pytest.raises(ValueError, match="K <= P <= G"):
        is_weakly_closed(s4, p_syl, three)
    with pytest.raises(ValueError, match="K <= P <= G"):
        is_weakly_closed(alternating(4), p_syl, PermGroup(4, [p_syl.gens[2]]))


def test_a_negative_omega_or_height_index_is_rejected():
    d8 = dihedral(8)
    with pytest.raises(ValueError, match="i must be >= 0"):
        omega(d8, 2, -1)
    with pytest.raises(ValueError, match="i must be >= 0"):
        is_pi_central_of_height(d8, 2, -1, 1)


def test_the_normalizer_rejects_a_subgroup_outside_g():
    """<(0 1)> is no subgroup of A4: a bad input, not a broken invariant."""
    outside = PermGroup(4, [Perm.from_cycles(4, [(0, 1)])])
    with pytest.raises(ValueError, match="H is not a subgroup of G"):
        normalizer(alternating(4), outside)


def test_the_normal_closure_reads_an_iterator_of_seeds_once():
    """The seed check and the closure read one tuple of the seeds, so an
    iterator gives what a list gives."""
    s4 = symmetric(4)
    t = Perm.from_cycles(4, [(0, 1)])
    assert normal_closure(s4, (x for x in [t])).order() == 24
    assert normal_closure(s4, [t]).order() == 24


P_FUNCTORS = [o_p, o_upper_p, o_p_prime, p_series, p_length, is_p_solvable, a_p, is_p_nilpotent]


@pytest.mark.parametrize("p", [0, 1, 4])
@pytest.mark.parametrize("functor", P_FUNCTORS, ids=lambda f: f.__name__)
def test_a_p_functor_rejects_a_p_that_is_no_prime(functor, p):
    """p = 0 divided by zero, and 4 answered as if it were a prime
    (O_{4'}(S4) was 1)."""
    with pytest.raises(ValueError, match=f"^{p} is not a prime$"):
        functor(symmetric(4), p)


def test_a_prime_not_dividing_the_order_keeps_its_defined_answer():
    """S4 at p = 5: O_p = 1, O_{p'} = O^p = A^p = G, one p' step."""
    s4 = symmetric(4)
    assert o_p(s4, 5).is_trivial()
    assert o_p_prime(s4, 5).order() == o_upper_p(s4, 5).order() == a_p(s4, 5).order() == 24
    series = p_series(s4, 5)
    assert ([t.order() for t in series.terms], series.factors) == ([1, 24], ["p'"])
    assert (p_length(s4, 5), is_p_solvable(s4, 5), is_p_nilpotent(s4, 5)) == (0, True, True)
