"""A tame-intersection record works out N_G(D)'s p-nilpotency and whether
N_G(D)/C_G(D) is a p-group together, once, on the first read of either,
under the caps in force at that read; `analyze`, which prints only the
tame D's, reads neither."""

import pytest

from transferlab import sylow
from transferlab.caps import CapExceeded, Caps, limits
from transferlab.catalog import symmetric
from transferlab.cli import main
from transferlab.group import InvariantError
from transferlab.sylow import all_sylow_subgroups, is_tame_intersection


def _count_calls(monkeypatch, module, name: str) -> list:
    """Patch module.name with a wrapper that logs each call's args."""
    calls, real = [], getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("label", ["PSL(2,17)", "S6"])
def test_analyze_works_out_no_record_predicate(monkeypatch, capsys, label):
    """`analyze` makes a record for every Sylow intersection and prints the
    tame ones' orders, but asks no record for its predicates."""
    records = _count_calls(monkeypatch, sylow, "_tame_record")
    centralizers = _count_calls(monkeypatch, sylow, "centralizer")
    p_nilpotent = _count_calls(monkeypatch, sylow, "is_p_nilpotent")
    assert main(["analyze", label, "--prime", "2"]) == 0
    assert "tame intersections below P: " in capsys.readouterr().out
    assert len(records) > 1
    assert (centralizers, p_nilpotent) == ([], [])


def _s4_v4_record():
    """The record of V4 = P cap Q in a fresh S4 at p = 2: N_G(V4) = S4,
    C_G(V4) = V4, so N/C is S3, not a 2-group."""
    g = symmetric(4)
    fam = all_sylow_subgroups(g, 2)
    return is_tame_intersection(g, fam.members[0], fam.members[1], 2)


def test_both_predicates_come_from_one_computation(monkeypatch):
    centralizers = _count_calls(monkeypatch, sylow, "centralizer")
    p_nilpotent = _count_calls(monkeypatch, sylow, "is_p_nilpotent")
    rec = _s4_v4_record()
    assert (len(centralizers), len(p_nilpotent)) == (0, 0)
    assert (rec.n_over_c_is_p_group, rec.normalizer_p_nilpotent) == (False, False)
    assert (rec.normalizer_p_nilpotent, rec.n_over_c_is_p_group) == (False, False)
    assert (len(centralizers), len(p_nilpotent)) == (1, 1)


@pytest.mark.parametrize("first", ["normalizer_p_nilpotent", "n_over_c_is_p_group"])
def test_a_p_nilpotent_normalizer_with_n_over_c_not_a_p_group_raises(monkeypatch, first):
    """The cross-check runs on the first read of either predicate, and a
    read that raises keeps nothing, so the next read raises too."""
    monkeypatch.setattr(sylow, "is_p_nilpotent", lambda g, p: True)
    rec = _s4_v4_record()
    for name in (first, "normalizer_p_nilpotent", "n_over_c_is_p_group"):
        with pytest.raises(InvariantError, match="N/C not a p-group"):
            getattr(rec, name)


def test_a_capped_first_read_raises_and_keeps_nothing():
    """A record computes its predicates under the caps in force at its
    first read: an element cap of 1 raises there, and keeps nothing, so
    the next read, under the default caps, answers as a fresh record."""
    rec, fresh = _s4_v4_record(), _s4_v4_record()
    with limits(Caps(element_cap=1)):
        with pytest.raises(CapExceeded):
            rec.normalizer_p_nilpotent
    assert "_predicates" not in vars(rec)
    late = (rec.normalizer_p_nilpotent, rec.n_over_c_is_p_group)
    assert late == (fresh.normalizer_p_nilpotent, fresh.n_over_c_is_p_group) == (False, False)
