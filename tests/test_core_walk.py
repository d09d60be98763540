"""Core_G(H) meets one conjugate of H per right coset of N_G(H), and
O_p(G) is Core_G(P) for a Sylow p-subgroup P.

H^{nt} = H^t for n in N_G(H), so the conjugates by a transversal of H
repeat each conjugate |N_G(H) : H| times; the transversal of N_G(H)
meets each once.  The counts below pin that walk: a normal P is its own
core with no intersection made, and a P of prime order meets its first
other conjugate in the trivial group.
"""

import sys

import pytest

from transferlab import group as group_module
from transferlab.catalog import alternating, cyclic, psl2, sl23
from transferlab.group import core
from transferlab.series import o_p
from transferlab.sylow import sylow_subgroup


def _count_intersections(monkeypatch) -> list:
    """Count `intersection` calls in every module that holds it."""
    real = group_module.intersection
    calls = []

    def counting(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("transferlab") and getattr(module, "intersection", None) is real:
            monkeypatch.setattr(module, "intersection", counting)
    return calls


@pytest.mark.parametrize(
    "build, order", [(lambda: alternating(4), 4), (lambda: sl23(), 8)], ids=["A4", "SL(2,3)"]
)
def test_o_2_of_a_normal_sylow_is_the_sylow_itself(monkeypatch, build, order):
    g = build()
    calls = _count_intersections(monkeypatch)
    op = o_p(g, 2)
    assert op is sylow_subgroup(g, 2)
    assert op.order() == order
    assert calls == []


def test_core_of_a_sylow_17_in_psl217_makes_one_intersection(monkeypatch):
    """P has order 17 and |N_G(P) : P| = 8, so a walk over P's own
    transversal would meet P itself at 7 reps before another conjugate."""
    g = psl2(17)
    p_syl = sylow_subgroup(g, 17)
    calls = _count_intersections(monkeypatch)
    assert core(g, p_syl).is_trivial()
    assert len(calls) == 1
    assert o_p(g, 17).is_trivial()
    assert len(calls) == 2


def test_core_rejects_a_subgroup_outside_g():
    """<(0 1 2 3)> is odd, so it lies outside A4."""
    with pytest.raises(ValueError, match="not a subgroup"):
        core(alternating(4), cyclic(4))
