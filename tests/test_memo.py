"""The memo that keeps derived objects on the group they come from:
repeat calls return the kept object, kept objects equal fresh ones,
a call is keyed by its arguments bound with defaults filled in, a kept
answer is returned under any caps in force, a result kept by a subgroup's
element set is the one any subgroup with those elements gets, and
running the checkers leaves no cyclic garbage."""

import dataclasses
import gc
import importlib
import random
import weakref

import pytest

from transferlab.caps import CapExceeded, Caps, limits
from transferlab.catalog import symmetric, wreath_cyclic
from transferlab.checkers import (
    CHECKERS,
    _controls,
    _nilpotent_maximal_candidates,
    run_checker,
)
from transferlab.group import (
    PermGroup,
    Transversal,
    derived_subgroup,
    memoized,
    normalizer,
    right_transversal,
    span,
)
from transferlab.iso import _cayley_plan, automorphism_group
from transferlab.series import (
    nilpotency_class,
    norm,
    o_p,
    o_upper_p,
    p_series,
    upper_central_series,
    z_k,
)
from transferlab.sylow import (
    TameIntersectionRecord,
    _tame_record,
    all_sylow_subgroups,
    is_tame_intersection,
    is_weakly_closed,
    max_intersection_order,
    sylow_intersections,
    sylow_subgroup,
    tame_intersections_between,
)
from transferlab.transfer import _ap_quotient_invariants
from test_scanned_subgroups import PAIRS, _levels, _pair_id


def _s4_p2_d8():
    """S4 with its Sylow 2-subgroup (D8) and the centre of that D8."""
    g = symmetric(4)
    p_syl = sylow_subgroup(g, 2)
    return g, p_syl, z_k(p_syl, 1)


# function -> (group, args, kwargs) built from S4, its Sylow D8 and Z(D8)
CALLS = {
    derived_subgroup: lambda g, p, z: (g, (), {}),
    upper_central_series: lambda g, p, z: (p, (), {}),
    norm: lambda g, p, z: (p, (), {}),
    o_p: lambda g, p, z: (g, (2,), {}),
    o_upper_p: lambda g, p, z: (g, (2,), {}),
    nilpotency_class: lambda g, p, z: (p, (), {}),
    sylow_subgroup: lambda g, p, z: (g, (3,), {}),
    all_sylow_subgroups: lambda g, p, z: (g, (2,), {}),
    max_intersection_order: lambda g, p, z: (g, (2,), {}),
    tame_intersections_between: lambda g, p, z: (g, (2, z, False), {"strict_lower": False}),
    _ap_quotient_invariants: lambda g, p, z: (g, (2,), {}),
    _nilpotent_maximal_candidates: lambda g, p, z: (g, (), {}),
    _controls: lambda g, p, z: (g, (all_sylow_subgroups(g, 2).normalizer, 2), {}),
    normalizer: lambda g, p, z: (g, (p,), {}),
    is_weakly_closed: lambda g, p, z: (g, (p, z), {}),
    p_series: lambda g, p, z: (g, (2,), {}),
    sylow_intersections: lambda g, p, z: (g, (2,), {}),
    _tame_record: lambda g, p, z: (g, (p, *sylow_intersections(g, 2)[1], 2), {}),
    right_transversal: lambda g, p, z: (g, (p,), {}),
    _cayley_plan: lambda g, p, z: (p, (), {}),
}
IDS = [fn.__name__ for fn in CALLS]


def _plain(value):
    """A comparable form: groups by their generator images, transversals
    by their subgroup's and their reps' images, dataclasses field by
    field (and a tame record's predicates), sequences item by item."""
    if isinstance(value, PermGroup):
        return ("group", value.degree, tuple(x.images for x in value.gens))
    if isinstance(value, Transversal):
        return ("transversal", _plain(value.subgroup), tuple(r.images for r in value.reps))
    if dataclasses.is_dataclass(value):
        fields = tuple(_plain(getattr(value, f.name)) for f in dataclasses.fields(value))
        if isinstance(value, TameIntersectionRecord):
            # Its predicates are properties, worked out on first read.
            return (*fields, value.normalizer_p_nilpotent, value.n_over_c_is_p_group)
        return fields
    if isinstance(value, (list, tuple)):
        return tuple(_plain(v) for v in value)
    return value


def test_every_memoized_function_is_covered():
    modules = ["group", "iso", "series", "sylow", "transfer", "checkers"]
    # Every wrapper `memoized` makes runs one code object; other wrapped
    # callables (`caps.limits`, a contextmanager) are not memos.
    wrapper_code = memoized(lambda g: None).__code__
    found = {
        obj.__wrapped__
        for name in modules
        for obj in vars(importlib.import_module(f"transferlab.{name}")).values()
        if getattr(obj, "__code__", None) is wrapper_code
    }
    assert found == {fn.__wrapped__ for fn in CALLS}


@pytest.mark.parametrize("fn", CALLS, ids=IDS)
def test_second_call_returns_the_kept_object(fn):
    target, args, kwargs = CALLS[fn](*_s4_p2_d8())
    first = fn(target, *args, **kwargs)
    assert fn(target, *args, **kwargs) is first


@pytest.mark.parametrize("fn", CALLS, ids=IDS)
def test_kept_result_equals_a_fresh_call(fn):
    target, args, kwargs = CALLS[fn](*_s4_p2_d8())
    kept = fn(target, *args, **kwargs)
    fresh = fn.__wrapped__(target, *args, **kwargs)
    assert _plain(kept) == _plain(fresh)


def test_a_default_passed_or_left_out_is_one_call():
    g, _, z = _s4_p2_d8()
    kept = tame_intersections_between(g, 2, z, False)
    assert tame_intersections_between(g, 2, z, False, True) is kept
    assert tame_intersections_between(g, 2, z, False, strict_lower=True) is kept


def test_keyword_and_positional_arguments_are_one_call():
    g, _, z = _s4_p2_d8()
    kept = tame_intersections_between(g, 2, z, False, strict_lower=False)
    assert tame_intersections_between(g, 2, z, False, False) is kept
    with pytest.raises(TypeError, match="unexpected keyword"):
        tame_intersections_between(g, 2, z, False, strict=False)
    assert all_sylow_subgroups(g, p=2) is all_sylow_subgroups(g, 2)
    with pytest.raises(TypeError, match="missing"):
        _controls(g, z)
    assert not any(key[0] is _controls.__wrapped__ for key in g._memo)


def test_repeat_tame_intersection_returns_the_kept_record():
    """`is_tame_intersection` forms a fresh P cap Q on every call; the
    `_tame_record` memo, keyed by that D's element set, returns the
    record the first call kept."""
    g, p_syl, _ = _s4_p2_d8()
    q_syl = all_sylow_subgroups(g, 2).members[1]
    kept = is_tame_intersection(g, p_syl, q_syl, 2)
    assert is_tame_intersection(g, p_syl, q_syl, 2) is kept


def test_a_kept_answer_is_returned_under_any_caps():
    """A cap is checked when an answer is computed, not when a kept one
    is returned: under an element cap of 1, which any computation of
    these would exceed, both calls return the kept objects."""
    g, p_syl, _ = _s4_p2_d8()
    derived, trans = derived_subgroup(g), right_transversal(g, p_syl)
    with limits(Caps(element_cap=1)):
        assert derived_subgroup(g) is derived
        assert right_transversal(g, p_syl) is trans


def test_capped_call_is_not_kept():
    g = symmetric(4)
    with pytest.raises(CapExceeded), limits(Caps(element_cap=1)):
        sylow_subgroup(g, 2)
    assert g._memo == {}
    assert sylow_subgroup(g, 2).order() == 8


def _respan(h: PermGroup, seed: int) -> PermGroup:
    """h rebuilt by `span` over its elements in shuffled order."""
    elems = list(h.elements())
    random.Random(seed).shuffle(elems)
    return span(h.degree, elems)


def test_normalizer_is_kept_by_element_set():
    """A D8 with other generators gets the N_G(D8) kept for S4's Sylow D8,
    the memo keeps that D8 alive no longer than its caller does, and a
    capped call keeps nothing."""
    g, d8, _ = _s4_p2_d8()
    copy = _respan(d8, 0)
    assert copy.element_set() == d8.element_set() and _plain(copy) != _plain(d8)
    kept = normalizer(g, d8)
    assert normalizer(g, copy) is kept
    for fresh in (normalizer.__wrapped__(g, d8), normalizer.__wrapped__(g, copy)):
        assert _plain(fresh) == _plain(kept) and _levels(fresh.chain) == _levels(kept.chain)
    ref = weakref.ref(copy)
    del copy
    assert ref() is None

    fresh_s4 = symmetric(4)
    with pytest.raises(CapExceeded):
        with limits(Caps(element_cap=8)):
            normalizer(fresh_s4, d8)  # D8 is listed, S4 is not
    assert not any(key[0] is normalizer.__wrapped__ for key in fresh_s4._memo)
    assert normalizer(fresh_s4, d8).element_set() == kept.element_set()


def test_a_respanned_lower_gets_the_kept_list():
    """V4 = O_2(S4) rebuilt by `span` from its shuffled elements has other
    generators and gets the tame intersections kept for V4."""
    g = symmetric(4)
    v4 = o_p(g, 2)
    copy = _respan(v4, 1)
    assert copy.element_set() == v4.element_set() and _plain(copy) != _plain(v4)
    kept = tame_intersections_between(g, 2, v4, True, strict_lower=False)
    assert len(kept) == 1
    assert tame_intersections_between(g, 2, copy, True, strict_lower=False) is kept


@pytest.mark.parametrize("pair", PAIRS, ids=_pair_id)
def test_value_keyed_results_ignore_generators_on_corpus(pair):
    """P and N_G(P) rebuilt from shuffled element lists have other
    generators; N_G(P) and the control answer must not see it."""
    entry, p = pair
    g = entry.build()
    fam = all_sylow_subgroups(g, p)
    p_syl, ngp = fam.base_member, fam.normalizer
    of_p, of_copy = (normalizer.__wrapped__(g, h) for h in (p_syl, _respan(p_syl, 1)))
    assert _plain(of_copy) == _plain(of_p) and _levels(of_copy.chain) == _levels(of_p.chain)
    answers = {_controls.__wrapped__(g, n, p) for n in (ngp, _respan(ngp, 2))}
    assert len(answers) == 1


def test_checkers_leave_no_cyclic_garbage():
    """Memoized results never point back at their group, and the
    isomorphism and automorphism searches leave no self-referencing
    closure or generator behind, so a group and everything kept on it are
    freed by reference counting.  Z3wrZ3 at p = 3 runs the automorphism
    search with several levels: |Aut| = 324 from 4 generators."""
    z3wrz3_aut = automorphism_group(wreath_cyclic(3))
    assert (len(z3wrz3_aut), len(z3wrz3_aut.gens)) == (324, 4)
    for build, prime in ((lambda: symmetric(4), 2), (lambda: wreath_cyclic(3), 3)):
        gc.collect()
        gc.disable()
        try:
            g = build()
            verdicts = [
                run_checker(cid, g, prime)
                for cid, spec in CHECKERS.items()
                if spec.applies(g, prime)
            ]
            del g
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert len(verdicts) == 21
        assert all(v.verdict != "skipped:cap" for v in verdicts)
