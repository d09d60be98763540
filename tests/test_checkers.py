import json

import pytest

from transferlab.caps import CapExceeded
from transferlab.catalog import default_corpus, entry_for, symmetric
from transferlab.checkers import (
    CHECKERS,
    Context,
    _lemma_condition_a,
    _normal_p_subgroup_candidates,
    run_checker,
    scan_corpus,
    verify_paper_witnesses,
)
from transferlab.group import InvariantError
from transferlab.series import (
    frattini_p,
    is_p_group,
    is_pi_central_of_height,
    iterated_commutator,
    norm,
    z_k,
)
from transferlab.sylow import sylow_subgroup
from test_scanned_subgroups import PAIRS, _pair_id


def test_registry_is_complete():
    expected = {
        "burnside", "yoshida", "main_1_3", "main_1_3_weak", "cor_1_5",
        "cor_1_6", "thm_1_8", "thm_1_8_weak", "cor_1_9", "thm_1_10",
        "cor_1_11", "hall_wielandt", "lemma_3_1", "lemma_3_2", "prop_3_4",
        "aux_gruen_instance", "thm_4_1", "thm_4_2", "thm_4_3",
        "thm_4_4_janko", "thm_4_5", "thm_4_8", "thm_4_10_property",
    }
    assert set(CHECKERS) == expected


def test_unknown_checker_raises(s4):
    with pytest.raises(ValueError):
        run_checker("nope", s4, 2)


@pytest.mark.parametrize(
    "checker_id,p",
    [("thm_4_10_property", 2), ("thm_4_8", 2), ("thm_4_4_janko", 3), ("thm_4_5", 3)],
)
def test_checker_that_does_not_apply_raises(s4, checker_id, p):
    """run_checker refuses a pair its checker does not apply to, as the
    scan never runs it there, instead of giving it a verdict."""
    assert not CHECKERS[checker_id].applies(s4, p)
    with pytest.raises(ValueError, match=f"checker {checker_id} does not apply to .* at p={p}$"):
        run_checker(checker_id, s4, p)


@pytest.mark.parametrize(
    "checker_id,label_prime,expected",
    [
        ("main_1_3", ("S4", 2), "vacuous"),
        ("burnside", ("A5", 2), "implication_ok"),
        ("thm_4_3", ("S4", 2), "implication_ok"),
        ("lemma_3_2", ("S4", 2), "implication_ok"),
        ("thm_1_10", ("S4", 2), "implication_ok"),
        ("thm_4_2", ("S4", 2), "implication_ok"),
        ("hall_wielandt", ("S4", 2), "vacuous"),
    ],
)
def test_spot_verdicts(checker_id, label_prime, expected):
    label, p = label_prime
    entry = next(e for e in default_corpus() if e.label == label)
    v = run_checker(checker_id, entry.build(), p)
    assert v.verdict == expected
    assert v.group_label == label


def test_thm_4_2_strict_reading_flags_s4():
    entry = next(e for e in default_corpus() if e.label == "S4")
    v = run_checker("thm_4_2", entry.build(), 2)
    assert v.verdict == "implication_ok"
    assert v.witnesses["strict_reading_ok"] is False
    assert v.witnesses["p_length"] == 2
    assert v.witnesses["p_prime_length"] == 1


def test_run_checker_alone_evaluates_conclusions(monkeypatch):
    """Every checker's conclusion is called by run_checker exactly once when
    its hypothesis holds, and never when it fails."""
    calls = []
    for spec in CHECKERS.values():

        def recording(ctx, run=spec.run, checker_id=spec.id):
            witnesses, conclusion = run(ctx)
            if conclusion is None:
                return witnesses, None

            def recorded():
                calls.append(checker_id)
                return conclusion()

            return witnesses, recorded

        monkeypatch.setattr(spec, "run", recording)
    fired = {True: 0, False: 0}
    for label, p in (("S4", 2), ("S4", 3), ("A5", 2), ("D8", 2), ("SL(2,3)", 2)):
        g = next(e for e in default_corpus() if e.label == label).build()
        for checker_id, spec in CHECKERS.items():
            if not spec.applies(g, p):
                continue
            calls.clear()
            v = run_checker(checker_id, g, p)
            assert calls == ([checker_id] if v.hypothesis_holds else [])
            assert (v.conclusion_holds is None) == (not v.hypothesis_holds)
            assert v.interpretation_notes == spec.notes
            fired[v.hypothesis_holds] += 1
    assert fired[True] and fired[False]


def test_cap_inside_conclusion_is_skipped(monkeypatch, s4):
    def capped():
        raise CapExceeded("element enumeration", 100, 10)

    monkeypatch.setattr(CHECKERS["burnside"], "run", lambda ctx: ({"sylow": "x"}, capped))
    v = run_checker("burnside", s4, 2)
    assert v.verdict == "skipped:cap"
    assert v.hypothesis_holds is None and v.conclusion_holds is None
    assert set(v.witnesses) == {"cap"}


@pytest.mark.parametrize("where", ["run", "conclusion"])
def test_exception_in_checker_is_an_error_verdict(monkeypatch, s4, where):
    """Any exception but a cap becomes an error verdict that names it."""

    def broken():
        raise InvariantError("index 3 != 4")

    def run(ctx):
        if where == "run":
            broken()
        return {"sylow": "x"}, broken

    monkeypatch.setattr(CHECKERS["burnside"], "run", run)
    v = run_checker("burnside", s4, 2)
    assert v.verdict == "error"
    assert v.hypothesis_holds is None and v.conclusion_holds is None
    assert v.witnesses == {
        "exception": "InvariantError",
        "message": "index 3 != 4",
        "raised_at": f"test_checkers.py:{broken.__code__.co_firstlineno + 1} in broken",
    }
    assert json.loads(v.to_json())["verdict"] == "error"


def test_failing_checker_is_counted_and_the_scan_goes_on(failing_burnside):
    entries = [e for e in default_corpus() if e.label in ("S3", "S4")]
    report = scan_corpus(entries, ["burnside"])
    assert [(v.group_label, v.prime, v.verdict) for v in report.verdicts] == [
        ("S3", 2, "implication_ok"),
        ("S3", 3, "implication_ok"),
        ("S4", 2, "vacuous"),
        ("S4", 3, "error"),
    ]
    assert report.summary["error"] == 1 and not report.violations


def test_verdict_json_round_trip(s4):
    v = run_checker("burnside", symmetric(4), 2)
    data = json.loads(v.to_json())
    assert data["checker_id"] == "burnside"
    assert data["prime"] == 2
    assert data["verdict"] in ("implication_ok", "vacuous")


def test_applicability_guards():
    ids_for_s4_p3 = [
        spec.id
        for spec in CHECKERS.values()
        if spec.applies(symmetric(4), 3)
    ]
    assert "thm_4_4_janko" not in ids_for_s4_p3  # p = 2 only
    assert "thm_4_5" not in ids_for_s4_p3
    assert "thm_4_8" in ids_for_s4_p3  # odd primes only
    ids_for_s4_p2 = [spec.id for spec in CHECKERS.values() if spec.applies(symmetric(4), 2)]
    assert "thm_4_8" not in ids_for_s4_p2
    assert "thm_4_4_janko" in ids_for_s4_p2


def test_weak_variants_agree_with_strong(s4, s5):
    """When the strong hypothesis holds, weak and strong conclusions agree."""
    for g in (s4, s5):
        for p in (2, 3):
            strong = run_checker("main_1_3", g, p)
            weak = run_checker("main_1_3_weak", g, p)
            if strong.verdict == "implication_ok" and strong.hypothesis_holds:
                assert weak.verdict in ("implication_ok", "vacuous")


def test_center_norm_sandwich():
    """Z(P) = Z_1(P) <= Z*(P) <= Z_2(P) on corpus p-groups."""
    from transferlab.series import center, upper_central_series

    count = 0
    for entry in default_corpus():
        g = entry.build()
        for p in (2, 3, 5):
            if g.order() % p or not is_p_group(g, p):
                continue
            z1 = z_k(g, 1)
            zstar = norm(g)
            z2 = z_k(g, 2)
            assert center(g).same_group_as(z1)
            assert z1.is_subgroup_of(zstar)
            assert zstar.is_subgroup_of(z2)
            count += 1
    assert count >= 15


def test_weakly_closed_normalizer_containment():
    """If K is weakly closed in P then N_G(P) <= N_G(K)."""
    from transferlab.group import normalizer
    from transferlab.iso import all_subgroups
    from transferlab.sylow import is_weakly_closed

    g = symmetric(4)
    p_syl = sylow_subgroup(g, 2)
    checked = 0
    for k in all_subgroups(p_syl):
        if k.is_trivial():
            continue
        closed, _ = is_weakly_closed(g, p_syl, k)
        if closed:
            ngp = normalizer(g, p_syl)
            ngk = normalizer(g, k)
            assert ngp.is_subgroup_of(ngk)
            checked += 1
    assert checked >= 2


def test_scan_small_subset_clean_and_deterministic():
    """The scan's loop walks the entries by label, so the entries reversed,
    and read once from an iterator, give the same records and summary, in
    (label, prime, checker) order."""
    entries = [e for e in default_corpus() if e.label in ("S3", "S4", "A4", "D8", "Q8")]
    r1 = scan_corpus(entries, ["burnside", "main_1_3", "thm_4_2"])
    r2 = scan_corpus(reversed(entries), ["burnside", "main_1_3", "thm_4_2"])
    assert not r1.violations
    assert r1.record_lines() == r2.record_lines()
    assert (r1.corpus_description, r1.summary) == (r2.corpus_description, r2.summary)
    keys = [(v.group_label, v.prime, v.checker_id) for v in r1.verdicts]
    assert keys == sorted(keys)


def test_corrupt_checker_is_detected(corrupt_burnside):
    entries = [e for e in default_corpus() if e.label in ("S3", "S4")]
    report = scan_corpus(entries, ["burnside"])
    assert report.violations


def test_paper_witnesses_all_pass():
    facts = verify_paper_witnesses()
    assert len(facts) == 10
    assert all(ok for _, ok in facts)


def test_thm_4_10_property_on_p_groups():
    """The height-to-center property checker runs on every corpus p-group."""
    count = 0
    for entry in default_corpus():
        g = entry.build()
        for p in (2, 3, 5):
            if g.order() % p or not is_p_group(g, p) or g.order() == 1:
                continue
            v = run_checker("thm_4_10_property", g, p)
            assert v.verdict != "VIOLATION"
            count += 1
    assert count >= 15


@pytest.mark.parametrize("pair", [pair for pair in PAIRS if pair[1] > 2], ids=_pair_id)
def test_order_dividing_p_is_order_p_at_height_p_minus_2(pair):
    """`_chk_thm_4_8` reads the order-dividing variant at p^1 off the strict
    one: the elements of order dividing p, 1 aside, are those of order p."""
    entry, p = pair
    p_syl = sylow_subgroup(entry.build(), p)
    strict = is_pi_central_of_height(p_syl, p, 1, p - 2)
    assert is_pi_central_of_height(p_syl, p, 1, p - 2, order_divides=True) == strict


def _lemma_condition_a_all_z(p_grp, z, p):
    """Lemma 3.1 (a) as stated: [z, g, ..., g]_{p-1} in Phi(Z) for every
    g in P and every z in Z, each z tested."""
    phi_z = frattini_p(z, p) if not z.is_trivial() else z
    return all(
        phi_z.contains(iterated_commutator(zz, g, p - 1))
        for zz in z.elements()
        for g in p_grp.elements()
    )


@pytest.mark.parametrize("pair", PAIRS, ids=_pair_id)
def test_lemma_condition_a_on_generators_matches_every_z(pair):
    """The checker tests Lemma 3.1 (a) on the generators of each
    candidate Z; on every corpus candidate that agrees with testing
    every z in Z."""
    entry, p = pair
    ctx = Context(entry.build(), p)
    for z in _normal_p_subgroup_candidates(ctx):
        expected = _lemma_condition_a_all_z(ctx.p_syl, z, p)
        assert _lemma_condition_a(ctx.p_syl, z, p) == expected


def test_repeated_entry_label_is_rejected_before_any_checker_runs(monkeypatch):
    s3 = next(e for e in default_corpus() if e.label == "S3")
    ran = []
    monkeypatch.setattr(CHECKERS["burnside"], "run", ran.append)
    with pytest.raises(ValueError, match="repeated entry label: S3"):
        scan_corpus([s3, s3], ["burnside"])
    assert ran == []
