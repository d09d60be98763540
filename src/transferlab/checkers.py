"""The theorem harness: one checker per stated result.

A checker takes a Context and returns (witnesses, conclusion): the
conclusion is None when the hypothesis fails, and otherwise a
zero-argument callable.  run_checker is the one place that calls a
conclusion, so no conclusion is evaluated without its hypothesis; the
verdict is implication_ok, vacuous, VIOLATION, skipped:cap when a
resource cap interrupts either evaluation, or error when either raises
anything else.  An error verdict carries the exception's type, message
and innermost frame as witnesses, and the scan goes on with the next
checker.

A checker is registered by its `_checker(id, description, applies,
notes)` decorator, written on its `_chk_*` function: the decorator puts
one CheckerSpec into CHECKERS and returns the function unchanged.
"""

from __future__ import annotations

import json
import os
import traceback
from dataclasses import dataclass, field

from .caps import CapExceeded
from .catalog import dihedral, generalized_quaternion, psl2, symmetric, wreath_cyclic
from .group import (
    InvariantError,
    PermGroup,
    intersection,
    intersection_order,
    is_abelian,
    is_maximal,
    memoized,
    normalizer,
    quotient_group,
    trivial_group,
)
from .iso import all_subgroups, is_isomorphic, normal_subgroups, prime_divisors
from .series import (
    center,
    frattini_p,
    is_nilpotent,
    is_p_group,
    is_p_nilpotent,
    is_p_solvable,
    is_pi_central_of_height,
    is_solvable,
    iterated_commutator,
    nilpotency_class,
    norm,
    norm_length,
    o_p,
    omega,
    p_length,
    p_prime_length,
    z_k,
)
from .sylow import (
    all_sylow_subgroups,
    max_intersection_order,
    is_weakly_closed,
    characteristic_subgroups_above,
    is_tame_intersection,
    sylow_subgroup,
    tame_intersections_between,
)
from .transfer import controls_p_transfer, lemma23_witness


@memoized
def _controls(g: PermGroup, n: PermGroup, p: int) -> bool:
    """Does N control p-transfer in G?  Kept as a bool, which holds no
    group.  The answer depends only on N's elements: another Sylow
    subgroup of N conjugates both focal subgroups by one element."""
    return controls_p_transfer(g, n, p).controls


@dataclass
class Context:
    """The (group, prime) pair a checker runs on.  The properties call
    memoized functors, so all checkers on one group share their results."""

    group: PermGroup
    prime: int

    @property
    def family(self):
        return all_sylow_subgroups(self.group, self.prime)

    @property
    def p_syl(self) -> PermGroup:
        return self.family.base_member

    @property
    def ngp(self) -> PermGroup:
        return self.family.normalizer

    @property
    def z_lower(self) -> PermGroup:
        """Z_{p-1}(P)."""
        return z_k(self.p_syl, self.prime - 1)

    @property
    def norm_p(self) -> PermGroup:
        """Z*(P), the norm of P."""
        return norm(self.p_syl)

    def control(self, n: PermGroup) -> bool:
        return _controls(self.group, n, self.prime)

    def controls_ngp(self) -> bool:
        return self.control(self.ngp)

    def p_nilpotent(self) -> bool:
        return is_p_nilpotent(self.group, self.prime)


@dataclass
class CheckerVerdict:
    checker_id: str
    group_label: str
    prime: int
    hypothesis_holds: bool | None
    conclusion_holds: bool | None
    verdict: str  # implication_ok | vacuous | VIOLATION | skipped:cap | error
    witnesses: dict = field(default_factory=dict)
    interpretation_notes: str = ""

    def to_json(self) -> str:
        return json.dumps(
            {
                "checker_id": self.checker_id,
                "group_label": self.group_label,
                "prime": self.prime,
                "hypothesis_holds": self.hypothesis_holds,
                "conclusion_holds": self.conclusion_holds,
                "verdict": self.verdict,
                "witnesses": {k: str(v) for k, v in sorted(self.witnesses.items())},
                "interpretation_notes": self.interpretation_notes,
            },
            sort_keys=True,
        )


def _sub_label(h: PermGroup) -> str:
    return f"order {h.order()}"


@dataclass
class CheckerSpec:
    id: str
    description: str
    run: object  # callable(Context) -> (witnesses, conclusion callable or None)
    applies: object  # callable(PermGroup, prime) -> bool
    notes: str = ""  # how the checker reads the statement, copied into each verdict


def _divides(g: PermGroup, p: int) -> bool:
    return g.order() % p == 0


CHECKERS: dict[str, CheckerSpec] = {}


def _checker(id_: str, description: str, applies=_divides, notes: str = ""):
    """Register the decorated function as checker id_; it is returned unchanged."""

    def register(run):
        CHECKERS[id_] = CheckerSpec(id_, description, run, applies, notes)
        return run

    return register


_WEAK_NOTES = "weakened hypothesis: N/C a p-group instead of p-nilpotent N"


# individual checkers --------------------------------------------------------
# Each takes a Context and returns (witnesses, conclusion).  The conclusion
# is None when the hypothesis fails; otherwise it is a zero-argument
# callable, and run_checker alone calls it.  A conclusion may add entries
# to the witnesses it was returned with.


@_checker("burnside", "abelian Sylow implies N_G(P) controls p-transfer")
def _chk_burnside(ctx: Context):
    wit = {"sylow": _sub_label(ctx.p_syl)}
    return wit, ctx.controls_ngp if is_abelian(ctx.p_syl) else None


@_checker("hall_wielandt", "class(P) < p implies control")
def _chk_hall_wielandt(ctx: Context):
    cls = nilpotency_class(ctx.p_syl)
    return {"class": cls}, ctx.controls_ngp if cls < ctx.prime else None


def _has_wreath_quotient(p_syl: PermGroup, p: int) -> bool:
    """Has P a quotient isomorphic to Z_p wr Z_p, of order p^{p+1}?  When
    |P| is that order, N = 1 is the only kernel, so P's normal subgroups
    are not listed, and P/1 is P itself (see `QuotientGroup`)."""
    target = p ** (p + 1)
    if p_syl.order() % target:
        return False
    wreath = wreath_cyclic(p)
    kernels = [trivial_group(p_syl.degree)] if p_syl.order() == target else normal_subgroups(p_syl)
    return any(
        is_isomorphic(quotient_group(p_syl, n).image, wreath)[0]
        for n in kernels
        if n.order() * target == p_syl.order()
    )


@_checker("yoshida", "no Z_p wr Z_p quotient of P implies control")
def _chk_yoshida(ctx: Context):
    has_quot = _has_wreath_quotient(ctx.p_syl, ctx.prime)
    return {"has_wreath_quotient": has_quot}, None if has_quot else ctx.controls_ngp


def _tame_checker(ctx: Context, lower: PermGroup, conclusion, strict: bool, weak=False):
    """The tame-intersection results: every tame intersection between
    `lower` and P (exclusive of both when `strict`) has a p-nilpotent
    normalizer N, or with `weak` an N/C that is a p-group."""
    records = tame_intersections_between(ctx.group, ctx.prime, lower, strict, strict)
    failing = None
    for rec in records:
        ok = rec.n_over_c_is_p_group if weak else rec.normalizer_p_nilpotent
        if not ok:
            failing = rec
            break
    wit = {"tame_count": len(records), "lower": _sub_label(lower)}
    if failing is None:
        return wit, conclusion
    wit["failing_intersection"] = _sub_label(failing.d)
    wit["failing_normalizer"] = _sub_label(failing.normalizer)
    return wit, None


@_checker(
    "main_1_3",
    "p-nilpotent normalizers of tame intersections strictly between "
    "Z_{p-1}(P) and P imply control",
)
def _chk_main_1_3(ctx: Context):
    return _tame_checker(ctx, ctx.z_lower, ctx.controls_ngp, strict=True)


@_checker("main_1_3_weak", "same with N/C a p-group in the hypothesis", notes=_WEAK_NOTES)
def _chk_main_1_3_weak(ctx: Context):
    return _tame_checker(ctx, ctx.z_lower, ctx.controls_ngp, strict=True, weak=True)


@_checker(
    "cor_1_6",
    "p-nilpotent normalizers of tame intersections above Z_{p-1}(P) "
    "imply G is p-nilpotent",
    notes="lower bound read inclusively (Z_{p-1}(P) <= D, including D = P); "
    "the strict reading admits abelian-Sylow counterexamples",
)
def _chk_cor_1_6(ctx: Context):
    return _tame_checker(ctx, ctx.z_lower, ctx.p_nilpotent, strict=False)


@_checker("thm_1_8", "the Z*(P) version of the tame-intersection theorem")
def _chk_thm_1_8(ctx: Context):
    return _tame_checker(ctx, ctx.norm_p, ctx.controls_ngp, strict=True)


@_checker("thm_1_8_weak", "Z*(P) version with the N/C hypothesis", notes=_WEAK_NOTES)
def _chk_thm_1_8_weak(ctx: Context):
    return _tame_checker(ctx, ctx.norm_p, ctx.controls_ngp, strict=True, weak=True)


@_checker(
    "cor_1_9",
    "Z*(P) version of the p-nilpotency corollary",
    notes="lower bound read inclusively, as for the Z_{p-1} variant",
)
def _chk_cor_1_9(ctx: Context):
    return _tame_checker(ctx, ctx.norm_p, ctx.p_nilpotent, strict=False)


def _intersection_bound(ctx: Context, bound: int):
    """Every Sylow intersection has order at most `bound`: then control."""
    largest = max_intersection_order(ctx.group, ctx.prime)
    wit = {"max_intersection": largest, "bound": bound}
    return wit, ctx.controls_ngp if largest <= bound else None


@_checker("cor_1_5", "all |P cap Q| <= |Z_{p-1}(P)| implies control")
def _chk_cor_1_5(ctx: Context):
    return _intersection_bound(ctx, ctx.z_lower.order())


@_checker("cor_1_11", "all |P cap Q| <= |Z*(P)| implies control")
def _chk_cor_1_11(ctx: Context):
    return _intersection_bound(ctx, ctx.norm_p.order())


@_checker("thm_4_1", "max Sylow intersection <= p^{p-1} implies control")
def _chk_thm_4_1(ctx: Context):
    return _intersection_bound(ctx, ctx.prime ** (ctx.prime - 1))


@_checker("thm_1_10", "weakly closed K <= Z*(P) implies N_G(K) controls p-transfer")
def _chk_thm_1_10(ctx: Context):
    admissible = []
    for k_sub in all_subgroups(ctx.norm_p):
        closed, _ = is_weakly_closed(ctx.group, ctx.p_syl, k_sub)
        if closed:
            admissible.append(k_sub)
    wit = {"weakly_closed_count": len(admissible), "norm_order": ctx.norm_p.order()}
    if not admissible:
        return wit, None

    def every_normalizer_controls() -> bool:
        for k_sub in admissible:
            n_k = normalizer(ctx.group, k_sub)
            if not ctx.control(n_k):
                wit["failing_K"] = _sub_label(k_sub)
                return False
        return True

    return wit, every_normalizer_controls


@_checker(
    "prop_3_4", "all characteristic subgroups above Z_{p-1}(P) weakly closed implies control"
)
def _chk_prop_3_4(ctx: Context):
    chars = characteristic_subgroups_above(ctx.p_syl, ctx.z_lower)
    wit = {"characteristic_count": len(chars)}
    for c in chars:
        closed, _ = is_weakly_closed(ctx.group, ctx.p_syl, c)
        if not closed:
            wit["not_weakly_closed"] = _sub_label(c)
            return wit, None
    return wit, ctx.controls_ngp


@_checker(
    "aux_gruen_instance", "Z_{p-1}(P) weakly closed implies N_G(Z_{p-1}(P)) controls"
)
def _chk_aux_gruen_instance(ctx: Context):
    z = ctx.z_lower
    closed, conj = is_weakly_closed(ctx.group, ctx.p_syl, z)
    wit = {"Z": _sub_label(z), "weakly_closed": closed}
    if not closed:
        wit["conjugator"] = conj
        return wit, None
    return wit, lambda: ctx.control(normalizer(ctx.group, z))


def _normal_p_subgroup_candidates(ctx: Context) -> list[PermGroup]:
    op = o_p(ctx.group, ctx.prime)
    candidates = [op]
    if not op.is_trivial():
        candidates.append(omega(op, ctx.prime, 1))
        candidates.append(intersection(center(ctx.p_syl), op))
    out = []
    seen = set()
    for z in candidates:
        key = z.element_set()
        if key in seen:
            continue
        seen.add(key)
        if z.is_subgroup_of(ctx.p_syl) and z.is_normal_in(ctx.group):
            out.append(z)
    return out


def _quotient_controls(ctx: Context, z: PermGroup) -> bool:
    """Does N_G(P)/Z control p-transfer in G/Z?  For Z = 1 this is the
    kept answer for N_G(P) in G, as G/1 is G (see `QuotientGroup`)."""
    quot = quotient_group(ctx.group, z)
    if quot.image.order() % ctx.prime:
        return True
    return _controls(quot.image, quot.project_subgroup(ctx.ngp), ctx.prime)


def _lemma_condition_a(p_grp: PermGroup, z: PermGroup, p: int) -> bool:
    """[z, g, ..., g]_{p-1} in Phi(Z) for every g in P and every z in Z.

    Every candidate Z is normal in G and lies in P, so Z/Phi(Z) is an
    elementary abelian P-module, and there [z, g, ..., g]_{p-1} is
    z(g - 1)^{p-1}, linear in z: the generators of Z are enough.
    """
    phi_z = frattini_p(z, p) if not z.is_trivial() else z
    return all(
        phi_z.contains(iterated_commutator(zz, g, p - 1))
        for zz in z.gens
        for g in p_grp.elements()
    )


@_checker(
    "lemma_3_1",
    "quotient control plus the iterated-commutator or Frattini condition "
    "lifts control along G/Z",
)
def _chk_lemma_3_1(ctx: Context):
    qualifying = []
    for z in _normal_p_subgroup_candidates(ctx):
        if not _quotient_controls(ctx, z):
            continue
        cond_a = _lemma_condition_a(ctx.p_syl, z, ctx.prime)
        cond_b = z.is_subgroup_of(frattini_p(ctx.p_syl, ctx.prime))
        if cond_a or cond_b:
            qualifying.append((z, "a" if cond_a else "b"))
    wit = {"qualifying_Z": [f"{_sub_label(z)} via ({c})" for z, c in qualifying]}
    return wit, ctx.controls_ngp if qualifying else None


@_checker(
    "lemma_3_2",
    "non-control with controlling quotient forces Z outside the index-p witness M",
)
def _chk_lemma_3_2(ctx: Context):
    if ctx.controls_ngp():
        return {"controls": True}, None
    qualifying = [
        z
        for z in _normal_p_subgroup_candidates(ctx)
        if _quotient_controls(ctx, z)
    ]
    wit = {"qualifying_Z": [_sub_label(z) for z in qualifying]}
    if not qualifying:
        return wit, None

    def each_z_leaves_m() -> bool:
        witness = lemma23_witness(ctx.group, ctx.ngp, ctx.prime)
        if witness == "controls":
            raise InvariantError("lemma23_witness finds control where the test found none")
        covered = {u.images for u, _, _, _ in witness.per_u}
        ok = True
        for z in qualifying:
            outside = [u for u in z.elements() if not witness.m.contains(u)]
            if not outside or any(u.images not in covered for u in outside):
                ok = False
                wit["failing_Z"] = _sub_label(z)
                break
        wit["M"] = _sub_label(witness.m)
        return ok

    return wit, each_z_leaves_m


@_checker(
    "thm_4_2",
    "class-p Sylow with p-nilpotent maximal normalizer implies p-solvable of length 1",
    notes="conclusion 'length 1' has p-length and p'-length readings; both recorded",
)
def _chk_thm_4_2(ctx: Context):
    cls = nilpotency_class(ctx.p_syl)
    ngp = ctx.ngp
    hyp = (
        cls == ctx.prime
        and ngp.order() < ctx.group.order()
        and is_p_nilpotent(ngp, ctx.prime)
        and is_maximal(ctx.group, ngp)
    )
    wit = {"class": cls, "normalizer": _sub_label(ngp)}
    if not hyp:
        return wit, None

    def length_one() -> bool:
        # Both readings go into the witnesses; the verdict uses the p'-length one.
        solvable = is_p_solvable(ctx.group, ctx.prime)
        plen = p_length(ctx.group, ctx.prime)
        pplen = p_prime_length(ctx.group, ctx.prime)
        wit.update({"p_solvable": solvable, "p_length": plen, "p_prime_length": pplen})
        wit["strict_reading_ok"] = solvable and plen == 1
        wit["p_prime_reading_ok"] = solvable and pplen is not None and pplen <= 1
        return wit["p_prime_reading_ok"]

    return wit, length_one


@_checker("thm_4_3", "class-p Sylow with p+1 Sylows implies control or nontrivial O_p")
def _chk_thm_4_3(ctx: Context):
    cls = nilpotency_class(ctx.p_syl)
    count = len(ctx.family)
    wit = {"class": cls, "sylow_count": count}
    if not (cls == ctx.prime and count == ctx.prime + 1):
        return wit, None

    def control_or_o_p() -> bool:
        if ctx.controls_ngp():
            wit["branch"] = "controls"
            return True
        op = o_p(ctx.group, ctx.prime)
        wit["branch"] = f"O_p of order {op.order()}"
        return not op.is_trivial()

    return wit, control_or_o_p


@memoized
def _nilpotent_maximal_candidates(g: PermGroup) -> list[PermGroup]:
    out = []
    seen = set()
    for q in prime_divisors(g.order()):
        m = normalizer(g, sylow_subgroup(g, q))
        key = m.element_set()
        if key in seen:
            continue
        seen.add(key)
        if m.order() == g.order():
            continue
        if is_nilpotent(m) and is_maximal(g, m):
            out.append(m)
    return out


def _nilpotent_maximal_checker(ctx: Context, sylow2_measure, key: str):
    """Some nilpotent maximal subgroup M whose Sylow 2-subgroup measures
    at most 2 (0 when |M| is odd) implies G solvable."""
    candidates = _nilpotent_maximal_candidates(ctx.group)
    wit = {"nilpotent_maximal_count": len(candidates)}
    for m in candidates:
        s2 = None if m.order() % 2 else sylow_subgroup(m, 2)
        value = 0 if s2 is None else sylow2_measure(s2)
        if value is not None and value <= 2:
            wit["M"] = _sub_label(m)
            wit[key] = value
            return wit, lambda: is_solvable(ctx.group)
    return wit, None


@_checker(
    "thm_4_4_janko",
    "nilpotent maximal subgroup with class <= 2 Sylow-2 implies solvable",
    applies=lambda g, p: p == 2,
)
def _chk_thm_4_4_janko(ctx: Context):
    return _nilpotent_maximal_checker(ctx, nilpotency_class, "sylow2_class")


@_checker(
    "thm_4_5",
    "nilpotent maximal subgroup with norm length <= 2 Sylow-2 implies solvable",
    applies=lambda g, p: p == 2,
)
def _chk_thm_4_5(ctx: Context):
    return _nilpotent_maximal_checker(ctx, norm_length, "sylow2_norm_length")


@_checker(
    "thm_4_8",
    "p-central of height p-2 or p^2-central of height p-1 implies control (p odd)",
    applies=lambda g, p: p > 2 and g.order() % p == 0,
    notes="strict element-order reading; order-dividing variant recorded in witnesses",
)
def _chk_thm_4_8(ctx: Context):
    p = ctx.prime
    v1 = is_pi_central_of_height(ctx.p_syl, p, 1, p - 2)
    v2 = is_pi_central_of_height(ctx.p_syl, p, 2, p - 1)
    d1 = v1  # the elements of order dividing p, 1 aside, are those of order p
    d2 = is_pi_central_of_height(ctx.p_syl, p, 2, p - 1, order_divides=True)
    wit = {
        "p_central_height_p-2": v1,
        "p2_central_height_p-1": v2,
        "order_divides_variants": (d1, d2),
    }
    return wit, ctx.controls_ngp if v1 or v2 else None


@_checker(
    "thm_4_10_property",
    "the centrality property passes to the quotient by Omega (p-groups)",
    applies=lambda g, p: g.order() > 1 and is_p_group(g, p),
)
def _chk_thm_4_10(ctx: Context):
    g, p = ctx.group, ctx.prime
    v1 = p >= 3 and is_pi_central_of_height(g, p, 1, p - 2)
    v2 = is_pi_central_of_height(g, p, 2, p - 1)
    wit = {"p_central_height_p-2": v1, "p2_central_height_p-1": v2}
    if not (v1 or v2):
        return wit, None

    def passes_to_quotient() -> bool:
        quot = quotient_group(g, omega(g, p, 1)).image
        ok = True
        if quot.order() > 1:
            if v1 and not is_pi_central_of_height(quot, p, 1, p - 2):
                ok = False
            if v2 and not is_pi_central_of_height(quot, p, 2, p - 1):
                ok = False
        wit["quotient_order"] = quot.order()
        return ok

    return wit, passes_to_quotient


def run_checker(checker_id: str, group: PermGroup, prime: int) -> CheckerVerdict:
    """Run one checker; its conclusion is evaluated only if it returned one,
    that is, only when its hypothesis holds.  A cap that fires gives a
    skipped:cap verdict, any other exception an error verdict.  An unknown
    checker, or one that does not apply to the pair, is a ValueError."""
    if checker_id not in CHECKERS:
        raise ValueError(f"unknown checker: {checker_id}")
    spec = CHECKERS[checker_id]
    label = group.name or f"group(deg {group.degree})"
    if not spec.applies(group, prime):
        raise ValueError(f"checker {checker_id} does not apply to {label} at p={prime}")
    try:
        witnesses, conclusion = spec.run(Context(group, prime))
        concl = None if conclusion is None else conclusion()
    except CapExceeded as exc:
        return CheckerVerdict(
            checker_id, label, prime, None, None, "skipped:cap", {"cap": str(exc)}, ""
        )
    except Exception as exc:  # one failing pair must not stop a scan
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        witnesses = {
            "exception": type(exc).__name__,
            "message": str(exc),
            "raised_at": f"{os.path.basename(frame.filename)}:{frame.lineno} in {frame.name}",
        }
        return CheckerVerdict(checker_id, label, prime, None, None, "error", witnesses, "")
    hyp = conclusion is not None
    if not hyp:
        verdict = "vacuous"
    elif concl:
        verdict = "implication_ok"
    else:
        verdict = "VIOLATION"
    return CheckerVerdict(checker_id, label, prime, hyp, concl, verdict, witnesses, spec.notes)


@dataclass
class TheoremReport:
    corpus_description: str
    verdicts: list[CheckerVerdict]
    summary: dict
    violations: list[CheckerVerdict]
    interpretation_discrepancies: list[CheckerVerdict]

    def record_lines(self) -> list[str]:
        return [v.to_json() for v in self.verdicts]


def scan_corpus(entries, checker_ids: list[str] | None = None) -> TheoremReport:
    """Run every applicable checker over every (group, prime) pair.

    The loop makes the record order: the entries, read once, by label,
    then primes ascending, then checker ids.  An unknown checker id, a
    repeated one, an empty entry label or a repeated one is a ValueError,
    raised before any checker runs: a repeated one would give each of its
    verdicts twice, and an empty one labels its verdicts by degree, out
    of order.
    """
    ids = sorted(checker_ids or CHECKERS.keys())
    for checker_id in ids:
        if checker_id not in CHECKERS:
            raise ValueError(f"unknown checker: {checker_id}")
    by_label = sorted(entries, key=lambda e: e.label)
    if any(e.label == "" for e in by_label):
        raise ValueError("empty entry label")
    for what, names in (("checker", ids), ("entry label", [e.label for e in by_label])):
        for a, b in zip(names, names[1:]):
            if a == b:
                raise ValueError(f"repeated {what}: {a}")
    verdicts: list[CheckerVerdict] = []
    pairs = 0
    for entry in by_label:
        group = entry.build()
        for p in prime_divisors(group.order()):
            pairs += 1
            for checker_id in ids:
                if CHECKERS[checker_id].applies(group, p):
                    verdicts.append(run_checker(checker_id, group, p))

    summary = dict.fromkeys(("implication_ok", "vacuous", "VIOLATION", "skipped:cap", "error"), 0)
    for v in verdicts:
        summary[v.verdict] += 1
    violations = [v for v in verdicts if v.verdict == "VIOLATION"]
    discrepancies = [
        v
        for v in verdicts
        if v.checker_id == "thm_4_2"
        and v.hypothesis_holds
        and v.witnesses.get("strict_reading_ok") != v.witnesses.get("p_prime_reading_ok")
    ]
    description = f"{len(by_label)} groups, {pairs} (group, prime) pairs"
    return TheoremReport(description, verdicts, summary, violations, discrepancies)


# paper witness facts --------------------------------------------------------


def verify_paper_witnesses() -> list[tuple[str, bool]]:
    """Evaluate the hard-coded named-group facts the write-up relies on."""
    results: list[tuple[str, bool]] = []

    s4 = symmetric(4)
    fam = all_sylow_subgroups(s4, 2)
    p_syl = fam.base_member
    results.append(("s4_sylow_wreath", is_isomorphic(p_syl, wreath_cyclic(2))[0]))
    distinct = fam.members[1:]
    results.append(
        (
            "s4_intersection_index",
            all(
                p_syl.order() // intersection_order(p_syl, q) == 2
                for q in distinct
            ),
        )
    )
    rec = is_tame_intersection(s4, p_syl, distinct[0], 2)
    results.append(
        (
            "s4_tame_v4",
            rec.d.order() == 4
            and rec.tame
            and rec.normalizer.order() == 24
            and not rec.normalizer_p_nilpotent,
        )
    )
    results.append(("s4_no_control", not controls_p_transfer(s4, fam.normalizer, 2).controls))
    o2 = o_p(s4, 2)
    results.append(
        (
            "s4_o2_second_center",
            o2.is_subgroup_of(z_k(p_syl, 2))
            and not o2.is_subgroup_of(center(p_syl)),
        )
    )

    d8 = dihedral(8)
    zn = norm(d8)
    results.append(
        (
            "d8_norm_index_4",
            d8.order() // zn.order() == 4 and zn.same_group_as(center(d8)),
        )
    )

    q16 = generalized_quaternion(16)
    results.append(
        (
            "q16_class_3_norm_length_2",
            nilpotency_class(q16) == 3 and norm_length(q16) == 2,
        )
    )
    results.append(("d16_norm_length_3", norm_length(dihedral(16)) == 3))

    psl = psl2(17)
    p17 = sylow_subgroup(psl, 2)
    results.append(("psl217_sylow_d16", is_isomorphic(p17, dihedral(16))[0]))
    results.append(("psl217_sylow_maximal", is_maximal(psl, p17)))
    return results
