"""Command-line front end.

Subcommands: analyze, verify, scan, witness, builtin.  verify and scan
take --format text|records and --strict-caps; analyze, verify and scan
take --catalog.  analyze and verify name one group: without --catalog,
a default-corpus label builds that group alone, not the whole corpus.
All but builtin build their groups under the default caps, then compute
under `Caps.default()`, which reads the element cap from
TRANSFERLAB_ELEMENT_CAP.
Exit codes: 0 pass, 1 violation, checker error or witness failure, 2
input error, 3 when a cap stops a command before it gives its answer,
or when a verify or scan verdict is skipped:cap under --strict-caps,
141 (128 + SIGPIPE) when the reader closes standard output early, as
`transferlab scan | head` does.
"""

from __future__ import annotations

import argparse
import os
import sys

from .caps import CapExceeded, Caps, limits
from .catalog import (
    builtin_group,
    builtin_names,
    corpus_group,
    default_corpus,
    load_catalog,
)
from .checkers import (
    CHECKERS,
    run_checker,
    scan_corpus,
    verify_paper_witnesses,
)
from .group import PermGroup, is_maximal, trivial_group
from .iso import is_prime_divisor
from .series import (
    a_p,
    center,
    frattini_p,
    is_p_nilpotent,
    norm,
    norm_length,
    o_p,
    o_upper_p,
    omega,
    z_k,
)
from .sylow import all_sylow_subgroups, max_intersection_order, tame_intersections_between
from .transfer import controls_p_transfer

EXIT_PASS = 0
EXIT_VIOLATION = 1
EXIT_INPUT_ERROR = 2
EXIT_CAPPED = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a process killed by it


def _resolve_group(selector: str, args) -> PermGroup:
    """A catalog label, or a builtin spec like "psl2:17", "symmetric:4" or
    "sl23".  A catalog label wins over a builtin of the same name.  Without
    --catalog, a default-corpus label builds that one group alone."""
    if args.catalog:
        group = next((e.build() for e in load_catalog(args.catalog) if e.label == selector), None)
    else:
        group = corpus_group(selector)
    if group is not None:
        return group
    name, colon, rest = selector.partition(":")
    if not colon and name not in dict(builtin_names()):
        raise ValueError(f"unknown group selector: {selector!r}")
    return builtin_group(name, *(int(tok) for tok in rest.split(",") if tok))


def _checked_prime(group: PermGroup, p: int) -> int:
    """p, if a prime dividing |G| (tested first: a huge p is never factored)."""
    if not is_prime_divisor(p, group.order()):
        raise ValueError(f"--prime must be a prime dividing the group order {group.order()}")
    return p


def cmd_analyze(args) -> int:
    group = _resolve_group(args.group, args)
    p = _checked_prime(group, args.prime)
    with limits(Caps.default()):
        fam = all_sylow_subgroups(group, p)
        p_syl = fam.base_member
        ngp = fam.normalizer
        zn = norm(p_syl)
        report = controls_p_transfer(group, ngp, p)
        tame = tame_intersections_between(
            group, p, trivial_group(group.degree), True, strict_lower=False
        )
        lines = [
            f"group: {group.name}  order {group.order()}  degree {group.degree}",
            f"prime: {p}",
            f"sylow order: {p_syl.order()}  count: {len(fam)}",
            f"|Z(P)| = {center(p_syl).order()}",
            f"|Z_{p - 1}(P)| = {z_k(p_syl, p - 1).order()}",
            f"|Z*(P)| = {zn.order()}  norm_length(P) = {norm_length(p_syl)}",
            f"|Phi(P)| = {frattini_p(p_syl, p).order()}",
            f"|Omega(P)| = {omega(p_syl, p, 1).order()}",
            f"|O_p(G)| = {o_p(group, p).order()}",
            f"|O^p(G)| = {o_upper_p(group, p).order()}",
            f"|A^p(G)| = {a_p(group, p).order()}",
            f"p-nilpotent: {is_p_nilpotent(group, p)}",
            f"focal subgroup order: {report.focal_g.order()}",
            f"max Sylow intersection: {max_intersection_order(group, p)}",
            f"tame intersections below P: {len(tame)}"
            + (f" (orders {sorted(r.d.order() for r in tame)})" if tame else ""),
            f"N_G(P) order: {ngp.order()}  N_G(P) maximal: "
            + str(ngp.order() < group.order() and is_maximal(group, ngp)),
            f"controls: {report.controls}",
            f"G/A^p(G) invariants: {list(report.quotient_invariants_g)}",
        ]
    print("\n".join(lines))
    return EXIT_PASS


def cmd_verify(args) -> int:
    if args.checker not in CHECKERS:
        print(f"error: unknown checker {args.checker!r}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    group = _resolve_group(args.group, args)
    p = _checked_prime(group, args.prime)
    with limits(Caps.default()):
        verdict = run_checker(args.checker, group, p)
    if args.format == "records":
        print(verdict.to_json())
    else:
        print(
            f"{verdict.checker_id} on {verdict.group_label} at p={verdict.prime}: "
            f"{verdict.verdict}"
        )
        for k, v in sorted(verdict.witnesses.items()):
            print(f"  {k}: {v}")
        if verdict.interpretation_notes:
            print(f"  notes: {verdict.interpretation_notes}")
    if verdict.verdict in ("VIOLATION", "error"):
        return EXIT_VIOLATION
    if verdict.verdict == "skipped:cap" and args.strict_caps:
        return EXIT_CAPPED
    return EXIT_PASS


def cmd_scan(args) -> int:
    entries = load_catalog(args.catalog) if args.catalog else default_corpus()
    with limits(Caps.default()):
        report = scan_corpus(entries, args.checker or None)
    errors = [v for v in report.verdicts if v.verdict == "error"]
    if args.format == "records":
        for line in report.record_lines():
            print(line)
    else:
        print(f"corpus: {report.corpus_description}")
        for key in ("implication_ok", "vacuous", "VIOLATION", "skipped:cap"):
            print(f"  {key}: {report.summary[key]}")
        if errors:
            print(f"  error: {len(errors)}")
        for v in report.violations:
            print(f"VIOLATION: {v.checker_id} {v.group_label} p={v.prime} {v.witnesses}")
        for v in errors:
            print(f"ERROR: {v.checker_id} {v.group_label} p={v.prime} {v.witnesses}")
        for v in report.interpretation_discrepancies:
            print(
                f"interpretation discrepancy: {v.checker_id} {v.group_label} "
                f"p={v.prime} (strict reading fails, p'-length reading passes)"
            )
    if report.violations or errors:
        return EXIT_VIOLATION
    if report.summary["skipped:cap"] and args.strict_caps:
        return EXIT_CAPPED
    return EXIT_PASS


def cmd_witness(args) -> int:
    with limits(Caps.default()):
        facts = verify_paper_witnesses()
    failed = False
    for fact_id, ok in facts:
        print(f"{fact_id}: {'pass' if ok else 'FAIL'}")
        failed = failed or not ok
    return EXIT_VIOLATION if failed else EXIT_PASS


def cmd_builtin(args) -> int:
    if args.list:
        for name, desc in builtin_names():
            print(f"{name}: {desc}")
        return EXIT_PASS
    print("error: nothing to do (use --list)", file=sys.stderr)
    return EXIT_INPUT_ERROR


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="transferlab",
        description="Transfer-map machinery and theorem verification for finite groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p_cmd, catalog=True, verdicts=True, prime=False):
        if catalog:
            p_cmd.add_argument("--catalog", help="path to a JSONL catalog file")
        if verdicts:
            p_cmd.add_argument(
                "--format", choices=("text", "records"), default="text", dest="format"
            )
            p_cmd.add_argument("--strict-caps", action="store_true", dest="strict_caps")
        if prime:
            p_cmd.add_argument("--prime", type=int, required=True)

    p_an = sub.add_parser("analyze", help="structural summary of one group at a prime")
    p_an.add_argument("group")
    common(p_an, verdicts=False, prime=True)
    p_an.set_defaults(func=cmd_analyze)

    p_ver = sub.add_parser("verify", help="run one checker on one group")
    p_ver.add_argument("checker")
    p_ver.add_argument("group")
    common(p_ver, prime=True)
    p_ver.set_defaults(func=cmd_verify)

    p_scan = sub.add_parser("scan", help="run checkers over the corpus")
    p_scan.add_argument(
        "--checker", action="append", help="checker id (repeatable, each id once; default all)"
    )
    common(p_scan)
    p_scan.set_defaults(func=cmd_scan)

    p_wit = sub.add_parser("witness", help="verify the named-group witness facts")
    p_wit.set_defaults(func=cmd_witness)

    p_b = sub.add_parser("builtin", help="built-in group constructors")
    p_b.add_argument("--list", action="store_true")
    p_b.set_defaults(func=cmd_builtin)
    return parser


# The parser `main` uses, built on its first call and shared by the rest.
_parser: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return code
    except CapExceeded as exc:
        print(f"resource cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAPPED
    except BrokenPipeError:
        # Point stdout at devnull, so that flushing what is still buffered
        # at interpreter exit writes nowhere instead of failing again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
