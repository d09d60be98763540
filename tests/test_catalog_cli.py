import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from transferlab import catalog
from transferlab.caps import DEFAULT_CAPS, Caps, current_caps
from transferlab.catalog import (
    CatalogEntry,
    builtin_group,
    builtin_names,
    corpus_group,
    cyclic,
    default_corpus,
    dihedral,
    entry_for,
    generalized_quaternion,
    load_catalog,
    psl2,
    save_catalog,
    symmetric,
    wreath_cyclic,
)
from transferlab.cli import _resolve_group, main
from transferlab.group import InvariantError


def test_builtin_closed_form_orders():
    import math

    assert builtin_group("symmetric", 5).order() == 120
    assert builtin_group("alternating", 6).order() == 360
    assert builtin_group("cyclic", 9).order() == 9
    assert builtin_group("dihedral", 16).order() == 16
    assert builtin_group("generalized_quaternion", 16).order() == 16
    assert builtin_group("elementary_abelian", 3, 3).order() == 27
    assert builtin_group("wreath_cyclic", 3).order() == 3**3 * 3
    q = 7
    assert builtin_group("psl2", q).order() == q * (q * q - 1) // 2
    assert builtin_group("sl23").order() == 24


def test_builtin_unknown_name():
    with pytest.raises(ValueError):
        builtin_group("nope")


@pytest.mark.parametrize(
    "name,args",
    [("symmetric", (4, 5)), ("elementary_abelian", (2,)), ("sl23", (3,)), ("psl2", ())],
)
def test_builtin_wrong_arity_quotes_usage(name, args):
    with pytest.raises(ValueError, match=f"usage: {name}"):
        builtin_group(name, *args)


@pytest.mark.parametrize("args", [(4, 2), (1, 2), (2, 0)])
def test_elementary_abelian_rejects_bad_parameters(args):
    with pytest.raises(ValueError):
        builtin_group("elementary_abelian", *args)


@pytest.mark.parametrize("q", [1, 2, 4, 9])
def test_psl2_rejects_q_not_an_odd_prime(q):
    with pytest.raises(ValueError, match="odd prime"):
        builtin_group("psl2", q)


@pytest.mark.parametrize(
    "spec", ["symmetric:4,5", "elementary_abelian:2", "sl23:3", "elementary_abelian:4,2"]
)
def test_cli_bad_builtin_spec_is_input_error(capsys, spec):
    assert main(["analyze", spec, "--prime", "2"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_generalized_quaternion_unique_involution():
    for order in (8, 16, 32):
        q = generalized_quaternion(order)
        assert sum(1 for x in q.elements() if x.order() == 2) == 1


def test_default_corpus_shape():
    entries = default_corpus()
    assert len(entries) >= 40
    labels = [e.label for e in entries]
    assert len(set(labels)) == len(labels)
    for must in ("S4", "D8", "Q16", "D16", "PSL(2,17)"):
        assert must in labels
    assert max(e.expected_order for e in entries) <= 2448


def test_catalog_entries_build_to_expected_order():
    for entry in default_corpus():
        g = entry.build()
        assert g.order() == entry.expected_order, entry.label


def test_catalog_round_trip(tmp_path):
    entries = default_corpus()[:8]
    path = tmp_path / "cat.jsonl"
    save_catalog(entries, str(path))
    back = load_catalog(str(path))
    assert [e.label for e in back] == [e.label for e in entries]
    assert [e.to_json() for e in back] == [e.to_json() for e in entries]


def test_catalog_skips_blanks_and_comments(tmp_path):
    entries = default_corpus()[:2]
    path = tmp_path / "cat.jsonl"
    lines = ["# comment", "", entries[0].to_json(), "", entries[1].to_json()]
    path.write_text("\n".join(lines) + "\n")
    back = load_catalog(str(path))
    assert len(back) == 2


def test_catalog_parse_error_has_position(tmp_path):
    path = tmp_path / "bad.jsonl"
    good = default_corpus()[0].to_json()
    path.write_text(good + "\nnot json\n")
    with pytest.raises(ValueError) as err:
        load_catalog(str(path))
    assert "2" in str(err.value)
    assert str(path) in str(err.value)


def test_entry_for_round_trip():
    g = dihedral(12)
    entry = entry_for(g, tags=["p2"])
    rebuilt = entry.build()
    assert rebuilt.order() == 12


def test_cli_builtin_list(capsys):
    assert main(["builtin", "--list"]) == 0
    out = capsys.readouterr().out
    assert "symmetric" in out and "psl2" in out
    assert len(out.strip().splitlines()) == len(builtin_names())


def test_cli_analyze(capsys):
    assert main(["analyze", "S4", "--prime", "2"]) == 0
    out = capsys.readouterr().out
    assert "order 24" in out
    assert "focal subgroup order: 4" in out


def test_cli_analyze_builtin_spec(capsys):
    assert main(["analyze", "dihedral:8", "--prime", "2"]) == 0
    out = capsys.readouterr().out
    assert "order 8" in out


def test_cli_analyze_bare_builtin_name(capsys):
    """A builtin that takes no parameters needs no trailing colon."""
    assert main(["analyze", "sl23", "--prime", "2"]) == 0
    assert "group: SL(2,3)  order 24" in capsys.readouterr().out


def test_cli_bare_builtin_name_missing_parameters_is_input_error(capsys):
    assert main(["analyze", "symmetric", "--prime", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: wrong number of parameters for symmetric; usage: symmetric")


def test_cli_catalog_label_wins_over_builtin_name(capsys, tmp_path):
    entry = entry_for(cyclic(3))
    entry.label = "sl23"
    path = tmp_path / "shadow.jsonl"
    save_catalog([entry], str(path))
    assert main(["analyze", "sl23", "--catalog", str(path), "--prime", "3"]) == 0
    assert "order 3 " in capsys.readouterr().out


CORPUS_ENTRIES = default_corpus()


@pytest.mark.parametrize("entry", CORPUS_ENTRIES, ids=lambda e: e.label)
def test_corpus_label_resolves_to_the_entry_group(entry):
    """Resolving a default-corpus label builds that group alone; it is the
    group that the entry of the whole corpus builds."""
    got, want = _resolve_group(entry.label, argparse.Namespace(catalog=None)), entry.build()
    assert (got.name, got.degree, got.order()) == (want.name, want.degree, want.order())
    assert [x.images for x in got.gens] == [x.images for x in want.gens]


def test_one_label_builds_one_group(monkeypatch, capsys):
    """With the PSL(2,q) and quaternion constructors broken, the whole
    corpus cannot be built, but analyze and verify of S4 still run."""

    def broken(*args):
        raise RuntimeError("this constructor must not run")

    monkeypatch.setattr(catalog, "psl2", broken)
    monkeypatch.setattr(catalog, "generalized_quaternion", broken)
    with pytest.raises(RuntimeError):
        default_corpus()
    assert main(["analyze", "S4", "--prime", "2"]) == 0
    assert main(["verify", "burnside", "S4", "--prime", "2"]) == 0
    assert "group: S4  order 24" in capsys.readouterr().out
    assert main(["analyze", "NoSuchGroup", "--prime", "2"]) == 2
    assert capsys.readouterr().err == "error: unknown group selector: 'NoSuchGroup'\n"


def test_corpus_label_that_disagrees_with_its_group_name_is_an_invariant_error(monkeypatch):
    (_, ctor), *rest = catalog._CORPUS
    monkeypatch.setattr(catalog, "_CORPUS", (("S2-mislabelled", ctor), *rest))
    with pytest.raises(InvariantError, match="S2-mislabelled"):
        default_corpus()
    with pytest.raises(InvariantError, match="S2-mislabelled"):
        corpus_group("S2-mislabelled")


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "S4", "--prime", "2", "--format", "records"],
        ["witness", "--format", "records"],
        ["witness", "--catalog", "/nonexistent"],
    ],
    ids=["analyze-format", "witness-format", "witness-catalog"],
)
def test_cli_rejects_options_it_cannot_honour(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err


def test_cli_verify_pass_and_records(capsys):
    assert main(["verify", "burnside", "A5", "--prime", "2"]) == 0
    capsys.readouterr()
    assert main(
        ["verify", "burnside", "A5", "--prime", "2", "--format", "records"]
    ) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["verdict"] == "implication_ok"


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "thm_4_2", "S4", "--prime", "2", "--reading", "strict"],
        ["scan", "--reading", "strict"],
    ],
    ids=["verify", "scan"],
)
def test_cli_rejects_reading_option(capsys, argv):
    """Both readings of thm_4_2 are in every record; there is no option to
    pick one."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "--reading" in capsys.readouterr().err


def test_cli_input_errors(capsys):
    assert main(["verify", "nope", "S4", "--prime", "2"]) == 2
    assert main(["verify", "burnside", "NoSuchGroup", "--prime", "2"]) == 2
    assert main(["verify", "burnside", "S4", "--prime", "5"]) == 2
    assert main(["scan", "--catalog", "/definitely/missing.jsonl"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "S4", "--prime", "0"],
        ["verify", "burnside", "S4", "--prime", "0"],
        ["verify", "burnside", "S4", "--prime", "6"],
        ["analyze", "S4", "--prime", "4"],
        ["analyze", "S4", "--prime", "-2"],
        ["analyze", "S4", "--prime", "1"],
        ["analyze", "S4", "--prime", "5"],
    ],
    ids=["analyze-0", "verify-0", "verify-6", "analyze-4", "analyze-neg2", "analyze-1", "analyze-5"],
)
def test_cli_prime_must_be_a_prime_dividing_the_order(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --prime must be a prime dividing the group order 24\n"


@pytest.mark.parametrize(
    "line,message",
    [
        ("[1, 2]", "a record must be a JSON object"),
        ('{"label": "x", "degree": 2, "generators": [5]}', "generators must be"),
        ('{"label": "x", "degree": 3, "generators": [[1, 0, "2"]]}', "generators must be"),
        (
            '{"label": "x", "degree": 2, "generators": [[1, 0]], "expected_order": "2"}',
            "expected_order must be an integer",
        ),
        ('{"label": "x", "degree": "3", "generators": [[1, 0, 2]]}', "degree must be an integer"),
        (
            '{"label": "x", "degree": 3, "generators": [[1, 0]]}',
            "generator degree 2 != group degree 3\n",
        ),
        (
            '{"label": "x", "degree": 3, "generators": [[0, 0, 1]]}',
            "not a permutation of 0..2: (0, 0, 1)\n",
        ),
    ],
    ids=[
        "list-record",
        "int-generator",
        "str-image",
        "str-expected-order",
        "str-degree",
        "short-generator",
        "not-a-permutation",
    ],
)
def test_cli_catalog_record_with_wrong_field_type_is_input_error(capsys, tmp_path, line, message):
    path = tmp_path / "bad.jsonl"
    path.write_text(default_corpus()[0].to_json() + "\n" + line + "\n")
    assert main(["scan", "--catalog", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:2: bad catalog entry: {message}")


def test_cli_catalog_with_a_repeated_label_is_input_error(capsys, tmp_path):
    """A label names one group: a catalog that repeats one is rejected, not
    scanned twice."""
    path = tmp_path / "twice.jsonl"
    line = default_corpus()[0].to_json()
    path.write_text(line + "\n# the same entry again\n" + line + "\n")
    assert main(["scan", "--catalog", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}:3: duplicate label 'S2' (first on line 1)\n"


def test_cli_scan_with_a_repeated_checker_is_input_error(capsys):
    """A checker given twice would print each of its records twice and
    double its counts in the summary; it is rejected before anything
    runs."""
    argv = ["scan", "--checker", "burnside", "--checker", "yoshida", "--checker", "burnside"]
    assert main([*argv, "--format", "records"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: repeated checker: burnside\n"
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: repeated checker: burnside\n"


def test_cli_strict_caps_exit(monkeypatch, capsys):
    # The CLI reads the element cap from the environment on every command.
    monkeypatch.setenv("TRANSFERLAB_ELEMENT_CAP", "50")
    args = ["verify", "burnside", "S6", "--prime", "2"]
    assert main(args) == 0
    assert "skipped:cap" in capsys.readouterr().out
    assert main(args + ["--strict-caps"]) == 3
    assert current_caps() is DEFAULT_CAPS  # the command's caps end with it


def test_cli_small_cap_still_builds_the_corpus(monkeypatch, capsys):
    """The groups and the corpus are built under the default caps, so an
    element cap below the corpus's largest constructor check (Q32 lists its
    32 elements) caps only the checkers' work."""
    monkeypatch.setenv("TRANSFERLAB_ELEMENT_CAP", "20")
    assert main(["verify", "burnside", "S3", "--prime", "2"]) == 0
    assert "implication_ok" in capsys.readouterr().out
    assert main(["scan", "--checker", "burnside", "--format", "records"]) == 0
    verdicts = [json.loads(line)["verdict"] for line in capsys.readouterr().out.splitlines()]
    assert "skipped:cap" in verdicts and "implication_ok" in verdicts
    assert main(["scan", "--checker", "burnside", "--strict-caps"]) == 3


@pytest.mark.parametrize(
    "argv, cap",
    [
        (["analyze", "symmetric:12", "--prime", "2"], None),
        (["witness"], "50"),
    ],
    ids=["analyze-S12", "witness-small-cap"],
)
def test_cli_cap_that_stops_a_command_exits_capped(monkeypatch, capsys, argv, cap):
    """A command that gives no answer because a cap fired exits 3 with
    nothing on stdout, without --strict-caps."""
    if cap is None:
        monkeypatch.delenv("TRANSFERLAB_ELEMENT_CAP", raising=False)
    else:
        monkeypatch.setenv("TRANSFERLAB_ELEMENT_CAP", cap)
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("resource cap exceeded: element enumeration: needs ")


@pytest.mark.parametrize(
    "argv",
    [["analyze", "S4", "--prime", "2", "--strict-caps"], ["witness", "--strict-caps"]],
    ids=["analyze", "witness"],
)
def test_cli_strict_caps_only_on_verdict_commands(capsys, argv):
    """--strict-caps governs skipped:cap verdicts, which only verify and
    scan give; analyze and witness reject it."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: --strict-caps" in capsys.readouterr().err


def test_cli_scan_subset(capsys, tmp_path):
    entries = [e for e in default_corpus() if e.label in ("S3", "S4", "D8")]
    path = tmp_path / "mini.jsonl"
    save_catalog(entries, str(path))
    assert main(["scan", "--catalog", str(path), "--checker", "burnside"]) == 0
    out = capsys.readouterr().out
    assert "VIOLATION: 0" in out


def test_cli_scan_corrupt_checker_fails(capsys, tmp_path, corrupt_burnside):
    entries = [e for e in default_corpus() if e.label in ("S3", "S4")]
    path = tmp_path / "mini.jsonl"
    save_catalog(entries, str(path))
    assert main(["scan", "--catalog", str(path), "--checker", "burnside"]) == 1


def test_cli_scan_records_deterministic(capsys, tmp_path):
    entries = [e for e in default_corpus() if e.label in ("S3", "S4", "D8")]
    path = tmp_path / "mini.jsonl"
    save_catalog(entries, str(path))
    args = ["scan", "--catalog", str(path), "--checker", "burnside", "--format", "records"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    for line in first.strip().splitlines():
        json.loads(line)


ROOT = Path(__file__).parent.parent
GOLDEN_RECORDS = ROOT / "perfbench" / "golden" / "scan_records.jsonl"


def test_cli_scan_records_match_golden(capsys):
    """The full record stream stays byte-identical to the checked-in one."""
    assert main(["scan", "--format", "records"]) == 0
    assert capsys.readouterr().out == GOLDEN_RECORDS.read_text()


GOLDEN_ANALYZE = ROOT / "perfbench" / "golden" / "analyze.json"


@pytest.mark.parametrize(
    "label,p", [("S4", 2), ("Q16", 2), ("C2xQ8", 2), ("SL(2,3)", 3), ("PSL(2,17)", 2)]
)
def test_cli_analyze_matches_golden(capsys, label, p):
    """analyze prints, byte for byte, what the checked-in golden file holds."""
    golden = json.loads(GOLDEN_ANALYZE.read_text())
    assert main(["analyze", label, "--prime", str(p)]) == 0
    assert capsys.readouterr().out == golden[f"analyze {label} --prime {p}"]


def test_cli_scan_text_summary_pinned(capsys):
    """The text scan prints the corpus size, the four verdict counts and
    the one thm_4_2 pair where the two readings of 'length 1' differ."""
    assert main(["scan"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "corpus: 42 groups, 68 (group, prime) pairs",
        "  implication_ok: 987",
        "  vacuous: 430",
        "  VIOLATION: 0",
        "  skipped:cap: 0",
        "interpretation discrepancy: thm_4_2 S4 p=2 "
        "(strict reading fails, p'-length reading passes)",
    ]


def test_cli_scan_reports_a_failing_checker_and_goes_on(failing_burnside, capsys):
    """A checker that raises on one pair gives that pair an error record
    and exit 1; every other record is the golden one."""
    assert main(["scan", "--format", "records"]) == 1
    got = capsys.readouterr().out.splitlines()
    golden = GOLDEN_RECORDS.read_text().splitlines()
    assert len(got) == len(golden)
    changed = [i for i, (a, b) in enumerate(zip(got, golden)) if a != b]
    assert len(changed) == 1
    record = json.loads(got[changed[0]])
    assert (record["checker_id"], record["group_label"], record["prime"]) == ("burnside", "S4", 3)
    assert record["verdict"] == "error"
    assert record["witnesses"]["exception"] == "InvariantError"
    assert record["witnesses"]["message"] == "planted failure"


def test_cli_text_scan_and_verify_report_a_failing_checker(failing_burnside, capsys):
    """The text summary adds an error count line only when there are
    errors, and names each one."""
    assert main(["scan", "--checker", "burnside"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[5] == "  error: 1"
    assert lines[6].startswith("ERROR: burnside S4 p=3 {'exception': 'InvariantError'")
    assert main(["verify", "burnside", "S4", "--prime", "3"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("burnside on S4 at p=3: error\n")
    assert "  message: planted failure\n" in out
    assert main(["verify", "burnside", "S4", "--prime", "2"]) == 0


@pytest.mark.parametrize("checker_id", ["thm_4_10_property", "thm_4_8"])
def test_cli_verify_a_checker_that_does_not_apply_is_input_error(capsys, checker_id):
    """thm_4_10_property is about p-groups and thm_4_8 about odd p: on S4
    at p = 2 verify gives no verdict and exits 2, naming the checker and
    the prime."""
    assert main(["verify", checker_id, "S4", "--prime", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: checker {checker_id} does not apply to S4 at p=2\n"


def test_cli_witness(capsys):
    assert main(["witness"]) == 0
    out = capsys.readouterr().out
    assert out.count("pass") == 10
    assert "FAIL" not in out


@pytest.mark.parametrize("value", ["abc", "0", "-5"])
def test_invalid_element_cap_is_rejected(monkeypatch, capsys, value):
    monkeypatch.setenv("TRANSFERLAB_ELEMENT_CAP", value)
    with pytest.raises(ValueError) as info:
        Caps.default()
    assert "TRANSFERLAB_ELEMENT_CAP" in str(info.value) and repr(value) in str(info.value)
    assert main(["verify", "burnside", "S4", "--prime", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: TRANSFERLAB_ELEMENT_CAP") and repr(value) in err
    assert main(["builtin", "--list"]) == 0  # builtin ignores the variable


def test_import_ignores_element_cap_variable():
    """Only Caps.default() reads the variable, so a bad value never breaks
    importing the library."""
    proc = subprocess.run(
        [sys.executable, "-c", "import transferlab, transferlab.cli"],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src"), TRANSFERLAB_ELEMENT_CAP="abc"),
        capture_output=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


class _ClosedPipe:
    """A stdout whose reader has gone: every write raises BrokenPipeError."""

    def __init__(self, fd: int):
        self.fd = fd

    def write(self, text: str) -> int:
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self) -> None:
        pass

    def fileno(self) -> int:
        return self.fd


def test_cli_closed_stdout_exits_141_quietly(monkeypatch, capsys, tmp_path):
    with open(tmp_path / "stdout", "w") as f:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(f.fileno()))
        assert main(["builtin", "--list"]) == 141
        # stdout now writes to devnull, so the flush at exit cannot fail
        assert os.path.samestat(os.fstat(f.fileno()), os.stat(os.devnull))
    assert capsys.readouterr().err == ""


def test_cli_scan_into_closed_pipe_exits_141_quietly(tmp_path):
    """`transferlab scan --format records | head -1`: one record, then exit
    141 with nothing on stderr."""
    with open(tmp_path / "stderr", "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "transferlab.cli", "scan", "--format", "records"],
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
            stdout=subprocess.PIPE,
            stderr=err,
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        code = proc.wait(timeout=120)
    assert json.loads(first)["checker_id"] == "aux_gruen_instance"
    assert code == 141
    assert (tmp_path / "stderr").read_bytes() == b""
