"""Which records depend on the stabilizer chains.

The records reach the chains through one path: `sylow_subgroup` starts
from the first p-singular element in `g.elements()` order, which follows
the chain, and `aux_gruen_instance` prints a conjugator that depends on
that P.  So a chain build that keeps the bases but picks other
transversal elements leaves every record as it is, and one that moves
the bases moves only `conjugator` witnesses of aux_gruen_instance.
"""

import contextlib
import io
import json
from pathlib import Path

from transferlab import cli
from transferlab import group as group_module
from transferlab.perm import Perm

GOLDEN_RECORDS = Path(__file__).parent.parent / "perfbench" / "golden" / "scan_records.jsonl"


def _scan() -> list[str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["scan", "--format", "records"]) == 0
    return out.getvalue().splitlines()


def test_records_do_not_depend_on_the_transversal_elements(monkeypatch):
    """The orbit search of the chain build visits the generators in
    reverse: other transversal elements, the same bases, and the same
    records byte for byte."""
    real = group_module._orbit_transversal

    def reversed_gens(base, gens, degree):
        return real(base, list(gens)[::-1], degree)

    monkeypatch.setattr(group_module, "_orbit_transversal", reversed_gens)
    assert _scan() == GOLDEN_RECORDS.read_text().splitlines()


def _largest_moved_point(self: Perm) -> int | None:
    moved = [i for i, x in enumerate(self.images) if x != i]
    return moved[-1] if moved else None


def test_only_conjugator_lines_follow_elements_order(monkeypatch):
    """Bases at the largest moved point give other chains, so another
    elements() order.  The records that move are the conjugator witnesses
    of aux_gruen_instance at p = 2 (A6, PSL(2,17), S4, S5 and S6), and in
    each only that witness moves."""
    monkeypatch.setattr(Perm, "smallest_moved_point", _largest_moved_point)
    golden = GOLDEN_RECORDS.read_text().splitlines()
    got = _scan()
    assert len(got) == len(golden)
    moved = [(json.loads(a), json.loads(b)) for a, b in zip(golden, got) if a != b]
    assert moved, "the base change should move elements() order and a conjugator"
    for old, new in moved:
        where = f"{old['checker_id']} {old['group_label']} p={old['prime']}"
        tied = "only conjugator witnesses are tied to elements() order"
        assert old["checker_id"] == "aux_gruen_instance", f"{where} moved: {tied}"
        assert {k: v for k, v in old.items() if k != "witnesses"} == {
            k: v for k, v in new.items() if k != "witnesses"
        }, f"{where}: a field other than witnesses moved; {tied}"
        assert {k: v for k, v in old["witnesses"].items() if k != "conjugator"} == {
            k: v for k, v in new["witnesses"].items() if k != "conjugator"
        }, f"{where}: a witness other than the conjugator moved; {tied}"
    assert sorted(old["group_label"] for old, _ in moved) == ["A6", "PSL(2,17)", "S4", "S5", "S6"]
