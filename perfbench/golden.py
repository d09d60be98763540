"""Regenerate the golden outputs the benchmark checks against.

    python3 perfbench/golden.py

Run it from the repository root, at the commit whose outputs are the
reference (the seed of the current optimisation round): every later
commit must reproduce these bytes.  Writes perfbench/golden/scan_records.jsonl
(the output of ``transferlab scan --format records``), scan.json (its
sha256 and verdict summary), analyze.json (the text of every
``transferlab analyze <label> --prime p`` over the corpus) and witness.txt
(``transferlab witness``).
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from transferlab.catalog import default_corpus  # noqa: E402

VERDICTS = ("implication_ok", "vacuous", "VIOLATION", "skipped:cap")


def _cli_ok(argv: list[str]) -> str:
    rc, text = workloads.call_cli(argv)
    if rc != 0:
        raise SystemExit(f"transferlab {' '.join(argv)} exited {rc}")
    return text


def main() -> int:
    text = _cli_ok(["scan", "--format", "records"])
    _, verdicts = workloads.parse_records(text)
    scan = {
        "command": "transferlab scan --format records",
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
        "lines": len(text.splitlines()),
        "summary": {v: verdicts.get(v, 0) for v in VERDICTS},
    }
    analyze = {}
    for entry in default_corpus():
        for p in workloads.prime_divisors(entry.build().order()):
            argv = ["analyze", entry.label, "--prime", str(p)]
            analyze[" ".join(argv)] = _cli_ok(argv)
    witness = _cli_ok(["witness"])

    out_dir = workloads.GOLDEN_DIR
    os.makedirs(out_dir, exist_ok=True)
    for name, data in (("scan.json", scan), ("analyze.json", analyze)):
        with open(os.path.join(out_dir, name), "w") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
            fh.write("\n")
    for name, data in (("scan_records.jsonl", text), ("witness.txt", witness)):
        with open(os.path.join(out_dir, name), "w") as fh:
            fh.write(data)
    print(f"scan sha256 {scan['sha256']}  summary {scan['summary']}")
    print(f"{len(analyze)} analyze queries, witness {witness.count(': pass')}/10 pass")
    return 0


if __name__ == "__main__":
    sys.exit(main())
