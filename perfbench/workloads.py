"""The three benchmark workloads: seeded inputs, timed operations, checks.

Each workload class builds its inputs in ``__init__`` (this is the set-up
the benchmark times), runs its operations in ``run`` (the timed part, a
closed loop: one operation at a time, each starting when the previous one
returns; it returns the outputs and each operation's perf_counter
interval) and checks the outputs in ``check`` (outside the timed part).

Importing this module imports transferlab, so a worker imports it inside
its set-up timer.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import random
import time
import traceback
from collections import Counter

from transferlab import catalog as tl_catalog
from transferlab import checkers as tl_checkers
from transferlab import cli as tl_cli
from transferlab import group as tl_group
from transferlab import sylow as tl_sylow

# The package re-exports the function transfer(), which shadows the module.
tl_transfer = importlib.import_module("transferlab.transfer")

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

# Several elements per (G, P) so that a per-pair cache has reuse to exploit.
TRANSFER_ELEMENTS_PER_PAIR = 8
# Length range of the random generator words that give the sampled elements.
WORD_LENGTH = (1, 40)


def prime_divisors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def pair_id(label: str, prime: int) -> str:
    return f"{label}-p{prime}"


def load_golden(name: str):
    with open(os.path.join(GOLDEN_DIR, name)) as fh:
        return json.load(fh) if name.endswith(".json") else fh.read()


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _describe(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


def call_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = tl_cli.main(argv)
    return rc, buf.getvalue()


def parse_records(text: str) -> tuple[dict[str, list[str]], Counter]:
    """Scan record lines grouped by (group, prime) in stream order, and the
    count of each verdict."""
    by_pair: dict[str, list[str]] = {}
    verdicts: Counter = Counter()
    for line in text.splitlines():
        try:
            rec = json.loads(line)
            key = pair_id(rec["group_label"], rec["prime"])
            verdicts[rec["verdict"]] += 1
        except (ValueError, KeyError, TypeError):
            key = "<unparsable record>"
        by_pair.setdefault(key, []).append(line)
    return by_pair, verdicts


@contextlib.contextmanager
def pair_clock():
    """Timestamp the first checker call of each (group, prime) pair.

    The scan runs its pairs one after another, so a pair lasts from its
    first checker call to the next pair's first call (the last pair ends
    when its last checker returns).  One timestamp per checker call, no
    spans: this is not the tracer.
    """
    starts: dict[str, float] = {}
    last_end = [0.0]
    original = tl_checkers.run_checker

    def timed(checker_id, group, prime, *args, **kwargs):
        key = pair_id(group.name, prime)
        if key not in starts:
            starts[key] = time.perf_counter()
        try:
            return original(checker_id, group, prime, *args, **kwargs)
        finally:
            last_end[0] = time.perf_counter()

    def intervals() -> dict[str, tuple[float, float]]:
        keys = sorted(starts, key=starts.get)
        ends = [starts[k] for k in keys[1:]] + [last_end[0]]
        return {k: (starts[k], end) for k, end in zip(keys, ends)}

    tl_checkers.run_checker = timed
    try:
        yield intervals
    finally:
        tl_checkers.run_checker = original


class CorpusScan:
    """One ``transferlab scan --format records`` over the shuffled corpus.

    An operation is one (group, prime) pair; it fails when any of its
    records differ from the seed commit's.  The scan sorts its records, so
    the stream does not depend on the catalog order the seed picks.
    """

    def __init__(self, seed: int, workdir: str):
        entries = tl_catalog.default_corpus()
        _rng("corpus_scan", seed).shuffle(entries)
        self.catalog_path = os.path.join(workdir, f"corpus_scan-{seed}-{os.getpid()}.jsonl")
        tl_catalog.save_catalog(entries, self.catalog_path)
        self.op_ids = sorted(
            pair_id(e.label, p) for e in entries for p in prime_divisors(e.expected_order)
        )

    def run(self):
        with pair_clock() as intervals:
            try:
                out = call_cli(["scan", "--format", "records", "--catalog", self.catalog_path])
            except Exception as exc:  # a crash fails every pair, not the run
                out = exc
        return out, intervals()

    def check(self, out) -> list[str]:
        if isinstance(out, BaseException):
            return [f"{op}: scan raised {_describe(out)}" for op in self.op_ids]
        rc, text = out
        golden = load_golden("scan_records.jsonl")
        got, expected = parse_records(text)[0], parse_records(golden)[0]
        failures = [
            f"{key}: records differ from the seed commit"
            for key in sorted(set(got) | set(expected))
            if got.get(key) != expected.get(key)
        ]
        if not failures and text != golden:
            failures.append("record stream: pairs out of order")
        if not failures and rc != 0:
            failures.append(f"scan exited {rc}")
        return failures

    def cleanup(self) -> None:
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.catalog_path)


class StructureQueries:
    """One cold ``analyze <label> --prime p`` per corpus pair, plus ``witness``.

    Each query resolves and builds its group from scratch, so nothing
    cached on a group object is reused between operations.
    """

    def __init__(self, seed: int, workdir: str):
        ops = [
            ["analyze", entry.label, "--prime", str(p)]
            for entry in tl_catalog.default_corpus()
            for p in prime_divisors(entry.expected_order)
        ]
        ops.append(["witness"])
        _rng("structure_queries", seed).shuffle(ops)
        self.ops = ops
        self.op_ids = [" ".join(argv) for argv in ops]

    def run(self):
        outputs, intervals = {}, {}
        for op, argv in zip(self.op_ids, self.ops):
            t0 = time.perf_counter()
            try:
                outputs[op] = call_cli(argv)
            except Exception as exc:
                outputs[op] = exc
            intervals[op] = (t0, time.perf_counter())
        return outputs, intervals

    def check(self, outputs) -> list[str]:
        golden_analyze = load_golden("analyze.json")
        golden_witness = load_golden("witness.txt")
        failures = []
        for op in self.op_ids:
            out = outputs.get(op)
            if not isinstance(out, tuple):
                failures.append(f"{op}: {_describe(out) if out else 'not run'}")
                continue
            rc, text = out
            if op == "witness":
                ok = text == golden_witness and text.count(": pass\n") == 10
            else:
                ok = text == golden_analyze.get(op)
            if rc != 0 or not ok:
                failures.append(f"{op}: exit {rc} or output differs from the seed commit")
        return failures

    def cleanup(self) -> None:
        pass


class TransferEval:
    """``transfer(G, P, x)`` for the Sylow P of every corpus pair with P != G.

    Several seeded elements x per (G, P), all (pair, x) operations in a
    seeded order; the same G and P objects are reused across a pair's
    operations.  The check recomputes each value over a seeded, shuffled
    transversal and compares modulo P' (raw values depend on the coset
    representatives, which a correct rework may choose differently).
    """

    def __init__(self, seed: int, workdir: str):
        rng = _rng("transfer_eval", seed)
        self.seed = seed
        self.pairs = []  # (pair id, G, P)
        for entry in tl_catalog.default_corpus():
            g = entry.build()
            for p in prime_divisors(g.order()):
                syl = tl_sylow.sylow_subgroup(g, p)
                if syl.order() < g.order():
                    self.pairs.append((pair_id(entry.label, p), g, syl))
        self.elements = {}  # op id -> (pair index, x)
        for i, (pid, g, _) in enumerate(self.pairs):
            for j in range(TRANSFER_ELEMENTS_PER_PAIR):
                x = g.identity()
                for _ in range(rng.randint(*WORD_LENGTH)):
                    x = x * rng.choice(g.gens)
                self.elements[f"{pid} x{j}"] = (i, x)
        self.op_ids = sorted(self.elements)
        rng.shuffle(self.op_ids)

    def run(self):
        outputs, intervals = {}, {}
        for op in self.op_ids:
            i, x = self.elements[op]
            _, g, syl = self.pairs[i]
            t0 = time.perf_counter()
            try:
                outputs[op] = tl_transfer.transfer(g, syl, x)
            except Exception as exc:
                outputs[op] = exc
            intervals[op] = (t0, time.perf_counter())
        return outputs, intervals

    def check(self, outputs) -> list[str]:
        failures = []
        routes = {}  # pair index -> (shuffled transversal, P')
        for op in sorted(self.op_ids):
            i, x = self.elements[op]
            pid, g, syl = self.pairs[i]
            result = outputs.get(op)
            try:
                if i not in routes:
                    rng = random.Random(f"transfer_eval-check:{self.seed}:{pid}")
                    routes[i] = (
                        tl_transfer.shuffled_transversal(g, syl, rng),
                        tl_group.derived_subgroup(syl),
                    )
                trans, modulus = routes[i]
                other = tl_transfer.pretransfer(g, syl, trans, x)
                ok = (
                    isinstance(result, tl_transfer.TransferResult)
                    and syl.contains(result.value)
                    and tl_transfer.TransferResult(syl, modulus, other).same_as(result)
                )
            except Exception as exc:
                failures.append(f"{op}: check raised {_describe(exc)}")
                continue
            if not ok:
                failures.append(f"{op}: transfer value disagrees modulo P'")
        return failures

    def cleanup(self) -> None:
        pass


WORKLOADS = {
    "corpus_scan": CorpusScan,
    "structure_queries": StructureQueries,
    "transfer_eval": TransferEval,
}
