"""Run the full verification scan over the built-in corpus and summarize.

Every registered checker runs on every (group, prime) pair it applies
to.  Each verdict is an implication test: the conclusion is evaluated
only when the hypothesis holds, so a hypothesis that never fires shows
up as "vacuous" rather than silently passing.  The scan runs under the
caps in force, DEFAULT_CAPS here: a `transferlab.limits` block around it
would set others.
"""

import time
from collections import Counter

from transferlab import scan_corpus
from transferlab.catalog import default_corpus


def main():
    entries = default_corpus()
    print(f"corpus: {len(entries)} groups, largest order "
          f"{max(e.expected_order for e in entries)}")

    start = time.monotonic()
    report = scan_corpus(entries)
    elapsed = time.monotonic() - start

    print(f"\n{len(report.verdicts)} verdicts in {elapsed:.1f}s")
    for key, count in sorted(report.summary.items()):
        print(f"  {key}: {count}")

    by_checker = Counter(v.checker_id for v in report.verdicts)
    print("\nverdicts per checker:")
    for checker_id, count in sorted(by_checker.items()):
        fired = sum(
            1 for v in report.verdicts
            if v.checker_id == checker_id and v.hypothesis_holds
        )
        print(f"  {checker_id}: {count} runs, hypothesis fired in {fired}")

    if report.interpretation_discrepancies:
        print("\ninterpretation discrepancies (strict vs p'-length reading):")
        for v in report.interpretation_discrepancies:
            print(f"  {v.checker_id} on {v.group_label} at p={v.prime}: "
                  f"p_length={v.witnesses['p_length']}, "
                  f"p'-length={v.witnesses['p_prime_length']}")


if __name__ == "__main__":
    main()
