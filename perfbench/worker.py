"""One pass of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --root CHECKOUT --workload NAME --seed N [--setup-only] [--trace]

Times the set-up (importing transferlab from CHECKOUT/src and building the
seeded inputs), then the workload's operations, then checks every output
outside the timed part.  Times are reported both as measured (``*_raw``)
and scaled to the reference CPU speed by speed.SpeedProbe.  Prints one
JSON object on stdout.  With --trace the operations run under the tracer,
whose spans go to CHECKOUT/.perfbench/trace-NAME.tsv.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import time

from speed import SpeedProbe
from tracer import Tracer


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    root = os.path.abspath(args.root)
    src = os.path.join(root, "src")
    workdir = os.path.join(root, ".perfbench")
    os.makedirs(workdir, exist_ok=True)
    sys.path.insert(0, src)

    probe = SpeedProbe()
    with probe:
        t0 = time.perf_counter()
        import transferlab
        import workloads

        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        setup_end = time.perf_counter()
        if not os.path.abspath(transferlab.__file__).startswith(src + os.sep):
            print(f"transferlab imported from {transferlab.__file__}, not {src}", file=sys.stderr)
            return 2
        if args.setup_only:
            workload.cleanup()
        else:
            tracer = Tracer() if args.trace else None
            with tracer or contextlib.nullcontext():
                start = time.perf_counter()
                outputs, intervals = workload.run()
                end = time.perf_counter()
    result = {
        "setup_s": probe.scaled(t0, setup_end),
        "setup_raw_s": setup_end - t0 - probe.probe_time(t0, setup_end),
    }
    if args.setup_only:
        print(json.dumps(result))
        return 0

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failures = workload.check(outputs)
    workload.cleanup()
    result.update(
        wall_s=probe.scaled(start, end),
        wall_raw_s=end - start - probe.probe_time(start, end),
        op_ms={op: probe.scaled(s, e) * 1e3 for op, (s, e) in intervals.items()},
        attempted=len(workload.op_ids),
        failures=failures,
        peak_rss_mb=peak_rss_mb,
    )
    if tracer is not None:
        result["layers"] = tracer.metrics(end - start)
        tracer.write(os.path.join(workdir, f"trace-{args.workload}.tsv"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
