"""Scale measured times to a reference CPU speed.

A shared machine's speed drifts: on a 2-core VM with busy co-tenants a
fixed pure-Python loop took 0.20 s alone and 0.28-0.30 s for tens of
seconds at a time, and CPU time drifted with wall time, so the slowdown
is slower execution, not waiting for a core.  Such drift moves every
wall-clock figure together.

``SpeedProbe`` runs a small fixed kernel (permutation-tuple composition
and dictionary work, like the library's hot path, but none of its code)
from a SIGALRM timer every INTERVAL_S seconds while a pass runs, in the
same thread.  ``scaled(start, end)`` converts a wall interval into seconds
at the reference speed: each stretch between two probes is weighted by
REFERENCE_PROBE_S over the probes' smoothed duration, and the probes' own
time is left out.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time

INTERVAL_S = 0.05
KERNEL_ROUNDS = 470
# Kernel time at full speed on the 2-core reference VM (Python 3.11.7).
REFERENCE_PROBE_S = 0.001

_DEGREE = 24
_A = tuple((7 * i + 3) % _DEGREE for i in range(_DEGREE))
_B = tuple((5 * i + 11) % _DEGREE for i in range(_DEGREE))


def _kernel() -> int:
    a, b = _A, _B
    seen = {}
    for _ in range(KERNEL_ROUNDS):
        c = tuple(b[x] for x in a)
        inv = [0] * _DEGREE
        for j, x in enumerate(c):
            inv[x] = j
        seen[c] = tuple(inv)
        a, b = c, seen.get(a, b)
    return len(seen)


class SpeedProbe:
    """Context manager: probe the CPU speed periodically while it is open."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._weights: list[float] = []
        self._bounds: list[float] = []
        self._old_handler = None
        self._busy = False

    def probe(self) -> None:
        if self._busy:  # a late timer signal landed inside a probe
            return
        self._busy = True
        # A collection inside the probe would read as a slow CPU; it runs
        # after the probe instead, where it was due anyway.
        gc_was_enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        _kernel()
        t1 = time.perf_counter()
        if gc_was_enabled:
            gc.enable()
        self.starts.append(t0)
        self.ends.append(t1)
        self._busy = False

    def __enter__(self) -> "SpeedProbe":
        self._old_handler = signal.signal(signal.SIGALRM, lambda signum, frame: self.probe())
        self.probe()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old_handler)
        self.probe()
        self._index()

    def _index(self) -> None:
        """Precompute the gaps between probes and their weights."""
        self._weights = self._gap_weights()
        # Gap g runs from _bounds[2g] (a probe's end) to _bounds[2g + 1] (the next start).
        self._bounds = [float("-inf")]
        for start, end in zip(self.starts, self.ends):
            self._bounds += [start, end]
        self._bounds.append(float("inf"))

    def probe_time(self, start: float, end: float) -> float:
        """Seconds of [start, end] spent in probes."""
        return sum(
            max(0.0, min(end, e) - max(start, s)) for s, e in zip(self.starts, self.ends)
        )

    def _gap_weights(self) -> list[float]:
        """Reference seconds per wall second in each gap: before the first
        probe, between consecutive probes, after the last."""
        d = [e - s for s, e in zip(self.starts, self.ends)]
        smooth = [statistics.median(d[max(0, k - 1):k + 2]) for k in range(len(d))]
        w = [REFERENCE_PROBE_S / x for x in smooth]
        return [w[0]] + [(w[k] + w[k + 1]) / 2 for k in range(len(w) - 1)] + [w[-1]]

    def scaled(self, start: float, end: float) -> float:
        """Reference-speed seconds of the wall interval [start, end], probes
        excluded.  Valid once the context has closed."""
        weights, bounds = self._weights, self._bounds
        total = 0.0
        first = max(0, (bisect.bisect_right(bounds, start) - 1) // 2)
        for g in range(first, len(weights)):
            lo, hi = bounds[2 * g], bounds[2 * g + 1]
            if lo >= end:
                break
            total += max(0.0, min(end, hi) - max(start, lo)) * weights[g]
        return total
