"""Machine-speed reference for the end-to-end timings.

On a shared machine the same code runs at different speeds from one minute
to the next: on the 2-vCPU VM this benchmark was written on, a round of
hybrid queries took 1.4 s or 2.4 s depending on the minute.  A time taken
in one minute says little about a time taken in another, so every timed
item is scaled to a reference speed.

The reference is ``probe``: a fixed loop of small numpy operations, the kind
of work hybridplan spends its time in, and part of the benchmark rather than
of the program.  ``Speedometer`` times the probe every ``SAMPLE_CPU_S`` of
CPU time from a SIGPROF handler, and once more at the end of every timed
item.  An item's time is its duration less the probes taken inside it,
each stretch between two samples multiplied by ``REF_PROBE_S`` over the
probe time around it: the seconds the item would take on a machine where
one probe takes ``REF_PROBE_S``.  A faster program gives a proportionally
smaller time; only the machine's speed is divided out.
"""
from __future__ import annotations

import bisect
import signal
import time
from array import array

import numpy as np

REF_PROBE_S = 1e-3
SAMPLE_CPU_S = 0.05
PROBE_ITERATIONS = 150

_M = np.random.default_rng(0).normal(size=(8, 8))
_V = np.linspace(0.0, 1.0, 16)


def probe(clock=time.perf_counter) -> float:
    """Seconds one pass of the fixed probe loop takes."""
    t = clock()
    x = 0.0
    for i in range(PROBE_ITERATIONS):
        x += float(np.sum(_M @ _M[i % 8])) + float(np.linalg.norm(np.sin(_V + i)))
    return clock() - t


class Speedometer:
    """Probe samples over a run, and the conversion of a timed interval to
    seconds at the reference speed.  One thread; ``start`` and ``stop``
    install and remove the SIGPROF sampler."""

    def __init__(self, clock=time.perf_counter, probe=probe):
        self.clock = clock
        self.probe = probe
        self.at = array("d")        # when each sample ended
        self.probe_s = array("d")   # each sample's probe time
        self.spent = array("d")     # time spent sampling, up to and including each sample
        self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._on_signal)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_CPU_S, SAMPLE_CPU_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def _on_signal(self, signum, frame) -> None:
        self.sample()

    def sample(self) -> None:
        if self._busy:              # a signal that lands inside a sample
            return
        self._busy = True
        try:
            t = self.clock()
            p = self.probe()
            end = self.clock()
            self.at.append(end)
            self.probe_s.append(p)
            self.spent.append((self.spent[-1] if self.spent else 0.0) + end - t)
        finally:
            self._busy = False

    def since(self, t0: float) -> float:
        """Seconds at the reference speed from ``t0`` (a reading of the clock)
        to now.  The samples inside the interval cut it into stretches of
        work; each stretch is scaled by the mean of the probes on either side
        of it, so a change of machine speed inside a long item is followed."""
        t1 = self.clock()
        self.sample()
        at, probe_s, spent = self.at, self.probe_s, self.spent
        first = bisect.bisect_right(at, t0)          # first sample inside the interval
        last = bisect.bisect_right(at, t1)           # the sample that closes it
        left = probe_s[first - 1] if first else probe_s[first]
        start, total = t0, 0.0
        for k in range(first, last + 1):
            end = t1 if k == last else at[k] - (spent[k] - (spent[k - 1] if k else 0.0))
            total += (end - start) * 2.0 / (left + probe_s[k])
            start, left = at[k], probe_s[k]
        return total * REF_PROBE_S

    def summary(self) -> dict:
        return {"probe_ms_median": 1e3 * float(np.median(self.probe_s)) if self.probe_s else None,
                "probe_ms_ref": 1e3 * REF_PROBE_S, "samples": len(self.probe_s)}
