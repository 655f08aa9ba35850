"""Host-speed calibration for the benchmark's timings.

The hosts this benchmark runs on share their cores: the same repetition ran
in 3.1 s and in 5.4 s a few minutes apart, with CPU time following wall
time, so neither a median over repetitions nor CPU time removes the drift.
A fixed burst of pure-Python table work is therefore timed every INTERVAL_S
seconds inside the child (from a SIGALRM handler, between bytecodes) and
right before set-up.  Timings are reported at reference speed: the measured
time, less the bursts that fell inside it, times the mean speed of the
bursts relative to NOMINAL_BURST_S.
"""

import signal
import time

INTERVAL_S = 0.2
# one burst on the reference host (Xeon at 2.1 GHz, Python 3.11); scaling
# by a constant leaves every ratio between runs unchanged
NOMINAL_BURST_S = 0.002

_TABLE = [[(a * b + a) % 13 for b in range(13)] for a in range(13)]


def burst():
    """Fixed work of the library's kind: triple scans of a Cayley table and
    small tuple-keyed dictionary updates."""
    t = _TABLE
    bad = 0
    seen = {}
    for _ in range(8):
        for x in range(13):
            tx = t[x]
            for y in range(13):
                xy = tx[y]
                txy = t[xy]
                for z in range(13):
                    if txy[z] != tx[t[y][z]]:
                        bad += 1
                seen[(x, y)] = (xy, bad)
    return bad


def timed_burst():
    t0 = time.perf_counter()
    burst()
    return time.perf_counter() - t0


class Sampler:
    """Collects burst times: on demand with `sample`, and every INTERVAL_S
    seconds of wall time while used as a context manager."""

    def __init__(self):
        self.bursts = []

    def sample(self, n):
        for _ in range(n):
            self.bursts.append(timed_burst())

    def _tick(self, signum, frame):
        self.bursts.append(timed_burst())

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def spent(self):
        return sum(self.bursts)

    def speed(self, since=0):
        """Mean host speed of the bursts from index `since` on, relative to
        the reference host."""
        recent = self.bursts[since:]
        return NOMINAL_BURST_S * sum(1 / b for b in recent) / len(recent)
