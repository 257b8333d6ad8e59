"""Timings scaled to a fixed machine speed.

The benchmark runs on a vCPU whose physical core it shares with other
tenants' work, so the same operation's CPU time rises and falls by tens of
percent from one few-second stretch to the next (and over minutes), in step
with nothing the program does. Every timed library call, and every slice
of ``SERVE_SLICE`` requests, is therefore bracketed by calibration bursts: a
fixed piece of work that does not touch kgdial and mixes small numpy calls
with interpreter work, as kgdial's inner loops do. Its CPU time is
multiplied by ``NOMINAL_BURST_S`` over the mean CPU time of the bursts just
before and just after it (consecutive stretches share a burst). The
result reads in seconds at the speed at which one burst takes
``NOMINAL_BURST_S``; a change to the program moves it exactly as it moves
the raw CPU time, while the machine's own speed changes largely cancel.

With another process switching one core between busy and idle every 1-8 s,
20-second medians of raw CPU time spread 0.10-0.23 (quartile range over
median) across windows, the scaled ones 0.01-0.06 (2-core Xeon VM).
"""

from __future__ import annotations

import time

import numpy as np

# CPU time of one burst at the nominal speed: about its median on the 2-core
# Xeon VM the bounds were set on, so scaled and raw times read alike there.
NOMINAL_BURST_S = 0.009
BURST_ROUNDS = 600

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((8, 32))
_B = _rng.standard_normal((32, 16))


def burst_s() -> float:
    """CPU time of one calibration burst."""
    start = time.process_time()
    counts: dict[int, int] = {}
    total = 0.0
    for i in range(BURST_ROUNDS):
        x = _A @ _B
        total += float(np.exp(-x * x).sum())
        for j in range(40):
            key = (i * j) % 211
            counts[key] = counts.get(key, 0) + 1
    return time.process_time() - start


class Scale:
    """Scale factors for consecutive stretches of work, each between two bursts."""

    def __init__(self):
        self.last = burst_s()

    def next(self) -> float:
        """Run a burst; return the factor for the work done since the previous one."""
        now = burst_s()
        factor = 2 * NOMINAL_BURST_S / (self.last + now)
        self.last = now
        return factor
