"""Host-speed reference for the end-to-end timings.

A shared 2-core cloud host (Intel Xeon, 2.0 GHz) changes speed by up to
1.8x from one few-second stretch to the next (a fixed pure-Python loop
swings between 16 and 30 ms per call), and process CPU time swings with
wall time, so neither can be reported raw.  A `Reference` is a fixed piece of
work that does not touch ietflow, built from the parts below: integer
loops, Fraction arithmetic, mpmath logarithms and numpy array passes.
Each workload names the parts whose speed follows its own items' speed
most closely on such a host.  The reference is timed between items, and
every item latency is scaled by nominal_s / (reference time around that
item): the latency the item would have had on a host where the reference
takes nominal_s.  Work in ietflow is measured in full; only the host's
speed at that moment is divided out.
"""

from __future__ import annotations

import time
from fractions import Fraction
from statistics import median

import mpmath
import numpy as np

WINDOW = 2          # an item's speed: median of the references within
                    # WINDOW places before and after it

_ARRAY = np.random.default_rng(12345).random(5000)
_SORTED = np.sort(_ARRAY[:512])


def _ints() -> int:
    s = 0
    for i in range(15000):
        s += i * i % 7
    return s


def _fractions() -> Fraction:
    x = Fraction(1, 3)
    for i in range(1, 100):
        x = x * Fraction(i + 1, i) + Fraction(1, i * i + 1)
        x -= x.numerator // x.denominator
    return x


def _logs():
    with mpmath.workdps(40):
        s = mpmath.mpf(0)
        for i in range(1, 70):
            s += mpmath.log(mpmath.mpf(i) / 7 + 1)
    return s


def _arrays() -> float:
    s = 0.0
    for _ in range(3):
        s += float(np.floor(_ARRAY * 7.3).sum())
        s += float(np.searchsorted(_SORTED, _ARRAY).sum())
    return s


# part -> (function, its time on a 2-core Intel Xeon at 2.0 GHz with
# python 3.11, numpy 2.4 and mpmath 1.3, in the host's fast stretches)
PARTS = {"ints": (_ints, 0.0010), "fractions": (_fractions, 0.0011),
         "logs": (_logs, 0.0012), "arrays": (_arrays, 0.0015)}


class Reference:
    """The named parts, run in order; a part may be named several times."""

    def __init__(self, parts):
        self.parts = [PARTS[name][0] for name in parts]
        self.nominal_s = sum(PARTS[name][1] for name in parts)

    def __call__(self) -> float:
        """Run the reference work once; return its wall time in seconds."""
        start = time.perf_counter()
        for part in self.parts:
            part()
        return time.perf_counter() - start

    def speed(self, refs) -> float:
        """Host speed relative to nominal, from reference times."""
        return self.nominal_s / median(refs)

    def scaled(self, latencies, refs):
        """Scale latencies[k], timed between refs[k] and refs[k + 1], to
        the nominal host speed.  len(refs) == len(latencies) + 1."""
        out = []
        for k, lat in enumerate(latencies):
            lo, hi = max(0, k - WINDOW + 1), min(len(refs), k + WINDOW + 1)
            out.append(lat * self.speed(refs[lo:hi]))
        return out
