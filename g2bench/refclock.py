"""Machine speed from a fixed reference computation, to scale measured times.

The shared 2-core machine this benchmark was tuned on changes speed by about
+-30% from one 5-second window to the next: a fixed Fraction loop whose wall
and thread CPU times agree takes anywhere from 7.5 to 13.9 ms per call.  Raw op
times of two runs of the same code then differ by more than any bound worth
having.  The reference is this benchmark's own Fraction-heavy pullback
(`inputs.compose`), which the package under test cannot change.  A time t
measured next to references of median time r is reported as
t * NOMINAL_S / r: the time it would take at the speed at which one reference
takes NOMINAL_S.  Unscaled times are printed next to the scaled ones.
"""

from __future__ import annotations

import random
import statistics
import time

import inputs

NOMINAL_S = 0.007  # one reference on the 2-core machine above at its usual speed
SHARE = 0.1  # reference time run after an op, as a share of the op's time
_MATRIX = inputs.rational_matrix(random.Random("reference"))


def references(seconds: float) -> list:
    """Times of the reference run back to back for `seconds` (at least once)."""
    out = []
    while not out or sum(out) < seconds:
        t0 = time.perf_counter()
        inputs.compose(inputs.COMPACT_REP, _MATRIX)
        out.append(time.perf_counter() - t0)
    return out


class RefClock:
    """Reference batches between timed items; item k runs between batches k and k + 1."""

    def __init__(self, lead_seconds: float):
        """Start with references for `lead_seconds`, to compare the first items with."""
        self.batches = [references(lead_seconds)]

    def after(self, seconds: float) -> None:
        """Record a reference batch after an item that took `seconds`."""
        self.batches.append(references(SHARE * seconds))

    def scale(self, k: int) -> float:
        """Factor for item k, from the median reference of the batches within two items of it."""
        window = [t for b in self.batches[max(0, k - 2):k + 4] for t in b]
        return NOMINAL_S / statistics.median(window)
