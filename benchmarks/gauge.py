"""A gauge of the host's current speed, to take host contention out of the timings.

On a shared host the CPU alternates between an uncontended state and
contended states that run the same code up to about twice as slowly, in
phases of seconds to minutes, and the uncontended speed itself drifts by
about 10%, so raw run-to-run spreads reach 30%.  The benchmark reads the
gauge, a fixed piece of Fraction arithmetic, right before and right
after every timed call.  ``scale`` turns each measured time into the time
it would read on a host where one probe takes REFERENCE_S: time *
REFERENCE_S / mean of the call's two probes.  REFERENCE_S is what a probe
takes on the uncontended reference host (Python 3.11, 2 vCPUs), so there
scaled and raw times agree when the host is idle.

The probe does the two kinds of work the operations do: Fraction
arithmetic on small integers (the identities and closed-form workloads)
and on integers of about a thousand bits, the size of the coefficients
the extension workload sums, where the time goes into big-integer
products and gcds.
"""

from __future__ import annotations

import random
from fractions import Fraction
from time import perf_counter

SMALL_STEPS = 60
BIG_BITS = 1000
REFERENCE_S = 0.00044


def _big_pairs(count: int = 4) -> list:
    rng = random.Random("gauge")
    big = lambda: Fraction(rng.getrandbits(BIG_BITS) | 1, rng.getrandbits(BIG_BITS) | 1)
    return [(big(), big()) for _ in range(count)]


BIG_PAIRS = _big_pairs()


def probe() -> float:
    """Seconds for a fixed piece of small- and big-integer Fraction arithmetic."""
    t0 = perf_counter()
    f = Fraction(1, 3)
    for i in range(SMALL_STEPS):
        f = (f * Fraction(i + 1, i + 2) + 1) % 7
    total = Fraction(0)
    for a, b in BIG_PAIRS:
        total += a * b
    return perf_counter() - t0


def scale(times, gauges) -> list:
    """Each time as it would read on the reference host: time * REFERENCE_S / gauge."""
    return [t * REFERENCE_S / g for t, g in zip(times, gauges)]
