"""Host-speed correction.

The speed of a shared core can drift by up to 1.8x over minutes, far more
than the effects the benchmark must resolve.  So a fixed reference loop with
no isods code is timed between operations, every INTERVAL_S, and each timed span is scaled
by ``factor()`` of the samples around it (``local_factors``): it is reported
at the speed at which the loop takes REFERENCE_MS.  The speed also drifts
within a run, so a single factor per run would spread the tail.  Contention
does not slow all code alike, so each workload names the loop whose times
track its own best (measured in README.md).
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

FRACTION_ITERATIONS = 2_000
INTEGER_ITERATIONS = 50_000
REFERENCE_MS = 4.0
INTERVAL_S = 0.1
WINDOW = 3  # samples, centred on the latest one before a span, that correct it


def fraction_loop_ms() -> float:
    """Time of a fixed loop of Fraction sums: pure-Python calls, small
    short-lived objects and gcd.  Contention slows it about twice as much
    as the integer loop."""
    start = perf_counter()
    acc = Fraction(0)
    for i in range(1, FRACTION_ITERATIONS):
        acc += Fraction(i % 13, i % 7 + 1)
    return (perf_counter() - start) * 1e3


def integer_loop_ms() -> float:
    """Time of a fixed integer loop that allocates nothing."""
    start = perf_counter()
    acc = 0
    for i in range(INTEGER_ITERATIONS):
        acc += i * i % 7
    return (perf_counter() - start) * 1e3


def factor(samples: list[float]) -> float:
    """Scale for times measured while the loop took `samples` milliseconds."""
    return REFERENCE_MS / statistics.median(samples)


def local_factors(samples: list[float], index: list[int]) -> list[float]:
    """factor() for each timed span, over the WINDOW samples centred on
    samples[index[i]], the latest sample taken before span i."""
    half = WINDOW // 2
    by_sample = {i: factor(samples[max(0, i - half): i + half + 1]) for i in set(index)}
    return [by_sample[i] for i in index]
