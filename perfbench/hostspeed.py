"""Host speed, measured with a fixed piece of interpreter-bound work.

The 2-core host this benchmark was tuned on shares its cores with other
tenants, and shows no steal time: its cores just run slower at times.  The
reference work below took from 3.1 ms to 8.5 ms there, in bursts of seconds
and in levels that held for minutes, and forestcalc slowed down with it.
Each time the benchmark reports is therefore scaled by `REFERENCE_S / t`,
where t is the mean of two samples of the reference work taken just before
and just after the timed code: a reported second is a second on a host that
runs the reference work in REFERENCE_S.  On five runs of the same cold jobs
this cut the spread between runs of the summed job times from 0.12-0.17 of
the median to 0.03-0.06.  The raw times are kept in the run's detail file.

The reference work is benchmark code, so no change to forestcalc moves it.
"""

from __future__ import annotations

import statistics
import time

REFERENCE_S = 0.0055  # median time of reference_work() on the tuning host


def reference_work():
    """Recursion, tuple building and dictionary updates, like forestcalc's inner loops."""
    acc = {}

    def walk(depth):
        if depth == 0:
            return (1,)
        return walk(depth - 1) + (depth,)

    for i in range(4000):
        word = walk(i % 12)
        acc[word] = acc.get(word, 0) + i * i
    return sorted(acc.items())[0]


def sample(repeats: int = 9) -> float:
    """Median seconds of `repeats` runs of the reference work."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        reference_work()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def factor(before: float, after: float) -> float:
    """Scale for a time measured between two samples."""
    return REFERENCE_S / ((before + after) / 2)
