"""Machine-speed calibration for the CPU-bound timing metrics.

The sandbox shares its two cores with other tenants.  A busy sibling
hyperthread makes every CPU-bound instruction stream run about 1.4x slower,
in stretches from a third of a second to tens of minutes: the short ones
widen a run's percentiles, the long ones slow all repeats and all rounds of
a run alike, so no statistic over a run's own samples can see them, and two
runs an hour apart differ by more than any bound.

A fixed kernel of the kind of work the program does (small matrix products,
20k-element vector arithmetic, interpreter-bound loops and dict builds) is
therefore timed between every two rounds, and each round's CPU-bound timings
are multiplied by ``REFERENCE_S / kernel time`` of the readings around it:
they read as seconds on this box when it is quiet.  Measured on recorded
rounds of three workloads, grouped into runs of five repeats, this brought
the run-to-run spread (IQR / median) of ``round_s_p50`` from 3-10 % to
2-6 % within one phase of the machine, and the medians of a slow phase to
within 12 % of the quiet ones where the raw ones were 30-60 % above.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: The kernel's time on the 2-core reference box when nothing contends.
REFERENCE_S = 0.0046
#: Readings on each side of a round whose median scales it: wide enough to
#: outvote a single pass hit by a burst, narrow enough (about a fifth of a
#: second) to follow the machine's shortest slow stretches.
WINDOW = 2


def kernel_seconds() -> float:
    """Time one pass of the fixed calibration kernel (about 5 ms).

    The large vectors are updated in place: a pass that allocated them anew
    read up to 30 % slower right after a round that had left the allocator's
    heap trimmed, which is the program's doing, not the machine's.
    """
    rng = np.random.default_rng(0)
    matrix = rng.standard_normal((48, 48))
    vector = rng.standard_normal(20_000)
    scratch = np.empty_like(vector)
    total = 0
    started = time.perf_counter()
    for _ in range(150):
        matrix = np.tanh(matrix @ matrix.T * 0.01)
        np.multiply(vector, 0.999, out=scratch)
        np.add(scratch, 0.001, out=vector)
        total += sum(range(300))
        table = {index: index for index in range(50)}
    elapsed = time.perf_counter() - started
    assert total and table  # the work above must not be optimised away
    return elapsed


def sample() -> float:
    """Median of five kernel passes: one steadier reading."""
    return statistics.median(kernel_seconds() for _ in range(5))


def speed(*readings: float) -> float:
    """The factor that turns a timing taken amid ``readings`` into quiet-box seconds."""
    return REFERENCE_S / statistics.median(readings)


def round_speeds(readings: list[float]) -> list[float]:
    """Per-round factors from the K + 1 readings taken around K rounds.

    Round ``i`` ran between readings ``i`` and ``i + 1``; its factor comes
    from the median of the ``WINDOW`` readings on each side of it.
    """
    return [
        speed(*readings[max(0, index - WINDOW + 1) : index + WINDOW + 1])
        for index in range(len(readings) - 1)
    ]
