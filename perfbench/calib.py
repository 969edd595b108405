"""Machine-speed samples taken between jobs, to take other tenants' load out
of the timings.

    python3 perfbench/calib.py    # re-measure REFERENCE_S on a quiet machine

On a shared machine, other tenants slow this CPU by up to 2× for stretches
of seconds to minutes, longer than a run. A fixed set of small kernels that
never call qknot is timed between jobs; `slowdown()` is their time over
their time on the quiet reference machine, so 1.0 means reference speed.
Dividing a job's time by the slowdown around it gives its time at the
reference speed. The kernels cover the kinds of work qknot does: dict and
small-int loops, big-int arithmetic, and small numpy calls.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

_ARR = np.arange(64, dtype=np.int64)


def _dict_ints() -> None:
    acc: dict[int, int] = {}
    for i in range(1200):
        acc[i % 97] = acc.get(i % 97, 0) + i * i


def _big_ints() -> None:
    acc: dict[int, int] = {}
    for a in range(28):
        for b in range(28):
            key = (a + b) % 37
            acc[key] = acc.get(key, 0) + (a * 1000003 + b) ** 3


def _numpy_small() -> None:
    x = _ARR
    for _ in range(40):
        x = np.convolve(x[:64], _ARR)


KERNELS = (_dict_ints, _big_ints, _numpy_small)
# Each kernel's time, rounded, on a quiet 2-core Intel Xeon (about the 5th
# percentile of `python3 perfbench/calib.py`). They only set the scale of
# the scaled times; changing them rescales every time metric.
REFERENCE_S = (1.2e-4, 1.5e-4, 1.3e-4)
REPEATS = 2


def _kernel_time(kernel) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - t0)
    return best


def slowdown() -> float:
    """This CPU's present time per unit of work, relative to the reference
    machine when quiet: the mean over the kernels of time ÷ REFERENCE_S."""
    return sum(_kernel_time(k) / ref for k, ref in zip(KERNELS, REFERENCE_S)) / len(KERNELS)


def main() -> None:
    samples = [[] for _ in KERNELS]
    for _ in range(2000):
        for i, kernel in enumerate(KERNELS):
            samples[i].append(_kernel_time(kernel))
    for kernel, ts in zip(KERNELS, samples):
        print(f"{kernel.__name__}: 5th percentile {statistics.quantiles(ts, n=20)[0]:.3e} s, "
              f"median {statistics.median(ts):.3e} s")


if __name__ == "__main__":
    main()
