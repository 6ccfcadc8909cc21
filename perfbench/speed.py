"""A fixed reference loop that tracks the machine's speed during a run.

On a shared machine the speed of pure-Python code drifts by 20-30 % over
minutes, for every kind of work alike.  Runs of the
benchmark lie minutes apart, so their raw times differ by that drift.  The
run therefore times this loop, which does not touch the package, right
before every instance, and scales the instance's CPU time by

    REFERENCE_S / (median of the loop's times around it)

Set-up is scaled by the median loop time of the whole run.  Times are then
reported in seconds at a fixed reference speed, and a change to the package
changes them as it changes raw times.
"""

from __future__ import annotations

import gc
import statistics
from time import process_time

# The loop's median CPU time on the 2-CPU sandbox the bounds were set on.
REFERENCE_S = 0.0009
# Loop times on each side of an instance that make its speed estimate.
WINDOW = 15


def _loop() -> int:
    # the package's kind of work: building and sorting lists of small
    # integers, as words are built, and a generator over them
    word = [(i * 7919) % 6 for i in range(8000)]
    frozen = tuple(word)
    head = sorted(word[:2000])
    return len(frozen) + head[0] + sum(1 for x in word if x == 3)


def reference() -> float:
    """CPU seconds the reference loop takes now.

    The collector is off meanwhile, so the package's heap cannot make the
    loop slower."""
    gc.disable()
    try:
        t0 = process_time()
        _loop()
        return process_time() - t0
    finally:
        gc.enable()


def scales(samples: list[float]) -> list[float]:
    """For each loop time, REFERENCE_S over the median of its neighbours."""
    out = []
    for i in range(len(samples)):
        near = samples[max(0, i - WINDOW):i + WINDOW + 1]
        out.append(REFERENCE_S / statistics.median(near))
    return out

