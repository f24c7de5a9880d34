"""Machine-speed calibration.

On the reference machine (a 2-vCPU virtual machine on a shared host) the
same code runs up to a third slower for minutes at a time, which moves
every timing by about the same factor. A fixed pure-Python loop, timed in
the same process just before and just after each op, measures that
factor: ``run.py`` reports each op time as ``wall * REFERENCE_S / c``,
where ``c`` is the mean of the op's two calibration samples, i.e. in
seconds at the reference speed. Import times for ``setup_s`` are scaled
the same way inside each fresh process. Raw figures stay in the detail
line.
"""

from __future__ import annotations

import time

# About the calibration time on the reference machine (2-core Xeon, CPython
# 3.11.7). It only fixes the unit: at this speed scaled and raw times agree.
REFERENCE_S = 0.002


def calibrate() -> float:
    """Seconds for a fixed mix of integer arithmetic, dict, list and
    attribute work: the operations the package's hot loops are made of."""
    t = time.perf_counter()
    memo: dict[int, int] = {}
    acc = 0
    row = list(range(64))
    for i in range(8000):
        acc = (acc * 31 + row[i & 63]) & 0xFFFFFFFF
        memo[acc & 1023] = i
    sorted(memo.values())
    return time.perf_counter() - t
