"""Machine-speed calibration for timings taken on a shared host.

On a small shared machine the speed available to one process changes by up
to about 1.8x as other tenants come and go, often for longer than a run. Raw
times then measure the neighbours as much as the program. So every timing is
paired with the times of fixed kernels taken right before and after it, and
converted to reference seconds:

    reference seconds = measured seconds * REFERENCE_S[k] / kernel k seconds

with the geometric mean over the kernels a workload is calibrated by. The
kernels are the benchmark's own code and never change with the program, so
the conversion cancels machine speed and leaves program speed.

Different work slows differently when the machine is busy, so each workload
names the kernels whose slow-down matches its own (`Workload.calibration`).
`numpy` fills an 8 MB array with normal variates, like the Monte Carlo
fading draws. `interpreter` is branchy interpreter work: JSON round trips,
sorting, small numpy calls and scalar log arithmetic, like scenario
handling, decisions and CLI formatting. On a 2-CPU Intel Xeon host, over
four minutes of alternating samples, the log of the selection_screen work
tracked the log of the `numpy` kernel with slope 1.28, of `interpreter` with
slope 0.69 and of their geometric mean with slope 0.97; gain_stats tracked
`numpy` with slope 0.72 and the least spread of the kernels tried.

REFERENCE_S are the kernels' times on that host unloaded (Python 3.11, numpy
2.4), so reference seconds approximate seconds there.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np

REFERENCE_S = {"numpy": 0.0115, "interpreter": 0.0100}
REPEATS = 3  # a kernel's time is the least of this many repeats

_RECORDS = [{"k": i, "v": [i * 0.5, str(i), {"x": i}], "s": "abc" * (i % 7)}
            for i in range(200)]


def _interpreter_kernel() -> float:
    grid = np.linspace(1.0, 9.0, 100)
    total = 0.0
    for k in range(18):
        total += len(json.loads(json.dumps(_RECORDS)))
        total += sorted((r["k"] * 7919) % 101 for r in _RECORDS)[50]
        total += float(np.where(np.arange(10) < 3, 1.0, 2.0).sum())
        total += sum(x * math.log1p(2.0 / x) / math.log(2.0) for x in grid)
        total += len(f"{total:.12g},{k}")
    return total


class Calibrator:
    def __init__(self):
        self._rng = np.random.Generator(np.random.SFC64(12345))
        self._buffer = np.empty(1 << 20)
        self._kernels = {"numpy": self._numpy_kernel, "interpreter": _interpreter_kernel}

    def _numpy_kernel(self):
        self._rng.standard_normal(out=self._buffer)

    def kernel_seconds(self, kinds) -> dict:
        """The least time of REPEATS runs of each named kernel."""
        times = {}
        for kind in kinds:
            best = math.inf
            for _ in range(REPEATS):
                start = time.perf_counter()
                self._kernels[kind]()
                best = min(best, time.perf_counter() - start)
            times[kind] = best
        return times

    @staticmethod
    def factor(before: dict, after: dict) -> float:
        """Reference seconds per measured second between two kernel timings."""
        logs = [math.log(REFERENCE_S[k] / (0.5 * (before[k] + after[k]))) for k in before]
        return math.exp(sum(logs) / len(logs))
