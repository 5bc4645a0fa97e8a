"""Host-speed calibration for the timed metrics.

The benchmark runs on shared virtual machines whose speed drifts by up to
2x over minutes, with CPU time tracking wall time, so the drift is the
host's and not the benchmark process waiting.  ``kernel`` is fixed work of
the two kinds a spinpair op spends its time on: a pure-Python loop, and
per-point NumPy calls on 2x2 and 4x4 complex arrays.  Of the kernels tried
(either loop alone, batched NumPy, the reference evaluated one point at a
time, and their sums) this sum followed the speed of the ops of all three
workloads best.  It shares no code with spinpair, so a change to the
program cannot change it.

``Calibration`` runs the kernel between ops during the timed window and
rescales each op's wall time by ``REFERENCE_S / k``.  The kernel runs in
bursts of ``BURST``; a burst reads as the median of its runs, and ``k`` is
the mean of the bursts just before and just after the op.  The rescaled
time is the op's time on a host where the kernel takes ``REFERENCE_S``.

Set-up time does not follow the kernel, so it has a calibration of its own:
``IMPORT_CHILD`` times ``import numpy`` in a fresh interpreter, about two
thirds of spinpair's set-up.  NumPy is a dependency that the program does
not change.  Each set-up child is rescaled by ``IMPORT_REFERENCE_S`` over
the mean of the NumPy-import children just before and just after it.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# About the median kernel seconds on the reference host: a 2-vCPU x86_64
# virtual machine with Python 3.11.
REFERENCE_S = 0.010
PY_LOOPS = 15_000
NUMPY_LOOPS = 200
# About the median ``import numpy`` seconds on the same host.
IMPORT_REFERENCE_S = 0.12
IMPORT_CHILD = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import numpy\n"
    "print(repr(time.perf_counter() - t0))\n"
)
_SINGLET = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / math.sqrt(2.0)
WARMUP = 3  # kernel runs before the first burst, not kept
BURST = 3  # kernel runs per burst, since one run alone is noisy
EVERY_S = 0.5  # wall seconds between two bursts


def kernel() -> float:
    """Seconds that one run of the fixed calibration work takes."""
    t0 = time.perf_counter()
    acc, table = 0.0, {}
    for i in range(PY_LOOPS):
        acc += math.sqrt(i) * 0.5
        table[i & 255] = acc
    for i in range(NUMPY_LOOPS):
        c, s = math.cos(i * 1e-3), math.sin(i * 1e-3)
        u = np.array([[c, -s], [s * 1j, c]], dtype=complex)
        v = np.kron(u, u) @ _SINGLET
        acc += float(np.vdot(v, v).real)
    return time.perf_counter() - t0


class Calibration:
    """Kernel runs interleaved with ops, and the op times they rescale."""

    def __init__(self):
        for _ in range(WARMUP):
            kernel()
        self.kernel_s: list[float] = []  # one median per burst
        self._last = -math.inf
        self._ops: list[tuple[float, int]] = []  # (wall seconds, bursts before it)

    def burst(self) -> None:
        self.kernel_s.append(statistics.median(kernel() for _ in range(BURST)))
        self._last = time.perf_counter()

    def tick(self) -> None:
        """Run a burst if EVERY_S has passed since the last one.

        Call it before each op; the first call always runs a burst.
        """
        if time.perf_counter() - self._last >= EVERY_S:
            self.burst()

    def add(self, wall_s: float) -> None:
        self._ops.append((wall_s, len(self.kernel_s)))

    def scaled(self) -> list[float]:
        """Each op's wall time at the reference host speed."""
        self.burst()  # so that the last op has one after it
        out = []
        for wall_s, before in self._ops:
            around = self.kernel_s[before - 1 : before + 1]
            out.append(wall_s * REFERENCE_S / statistics.fmean(around))
        return out
