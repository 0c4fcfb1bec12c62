"""Host-speed sampling, so that timings can be reported at a reference speed.

The host the benchmark runs on may be shared: its speed moves by up to 2x in
phases from under a second to many minutes, and a fixed task timed before and
after a job says little about the speed during it. So the speed is sampled
*during* the timed work: an interval timer (``SIGALRM``) interrupts the
program every ``INTERVAL_S`` seconds of wall time and runs a small fixed
kernel, whose duration is recorded. A timing is then reported as

    (elapsed - time spent in the kernel) * reference / mean kernel time

that is, the time the work would have taken on a host where the kernel takes
``reference`` seconds. Two kernels exist:

- ``python_kernel``: interpreter work only (float arithmetic, list and dict
  operations); usable before numpy is imported, so it covers process set-up;
- ``mixed_kernel()``: the same plus numpy ufuncs on a small array and a
  ``cKDTree`` query, the three kinds of work limitlab's jobs do.

The kernels touch only their own small data, so they do not change what the
program computes; the benchmark checks that the artifacts are byte-identical
in every round regardless. Python runs the handler between bytecodes, so a
long C call (a KD query, say) delays a sample rather than splitting it.
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.05

# Median kernel times on the reference host: 2 vCPUs of a shared Intel Xeon
# VM, Python 3.11.7, numpy 2.4.6, scipy 1.17.1.
PYTHON_REF_S = 3.0e-4
MIXED_REF_S = 7.0e-4


def python_kernel() -> float:
    acc = 0.0
    table: dict = {}
    for i in range(1500):
        acc += i * 0.5 - acc * 1e-3
        table[i & 63] = acc
    return acc + sum(sorted(table.values())[:8])


def mixed_kernel():
    """A kernel with numpy and scipy work added; imports them when called."""
    import numpy as np
    from scipy.spatial import cKDTree

    rng = np.random.default_rng(0)
    tree = cKDTree(rng.random((300, 2)))
    queries = rng.random((200, 2))
    base = np.linspace(0.0, 1.0, 500)

    def kernel() -> float:
        x = base
        for _ in range(20):
            x = np.sin(x) * 0.5 + x * 0.25
        dist, _ = tree.query(queries)
        return python_kernel() + float(x[-1]) + float(dist[0])

    return kernel


class Sampler:
    """Runs ``kernel`` every ``interval`` seconds while started.

    ``start()`` clears the samples; ``stop()`` disarms the timer and, if the
    work was too short to be sampled, takes one sample right away."""

    def __init__(self, kernel, reference_s: float, interval: float = INTERVAL_S):
        self.kernel = kernel
        self.reference_s = reference_s
        self.interval = interval
        self.samples: list[float] = []
        self.kernel_s = 0.0     # time in the kernel between start() and stop()

    def _on_alarm(self, signum, frame):
        t0 = time.perf_counter()
        self.kernel()
        self.samples.append(time.perf_counter() - t0)

    def start(self) -> None:
        self.samples = []
        signal.signal(signal.SIGALRM, self._on_alarm)
        # restart interrupted system calls inside C libraries too
        signal.siginterrupt(signal.SIGALRM, False)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.kernel_s = sum(self.samples)
        if not self.samples:
            self._on_alarm(None, None)

    @property
    def slowdown(self) -> float:
        """Mean kernel time over the reference: 1.0 on the reference host."""
        return sum(self.samples) / len(self.samples) / self.reference_s

    def normalize(self, elapsed: float) -> float:
        """``elapsed`` (which includes the kernel runs) at the reference speed."""
        return (elapsed - self.kernel_s) / self.slowdown
