"""Host-speed sampling: rescales measured times to a reference host speed.

On a shared host the CPU speed can swing by up to a factor of two within
seconds: on the 2-core x86-64 sandbox this benchmark was built on, a fixed
12 x 12 kernel took anywhere from 1x to 2x its fastest time, on either core
and with no steal time reported. Raw op times then follow the host, not the
program.

While an op runs, a ``SIGALRM`` timer interrupts it every ``interval_s`` and
times a short fixed kernel that does not touch the simulator; one more
sample is taken right before and right after the op. An op's time is its
wall time minus the time spent in samples, multiplied by the mean of
``reference_s / kernel time`` over the samples: the work done, expressed in
seconds of a host that runs the kernel in ``reference_s``.

The handler runs in the main thread between bytecodes (Python defers signal
handlers), so it never interleaves with the simulator's own numpy calls.

This module imports only the standard library; ``numpy_kernel`` imports numpy
when first called, so the set-up probe can sample with ``python_kernel``
before numpy is imported.
"""

import signal
import time

INTERVAL_S = 0.02

# Typical kernel times, while busy, on the 2-core x86-64 sandbox named above.
# They only fix the scale: changing one rescales every figure of its kind
# and breaks comparison with older results.
NUMPY_REFERENCE_S = 250e-6
PYTHON_REFERENCE_S = 70e-6

_numpy_state = {}


def numpy_kernel():
    """Small-matrix numpy work, like the simulator's 12 x 12 covariance steps."""
    if not _numpy_state:
        import numpy as np

        rng = np.random.default_rng(12345)
        _numpy_state.update(np=np, a=0.01 * rng.standard_normal((12, 12)),
                            x0=np.eye(12))
    np, a = _numpy_state["np"], _numpy_state["a"]
    x = _numpy_state["x0"].copy()
    for _ in range(16):
        x = x + 0.1 * (a @ x + x @ a.T)
        x = 0.5 * (x + x.T)
        x /= np.max(np.abs(x))
    return x


def python_kernel():
    """Interpreter-bound work, like importing modules."""
    total, table = 0.0, {}
    for i in range(600):
        total += i * 0.5
        table[i & 15] = total
    return total


KERNELS = {"numpy": (numpy_kernel, NUMPY_REFERENCE_S),
           "python": (python_kernel, PYTHON_REFERENCE_S)}


class SpeedSampler:
    """Times code and rescales the time by the host speed sampled meanwhile."""

    def __init__(self, kernel: str = "numpy", interval_s: float = INTERVAL_S):
        """``interval_s`` 0 samples only before and after the timed code."""
        self.kernel, self.reference_s = KERNELS[kernel]
        self.interval_s = interval_s
        self.kernel()  # warm up (and import numpy) before anything is timed
        self._samples = []
        self._stolen = 0.0
        self._start = None

    def _sample(self, *_):
        t0 = time.perf_counter()
        self.kernel()
        t1 = time.perf_counter()
        self._samples.append(t1 - t0)
        self._stolen += time.perf_counter() - t0

    def start(self):
        """Start the clock; sample the host speed until ``stop``."""
        self._samples = []
        self._sample()
        self._stolen = 0.0
        if self.interval_s:
            self._previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        self._start = time.perf_counter()

    def stop(self) -> dict:
        """Stop the clock; returns wall, busy and rescaled seconds."""
        if self.interval_s:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
        end = time.perf_counter()
        if self.interval_s:
            signal.signal(signal.SIGALRM, self._previous)
        stolen_inside = self._stolen
        self._sample()
        busy = (end - self._start) - stolen_inside
        speed = sum(self.reference_s / s for s in self._samples) / len(self._samples)
        return {"wall_s": end - self._start, "busy_s": busy,
                "speed": speed, "samples": len(self._samples),
                "scaled_s": busy * speed}
