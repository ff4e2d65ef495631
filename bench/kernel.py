"""Reference kernel that measures the machine's speed during an operation.

The kernel does a fixed amount of work in the same mix as the CLI
commands: small dense numpy algebra (solves, products, convolutions,
finiteness tests) interleaved with interpreted Python arithmetic and float
formatting.  It uses nothing from ``oddpu``, so a change to the program
cannot change it.

The host's speed wanders by tens of percent on scales from 20 ms to
seconds, and kernel runs placed before and after an operation track it
poorly.  ``SpeedSampler`` therefore runs one kernel unit every few tens of
milliseconds *inside* the operation, from a SIGALRM handler, and reports
the operation's time with the sampled kernel time taken out, divided by
the slowdown the samples saw:

    normalised = (elapsed - kernel time) * KERNEL_NOMINAL_S / harmonic mean(kernel time)

that is, the operation's duration on a machine on which one kernel unit
takes exactly KERNEL_NOMINAL_S.
"""

from __future__ import annotations

import signal
import time

import numpy as np

#: Nominal duration of one ``kernel()`` unit, in seconds.  A constant of
#: the benchmark (the median measured on the reference machine in
#: README.md); changing it rescales every normalised figure.
KERNEL_NOMINAL_S = 0.00094

_ROUNDS = 20
_rng = np.random.default_rng(7)
_A = _rng.standard_normal((10, 10))
_B = _A @ _A.T + 10.0 * np.eye(10)
_V = _rng.standard_normal(10)


def kernel() -> float:
    """One fixed unit of work; returns a checksum so nothing is skipped."""
    acc = 0.0
    lines = []
    for r in range(_ROUNDS):
        x = np.linalg.solve(_B, _V + 1e-3 * r)
        c = np.convolve(x[:4], [1.0, 0.5])
        acc += float(x @ _B @ x) + float(c.sum())
        if not np.all(np.isfinite(x)):
            raise FloatingPointError("reference kernel produced a non-finite value")
        s = 0.0
        for k in range(40):
            s += (k * 0.5) ** 2 / (1.0 + k)
        acc += s
        lines.append(",".join(repr(float(t)) for t in x[:6]))
    return acc + len("\n".join(lines))


class SpeedSampler:
    """Runs ``kernel()`` every ``interval`` seconds of wall time during
    ``timed(fn)``, plus once just before and once just after."""

    def __init__(self, interval: float):
        self.interval = interval
        self.samples = []         # (start, duration)

    def _sample(self, *_signal_args):
        t0 = time.perf_counter()
        kernel()
        self.samples.append((t0, time.perf_counter() - t0))

    def timed(self, fn):
        """Call ``fn()``; return (result, work_s, normalised_s).

        ``work_s`` is the elapsed time less the kernel samples taken inside
        it; ``normalised_s`` is ``work_s`` in kernel units (module doc).
        """
        self.samples = []
        previous = signal.signal(signal.SIGALRM, self._sample)
        try:
            self._sample()
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
            t0 = time.perf_counter()
            result = fn()
            t1 = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            self._sample()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
        inside = sum(d for start, d in self.samples if t0 <= start <= t1)
        work = (t1 - t0) - inside
        slowdown = len(self.samples) / sum(1.0 / d for _, d in self.samples) / KERNEL_NOMINAL_S
        return result, work, work / slowdown


if __name__ == "__main__":
    for _ in range(200):
        kernel()
    units = []
    for _ in range(2000):
        t0 = time.perf_counter()
        kernel()
        units.append(time.perf_counter() - t0)
    units.sort()
    print("kernel unit: median %.6f s, quartiles %.6f / %.6f s (nominal %.6f s)"
          % (units[1000], units[500], units[1500], KERNEL_NOMINAL_S))
