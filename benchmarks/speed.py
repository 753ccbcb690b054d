"""Machine-speed reference for timing on a shared host.

On a small shared VM the same code runs up to ~1.8x slower for
seconds at a time while a neighbour loads the physical core. Those
phases swamp a code change, so the benchmark times a fixed kernel next
to the code it measures and scales each measured interval to the
kernel's reference speed:

    reference seconds = wall seconds * REFERENCE_PASS_S * mean(1 / pass_s)

where pass_s are kernel timings taken during (or right around) the
interval. The kernel makes the same kind of calls the engine spends
its time in: numpy calls on 33- to 256-wide arrays, so its slowdown
tracks the engine's. It touches no dualstage code, so a change to the
package cannot move it.
"""

import bisect
import signal
import time

import numpy as np

# Seconds one kernel pass takes when the reference machine (a 2-vCPU
# Xeon VM, Python 3.11, numpy 2.4) is not slowed by a neighbour. Scaled
# times read as seconds on that machine.
REFERENCE_PASS_S = 25e-6

# a burst of PASSES timed passes every PERIOD_S costs the measured code
# about 3 %; calls are scaled by the samples within MARGIN_S of them
PERIOD_S = 0.05
PASSES = 16
MARGIN_S = 0.1
# untimed passes first: a burst after unrelated work starts with cold
# caches and would read up to 2x slow
WARM_PASSES = 4

_WINDOW = np.sqrt(0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(128) / 128))
_FRAME = np.sin(np.arange(128) * 0.3)
_BINS = np.arange(129.0)
_CENTERS = np.linspace(0.0, 128.0, 33)
_EDGES = np.linspace(0, 129, 34).astype(int)[:-1]
# bound here: numpy loads np.fft lazily, and the signal handler can fire
# in the middle of an import
_RFFT = np.fft.rfft
_IRFFT = np.fft.irfft


def time_passes(n):
    """Seconds per pass of the kernel, averaged over n passes."""
    t0 = time.perf_counter()
    for _ in range(n):
        spec = _RFFT(_FRAME * _WINDOW, 256)
        power = spec.real * spec.real + spec.imag * spec.imag
        bands = np.sqrt(np.add.reduceat(power, _EDGES) / 4.0)
        gains = np.interp(_BINS, _CENTERS, np.minimum(np.maximum(bands, 0.1), 1.0))
        _IRFFT(spec * gains, 256)[:128]
    return (time.perf_counter() - t0) / n


class Sampler:
    """Times a short kernel burst every PERIOD_S seconds from SIGALRM.

    The handler runs between bytecodes of whatever the main thread is
    doing, so calls lasting seconds are sampled while they run. Its own
    time is subtracted from every interval it falls in. Use as a
    context manager around the measuring loop; main thread only.
    """

    def __init__(self):
        self.starts = []
        self.ends = []
        self.inv_pass = []
        self._previous = None

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        time_passes(WARM_PASSES)
        per_pass = time_passes(PASSES)
        self.starts.append(t0)
        self.ends.append(time.perf_counter())
        self.inv_pass.append(1.0 / per_pass)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        # one sample after the end, so every interval has a neighbour
        self._sample(None, None)

    def net(self, start, end):
        """Wall seconds in [start, end) minus the sampler's own bursts."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        return end - start - sum(self.ends[i] - self.starts[i] for i in range(lo, hi))

    def scale(self, start, end):
        """Reference seconds of the work done in [start, end)."""
        # speed from the samples inside, widened by the margin so short
        # calls that no sample fell into still get their neighbours'
        a = bisect.bisect_left(self.starts, start - MARGIN_S)
        b = bisect.bisect_left(self.starts, end + MARGIN_S)
        inv = self.inv_pass[a:b] or [self.inv_pass[min(a, len(self.inv_pass) - 1)]]
        return self.net(start, end) * REFERENCE_PASS_S * sum(inv) / len(inv)
