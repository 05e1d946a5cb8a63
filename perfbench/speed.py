"""Machine-speed normalisation.

On a shared host the same code can run at two speeds almost a factor of two
apart, switching every few seconds, so raw wall times from one run to the
next differ by more than any useful bound.  ``SpeedSampler`` runs a small
fixed probe on a timer signal throughout a measurement and records how long
each probe took.  An operation's wall time is then rescaled to the
reference speed at which the probe takes ``REFERENCE_S``:

    normalised = (wall - probe time inside the operation) * REFERENCE_S / probe

where ``probe`` is the median of the five probes nearest in time, averaged
over the operation when it spans several probes.  The probe imitates the
library's two kinds of work, many tiny complex arrays and objects (the
spin-1/2 factories) and a vectorised scan of the unit circle (the spin-1
zeta scan), so that it slows down by about the same factor as the library
does: on one-second windows of this host, log library time against log
probe time has slope 1.0, where either half alone gives 0.9 or 1.1.  It
calls no library code, so a change to the library moves the normalised time
and not the reference.
"""

from __future__ import annotations

import bisect
import cmath
import math
import signal
import statistics
import time
from dataclasses import dataclass

import numpy as np

# Probe time at the reference speed: the usual, slower state of the shared
# 2-core host (Python 3.11.7, numpy 2.4.6) the benchmark was written on,
# where the ROADMAP baseline was measured; in its fast state the probe takes
# about 0.6 ms.
REFERENCE_S = 1e-3
INTERVAL_S = 0.04
SMOOTHING = 2

_Z2 = np.zeros((2, 2), dtype=complex)
_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_ARGS = 2.0 * math.pi * np.arange(720) / 720
_A6 = np.linspace(0.1, 0.6, 6) + 0.3j
_B6 = np.linspace(-0.4, 0.2, 6) - 0.1j


@dataclass(frozen=True)
class _Point:
    a: float
    b: float
    c: complex

    @property
    def n(self) -> float:
        return math.sqrt(self.a * self.a + self.b * self.b)


def _block(q: _Point, scale: float = 1.0) -> np.ndarray:
    m = (q.a + q.n) * np.eye(2, dtype=complex) + scale * q.b * _SX
    return m / math.sqrt(2.0 * q.n + 1.0)


def _small_arrays() -> float:
    # like the spin-1/2 factories and operators: many tiny arrays and objects
    s = 0.0
    for k in range(6):
        q = _Point(1.0 + k, 0.5, cmath.exp(1j * k))
        blk = np.block([[_block(q), _Z2], [_Z2, _block(q, -1.0)]])
        v = np.concatenate([np.array([q.c, 1.0]), np.conj(np.array([1.0, q.c]))])
        w = blk @ v
        s += float(np.linalg.norm(w - v)) + abs(complex(np.vdot(v, w)))
    return s


def _circle_scan() -> float:
    # like the spin-1 zeta scan: vectorised over the unit circle, then refined
    s = 0.0
    zs = np.exp(1j * _ARGS)
    image = _A6[None, :] + np.conj(zs)[:, None] * _B6[None, :]
    for sign in (1.0, -1.0):
        r = np.linalg.norm(image - sign * (_B6[None, :] + zs[:, None] * _A6[None, :]), axis=1)
        best = float(_ARGS[int(np.argmin(r))])
        for k in range(12):
            z = cmath.exp(1j * (best + 0.001 * k))
            s += float(np.linalg.norm(_A6 + np.conj(z) * _B6 - sign * (_B6 + z * _A6)))
    return s


def probe() -> float:
    """A fixed amount of library-like work; returns a value so that none of
    it can be skipped."""
    return _small_arrays() + _circle_scan()


def probe_median(repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        probe()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class SpeedSampler:
    """Runs ``probe`` every ``INTERVAL_S`` seconds of wall time while active.

    ``on_probe``, if set, is called with each probe's duration from inside
    the signal handler (the tracer uses it to keep probe time out of the
    self time of whatever span the probe interrupted).
    """

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self.on_probe = None
        self._previous = None
        self._rate: list[float] = []

    def sample(self, *_):
        t0 = time.perf_counter()
        probe()
        d = time.perf_counter() - t0
        self.starts.append(t0)
        self.durations.append(d)
        if self.on_probe is not None:
            self.on_probe(d)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self.sample()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()
        return False

    def _rates(self) -> list[float]:
        """Reference-speed seconds per wall second after each probe: the
        median of that probe and its two neighbours on either side."""
        if len(self._rate) != len(self.durations):
            d, k = self.durations, SMOOTHING
            self._rate = [REFERENCE_S / statistics.median(d[max(0, i - k):i + k + 1])
                          for i in range(len(d))]
        return self._rate

    def normalise(self, t0: float, t1: float) -> float:
        """Seconds of [t0, t1] at the reference speed, less probe time.

        Probe i sets the speed from its own start until the next probe
        starts; the operation's wall time is integrated over those pieces.
        """
        rate, starts, n = self._rates(), self.starts, len(self.starts)
        i = max(bisect.bisect_right(starts, t0) - 1, 0)  # the probe in force at t0
        total = 0.0
        while i < n and starts[i] < t1:
            end = starts[i + 1] if i + 1 < n else t1
            total += (min(t1, end) - max(t0, starts[i])) * rate[i]
            if starts[i] >= t0:
                total -= self.durations[i] * rate[i]
            i += 1
        return total

    def probe_time_inside(self, t0: float, t1: float) -> float:
        lo, hi = bisect.bisect_left(self.starts, t0), bisect.bisect_left(self.starts, t1)
        return sum(self.durations[lo:hi])
