"""The host's speed while a unit of work runs, sampled with a fixed piece of work.

On a shared host the CPU speed drifts by tens of percent over fractions
of a second and over minutes, and every time the benchmark takes drifts
with it.  So while the benchmark times its units, a ``SIGALRM`` handler
runs a small fixed piece of work every ``INTERVAL_S`` seconds and times
it.  A unit's scale is ``PIECE_S`` over the median piece time inside the
unit, and a scaled time reads as seconds on a host where the piece takes
``PIECE_S``.  The time spent in the handler is taken out of the unit's
time.  The piece uses nothing from the program, so a change to the
program moves the scaled times and not the scale.

The piece sorts a list of 2000 floats, which stays in the core's own
caches, and scans 1 MiB of bytes, which reaches past them.  In trials on
a 2-vCPU host its median time followed the slow and fast phases of all
three workloads more closely than the other pieces tried (the host's
slow phases come from other tenants, on the same core and on the shared
caches and memory), though in slow phases the workloads still slow a
few percent more than the piece.  A tight bytecode loop swung about
twice as far as the workloads did.  Both steps hold the
GIL; NumPy's sort would release it, and in the threaded service
workload the piece would then time the other threads too.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

import numpy as np

#: Seconds between two pieces.
INTERVAL_S = 0.025
#: Median seconds of one piece, run from the handler, on a quiet 2-vCPU
#: x86-64 host.
PIECE_S = 0.00105

_rng = np.random.default_rng(5)
#: NumPy scalars, so that the sort compares through the interpreter's
#: generic rich comparison, not the C fast path for plain floats.
_SCALARS = list(_rng.random(2000))
_BYTES = _rng.integers(0, 256, 1 << 20, dtype=np.uint8).tobytes()


def _piece() -> None:
    sorted(_SCALARS)
    _BYTES.count(b"\x01")


class Sampler:
    """Times ``_piece`` from a ``SIGALRM`` handler while it is entered."""

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.starts: list[float] = []
        self.times: list[float] = []

    def _on_alarm(self, signum, frame) -> None:
        t0 = perf_counter()
        _piece()
        self.starts.append(t0)
        self.times.append(perf_counter() - t0)

    def __enter__(self) -> Sampler:
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _times(self, start: float, end: float) -> list[float]:
        i = bisect.bisect_left(self.starts, start)
        return self.times[i:bisect.bisect_right(self.starts, end)]

    def lost(self, start: float, end: float) -> float:
        """Seconds spent in pieces started in ``[start, end]``."""
        return sum(self._times(start, end))

    def scale(self, start: float, end: float, default: float | None = None) -> float:
        """``PIECE_S`` over the median piece time in ``[start, end]``, else ``default``."""
        times = self._times(start, end)
        if times:
            return PIECE_S / statistics.median(times)
        if default is None:
            raise RuntimeError(f"no speed sample in a {end - start:.3f} s window")
        return default
