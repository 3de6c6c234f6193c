"""Wall time scaled by the speed of a fixed reference loop timed beside it.

The host this benchmark was written on changes speed by up to 1.6x over tens
of seconds (other tenants share its cores), which moves every wall-clock
median by more than any bound worth setting.  A fixed loop of small numpy
products and interpreter work, timed before and after each measured unit,
slows down with the host.  A unit's calibrated time is its wall time times
``NOMINAL_REF_S`` over the mean of the two reference times: seconds at the
host's speed when the reference takes ``NOMINAL_REF_S``.  The loop uses
nothing from lossprio, so a faster program still reads faster.
"""

from __future__ import annotations

import time

import numpy as np

# Reference loop time on an uncontended core of the 2-core Xeon host that set
# the benchmark's bounds (OPENBLAS_NUM_THREADS=1).
NOMINAL_REF_S = 0.020

_rng = np.random.default_rng(0)
_X = _rng.standard_normal((128, 32))
_W1 = _rng.standard_normal((32, 128)) / 8
_W2 = _rng.standard_normal((128, 128)) / 16
_W3 = _rng.standard_normal((128, 784)) / 32


def reference_loop(reps: int = 100) -> float:
    acc = 0.0
    for rep in range(reps):
        h = np.tanh(_X @ _W1) @ _W2
        if rep % 10 == 0:
            h = h @ _W3
        acc += float(h[0, 0])
        for j in range(40):
            acc += j * 0.5
    return acc


class RefClock:
    """Measures callables in wall and calibrated seconds.

    A measured call may name checkpoints: functions it calls where the
    reference loop is timed again, at most once per MIN_SEGMENT_S, so a long
    call is calibrated piece by piece.  The loop's own time there is left out
    of the call's time.
    """

    MIN_SEGMENT_S = 0.5

    def __init__(self, checkpoints: bool = True):
        self.checkpoints = checkpoints
        self.ref_times: list[float] = []
        self.segments: list[tuple[float, float, float]] = []  # start, end, scale
        self._marks = None

    def _tick(self) -> float:
        start = time.perf_counter()
        reference_loop()
        self.ref_times.append(time.perf_counter() - start)
        return self.ref_times[-1]

    def _checkpoint(self) -> None:
        marks = self._marks
        if marks is None or time.perf_counter() - marks[-1][1] < self.MIN_SEGMENT_S:
            return
        start = time.perf_counter()
        ref = self._tick()
        marks.append((start, time.perf_counter(), ref))

    def measure(self, checkpoints, fn, *args, **kwargs):
        """Return (fn's result, wall seconds, calibrated seconds).

        `checkpoints` lists (owner, attribute) pairs of functions fn calls.
        The reference time after one call serves as the time before the next.
        """
        before = self.ref_times[-1] if self.ref_times else self._tick()
        patched = []
        if self.checkpoints:
            for owner, attr in checkpoints:
                original = getattr(owner, attr)
                patched.append((owner, attr, original))
                setattr(owner, attr, self._hooked(original))
        start = time.perf_counter()
        self._marks = [(start, start, before)]
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            marks, self._marks = self._marks, None
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)
        after = self._tick()
        # Segment i runs from the end of mark i to the start of mark i + 1 and
        # is scaled by the mean of the reference times on either side of it.
        bounds = [(m[1], m[2]) for m in marks]
        stops = [(m[0], m[2]) for m in marks[1:]] + [(end, after)]
        self.segments = [(s, e, 2 * NOMINAL_REF_S / (r0 + r1))
                         for (s, r0), (e, r1) in zip(bounds, stops)]
        wall = sum(e - s for s, e, _ in self.segments)
        return result, wall, sum((e - s) * k for s, e, k in self.segments)

    def scale_at(self, moment: float) -> float:
        """Calibration factor of the last measurement's segment holding `moment`."""
        return next((k for s, e, k in self.segments if moment < e), self.segments[-1][2])

    def _hooked(self, fn):
        def checkpointed(*args, **kwargs):
            self._checkpoint()
            return fn(*args, **kwargs)

        return checkpointed
