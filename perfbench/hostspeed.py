"""Host-speed normalisation of wall times.

Each core of a shared host can switch between speeds far apart (on the
2-vCPU Intel Xeon host used for the reference figures, about 1.8x, for
seconds to minutes at a time), so the raw wall time of the same work spreads
by 20-40% from run to run.  The sampler runs a fixed calibration kernel,
which uses numpy and scipy but not piezowave, at the start and end of each
unit and after every EVERY_STEPS calls of the public `Stepper.step`.  Each
stretch of work between two samples is scaled by REFERENCE_SAMPLE_S over
the mean of the two samples' durations, which gives its time at a fixed
reference speed.  The samples' own time is left out of both figures.  Spans
and probe timings of the traced run are scaled the same way, by the samples
around their start.
"""
from __future__ import annotations

from time import perf_counter

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from piezowave import integrator

KERNEL_REPS = 10
EVERY_STEPS = 50
# A typical sample duration on the reference host (Intel Xeon, 2 vCPUs,
# Python 3.11, numpy 2.4, scipy 1.17), so that normalised times read close
# to that host's typical raw times.
REFERENCE_SAMPLE_S = 2.6e-4


class Sampler:
    """Calibration samples (start, end) in perf_counter seconds."""

    def __init__(self):
        n = 201
        ones = np.ones(n - 1)
        self._lu = spla.splu(sp.diags([-ones, 2.5 * np.ones(n), -ones],
                                      [-1, 0, 1], format="csc"))
        self._b = np.linspace(0.0, 1.0, n)
        self.samples = []
        self._calls = 0
        self._saved = None
        for _ in range(3):          # warm the kernel's code and data
            self._kernel()

    def _kernel(self):
        b = self._b
        for _ in range(KERNEL_REPS):
            y = self._lu.solve(b)
            w = np.abs(y) ** 2.5 * y + b
            u = np.sign(w) * np.abs(w) ** 1.5
            d = u[1:] - u[:-1]
            float(np.dot(w, y) + d @ d)

    def sample(self):
        start = perf_counter()
        self._kernel()
        self.samples.append((start, perf_counter()))

    def install(self):
        """Sample every EVERY_STEPS calls of Stepper.step."""
        original = self._saved = integrator.Stepper.step

        def step(stepper, *args, **kwargs):
            self._calls += 1
            if self._calls % EVERY_STEPS == 0:
                self.sample()
            return original(stepper, *args, **kwargs)
        integrator.Stepper.step = step

    def uninstall(self):
        if self._saved is not None:
            integrator.Stepper.step = self._saved
            self._saved = None

    def window(self, start: float, end: float):
        """(raw, normalised) seconds of work in [start, end], bracketed by
        samples taken just before `start` and just after `end`."""
        inside = [s for s in self.samples if s[0] >= start and s[1] <= end]
        before = [s for s in self.samples if s[1] <= start]
        after = [s for s in self.samples if s[0] >= end]
        if not before or not after:
            raise ValueError("window must be bracketed by samples")
        marks = [before[-1]] + inside + [after[0]]
        raw = norm = 0.0
        for left, right in zip(marks, marks[1:]):
            seg = min(right[0], end) - max(left[1], start)
            speed = ((left[1] - left[0]) + (right[1] - right[0])) / 2.0
            raw += seg
            norm += seg * REFERENCE_SAMPLE_S / speed
        return raw, norm

    def durations(self) -> list:
        return [e - s for s, e in self.samples]

    def factors(self, times) -> np.ndarray:
        """REFERENCE_SAMPLE_S over the mean duration of the samples just
        before and just after each time (perf_counter seconds)."""
        starts = np.array([s for s, _ in self.samples])
        durations = np.array(self.durations())
        after = np.searchsorted(starts, np.asarray(times, dtype=float))
        before = np.clip(after - 1, 0, len(starts) - 1)
        after = np.clip(after, 0, len(starts) - 1)
        return REFERENCE_SAMPLE_S / ((durations[before]
                                      + durations[after]) / 2.0)
