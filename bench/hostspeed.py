"""Host speed, measured beside the timed work.

On a shared host the same code runs up to twice as slow for stretches of
seconds to minutes, and process CPU time slows with it, so neither the wall
time nor the CPU time of a run is steady. Both clocks here time a fixed
reference kernel (pure Python plus small numpy operations, the instruction
mix of one Metropolis step; no cmpbayes code, so a change to the package
moves the timed work and not the reference) and divide a unit's wall time by
the kernel's slowdown, giving the time the unit would have taken at
reference speed.

- HostSampler runs the kernel in a thread of the timing process every
  INTERVAL_S while fits run in that process, with the process pinned to one
  CPU: the interpreter lock and the shared CPU interleave the two, even
  where numpy releases the lock, so the samples see the host state the fit
  sees.
- PoolClock runs the kernel inside pool workers just before and after each
  fit, for a study whose fits run in other processes.

Interpreter start-up is not rescaled: it is mostly process and import
machinery, which the kernel does not track.
"""

from __future__ import annotations

import math
import os
import threading
import time

import numpy as np
from scipy.special import gammaln

# Kernel CPU times on a quiet 2-vCPU Intel Xeon VM (Python 3.11, numpy 2.4),
# the host on which the benchmark's bounds were set, so that rescaled times
# read close to wall times there: one run interleaved with a fit
# (HostSampler), and the fastest of _REPEATS runs in a pool worker while the
# other worker computes (PoolClock).
SAMPLED_REFERENCE_CPU_S = 0.55e-3
POOL_REFERENCE_CPU_S = 1.2e-3
INTERVAL_S = 0.025
SAMPLED_ITERATIONS = 100  # a short kernel, so that a fit holds many samples
_REPEATS = 5

_J = np.arange(101, dtype=np.float64)
_G = gammaln(_J + 1.0)


def kernel(iterations: int = 200) -> float:
    """Log-sum-exps over a 101-term series, as ln Z evaluates them."""
    acc = 0.0
    for i in range(iterations):
        t = _J * math.log(1.0 + i * 1e-3) - 0.5 * _G
        m = float(t.max())
        acc += m + math.log(float(np.exp(t - m).sum()))
    return acc


def kernel_seconds() -> float:
    """Fastest of a few kernel runs, in thread CPU seconds."""
    best = math.inf
    for _ in range(_REPEATS):
        t0 = time.thread_time()
        kernel()
        best = min(best, time.thread_time() - t0)
    return best


class HostSampler:
    """Background sampler of the kernel's thread CPU time."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (perf_counter at end, cpu s)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="host-sampler", daemon=True)
        self._cpus = os.sched_getaffinity(0)

    def _loop(self) -> None:
        while not self._stop.wait(INTERVAL_S):
            c0 = time.thread_time()
            kernel(SAMPLED_ITERATIONS)
            self.samples.append((time.perf_counter(), time.thread_time() - c0))

    def __enter__(self) -> "HostSampler":
        os.sched_setaffinity(0, {min(self._cpus)})
        self._thread.start()  # inherits the pinning
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        os.sched_setaffinity(0, self._cpus)

    def slowdown(self, t0: float, t1: float) -> float:
        """Mean kernel time in [t0, t1] over the reference (1.0 = reference speed).

        An interval too short to hold a sample uses the sample nearest to it,
        or one taken now if there is none yet.
        """
        if not self.samples:
            c0 = time.thread_time()
            kernel(SAMPLED_ITERATIONS)
            self.samples.append((time.perf_counter(), time.thread_time() - c0))
        inside = [cpu for t, cpu in self.samples if t0 <= t <= t1]
        if not inside:
            mid = (t0 + t1) / 2.0
            inside = [min(self.samples, key=lambda s: abs(s[0] - mid))[1]]
        return sum(inside) / len(inside) / SAMPLED_REFERENCE_CPU_S


class PoolClock:
    """Host speed seen inside a process pool, measured around each fit.

    While active, the function `attr` of `module` (the name the study's
    workers call each fit through) is wrapped to time the kernel just before
    and after every call and append (wall, slowdown) to a file per process in
    `directory`. Pool workers are forked from this process and inherit the
    wrapper. collect() gives the fits' summed wall time and the host slowdown
    over them, weighted by fit time, which rescales the pass's wall time.
    """

    def __init__(self, module, attr: str, directory):
        self.module, self.attr, self.directory = module, attr, directory

    def __enter__(self) -> "PoolClock":
        original = self.original = getattr(self.module, self.attr)
        directory = self.directory

        def timed(*args, **kwargs):
            before = kernel_seconds()
            t0 = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                wall = time.perf_counter() - t0
                slowdown = (before + kernel_seconds()) / 2.0 / POOL_REFERENCE_CPU_S
                with open(directory / f"pool-clock-{os.getpid()}.txt", "a") as fh:
                    fh.write(f"{wall!r} {slowdown!r}\n")

        setattr(self.module, self.attr, timed)
        return self

    def __exit__(self, *exc) -> None:
        setattr(self.module, self.attr, self.original)

    def collect(self) -> tuple[float, float]:
        """(summed fit wall time, fit-time-weighted slowdown) since the last call."""
        wall = reference = 0.0
        for path in self.directory.glob("pool-clock-*.txt"):
            for line in path.read_text().splitlines():
                w, s = map(float, line.split())
                wall += w
                reference += w / s
            path.unlink()
        if reference == 0.0:
            raise RuntimeError("no fit reported its host speed; were the workers forked?")
        return wall, wall / reference
