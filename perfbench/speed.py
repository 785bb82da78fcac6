"""Machine-speed probe: times that do not move with the load on a shared host.

On a shared host the CPU runs the same code at different speeds from one
stretch of seconds to the next, following the other tenants' load. Process
time tracks wall time through it, so the process is not waiting: the CPU is
slower. A probe is a fixed computation of the kind the program spends its
time in (seeded generator construction, normal draws, small complex-vector
norms). It is timed right before and right after each measured operation.
Scaling the operation's time by ``REFERENCE_PROBE_S / probe`` gives its time
at the reference speed: the speed at which the probe takes
``REFERENCE_PROBE_S``. That is the probe's time on an uncontended core of the
2-vCPU x86-64 virtual machine the benchmark was defined on, so there a scaled
time equals the plain wall time.

The probe is the benchmark's own code, so no change to the program moves it.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

#: Probe time at the reference speed, in seconds.
REFERENCE_PROBE_S = 0.035

_PROBE_STEPS = 1500


def probe() -> float:
    """Seconds taken by the fixed reference computation."""
    start = perf_counter()
    acc = 0.0
    for i in range(_PROBE_STEPS):
        rng = np.random.default_rng(np.random.SeedSequence([7, i, i + 1, 3]))
        g = rng.standard_normal(4)
        mags = np.abs(g[:2] + 1j * g[2:])
        top = float(mags.max())
        acc += top * float(np.sqrt(((mags / top) ** 2).sum()))
    if not acc > 0.0:
        raise ArithmeticError("speed probe computed nothing")
    return perf_counter() - start


def timed(fn) -> tuple:
    """(result of ``fn()``, its wall time, speed factor).

    A time measured during the call, multiplied by the factor, is that time
    at the reference speed.
    """
    before = probe()
    start = perf_counter()
    result = fn()
    wall = perf_counter() - start
    after = probe()
    return result, wall, REFERENCE_PROBE_S / ((before + after) / 2)
