"""Speed calibration: a fixed reference kernel interleaved with the workload.

On a shared virtual machine the processor's speed changes from minute to
minute: the host takes it away (steal, which only wall time sees) and
other guests contend for the core's caches and execution units (which
slows CPU time too, by up to 1.6x over a few minutes).  To measure the
program rather than the host, a repetition interleaves short slices of a
fixed pure-Python kernel with the workload: every ``INTERVAL_S`` of
process CPU, a SIGPROF handler runs ``ROUNDS_PER_SLICE`` rounds of
:func:`reference_kernel` with the garbage collector paused.  The slices
sample the processor's speed at the same moments as the workload, and
their CPU time is left out of :func:`work_time`.

:func:`scale` turns CPU seconds measured in a repetition into CPU seconds
at the reference speed, the speed at which one round takes
``REFERENCE_ROUND_S``.  The kernel does not import protex, so a change to
the program leaves it as it is.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

ROUNDS_PER_SLICE = 25
INTERVAL_S = 0.25
REFERENCE_ROUND_S = 1e-3
WINDOW_S = 0.5

_ref_s = 0.0
_rounds = 0
_slices: list = []  # [work time at the slice, its CPU seconds]


def reference_kernel(rounds: int) -> int:
    """Fraction Gauss-Jordan elimination on a fixed 6x7 matrix, plus dict churn."""
    acc = 0
    n = 6
    for r in range(rounds):
        m = [
            [Fraction((i * 7 + j * 3 + r) % 11 - 5, (i + 2 * j) % 5 + 1) for j in range(n + 1)]
            for i in range(n)
        ]
        for c in range(n):
            piv = next((i for i in range(c, n) if m[i][c]), None)
            if piv is None:
                continue
            m[c], m[piv] = m[piv], m[c]
            inv = 1 / m[c][c]
            m[c] = [x * inv for x in m[c]]
            for i in range(n):
                if i != c and m[i][c]:
                    f = m[i][c]
                    m[i] = [a - f * b for a, b in zip(m[i], m[c])]
        counts: dict = {}
        for i in range(200):
            key = (i % 17, i % 13)
            counts[key] = counts.get(key, 0) + i
        acc += len(counts) + sum(1 for row in m if row[-1])
    return acc


def _slice(signum, frame) -> None:
    global _ref_s, _rounds
    collecting = gc.isenabled()
    gc.disable()
    t0 = time.thread_time()
    reference_kernel(ROUNDS_PER_SLICE)
    spent = time.thread_time() - t0
    _slices.append([t0 - _ref_s, spent])
    _ref_s += spent
    _rounds += ROUNDS_PER_SLICE
    if collecting:
        gc.enable()


def start() -> None:
    signal.signal(signal.SIGPROF, _slice)
    signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)


def stop() -> None:
    signal.setitimer(signal.ITIMER_PROF, 0, 0)


def work_time() -> float:
    """CPU seconds of the main thread since it started, reference slices excluded.

    A thread clock, because while ITIMER_PROF is armed Linux reads the
    process CPU clock in whole scheduler ticks (4 ms at HZ=250).  A repetition
    runs protex on its one thread; ``cpu_s`` in run.py still counts
    every thread and child.
    """
    while True:
        ref = _ref_s
        now = time.thread_time()
        if ref == _ref_s:  # no slice ran in between
            return now - ref


def state() -> dict:
    return {"ref_s": _ref_s, "ref_rounds": _rounds, "slices": _slices}


def scale(ref_s: float, ref_rounds: int) -> float:
    """Factor from measured CPU seconds to CPU seconds at the reference speed."""
    return REFERENCE_ROUND_S * ref_rounds / ref_s


def local_scale(slices: list, start: float, end: float, fallback: float) -> float:
    """:func:`scale` from the slices within ``WINDOW_S`` of a span of work time.

    A case far shorter than a repetition is rescaled by the speed around
    it, since the speed drifts within a repetition too.
    """
    near = [spent for at, spent in slices if start - WINDOW_S <= at <= end + WINDOW_S]
    if not near:
        return fallback
    return scale(sum(near), ROUNDS_PER_SLICE * len(near))
