"""The machine's current speed, from a short fixed probe timed between items.

The benchmark runs on a shared 2-core VM whose speed swings by up to 1.8x
for tens of seconds at a time: a fixed piece of work takes 1.5 ms in a
fast spell and 2.7 ms in a slow one, and a whole 30-second run can fall in
either.  So every timing is scaled to a reference speed: an interval is
multiplied by `REFERENCE_S / probe`, where `probe` is the mean of the
probes run just before and just after it.  The probe chains small complex
matrix products through numpy ufuncs, the same mix of interpreter and
small-array work as hexsynth's simulator; it calls nothing in hexsynth, so
a change to the program cannot move it.  Scaled times are in seconds of a
machine on which one probe takes `REFERENCE_S`.

Set-up is mostly process start, dynamic loading and imports, which the
numpy probe does not track, so set-up spawns are scaled instead by spawns
of `SPAWN_PROBE` (the interpreter importing numpy, nothing of hexsynth) run
between them, to a machine on which that spawn takes `REFERENCE_SPAWN_S`.
"""
from __future__ import annotations

from time import perf_counter

import numpy as np

REFERENCE_S = 0.0015
REFERENCE_SPAWN_S = 0.1
SPAWN_PROBE = ("-c", "import numpy; print('ready', flush=True)")
_STEPS = 300
_MATRICES = [np.exp(1j * np.arange(64.0).reshape(8, 8) * (k + 1) / 7) + np.eye(8) for k in range(4)]


def probe() -> float:
    """Seconds the fixed probe takes now."""
    start = perf_counter()
    u = np.eye(8, dtype=complex)
    for step in range(_STEPS):
        u = _MATRICES[step % 4] @ u
        u /= np.abs(u).max()
    return perf_counter() - start


def scaled(seconds: float, before: float, after: float, reference: float = REFERENCE_S) -> float:
    """`seconds` measured between probes `before` and `after`, at the
    speed where a probe takes `reference`."""
    return seconds * 2 * reference / (before + after)
