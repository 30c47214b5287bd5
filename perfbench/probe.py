"""A fixed reference computation that shows how fast the machine runs this
process at the moment.

It shares no code with the program, so a change to the program never moves
it: tuple hashing into a set, as the loader does, and an integer sort.
"""

from __future__ import annotations

import gc
from time import perf_counter

import numpy as np

_rng = np.random.default_rng(20250417)
_U = _rng.integers(0, 5000, 20000).tolist()
_V = _rng.integers(0, 5000, 20000).tolist()
_KEYS = _rng.integers(0, 1 << 40, 200000)


def probe() -> float:
    """Seconds taken by the reference computation (about 6 ms).

    The garbage collector is off meanwhile, so the program's heap, however
    large, does not slow the probe down.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        seen = set()
        for a, b in zip(_U, _V):
            seen.add((a, b) if a < b else (b, a))
        np.sort(_KEYS)
        return perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()
