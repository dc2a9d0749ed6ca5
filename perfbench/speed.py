"""Machine-speed probe: fixed numpy work that calls nothing in ``repro``.

A shared machine can run 20-40 % faster or slower from one minute to the
next, and every timing of a run moves with it. The gated timings are
therefore reported at a reference speed: each raw timing is divided by
``speed = median(probe) / REF_S``, where the probe is sampled across the same
loop as the timings (see ``local.run_loop``). A slower program does not slow
the probe, so a regression still shows; a slower machine slows both, so it
cancels. The raw timings are printed and recorded beside them.

The probe mixes the operations the query path spends its time in: random
draws and gathers (``walks``), scatter-adds (``hitting``), and sorts and
bincounts (``csr.from_edges``).
"""
from __future__ import annotations

import time
from functools import cache

import numpy as np

REF_S = 0.065  # probe time that defines speed 1.0; it only sets the scale


@cache
def _inputs() -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(12345)
    return (rng.integers(0, 1 << 20, size=200_000),
            rng.integers(0, 1 << 14, size=200_000))


def probe() -> float:
    """Seconds taken by one fixed unit of work."""
    x, idx = _inputs()
    t0 = time.perf_counter()
    np.unique(x[np.argsort(x, kind="stable")])
    np.bincount(x & 0xFFFF)
    rng = np.random.default_rng(1)
    cur = np.arange(50_000)
    for _ in range(40):
        cur = cur[rng.random(cur.size) < 0.95]
        cur = x[cur % x.size] % x.size
        np.bincount(cur & 0x3FFF, minlength=1 << 14)
    acc = np.zeros((1 << 10, 16))
    np.add.at(acc, idx[:50_000] & 0x3FF, np.ones(16))
    return time.perf_counter() - t0
