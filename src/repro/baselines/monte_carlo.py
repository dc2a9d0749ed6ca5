"""Monte-Carlo SimRank estimator (Fogaras & Rácz style coupled walks).

``pair_meeting_probability`` estimates ``s(u, v)`` for a batch of targets
as the empirical probability that two sqrt(c)-walks from ``u`` and ``v``
meet (both walks advancing jointly w.p. ``c`` per step — if either stops,
no later meeting is possible). This is the paper's ground-truth generator
for large graphs (pooling method, §5.1) and an independent statistical
cross-check of the exact power-method oracle.

The single-source MC estimator, which pairs the i-th of ``r`` walks from
``u`` with the i-th walk from every node, is READS (``baselines/reads.py``)
with its walks built at query time.
"""
from __future__ import annotations

import numpy as np

from repro.graphs.csr import CSRGraph

_MAX_STEPS = 64  # P(coupled pair alive beyond this) = c^64 ~ 6e-15


def pair_meeting_probability(g: CSRGraph, u: int, vs: np.ndarray, *,
                             c: float = 0.6, n_samples: int = 100_000,
                             seed: int = 0, batch: int = 2_000_000
                             ) -> np.ndarray:
    """Estimate ``s(u, v)`` for each ``v`` in ``vs`` with ``n_samples``
    coupled walk pairs per target. Standard error per estimate is at most
    ``0.5 / sqrt(n_samples)``."""
    rng = np.random.default_rng(seed)
    vs = np.asarray(vs, dtype=np.int64)
    out = np.zeros(vs.shape[0])
    per = max(1, batch // max(n_samples, 1))
    for lo in range(0, vs.shape[0], per):
        chunk = vs[lo:lo + per]
        k = chunk.shape[0] * n_samples
        cur1 = np.full(k, u, dtype=np.int64)
        cur2 = np.repeat(chunk, n_samples)
        # A pair with v == u starts met: SimRank 1 by definition.
        met = g.coupled_meetings(cur1, cur2, cur1 != cur2, c, _MAX_STEPS, rng)
        out[lo:lo + per] = met.reshape(chunk.shape[0], n_samples).mean(axis=1)
    return out

