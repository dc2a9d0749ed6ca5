"""Monte-Carlo level detection (Alg. 2, lines 1–8).

Samples ``n_walks`` sqrt(c)-walks from the query node, counts per-level node
visits, and returns the max level ``L`` at which some node's visit count
clears the attention-plausibility threshold (see ``core.params`` for the
threshold correction), capped at ``L*``.
"""
from __future__ import annotations

import numpy as np

from repro.core.params import SimPushParams
from repro.graphs.csr import CSRGraph

_BATCH = 200_000  # walk batch size: bounds the position-matrix footprint


def detect_L(g: CSRGraph, u: int, params: SimPushParams, seed: int = 0
             ) -> tuple[int, np.ndarray]:
    """Run the MC stage and return ``(L, counts)``.

    ``L`` is the deepest level where some node was visited at least
    ``params.visit_threshold`` times — i.e. where an attention node
    plausibly exists (Lemma 5) — bounded by ``L*``. ``L = 0`` means no
    level qualifies and the query's answer is just ``s(u,u)=1`` plus the
    error floor.
    """
    rng = np.random.default_rng(seed)
    max_steps = params.L_star
    n_walks = params.n_walks
    counts = np.zeros((max_steps + 1, g.n), dtype=np.int64)
    done = 0
    while done < n_walks:
        b = min(_BATCH, n_walks - done)
        # Shrinking-frontier simulation: only still-walking walkers are
        # touched each step (expected total work ~ b * sqrt(c)/(1-sqrt(c))).
        cur = np.full(b, u, dtype=np.int64)
        for step in range(1, max_steps + 1):
            cur = cur[rng.random(cur.size) < params.sqrt_c]
            cur = cur[g.in_deg[cur] > 0]
            if cur.size == 0:
                break
            cur = g.random_in_neighbor(cur, rng)
            counts[step] += np.bincount(cur, minlength=g.n)
        done += b
    level_max = counts.max(axis=1)
    qualifying = np.flatnonzero(level_max >= params.visit_threshold)
    # counts has rows 0..L* only, so L never exceeds L*.
    L = int(qualifying.max()) if qualifying.size else 0
    return L, counts
