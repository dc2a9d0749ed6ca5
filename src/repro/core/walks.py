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


def detect_L(g: CSRGraph, u: int, params: SimPushParams, seed: int = 0
             ) -> tuple[int, np.ndarray]:
    """Run the MC stage and return ``(L, counts)``.

    ``L`` is the deepest level where some node was visited at least
    ``params.visit_threshold`` times — i.e. where an attention node
    plausibly exists (Lemma 5) — bounded by ``L*``. ``L = 0`` means no
    level qualifies and the query's answer is just ``s(u,u)=1`` plus the
    error floor.
    """
    counts = g.level_visits(u, params.n_walks, params.sqrt_c, params.L_star,
                            np.random.default_rng(seed))
    level_max = counts.max(axis=1)
    qualifying = np.flatnonzero(level_max >= params.visit_threshold)
    # counts has rows 0..L* only, so L never exceeds L*.
    L = int(qualifying.max()) if qualifying.size else 0
    return L, counts
