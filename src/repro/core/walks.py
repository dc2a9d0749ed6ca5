"""Monte-Carlo level detection (Alg. 2, lines 1–8).

Samples ``n_walks`` sqrt(c)-walks from the query node, takes each level's
largest node visit count, and returns the max level ``L`` at which that
count clears the attention-plausibility threshold (see ``core.params`` for
the threshold correction), capped at ``L*``. Alg. 1's driver runs it only
when pushing to a certain depth would cost more edges than these walks
take steps (``core.alg1``).
"""
from __future__ import annotations

import numpy as np

from repro.core.params import SimPushParams
from repro.graphs.csr import CSRGraph


def detect_L(g: CSRGraph, u: int, params: SimPushParams, seed: int = 0
             ) -> tuple[int, np.ndarray]:
    """Run the MC stage and return ``(L, level_max)``.

    ``level_max[l]`` is the most walks any one node holds after ``l`` steps
    (levels ``0..L*``). ``L`` is the deepest level where it reaches
    ``params.visit_threshold`` — i.e. where an attention node plausibly
    exists (Lemma 5) — bounded by ``L*``. ``L = 0`` means no level
    qualifies and the query's answer is just ``s(u,u)=1`` plus the error
    floor.
    """
    level_max = g.level_max_visits(u, params.n_walks, params.sqrt_c,
                                   params.L_star,
                                   np.random.default_rng(seed))
    qualifying = np.flatnonzero(level_max >= params.visit_threshold)
    # level_max has levels 0..L* only, so L never exceeds L*.
    L = int(qualifying.max()) if qualifying.size else 0
    return L, level_max
