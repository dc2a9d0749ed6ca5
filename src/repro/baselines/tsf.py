"""TSF [Shao et al., PVLDB 2015].

Index: ``R_g`` *one-way graphs*, each sampling one in-neighbour per node;
a node's walk within a one-way graph is the deterministic chain of sampled
in-neighbours. Query: for each one-way graph, ``R_q`` independent random
walks are drawn from the query node over ``G``; a meeting of the query
walk with node ``v``'s one-way chain at step ``l`` contributes ``c^l``.

Two deliberate infidelities of the *original* are preserved because the
paper calls them out (§2.2): walks may meet multiple times (each meeting
counts, overestimating SimRank) and the one-way chains ignore the
no-cycle assumption's failure. Tests pin the resulting positive bias.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graphs.csr import CSRGraph


#: Steps of each query walk, and of the one-way chains it meets.
DEPTH = 10


@dataclass
class TSFIndex:
    owg: np.ndarray            # (R_g, n) int32 sampled in-neighbour, -1 none
    R_g: int

    @property
    def index_bytes(self) -> int:
        return int(self.owg.nbytes)


def build_index(g: CSRGraph, *, R_g: int = 100, seed: int = 0) -> TSFIndex:
    """Sample ``R_g`` one-way graphs (one in-neighbour per node each)."""
    rng = np.random.default_rng(seed)
    has = np.flatnonzero(g.in_deg > 0)
    owg = np.full((R_g, g.n), -1, dtype=np.int32)
    for i in range(R_g):
        owg[i, has] = g.random_in_neighbor(has, rng)
    return TSFIndex(owg=owg, R_g=R_g)


def query(g: CSRGraph, idx: TSFIndex, u: int, *, c: float = 0.6,
          R_q: int = 20, seed: int = 0) -> np.ndarray:
    """Single-source estimate (module doc); normalised by ``R_g * R_q``."""
    rng = np.random.default_rng(seed)
    scores = np.zeros(g.n)
    decay = c ** np.arange(1, DEPTH + 1)
    for gi in range(idx.R_g):
        ow = idx.owg[gi].astype(np.int64)
        # Deterministic one-way chains for every node: pos[l] = chain @ l.
        pos = np.empty((DEPTH + 1, g.n), dtype=np.int64)
        pos[0] = np.arange(g.n)
        for step in range(1, DEPTH + 1):
            prev = pos[step - 1]
            pos[step] = np.where(prev >= 0, ow[np.maximum(prev, 0)], -1)
        # Plain random walks from u over G's in-edges (sqrt_c = 1: no decay;
        # the estimator applies c^l at meetings, as in the original).
        walks = g.sqrt_c_walks(np.full(R_q, u, dtype=np.int64), 1.0, DEPTH,
                               rng)
        for walk in walks[:, 1:]:
            meets = (pos[1:] == walk[:, None]) & (walk >= 0)[:, None]
            scores += decay @ meets
    scores /= idx.R_g * R_q
    scores[u] = 1.0
    return scores
