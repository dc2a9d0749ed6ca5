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
        # Node -1 (no in-neighbour, or a walk already stopped) reads a
        # trailing sentinel: -1 in the one-way graph, 0 in the counts.
        ow = np.append(idx.owg[gi], -1).astype(np.int64)
        # Plain random walks from u over G's in-edges (sqrt_c = 1: no decay;
        # the estimator applies c^l at meetings, as in the original).
        walks = g.sqrt_c_walks(np.full(R_q, u, dtype=np.int64), 1.0, DEPTH,
                               rng)
        chain = np.arange(g.n)   # chain[v]: v's one-way chain at this step
        for step in range(1, DEPTH + 1):
            chain = ow[chain]
            at = walks[:, step]
            # v meets every query walk that stands at chain[v] after `step`.
            cnt = np.bincount(at[at >= 0], minlength=g.n + 1)
            scores += decay[step - 1] * cnt[chain]
    scores /= idx.R_g * R_q
    scores[u] = 1.0
    return scores
