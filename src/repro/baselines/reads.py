"""READS (static variant) [Jiang et al., PVLDB 2017].

Index: ``r`` sqrt(c)-walks of depth ``t`` from *every* node (the original
compresses them into trees; we store the position arrays, which is the
same information and the same asymptotic footprint ``O(n r t)``). Query:
the i-th walk of ``u`` is matched against the i-th walk of every other
node; the estimate is the fraction of walk pairs that meet (same node,
same step) — the coupled-MC estimator with walks amortised into an index.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.graphs.csr import CSRGraph


@dataclass
class READSIndex:
    walks: np.ndarray          # (r, t+1, n) int32 positions, -1 = stopped
    r: int

    @property
    def index_bytes(self) -> int:
        return int(self.walks.nbytes)


def build_index(g: CSRGraph, *, c: float = 0.6, r: int = 100, t: int = 10,
                seed: int = 0) -> READSIndex:
    """Sample and store ``r`` depth-``t`` sqrt(c)-walks per node."""
    rng = np.random.default_rng(seed)
    sc = math.sqrt(c)
    all_nodes = np.arange(g.n, dtype=np.int64)
    walks = np.empty((r, t + 1, g.n), dtype=np.int32)
    for i in range(r):
        walks[i] = g.sqrt_c_walks(all_nodes, sc, t, rng).T.astype(np.int32)
    return READSIndex(walks=walks, r=r)


def query(g: CSRGraph, idx: READSIndex, u: int) -> np.ndarray:
    """``s~(u, v)`` = fraction of index walk pairs (i-th with i-th) of
    ``u`` and ``v`` that meet at some step >= 1."""
    pos_u = idx.walks[:, :, u]                       # (r, t+1)
    met = np.zeros(g.n)
    for i in range(idx.r):
        pu = pos_u[i]
        valid = pu >= 0
        valid[0] = False                             # step 0 is trivial
        if not valid.any():
            continue
        meet = (idx.walks[i][valid] == pu[valid, None]).any(axis=0)
        met += meet
    scores = met / idx.r
    scores[u] = 1.0
    return scores
