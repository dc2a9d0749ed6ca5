"""TopSim [Lee et al., ICDE 2012] — index-free truncated expansion.

Expands the meeting tree from the query node to a fixed depth ``T``: a
forward push computes ``h^(l)(u, .)`` keeping the top-``H`` entries per
level; each surviving meeting node ``w`` then reverse-pushes ``h^(l)(., w)``
back to level 0, pruning values below ``ETA_PRUNE`` and not propagating
*through* high-degree nodes (in-degree above ``1/h``, the original's
degree threshold). Scores accumulate ``h^(l)(u,w) * h^(l)(v,w)`` with no
last-meeting correction.

As the paper notes (§2.2), truncating at ``T`` breaks any formal quality
guarantee — deep meeting mass is simply dropped while multi-meeting paths
are double counted. Both behaviours are preserved and pinned by tests.
"""
from __future__ import annotations

import math

import numpy as np

from repro.graphs.csr import CSRGraph


#: The original's pruning threshold for the reverse pushes.
ETA_PRUNE = 0.001


def topsim(g: CSRGraph, u: int, *, c: float = 0.6, T: int = 3, H: int = 100,
           inv_h: int = 100) -> np.ndarray:
    """Single-source TopSim estimate (dense vector)."""
    sc = math.sqrt(c)
    scores = np.zeros(g.n)
    fwd = np.zeros(g.n)
    fwd[u] = 1.0
    high_deg = g.in_deg > inv_h
    for ell in range(1, T + 1):
        fwd = g.push_to_in_neighbors(fwd, sc)
        nz = np.flatnonzero(fwd)
        if nz.size == 0:
            break
        if nz.size > H:          # keep only the top-H meeting candidates
            cut = np.sort(fwd[nz])[-H]
            fwd[fwd < cut] = 0.0
            nz = np.flatnonzero(fwd)
        for w in nz:
            rev = np.zeros(g.n)
            rev[w] = 1.0
            for d in range(ell):
                rev = g.push_to_out_neighbors(rev, sc)
                rev[rev < ETA_PRUNE] = 0.0
                if d < ell - 1:  # trim walks through high-degree nodes
                    rev[high_deg] = 0.0
            scores += fwd[w] * rev
    scores[u] = 1.0
    return scores
