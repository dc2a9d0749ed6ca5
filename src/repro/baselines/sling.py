"""SLING [Tian & Xiao, SIGMOD 2016].

Index: *all* hitting probabilities ``h^(l)(v, w) >= eps_a`` (dense level
matrices ``H_l = (sqrt(c) * W^T)^l`` with sub-threshold entries zeroed)
plus Monte-Carlo ``eta(w)`` estimates. Query: for each level,
``s~ += H_l[:, ws] @ (H_l[u, ws] * eta[ws])`` over the significant
meeting nodes of ``u`` — fast lookups, enormous index.

The index footprint is accounted as ``nnz * 16`` bytes (id + value per
stored entry, the list representation the original uses). As in the
paper, SLING's index is more than an order of magnitude larger than the
graph and explodes as ``eps_a`` shrinks — the harness's memory-budget
rule excludes it from larger datasets exactly like the paper's server did.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.baselines.exact import dense_wt
from repro.baselines.prsim import estimate_eta, eta_samples
from repro.graphs.csr import CSRGraph

MAX_INDEX_N = 4000  # dense level matrices: hard cap for tractability


def theta_lmax(eps_a: float, c: float) -> tuple[float, int]:
    """SLING's per-entry threshold ``theta`` and level count ``Lmax``.

    SLING's correction factors make its effective per-entry threshold much
    finer than eps_a (the "large hidden constants" the paper cites); the
    (1-sqrt(c))/4 factor reproduces both its accuracy and its
    order-of-magnitude-larger-than-G index."""
    sc = math.sqrt(c)
    theta = eps_a * (1.0 - sc) / 4.0
    return theta, max(1, int(math.log(1.0 / theta) / math.log(1.0 / sc)))


@dataclass
class SLINGIndex:
    levels: list[np.ndarray]   # H_l (dense, thresholded), l = 1..Lmax
    eta: np.ndarray
    index_bytes: int           # nnz * 16 (node id + float per entry)


def build_index(g: CSRGraph, *, c: float = 0.6, eps_a: float = 0.1,
                seed: int = 0) -> SLINGIndex:
    """Materialise every ``h^(l)(v, w) >= eps_a`` plus eta (module doc)."""
    if g.n > MAX_INDEX_N:
        raise MemoryError(
            f"SLING dense index disabled for n={g.n} > {MAX_INDEX_N}")
    sc = math.sqrt(c)
    theta, Lmax = theta_lmax(eps_a, c)
    wt = dense_wt(g)
    levels = []
    h = None
    for _ in range(Lmax):
        h = sc * wt if h is None else sc * (wt @ h)
        h_tr = h.copy()
        h_tr[h_tr < theta] = 0.0
        if not h_tr.any():
            break
        levels.append(h_tr)
    eta = estimate_eta(g, c=c, n_samples=eta_samples(eps_a), seed=seed)
    nnz = sum(int((m > 0).sum()) for m in levels)
    return SLINGIndex(levels=levels, eta=eta,
                      index_bytes=nnz * 16 + eta.nbytes)


def query(g: CSRGraph, idx: SLINGIndex, u: int, *, c: float = 0.6
          ) -> np.ndarray:
    """Single-source estimate by pure index retrieval (Eq. 3 summed)."""
    scores = np.zeros(g.n)
    for h in idx.levels:
        ws = np.flatnonzero(h[u])
        if ws.size == 0:
            continue
        scores += h[:, ws] @ (h[u, ws] * idx.eta[ws])
    scores[u] = 1.0
    return scores
