"""Exact SimRank via the Jeh–Widom power method — the repo's ground truth.

``S_{k+1} = (c * W^T S_k W) with diag forced to 1``, where
``W[i', i] = 1/d_I(i)`` for ``i' in I(i)``. This converges geometrically
(residual ``<= c^k``) to the unique SimRank fixed point, so with the
default 34 iterations (``0.6^34 ~ 3e-8``) the result is exact far beyond
any ``eps`` evaluated in the paper. The paper used 1e-6-error Monte Carlo
as ground truth; the exact fixed point is a strictly stronger oracle
(DESIGN.md §3).

One implementation, :func:`exact_simrank`: numpy, two BLAS matmuls per
iteration against a dense ``n x n`` ``W^T`` (no scipy needed), for the
small dataset suite and the benchmark's exact gate (n <= 2600). Tests
check it against networkx and against hand-derived values.
"""
from __future__ import annotations

import hashlib
import os

import numpy as np

from repro.graphs.csr import CSRGraph


def dense_wt(g: CSRGraph) -> np.ndarray:
    """Dense ``W^T``: row ``i`` is ``1/d_I(i)`` at each ``i' in I(i)``."""
    wt = np.zeros((g.n, g.n))
    src, row = g.in_edges(np.arange(g.n))
    wt[row, src] = 1.0 / g.in_deg[row]
    return wt


def exact_simrank(g: CSRGraph, *, c: float = 0.6, iters: int = 34
                  ) -> np.ndarray:
    """Dense ``n x n`` exact SimRank matrix (see module docstring)."""
    s = np.eye(g.n)
    diag = np.arange(g.n)
    wt = dense_wt(g)
    for _ in range(iters):
        s = c * (wt @ (wt @ s).T).T
        s[diag, diag] = 1.0
    return s


_CACHE_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))))),
    ".cache", "groundtruth")


def exact_simrank_cached(g: CSRGraph, *, c: float = 0.6, iters: int = 34,
                         tag: str | None = None) -> np.ndarray:
    """Disk-cached :func:`exact_simrank` (the matrix is a pure function of
    the graph, so the cache key hashes the CSR arrays + params). The file is
    written under a temporary name and renamed into place, so a write cut
    short never leaves a truncated matrix at the cache path."""
    h = hashlib.sha1()
    for a in (g.out_ptr, g.out_idx):
        h.update(np.ascontiguousarray(a).tobytes())
    h.update(f"{c}:{iters}".encode())
    key = (tag + "-" if tag else "") + h.hexdigest()[:16]
    path = os.path.join(_CACHE_DIR, key + ".npy")
    if os.path.exists(path):
        return np.load(path)
    s = exact_simrank(g, c=c, iters=iters)
    os.makedirs(_CACHE_DIR, exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp.npy"
    try:
        np.save(tmp, s)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
    return s

