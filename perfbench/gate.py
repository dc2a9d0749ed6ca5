"""The correctness gate every answer passes through, and the accuracy
metrics of the paper's §5.1.

* Exact oracle (``web-shallow``, ``social-deep``): Theorem 1,
  ``0 <= s(u,.) - s~(u,.) <= eps``, against the Jeh–Widom fixed point
  (``baselines.exact.exact_simrank``). The matrix is cached under
  ``perfbench/.cache`` so later runs in the same checkout only load it.
* Pooled oracle (``social-churn``): the graph changes between queries, so a
  seeded sample of answers is checked against the paper's pooled Monte-Carlo
  ground truth (``eval.metrics.pooled_ground_truth``) on the graph the query
  ran on, within that estimator's Hoeffding error.

Every answer also passes a sanity check (finite, within [0, 1], ``s(u,u)=1``).
No oracle work is timed.
"""
from __future__ import annotations

import hashlib
import math
import os

import numpy as np

from repro.baselines.exact import exact_simrank
from repro.eval import metrics
from repro.graphs.csr import CSRGraph

C = 0.6                 # SimRank decay: the library default everywhere
EXACT_ITERS = 34        # exact_simrank's default
# The power method from the identity approaches the fixed point from below,
# within c^iters; allow that plus float round-off on both sides.
EXACT_TOL = C ** EXACT_ITERS + 1e-9
TOP_K = 50
POOL_SAMPLES = 100_000  # pooled_ground_truth's default
POOL_DELTA = 1e-6       # failure probability allowed to the MC check


def exact_matrix(g: CSRGraph, cache_dir: str) -> np.ndarray:
    """Exact SimRank of ``g``, cached in ``cache_dir`` by a hash of the
    graph's arrays."""
    h = hashlib.sha1()
    for a in (g.out_ptr, g.out_idx):
        h.update(np.ascontiguousarray(a).tobytes())
    h.update(f"{C}:{EXACT_ITERS}".encode())
    path = os.path.join(cache_dir, f"exact-{h.hexdigest()[:16]}.npy")
    if os.path.exists(path):
        return np.load(path)
    s = exact_simrank(g, c=C, iters=EXACT_ITERS)
    os.makedirs(cache_dir, exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp.npy"
    np.save(tmp, s)
    os.replace(tmp, path)
    return s


def sane(scores: np.ndarray, u: int, n: int) -> bool:
    """Shape, finiteness, range and ``s(u,u) = 1``."""
    return (scores.shape == (n,) and bool(np.isfinite(scores).all())
            and scores.min() >= 0.0 and scores.max() <= 1.0 + 1e-12
            and scores[u] == 1.0)


def theorem1(exact_row: np.ndarray, scores: np.ndarray, eps: float) -> bool:
    """``0 <= s - s~ <= eps`` at every node, up to the oracle's tolerance."""
    diff = exact_row - scores
    return bool(diff.min() >= -EXACT_TOL and diff.max() <= eps + EXACT_TOL)


def pooled_tol(k: int, n_samples: int = POOL_SAMPLES,
               delta: float = POOL_DELTA) -> float:
    """Hoeffding half-width of ``k`` MC means of ``n_samples`` Bernoulli
    draws each, holding jointly with probability ``1 - delta``."""
    return math.sqrt(math.log(2 * k / delta) / (2 * n_samples))


def pooled_check(g: CSRGraph, u: int, scores: np.ndarray, eps: float,
                 seed: int) -> tuple[bool, metrics.GroundTruth]:
    """Theorem 1 on the pooled nodes (SimPush's top-k) against MC values."""
    gt = metrics.pooled_ground_truth(g, u, [scores], TOP_K, c=C,
                                     n_samples=POOL_SAMPLES, seed=seed)
    pool = metrics.top_k(scores, u, TOP_K)  # the pool pooled_ground_truth used
    tol = pooled_tol(max(pool.size, 1))
    diff = gt.scores[pool] - scores[pool]
    ok = bool(diff.size == 0 or (diff.min() >= -tol and diff.max() <= eps + tol))
    return ok, gt
