"""The benchmark's workloads and the seeded inputs they send.

The program under test receives only what this module generates: a graph
(``graphs.datasets.edge_arrays`` of the workload's analog), query nodes drawn
uniformly from the nodes with in-degree > 0, and update batches. Every
SimPush parameter is the library default except ``eps``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graphs.csr import CSRGraph


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str
    eps: float
    churn: bool = False         # query the updated graph (pooled oracle)
    df_eps: float | None = None  # traced run also times the DataFrame engine
    why: str = ""


WORKLOADS = {w.name: w for w in (
    Workload(
        "web-shallow", "in2004_analog", 0.025, df_eps=0.2,
        why="web graph, tiny G_u: MC level detection is ~all of a query "
            "and Alg. 3 ~nothing, so walks changes show and hitting changes "
            "predict no change"),
    Workload(
        "social-deep", "pokec_analog", 0.025,
        why="social graph, L=13 and G_u ~10x the graph: Alg. 3 hitting "
            "dominates, so hitting changes show and walks-only changes "
            "predict little"),
    Workload(
        "social-churn", "twitter_analog", 0.1, churn=True,
        why="largest social analog, one 1% edge-churn rebuild before each "
            "query: the index-free write path, where work moved into "
            "from_edges shows"),
)}

CHURN_SHARE = 0.01  # share of m deleted, and as many inserted, per batch


class Inputs:
    """Seeded query nodes and update batches; the same seed gives the same
    sequence. Queries and updates draw from separate streams."""

    def __init__(self, seed: int) -> None:
        self._q = np.random.default_rng([seed, 1])
        self._u = np.random.default_rng([seed, 2])
        self.sample = np.random.default_rng([seed, 3])  # oracle sampling

    def query_node(self, g: CSRGraph) -> int:
        return int(self._q.choice(np.flatnonzero(g.in_deg > 0)))

    def churn(self, src: np.ndarray, dst: np.ndarray, n: int
              ) -> tuple[np.ndarray, np.ndarray]:
        """Delete ``CHURN_SHARE`` of the edges and insert as many new ones
        (no self-loops, none present before the batch)."""
        m = src.size
        k = max(1, int(round(CHURN_SHARE * m)))
        keep = np.ones(m, dtype=bool)
        keep[self._u.choice(m, size=k, replace=False)] = False
        present = src * n + dst
        new = np.empty(0, dtype=np.int64)
        while new.size < k:
            cand = self._u.integers(0, n * n, size=2 * k)
            cand = cand[(cand // n != cand % n) & ~np.isin(cand, present)]
            new = np.concatenate([new, cand])
            _, first = np.unique(new, return_index=True)
            new = new[np.sort(first)]
        new = new[:k]
        return (np.concatenate([src[keep], new // n]),
                np.concatenate([dst[keep], new % n]))
