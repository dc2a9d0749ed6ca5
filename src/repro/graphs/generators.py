"""Seeded synthetic graph generators of numpy edge arrays.

The paper evaluates on 9 real graphs (web crawls, social networks, one
collaboration network — Table 4) that are not available offline. These
generators produce structural analogs:

* :func:`powerlaw` — directed preferential attachment (Bollobás-style scale-
  free): heavy-tailed in-degrees, the "web graph" regime (In-2004, IT-2004,
  UK, ClueWeb analogs).
* :func:`social` — preferential attachment with reciprocity and triadic
  closure: locally dense, the regime PRSim's authors call "hard" for
  SimRank (Twitter, Pokec, LiveJournal analogs).
* :func:`undirected` — symmetrised power-law (DBLP, Friendster analogs);
  per the paper each undirected edge becomes two directed ones.
* :func:`erdos_renyi` — flat-degree control graph for unit tests.

All generators are deterministic in ``seed`` and return ``(src, dst)``
int64 arrays with self-loops/duplicates removed by ``csr.simple_edges``,
the rule ``csr.from_edges`` applies too.
"""
from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.graphs.csr import _csr, simple_edges

if TYPE_CHECKING:
    from pyspark.sql import DataFrame, SparkSession

#: ``powerlaw``'s share of targets drawn by preferential attachment.
ATTACH_BIAS = 0.8
#: ``social``'s shares of base edges mirrored and closed into triangles.
RECIPROCITY = 0.4
CLOSURE = 0.3


def powerlaw(n: int, avg_out_deg: int, *, seed: int = 0
             ) -> tuple[np.ndarray, np.ndarray]:
    """Directed preferential-attachment graph.

    Node ``i`` (added in order) emits ``~avg_out_deg`` edges; each target is
    with probability ``ATTACH_BIAS`` a uniformly-sampled *endpoint of an
    existing edge* (the Batagelj–Brandes trick — proportional to current
    in-degree, yielding a power-law in-degree tail) and otherwise a uniform
    random earlier node.
    """
    rng = np.random.default_rng(seed)
    srcs, dsts = [], []
    ep = np.empty(n * avg_out_deg + 8, dtype=np.int64)  # in-edge endpoints
    ep[0] = 0
    ep_len = 1
    for i in range(1, n):
        k = 1 + rng.poisson(max(avg_out_deg - 1, 0))
        use_pa = rng.random(k) < ATTACH_BIAS
        t_pa = ep[rng.integers(0, ep_len, k)]
        t_uni = rng.integers(0, i, k)
        targets = np.where(use_pa, t_pa, t_uni)
        srcs.append(np.full(k, i, dtype=np.int64))
        dsts.append(targets)
        if ep_len + k > ep.shape[0]:
            ep = np.concatenate([ep, np.empty(ep.shape[0], dtype=np.int64)])
        ep[ep_len:ep_len + k] = targets
        ep_len += k
    src = np.concatenate(srcs)
    dst = np.concatenate(dsts)
    return simple_edges(src, dst, n)


def social(n: int, avg_out_deg: int, *, seed: int = 0
           ) -> tuple[np.ndarray, np.ndarray]:
    """Locally-dense social graph: power-law base + reciprocated edges +
    triadic-closure edges (follow a friend's friend).

    ``RECIPROCITY`` is the fraction of base edges mirrored; ``CLOSURE`` is
    the fraction of base edges extended with an edge to a random out-
    neighbour of the target — this raises local density, the property that
    makes Twitter "hard" for SimRank per the paper's §5.2 discussion.
    """
    rng = np.random.default_rng(seed)
    src, dst = powerlaw(n, avg_out_deg, seed=seed + 1)
    m = src.shape[0]
    rec = rng.random(m) < RECIPROCITY
    r_src, r_dst = dst[rec], src[rec]
    # Triadic closure: for a sampled edge (a, b), add (a, c) where c is a
    # uniformly-sampled out-neighbour of b (via one join-like gather).
    clo = np.flatnonzero(rng.random(m) < CLOSURE)
    ptr, out_idx, deg = _csr(src, dst, n)
    b = dst[clo]
    has = deg[b] > 0
    a, b = src[clo][has], b[has]
    c = out_idx[ptr[b] + rng.integers(0, deg[b])]
    src = np.concatenate([src, r_src, a])
    dst = np.concatenate([dst, r_dst, c])
    return simple_edges(src, dst, n)


def undirected(n: int, avg_deg: int, *, seed: int = 0
               ) -> tuple[np.ndarray, np.ndarray]:
    """Symmetrised power-law graph: every edge exists in both directions
    (the paper's convention for undirected inputs, §2.1)."""
    src, dst = powerlaw(n, max(avg_deg // 2, 1), seed=seed)
    return simple_edges(np.concatenate([src, dst]),
                        np.concatenate([dst, src]), n)


def erdos_renyi(n: int, m: int, *, seed: int = 0
                ) -> tuple[np.ndarray, np.ndarray]:
    """Uniform random directed graph with ~``m`` edges (flat degrees)."""
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, m)
    dst = rng.integers(0, n, m)
    return simple_edges(src, dst, n)


def to_spark(spark: SparkSession, src: np.ndarray, dst: np.ndarray
             ) -> DataFrame:
    """Edge arrays -> Spark DataFrame ``(src: long, dst: long)``."""
    import pandas as pd
    return spark.createDataFrame(
        pd.DataFrame({"src": src.astype(np.int64), "dst": dst.astype(np.int64)})
    )
