"""PRSim [Wei et al., SIGMOD 2019] — the paper's best index-based competitor.

Index (preprocessing):
* hubs — the top ``ceil(sqrt(n))`` nodes by in-degree (the paper sets
  ``j0 = sqrt(n)``; degree is the standard hub proxy);
* for each hub ``w``: its reverse hitting vectors ``h^(l)(., w)`` for
  ``l = 1..Lmax``, computed by truncated out-edge pushes from ``e_w``
  (these are the RPPR vectors up to the ``1 - sqrt(c)`` scaling);
* ``eta(w)`` for every node, estimated by coupled-walk sampling.

Query: a forward push from ``u`` (identical operator to SimPush's
Source-Push) yields the significant ``(l, w)`` pairs with
``h^(l)(u, w) >= theta``. Hubs read their reverse vectors from the index;
non-hubs run the reverse push online. Scores accumulate via Eq. (4):
``s(u,v) = sum_l sum_w h^(l)(u,w) * eta(w) * h^(l)(v,w)``.

This keeps PRSim's tradeoff shape: cheaper queries than ProbeSim (hub
lookups), a real preprocessing bill + index footprint, and accuracy
governed by ``eps_a``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.graphs.csr import CSRGraph


#: Steps each coupled pair of ``estimate_eta`` walks (it goes on w.p. c).
ETA_MAX_STEPS = 48


def eta_samples(eps_a: float) -> int:
    """Coupled pairs per node for the index's ``eta``: 1/eps_a^2-ish growth,
    bounded for tractability (PRSim's and SLING's indexes alike)."""
    return int(min(5000, max(200, 4.0 / eps_a ** 2)))


def estimate_eta(g: CSRGraph, *, c: float = 0.6, n_samples: int,
                 seed: int = 0) -> np.ndarray:
    """``eta(w)`` = P[two sqrt(c)-walks from w never meet again], estimated
    for every node at once with ``n_samples`` coupled pairs per node."""
    cur1 = np.repeat(np.arange(g.n, dtype=np.int64), n_samples)
    met = g.coupled_meetings(cur1, cur1.copy(), np.ones(cur1.size, dtype=bool),
                             c, ETA_MAX_STEPS, np.random.default_rng(seed))
    return (~met).reshape(g.n, n_samples).mean(axis=1)


@dataclass
class PRSimIndex:
    hubs: np.ndarray                      # node ids, sorted
    hub_vectors: dict[int, list[tuple[np.ndarray, np.ndarray]]]
    eta: np.ndarray
    Lmax: int
    theta: float
    index_bytes: int


def _reverse_vectors(g: CSRGraph, w: int, Lmax: int, sc: float,
                     prune: float) -> list[tuple[np.ndarray, np.ndarray]]:
    """Truncated reverse hitting vectors ``h^(l)(., w)`` for l=1..Lmax,
    returned sparse as (nodes, values) pairs."""
    vec = np.zeros(g.n)
    vec[w] = 1.0
    out = []
    for _ in range(Lmax):
        vec = g.push_to_out_neighbors(vec, sc)
        vec[vec < prune] = 0.0
        nz = np.flatnonzero(vec)
        out.append((nz.copy(), vec[nz].copy()))
        if nz.size == 0:
            break
    return out


def build_index(g: CSRGraph, *, c: float = 0.6, eps_a: float = 0.1,
                seed: int = 0) -> PRSimIndex:
    """Preprocess: hub reverse vectors + eta estimates (see module doc)."""
    sc = math.sqrt(c)
    theta = eps_a * (1.0 - sc) / 2.0
    Lmax = max(1, int(math.floor(math.log(1.0 / theta) / math.log(1.0 / sc))))
    n_hubs = int(math.ceil(math.sqrt(g.n)))
    hubs = np.sort(np.argsort(g.in_deg)[::-1][:n_hubs].astype(np.int64))
    hub_vectors = {int(w): _reverse_vectors(g, int(w), Lmax, sc, theta / 2)
                   for w in hubs}
    eta = estimate_eta(g, c=c, n_samples=eta_samples(eps_a), seed=seed)
    nbytes = eta.nbytes + hubs.nbytes + sum(
        a.nbytes + b.nbytes for vecs in hub_vectors.values()
        for a, b in vecs)
    return PRSimIndex(hubs=hubs, hub_vectors=hub_vectors, eta=eta, Lmax=Lmax,
                      theta=theta, index_bytes=nbytes)


def query(g: CSRGraph, idx: PRSimIndex, u: int, *, eps_a: float,
          c: float = 0.6, delta: float = 1e-4, seed: int = 0) -> np.ndarray:
    """Single-source estimate using the index (Eq. 4).

    As in the original, the u-side quantities are *sampled*: ``R =
    ceil(log(n/delta) / (2 eps_a^2))`` sqrt(c)-walks from ``u`` give
    empirical ``h^(l)(u, w)`` for the meeting nodes. Hub meeting nodes
    read their reverse vectors from the index; every non-hub meeting node
    pays an individual online reverse estimation (a truncated depth-``l``
    push) — the per-meeting-node online work that dominates PRSim's query
    time and that SimPush's attention-restriction avoids.
    """
    sc = math.sqrt(c)
    R = max(1, math.ceil(math.log(max(g.n, 2) / delta) / (2.0 * eps_a ** 2)))
    # Empirical visit counts at each level.
    counts = g.level_visits(u, R, sc, idx.Lmax, np.random.default_rng(seed))
    scores = np.zeros(g.n)
    hub_mask = np.zeros(g.n, dtype=bool)
    hub_mask[idx.hubs] = True
    for ell in range(1, idx.Lmax + 1):
        h_hat = counts[ell] / R
        h_hat[h_hat < idx.theta] = 0.0
        ws = np.flatnonzero(h_hat)
        if ws.size == 0:
            continue
        weights = h_hat[ws] * idx.eta[ws]
        for w, weight in zip(ws, weights):
            if weight <= 0.0:
                continue
            w = int(w)
            if hub_mask[w]:
                vecs = idx.hub_vectors[w]
            else:
                vecs = _reverse_vectors(g, w, ell, sc, idx.theta / 2)
            if ell <= len(vecs):
                nodes, vals = vecs[ell - 1]
                scores[nodes] += weight * vals
    scores[u] = 1.0
    return scores
