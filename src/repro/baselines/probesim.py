"""ProbeSim [Liu et al., PVLDB 2017] — the paper's best index-free competitor.

Per sample: draw one sqrt(c)-walk ``W(u) = (u, v_1, ..., v_t)``; for every
step ``l`` of the walk, run a *probe* from ``v_l``: a reverse propagation
(out-edge push, the same linear operator as SimPush's Reverse-Push) for
``l`` levels that computes, for every node ``v``, the probability that a
sqrt(c)-walk from ``v`` is at ``v_l`` at step ``l`` **and** did not visit
``v_j`` at step ``j`` for any ``j < l`` (the first-meeting exclusion:
after each propagation depth ``d`` the value at ``v_{l-d}`` is zeroed).
The average of probe values over samples estimates ``s(u, .)``.

Entries below ``prune`` are dropped during probes (ProbeSim's practical
pruning); this trades accuracy for time exactly like the original, and is
what makes ProbeSim's cost grow steeply as ``eps_a`` shrinks — the
behaviour the paper's Figures 4–5 show.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.graphs.csr import CSRGraph

#: Sample-count constant: R = ceil(KAPPA * log(n/delta) / eps_a^2).
#: The original's analysis needs R = Theta(log(n/delta)/eps^2); KAPPA=0.5
#: mirrors its c-dependent constant (EXPERIMENTS.md §calibration).
KAPPA = 0.5

#: Steps kept per sampled sqrt(c)-walk; at c = 0.6 a walk lasts that long
#: w.p. 0.6^12 ~ 0.002.
MAX_WALK_LEN = 24


@dataclass
class ProbeSimResult:
    scores: np.ndarray
    n_samples: int
    n_probes: int


def probesim(g: CSRGraph, u: int, *, c: float = 0.6, eps_a: float = 0.1,
             delta: float = 1e-4, seed: int = 0, prune: float | None = None
             ) -> ProbeSimResult:
    """Single-source estimate ``s~(u, .)`` (dense vector)."""
    sc = math.sqrt(c)
    rng = np.random.default_rng(seed)
    n_samples = max(1, math.ceil(
        KAPPA * math.log(max(g.n, 2) / delta) / eps_a ** 2))
    if prune is None:
        prune = eps_a * (1.0 - sc) / 8.0
    walks = g.sqrt_c_walks(np.full(n_samples, u, dtype=np.int64), sc,
                           MAX_WALK_LEN, rng)
    scores = np.zeros(g.n)
    n_probes = 0
    for i in range(n_samples):
        walk = walks[i]
        t = int(np.argmax(walk < 0) - 1) if (walk < 0).any() else MAX_WALK_LEN
        for ell in range(1, t + 1):
            n_probes += 1
            vec = np.zeros(g.n)
            vec[walk[ell]] = 1.0
            for d in range(1, ell + 1):
                vec = g.push_to_out_neighbors(vec, sc)
                vec[vec < prune] = 0.0
                step_pos = ell - d
                if step_pos >= 1:
                    vec[walk[step_pos]] = 0.0  # first-meeting exclusion
            vec[u] = 0.0
            scores += vec
    scores /= n_samples
    scores[u] = 1.0
    return ProbeSimResult(scores=scores, n_samples=n_samples,
                          n_probes=n_probes)
