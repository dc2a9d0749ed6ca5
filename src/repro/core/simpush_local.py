"""SimPush (Alg. 1) over the numpy-CSR engine, with stage timings.

This is the timing-fidelity engine used by the benchmark harness. It runs
the shared driver ``core.alg1`` with the numpy stages; the distributed
DataFrame engine in ``core.simpush`` runs the same driver with Spark stages
and is tested to agree with this one.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import alg1, hitting, reverse_push, source_push, walks
from repro.core.params import DEFAULT_WALKS_CAP, SimPushParams
from repro.graphs.csr import CSRGraph


@dataclass
class SimPushResult:
    """Scores plus the per-query statistics the paper reports (L, |A_u|)
    and per-stage wall times (Table 3's empirical counterpart)."""

    scores: np.ndarray
    L: int
    n_attention: int
    gu_nodes: int
    gu_edges: int
    t_mc: float = 0.0
    t_source_push: float = 0.0
    t_gamma: float = 0.0
    t_reverse_push: float = 0.0

    @property
    def t_total(self) -> float:
        return self.t_mc + self.t_source_push + self.t_gamma + self.t_reverse_push


def simpush_local(g: CSRGraph, u: int, *, c: float = 0.6, eps: float = 0.1,
                  delta: float = 1e-4, seed: int = 0,
                  walks_cap: int | None = DEFAULT_WALKS_CAP,
                  L_override: int | None = None) -> SimPushResult:
    """Answer a single-source SimRank query with SimPush (Alg. 1).

    ``L_override`` skips the Monte-Carlo stage and forces the push depth —
    used by tests to make the two engines exactly comparable and to check
    Lemma-4 determinism at ``L = L*``.
    """
    params = SimPushParams(c=c, eps=eps, delta=delta, walks_cap=walks_cap)
    sc = params.sqrt_c
    run = alg1.run_alg1(
        params, u, g.n, L_override,
        lambda: walks.detect_L(g, u, params, seed=seed)[0],
        lambda L: source_push.source_push(g, u, params.eps_h, L, sc),
        lambda gu, att, L: hitting.attention_hitting_matrix(
            g, gu.upto(L), att, sc),
        lambda att, r: reverse_push.reverse_push(g, att, r, u, params.eps_h,
                                                 sc))
    gu = run.gu
    return SimPushResult(scores=run.scores, L=gu.L, n_attention=run.att.size,
                         gu_nodes=gu.n_nodes, gu_edges=gu.n_edges,
                         t_mc=run.t_mc, t_source_push=run.t_source_push,
                         t_gamma=run.t_gamma,
                         t_reverse_push=run.t_reverse_push)
