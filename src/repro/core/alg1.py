"""Alg. 1 — the SimPush driver shared by both engines.

An engine hands :func:`run_alg1` its stage callables; the driver alone
decides the push depth ``L``, trims ``G_u`` to the deepest attention level
before Alg. 3, runs Alg. 4 and forms Alg. 5's residues ``h * gamma``
through ``reverse_push.seed_residues``, their one owner for both engines.
Algs. 3-5 index by the engine's ``AttentionSet``, ``A_u`` in (level, node)
order.

The depth comes from one of three paths (``Alg1Run.path``):

* ``push`` — Source-Push goes level by level from ``u`` and stops once
  ``sqrt(c) * sum(h^(l)) < eps_h``: each level hands on at most ``sqrt(c)``
  of its mass, so no deeper level holds an attention node (Definition 3,
  Lemma 2). It also stops at ``L*`` or where the frontier runs dry. This
  ``L`` is certain, so the answer is the ``L_override=L*`` answer.
* ``mc`` — pushing the next level would take the edges pushed past
  ``n_walks * sqrt(c) / (1 - sqrt(c))``, the expected steps of the MC
  stage's walks. The driver then runs Alg. 2's MC level detection (lines
  1–8), keeps the levels already pushed and pushes on only if that ``L`` is
  deeper: ``L`` is the deeper of the two. The budget is a count, not a
  clock, so the path taken is fixed by the graph, ``u`` and the
  parameters.
* ``override`` — ``L_override``, clamped to ``L*``.

The engines build their callables so that each stage is looked up through
its module at call time (``walks.detect_L``, ``simpush.hitting_df``, ...):
replacing a module attribute, as a tracer does, reaches every query.
"""
from __future__ import annotations

import numbers
import time
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.core import last_meeting, reverse_push
from repro.core.params import SimPushParams
from repro.core.source_push import AttentionSet, Level

#: Relative slack on the mass bound, far above the rounding in one level's
#: sum of ``h``, so that a rounded sum never stops the push early.
MASS_SLACK = 1e-9


@dataclass
class Alg1Run:
    """What one query produced: the engine's ``scores``, ``A_u``, the path
    that chose ``L``, the counts of ``G_u``'s levels ``0..L`` and per-stage
    wall times in seconds."""

    scores: Any
    att: AttentionSet
    path: str
    levels: list[Level]
    t_mc: float
    t_source_push: float
    t_gamma: float
    t_reverse_push: float

    @property
    def L(self) -> int:
        return len(self.levels) - 1

    @property
    def gu_nodes(self) -> int:
        return sum(lv.nodes for lv in self.levels)

    @property
    def gu_edges(self) -> int:
        return sum(lv.in_edges for lv in self.levels[:-1])


def run_alg1(params: SimPushParams, u: int, n: int | None,
             L_override: int | None,
             detect: Callable[[], int],
             push: Callable[[int, Callable[[Level], bool]],
                            tuple[Any, AttentionSet]],
             trim: Callable[[Any, int], Any],
             hit: Callable[[Any, AttentionSet, int], np.ndarray],
             reverse: Callable[[AttentionSet, np.ndarray], Any],
             ) -> Alg1Run:
    """Answer one query from ``u`` (a node id in ``[0, n)``; ``n=None``
    when the engine does not know the node count up front).

    * ``detect()`` — Alg. 2 lines 1–8, the MC push depth; run on the ``mc``
      path only;
    * ``push(L, go)`` — Alg. 2 lines 9–21 to at most level ``L``, asking
      ``go`` before each level is pushed from (``source_push``): ``(G_u,
      A_u)``;
    * ``trim(G_u, L)`` — ``G_u``'s levels ``0..L``; the deeper ones are let
      go before Alg. 3;
    * ``hit(G_u, A_u, L)`` — Alg. 3 over ``G_u`` levels ``0..L``: the
      ``|A| x |A|`` matrix ``hAA`` in ``A_u``'s (level, node) order;
    * ``reverse(A_u, r)`` — Alg. 5 from the residues ``r``, one per entry of
      ``A_u``; returns the engine's scores (``s(u, u) = 1``).

    ``u`` and ``L_override`` must be integers, not bools.
    """
    for name, x in (("query node", u), ("L_override", L_override)):
        if x is not None and (isinstance(x, bool)
                              or not isinstance(x, numbers.Integral)):
            raise ValueError(f"{name} {x!r} is not an integer")
    if u < 0 or (n is not None and u >= n):
        raise ValueError(f"query node {u} is not a node id"
                         + ("" if n is None else f" in [0, {n})"))
    if L_override is not None and L_override < 0:
        raise ValueError(f"L_override={L_override} is not >= 0")
    sc, eps_h = params.sqrt_c, params.eps_h
    budget = params.n_walks * sc / (1.0 - sc)
    path = "push" if L_override is None else "override"
    L = params.L_star if L_override is None else min(L_override,
                                                     params.L_star)
    levels: list[Level] = []
    t_mc = 0.0

    def go(level: Level) -> bool:
        """The stopping rule, asked before each level is pushed from."""
        nonlocal path, L, t_mc
        levels.append(level)
        depth = len(levels) - 1
        if path == "push" and depth < L:
            if sc * level.mass * (1.0 + MASS_SLACK) < eps_h:
                return False
            if sum(lv.in_edges for lv in levels) > budget:
                path = "mc"
                t = time.perf_counter()
                L = max(depth, detect())
                t_mc = time.perf_counter() - t
        return depth < L

    t0 = time.perf_counter()
    gu, att = push(L, go)
    t1 = time.perf_counter()
    # No attention node lies below the deepest attention level, so Algs.
    # 3-5 read nothing of G_u beyond it (Definition 3, Lemma 2).
    L_att = int(att.levels.max(initial=0))
    gu = trim(gu, L_att)
    hAA = hit(gu, att, L_att)
    gamma = last_meeting.gammas(hAA, att, L_att)
    t2 = time.perf_counter()
    scores = reverse(att, reverse_push.seed_residues(att, gamma))
    t3 = time.perf_counter()
    return Alg1Run(scores=scores, att=att, path=path, levels=levels,
                   t_mc=t_mc, t_source_push=t1 - t0 - t_mc,
                   t_gamma=t2 - t1, t_reverse_push=t3 - t2)
