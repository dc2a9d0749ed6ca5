"""Alg. 1 — the SimPush driver shared by both engines.

An engine hands :func:`run_alg1` four stage callables; the driver alone
decides the push depth, trims it to the deepest attention level before
Alg. 3, runs Alg. 4 and forms Alg. 5's residues ``h * gamma`` through
``reverse_push.seed_residues``, their one owner for both engines. Algs. 3-5
index by the engine's ``AttentionSet``, ``A_u`` in (level, node) order.
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
from repro.core.source_push import AttentionSet


@dataclass
class Alg1Run:
    """What one query produced, in the engine's own types where they
    differ (``scores``, ``gu``), with per-stage wall times in seconds."""

    scores: Any
    gu: Any              # G_u as Source-Push returned it (full depth)
    att: AttentionSet
    t_mc: float
    t_source_push: float
    t_gamma: float
    t_reverse_push: float


def run_alg1(params: SimPushParams, u: int, n: int | None,
             L_override: int | None,
             detect: Callable[[], int],
             push: Callable[[int], tuple[Any, AttentionSet]],
             hit: Callable[[Any, AttentionSet, int], np.ndarray],
             reverse: Callable[[AttentionSet, np.ndarray], Any],
             ) -> Alg1Run:
    """Answer one query from ``u`` (a node id in ``[0, n)``; ``n=None``
    when the engine does not know the node count up front).

    * ``detect()`` — Alg. 2 lines 1–8, the MC push depth; skipped when
      ``L_override`` is given (it is clamped to ``L*`` instead);
    * ``push(L)`` — Alg. 2 lines 9–21: ``(G_u, A_u)``;
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
    t0 = time.perf_counter()
    L = detect() if L_override is None else min(L_override, params.L_star)
    t1 = time.perf_counter()
    gu, att = push(L)
    t2 = time.perf_counter()
    # No attention node lies below the deepest attention level, so Algs.
    # 3-5 read nothing of G_u beyond it (Definition 3, Lemma 2).
    L = int(att.levels.max(initial=0))
    hAA = hit(gu, att, L)
    gamma = last_meeting.gammas(hAA, att, L)
    t3 = time.perf_counter()
    scores = reverse(att, reverse_push.seed_residues(att, gamma))
    t4 = time.perf_counter()
    return Alg1Run(scores=scores, gu=gu, att=att, t_mc=t1 - t0,
                   t_source_push=t2 - t1, t_gamma=t3 - t2,
                   t_reverse_push=t4 - t3)
