"""Alg. 5 — Reverse-Push: propagate attention residues to every node of G.

Residue ``r^(l)(w) = h^(l)(u, w) * gamma^(l)(w)`` seeds attention node
``w`` at level ``l``; :func:`seed_residues` forms it, one value per entry of
``A_u`` in its (level, node) order. Reverse-Push carries one dense residue
vector from level L down to 1. Each level adds its own seeds to what the
level above pushed onto it, so an attention node's seed and the residue
pushed onto it are thresholded and pushed together (the paper's
combined-push optimisation). A node ``v'`` pushes only when
``sqrt(c) * r(v') >= eps_h`` (the truncation that Lemma 4 charges at
``eps_h * sqrt(c)^l`` per level); each out-neighbour ``v`` receives
``sqrt(c) * r(v') / d_I(v)``. What level 1 pushes lands on level 0 and is
the SimRank estimate ``s~(u, .)``.
"""
from __future__ import annotations

import numpy as np

from repro.core.source_push import AttentionSet
from repro.graphs.csr import CSRGraph


def seed_residues(att: AttentionSet, gamma: np.ndarray) -> np.ndarray:
    """Alg. 5's initial residue ``h * gamma`` of each attention entry."""
    return att.h * gamma


def reverse_push(g: CSRGraph, att: AttentionSet, r: np.ndarray, u: int,
                 eps_h: float, sqrt_c: float) -> np.ndarray:
    """Run Alg. 5 from the residues ``r`` (one per entry of ``att``) and
    return the dense single-source estimate vector ``s~(u, .)`` (with
    ``s~(u, u) = 1`` forced at the end, line 10)."""
    res = np.zeros(g.n)
    for lvl in range(int(att.levels.max(initial=0)), 0, -1):
        here = att.at_level(lvl)
        res[att.nodes[here]] += r[here]
        res = g.push_to_out_neighbors(
            res, sqrt_c, active=np.flatnonzero(sqrt_c * res >= eps_h))
    res[u] = 1.0
    return res
