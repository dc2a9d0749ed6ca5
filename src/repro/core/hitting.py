"""Alg. 3 — hitting probabilities between attention nodes within ``G_u``.

Walks inside ``G_u`` move from a level-``l`` node to its ``G_u``
in-neighbours at level ``l+1`` (Definition 5). Alg. 3 therefore seeds
``h~^(0)(w, w) = 1`` at each attention node and aggregates values *up* the
levels (deep -> shallow) along ``G_u`` edges with weight
``sqrt(c)/d_I(parent)`` (Eq. 12; ``d_I^T = d_I`` because Source-Push
expands every frontier node's full in-neighbourhood).

The targets are the attention entries at levels 2..L (level-1 attention
nodes are never *targets* of a first-meeting, only sources). ``A_u`` is in
(level, node) order, so the targets seeded so far are its last entries. The
state is a block of dense level rows by that *seeded suffix* of target
columns: it starts 0 columns wide at level ``L``, and a column joins only
when its target is seeded, as it holds nothing but zeros at deeper levels.
Each level, from ``L`` up to 1, *records* its attention entries' rows into
``hAA``, then *seeds* 1 at its own targets (prepending their columns), then
*pushes* one level up through ``csr.sum_by`` over only the ``G_u`` edges
(level rows) whose child row is not all zero. Recording before seeding
leaves the columns of targets at this level or shallower zero, so only
strictly deeper targets record a value. Each sum adds the same nonzero
terms in the same edge order as a push of every edge and every target
column, so ``hAA`` is bit-identical to it. Alg. 4 consumes the
``|A| x |A|`` result ``hAA[a, b] = h~^(lb-la)(node_a @ la -> node_b @ lb)``
(zero unless ``lb > la``).
"""
from __future__ import annotations

import numpy as np

from repro.core.source_push import AttentionSet, SourceGraph
from repro.graphs.csr import CSRGraph, sum_by


def attention_hitting_matrix(g: CSRGraph, gu: SourceGraph, att: AttentionSet,
                             sqrt_c: float) -> np.ndarray:
    """Dense ``|A| x |A|`` matrix of hitting probabilities in ``G_u``
    between attention entries (see module docstring)."""
    hAA = np.zeros((att.size, att.size))
    cur = np.zeros((gu.level_nodes[gu.L].size, 0))
    for lvl in range(gu.L, 0, -1):
        here = att.at_level(lvl)
        rows = np.searchsorted(gu.level_nodes[lvl], att.nodes[here])
        hAA[here, att.size - cur.shape[1]:] = cur[rows]
        seed = here.size if lvl >= 2 else 0
        cur = np.hstack([np.zeros((cur.shape[0], seed)), cur])
        cur[rows[:seed], np.arange(seed)] = 1.0
        child, parent = gu.edges[lvl - 1]
        live = cur.any(axis=1)[child]
        child, parent = child[live], parent[live]
        w = sqrt_c / g.in_deg[gu.level_nodes[lvl - 1][parent]]
        cur = sum_by(parent, cur[child] * w[:, None],
                     gu.level_nodes[lvl - 1].size)
    return hAA
