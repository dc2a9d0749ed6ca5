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
whose child row is not all zero. Recording before seeding leaves the
columns of targets at this level or shallower zero, so only strictly deeper
targets record a value. Each sum adds the same nonzero terms in the same
edge order as a push of every edge and every target column, so ``hAA`` is
bit-identical to it. Alg. 4 consumes the ``|A| x |A|`` result
``hAA[a, b] = h~^(lb-la)(node_a @ la -> node_b @ lb)`` (zero unless
``lb > la``).
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
        hAA[here, att.size - cur.shape[1]:] = cur[gu.pos(lvl, att.nodes[here])]
        seed = here if lvl >= 2 else here[:0]
        cur = np.hstack([np.zeros((cur.shape[0], seed.size)), cur])
        cur[gu.pos(lvl, att.nodes[seed]), np.arange(seed.size)] = 1.0
        children, parents = gu.edges[lvl - 1]
        child = gu.pos(lvl, children)
        live = cur.any(axis=1)[child]
        child, parents = child[live], parents[live]
        cur = sum_by(gu.pos(lvl - 1, parents),
                     cur[child] * (sqrt_c / g.in_deg[parents])[:, None],
                     gu.level_nodes[lvl - 1].size)
    return hAA
