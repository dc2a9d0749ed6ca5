"""Source-Push (Alg. 2, lines 9–21): deterministic residue propagation from
the query node over in-edges, producing the levelled source graph ``G_u``,
the hitting probabilities ``h^(l)(u, .)``, and the attention sets.

``G_u`` is a DAG organised by levels: level 0 holds only ``u``; an edge
runs from a level-``l+1`` node (child) to the level-``l`` node (parent) it
was pushed from. A node expanded at level ``l < L`` contributes *all* its
in-neighbours, so its in-degree within ``G_u`` equals its in-degree in
``G`` (the paper's note (ii) after Eq. 12) — Alg. 3 relies on this. Edges
are kept as level rows, so Alg. 3 pushes along them with no id lookup.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.graphs.csr import CSRGraph, sum_by


@dataclass
class SourceGraph:
    """Levelled source graph ``G_u`` plus the hitting probabilities from u.

    ``level_nodes[l]`` — sorted node ids present at level ``l`` (0..L);
    ``h[l]`` — ``h^(l)(u, v)`` aligned with ``level_nodes[l]``;
    ``edges[l]`` — ``(child_row, parent_row)``: rows in ``level_nodes`` of
    the level ``l+1 -> l`` edges, in ``g.in_edges(level_nodes[l])`` order.
    """

    L: int
    level_nodes: list[np.ndarray]
    h: list[np.ndarray]
    edges: list[tuple[np.ndarray, np.ndarray]]

    def upto(self, L: int) -> "SourceGraph":
        """Levels ``0..L`` of this graph (``L <= self.L``), sharing arrays."""
        return SourceGraph(L=L, level_nodes=self.level_nodes[:L + 1],
                           h=self.h[:L + 1], edges=self.edges[:L])

    @property
    def n_nodes(self) -> int:
        return int(sum(a.size for a in self.level_nodes))

    @property
    def n_edges(self) -> int:
        return int(sum(c.size for c, _ in self.edges))


@dataclass
class AttentionSet:
    """All attention nodes of the query: ``(level, node, h^(level)(u, node))``
    triples, sorted by (level, node). A node may appear at several levels
    (the paper's running example: ``w_c`` at levels 1 and 3)."""

    levels: np.ndarray
    nodes: np.ndarray
    h: np.ndarray

    @property
    def size(self) -> int:
        return int(self.nodes.size)

    def at_level(self, level: int) -> np.ndarray:
        """Indices (into this set) of attention entries at ``level``."""
        return np.flatnonzero(self.levels == level)


@dataclass(frozen=True)
class Level:
    """The counts of one Source-Push level that Alg. 1's driver reads
    before the level is pushed from (``source_push``'s ``go``)."""

    nodes: int      # nodes with h > 0
    mass: float     # the sum of their h
    in_edges: int   # their in-edges: the G_u edges pushing from them adds


def source_push(g: CSRGraph, u: int, eps_h: float, L: int, sqrt_c: float,
                go: Callable[[Level], bool] | None = None
                ) -> tuple[SourceGraph, AttentionSet]:
    """Run Alg. 2's propagation from ``u`` for at most ``L`` levels.

    Exact (no sampling): each level is one application of the linear
    Source-Push operator, its weight formed per frontier node; O(m) a level.
    ``go``, when given, is asked before each level is pushed from, the
    deepest level too, with that level's :class:`Level`; pushing stops at
    its first False. It also stops at level ``L`` and where the frontier has
    no in-edge.
    """
    level_nodes = [np.array([u], dtype=np.int64)]
    h_levels = [np.array([1.0])]
    edges: list[tuple[np.ndarray, np.ndarray]] = []
    while True:
        frontier, h = level_nodes[-1], h_levels[-1]
        deg = g.in_deg[frontier]
        level = Level(frontier.size, float(h.sum()), int(deg.sum()))
        if ((go is not None and not go(level)) or len(edges) >= L
                or not level.in_edges):
            break
        children, parent_row = g.in_edges(frontier)
        # One Source-Push level; a sink's weight is never read.
        w = sqrt_c * h / np.maximum(deg, 1)
        h_next = sum_by(children, w[parent_row], g.n)
        nonzero = h_next != 0
        edges.append((np.cumsum(nonzero)[children] - 1, parent_row))
        level_nodes.append(np.flatnonzero(nonzero))
        h_levels.append(h_next[nonzero])
    gu = SourceGraph(L=len(level_nodes) - 1, level_nodes=level_nodes,
                     h=h_levels, edges=edges)
    # Attention: entries below level 0 with h >= eps_h, in (level, node) order.
    levels = np.repeat(np.arange(gu.L + 1, dtype=np.int64),
                       [a.size for a in level_nodes])
    nodes, hs = np.concatenate(level_nodes), np.concatenate(h_levels)
    mask = (levels > 0) & (hs >= eps_h)
    return gu, AttentionSet(levels=levels[mask], nodes=nodes[mask],
                            h=hs[mask])
