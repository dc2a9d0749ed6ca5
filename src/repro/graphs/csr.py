"""CSR adjacency over numpy, with the one copy of each graph traversal that
SimPush and its competitors share.

Edge convention throughout the repo: an edge ``(src, dst)`` is the directed
edge ``src -> dst``; the in-neighbours of ``v`` are ``{src : (src, v) in E}``.
SimRank's :math:`\\sqrt{c}`-walks follow **in-edges** (Definition 2 of the
paper). The primitives and their callers:

* ``simple_edges`` — self-loops and duplicate edges dropped: ``from_edges``
  and the generators.
* ``in_edges`` — a frontier's in-edges: Source-Push's ``G_u`` levels. It
  and the two exact push operators share the one ragged gather, ``_gather``.
* ``sum_by`` — the one accumulation kernel, dense sums by index: the two
  push operators below, Source-Push's level step (``source_push``) and
  Alg. 3's push of the seeded target columns (``hitting``).
* ``push_to_in_neighbors`` / ``push_to_out_neighbors`` — one level of
  ``sqrt(c) * h(v) / d_I(v)`` over in-edges / ``sqrt(c) * r(v') / d_I(v)``
  over out-edges: Reverse-Push (Alg. 5), ProbeSim's probes, PRSim's reverse
  vectors, TopSim.
* ``level_visits`` — per-level visit counts of sqrt(c)-walks from one node:
  MC level detection (``walks.detect_L``, Alg. 2 lines 1–8) and PRSim's
  sampled ``h^(l)(u, .)``.
* ``coupled_meetings`` — coupled walk pairs run until they meet: the MC
  ground truth (``pair_meeting_probability``) and PRSim's/SLING's ``eta``.
* ``sqrt_c_walks`` — walks that keep every position: ProbeSim and READS.
  Kept apart from ``level_visits``: detect_L built
  on it ran 13–16 % slower.
* ``random_in_neighbor`` — every walk's step, for nodes with an in-neighbour
  only: the walkers drop sinks first; TSF's index build masks its own.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

_WALK_BATCH = 200_000  # walkers simulated at once by level_visits


@dataclass(frozen=True)
class CSRGraph:
    """Immutable CSR view of a directed graph with both edge directions.

    ``out_ptr/out_idx`` index out-neighbours by source node; ``in_ptr/in_idx``
    index in-neighbours by destination node. Degrees are cached.
    """

    n: int
    out_ptr: np.ndarray
    out_idx: np.ndarray
    in_ptr: np.ndarray
    in_idx: np.ndarray
    out_deg: np.ndarray = field(default=None)
    in_deg: np.ndarray = field(default=None)

    @property
    def m(self) -> int:
        """Number of directed edges."""
        return int(self.out_idx.shape[0])

    @property
    def nbytes(self) -> int:
        """Bytes held by the adjacency arrays (graph footprint proxy)."""
        return sum(
            a.nbytes
            for a in (self.out_ptr, self.out_idx, self.in_ptr, self.in_idx,
                      self.out_deg, self.in_deg)
        )

    def out_neighbors(self, v: int) -> np.ndarray:
        """Out-neighbours of ``v`` (nodes ``x`` with edge ``v -> x``)."""
        return self.out_idx[self.out_ptr[v]:self.out_ptr[v + 1]]

    def in_neighbors(self, v: int) -> np.ndarray:
        """In-neighbours of ``v`` (nodes ``x`` with edge ``x -> v``)."""
        return self.in_idx[self.in_ptr[v]:self.in_ptr[v + 1]]

    # ---------------------------------------------------------------- pushes

    def in_edges(self, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Every in-edge ``src -> dst`` of each ``dst`` in ``nodes``, as
        ``(src, dst)`` arrays grouped by ``dst`` in ``nodes`` order."""
        return _gather(self.in_ptr, self.in_idx, self.in_deg, nodes)

    def push_to_in_neighbors(self, h: np.ndarray, sqrt_c: float) -> np.ndarray:
        """One Source-Push level: ``h'(v') = sum_{v: v' in I(v)} sqrt_c*h(v)/d_I(v)``.

        ``h`` is a dense length-``n`` vector of level-``l`` hitting
        probabilities; returns the dense level-``l+1`` vector. Nodes with no
        in-neighbours simply absorb their mass (the walk stops), matching the
        paper's walk semantics.
        """
        srcs, dsts = self.in_edges(np.flatnonzero(h))
        return sum_by(srcs, sqrt_c * h[dsts] / self.in_deg[dsts], self.n)

    def push_to_out_neighbors(self, r: np.ndarray, sqrt_c: float,
                              active: np.ndarray | None = None) -> np.ndarray:
        """One Reverse-Push level: ``r'(v) += sqrt_c * r(v') / d_I(v)`` for
        each out-edge ``v' -> v`` of each ``v'`` in ``active``.

        ``active`` defaults to every node with nonzero residue; Alg. 5 passes
        the thresholded subset.
        """
        if active is None:
            active = np.flatnonzero(r)
        dsts, srcs = _gather(self.out_ptr, self.out_idx, self.out_deg, active)
        return sum_by(dsts, sqrt_c * r[srcs] / self.in_deg[dsts], self.n)

    # ----------------------------------------------------------------- walks

    def random_in_neighbor(self, nodes: np.ndarray,
                           rng: np.random.Generator) -> np.ndarray:
        """Uniform random in-neighbour per node, each of which must have one
        (a sink raises numpy's ``ValueError``); empty ``nodes`` draw nothing."""
        return self.in_idx[self.in_ptr[nodes]
                           + rng.integers(0, self.in_deg[nodes])]

    def sqrt_c_walks(self, start: np.ndarray, sqrt_c: float, max_steps: int,
                     rng: np.random.Generator) -> np.ndarray:
        """Batched sqrt(c)-walks (Definition 2): each walk stops w.p.
        ``1 - sqrt_c`` per step, else moves to a uniform random in-neighbour.

        Returns an ``(n_walks, max_steps + 1)`` int64 array of positions;
        -1 marks "walk already stopped". Column 0 is ``start``.
        """
        n_walks = start.shape[0]
        pos = np.full((n_walks, max_steps + 1), -1, dtype=np.int64)
        pos[:, 0] = start
        cur = start.copy()
        alive = np.ones(n_walks, dtype=bool)
        for step in range(1, max_steps + 1):
            alive &= rng.random(n_walks) < sqrt_c
            alive &= self.in_deg[cur] > 0
            idx = np.flatnonzero(alive)
            if idx.size == 0:
                break
            cur[idx] = self.random_in_neighbor(cur[idx], rng)
            pos[idx, step] = cur[idx]
        return pos

    def level_visits(self, u: int, n_walks: int, sqrt_c: float,
                     max_steps: int, rng: np.random.Generator) -> np.ndarray:
        """Visit counts of ``n_walks`` sqrt(c)-walks from ``u``: row ``l`` of
        the ``(max_steps + 1, n)`` int64 result counts the walks at each
        node after ``l`` steps (row 0 stays zero).

        Only still-walking walkers are touched each step, so the expected
        work is ~``n_walks * sqrt_c / (1 - sqrt_c)``; no positions are kept.
        """
        counts = np.zeros((max_steps + 1, self.n), dtype=np.int64)
        for done in range(0, n_walks, _WALK_BATCH):
            cur = np.full(min(_WALK_BATCH, n_walks - done), u, dtype=np.int64)
            for step in range(1, max_steps + 1):
                cur = cur[rng.random(cur.size) < sqrt_c]
                cur = cur[self.in_deg[cur] > 0]
                if cur.size == 0:
                    break
                cur = self.random_in_neighbor(cur, rng)
                counts[step] += np.bincount(cur, minlength=self.n)
        return counts

    def coupled_meetings(self, cur1: np.ndarray, cur2: np.ndarray,
                         alive: np.ndarray, c: float, max_steps: int,
                         rng: np.random.Generator) -> np.ndarray:
        """Coupled walk pairs from ``(cur1[i], cur2[i])`` where ``alive[i]``:
        each step a pair goes on w.p. ``c``, both walks to a uniform random
        in-neighbour, until they meet, either has no in-neighbour or
        ``max_steps`` pass. Returns which pairs met; pairs not alive at the
        start count as met. Advances ``cur1`` and ``cur2`` in place.
        """
        met = ~alive
        idx = np.flatnonzero(alive)
        for _ in range(max_steps):
            if idx.size == 0:
                break
            idx = idx[rng.random(idx.size) < c]
            idx = idx[(self.in_deg[cur1[idx]] > 0)
                      & (self.in_deg[cur2[idx]] > 0)]
            cur1[idx] = self.random_in_neighbor(cur1[idx], rng)
            cur2[idx] = self.random_in_neighbor(cur2[idx], rng)
            hit = cur1[idx] == cur2[idx]
            met[idx[hit]] = True
            idx = idx[~hit]
        return met


def _gather(ptr: np.ndarray, idx: np.ndarray, deg: np.ndarray,
            nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The CSR lists of ``nodes`` concatenated, and the node owning each
    entry: ``(idx[ptr[v]:ptr[v+1]] for v in nodes, v repeated deg[v] times)``."""
    counts = deg[nodes]
    return (idx[np.repeat(ptr[nodes], counts) + _ragged_offsets(counts)],
            np.repeat(nodes, counts))


def _ragged_offsets(counts: np.ndarray) -> np.ndarray:
    """``[0..c0-1, 0..c1-1, ...]`` — per-segment offsets for ragged gathers."""
    out = np.arange(int(counts.sum()))
    out -= np.repeat(np.cumsum(counts) - counts, counts)
    return out


def sum_by(idx: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """Dense float sums of ``values`` by ``idx``, added in entry order: one
    value per entry gives ``(n,)``; one row per entry, an ``(entries, k)``
    block, gives ``(n, k)`` by one bincount over the flattened
    ``(row, column)`` index. (A bincount of none is int.)"""
    if values.ndim == 2:
        k = values.shape[1]
        flat = (idx[:, None] * k + np.arange(k)).ravel()
        return sum_by(flat, values.ravel(), n * k).reshape(n, k)
    return np.bincount(idx, values, n).astype(np.float64, copy=False)


def simple_edges(src: np.ndarray, dst: np.ndarray, n: int
                 ) -> tuple[np.ndarray, np.ndarray]:
    """The edges of int64 ids in ``[0, n)`` with self-loops and duplicates
    dropped, sorted by ``(src, dst)``: one combined-key ``np.unique``."""
    keep = src != dst
    key = np.unique(src[keep] * n + dst[keep])
    return key // n, key % n


def from_edges(src: np.ndarray, dst: np.ndarray, n: int | None = None) -> CSRGraph:
    """Build a :class:`CSRGraph` from parallel edge arrays.

    Self-loops and duplicate edges are dropped (SimRank's definition assumes
    a simple directed graph). Node ids must be whole numbers in ``[0, n)``,
    else ``ValueError``; ``n``, an integer >= 0, defaults to ``1 + max id``.
    """
    src, dst = np.asarray(src), np.asarray(dst)
    for ids in (src, dst):
        if ids.dtype.kind not in "biu" and (ids % 1 != 0).any():
            raise ValueError("edge endpoint ids must be whole numbers")
    src, dst = (np.asarray(ids, dtype=np.int64) for ids in (src, dst))
    lo = min(src.min(initial=0), dst.min(initial=0))
    hi = max(src.max(initial=-1), dst.max(initial=-1))
    if n is None:
        n = int(hi + 1)
    elif isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 0:
        raise ValueError(f"node count n={n!r} is not an integer >= 0")
    if lo < 0 or hi >= n:
        raise ValueError(f"edge endpoint ids span [{lo}, {hi}], "
                         f"not within [0, {n})")
    src, dst = simple_edges(src, dst, n)

    def _build(by: np.ndarray, other: np.ndarray):
        order = np.argsort(by, kind="stable")
        sorted_by, sorted_other = by[order], other[order]
        deg = np.bincount(sorted_by, minlength=n)
        ptr = np.concatenate(([0], np.cumsum(deg)))
        return ptr.astype(np.int64), sorted_other, deg.astype(np.int64)

    out_ptr, out_idx, out_deg = _build(src, dst)
    in_ptr, in_idx, in_deg = _build(dst, src)
    return CSRGraph(n=n, out_ptr=out_ptr, out_idx=out_idx,
                    in_ptr=in_ptr, in_idx=in_idx,
                    out_deg=out_deg, in_deg=in_deg)
