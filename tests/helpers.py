"""Shared test fixtures: small graphs, cached exact SimRank, and
brute-force reference implementations used to validate the fast paths."""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.baselines.exact import exact_simrank
from repro.graphs import generators
from repro.graphs.csr import CSRGraph, from_edges, simple_edges, sum_by

#: name -> (builder, n). Small enough that exact SimRank is instant.
GRAPHS = {
    "powerlaw": (lambda: generators.powerlaw(200, 4, seed=3), 200),
    "social": (lambda: generators.social(200, 5, seed=4), 200),
    "undirected": (lambda: generators.undirected(200, 6, seed=5), 200),
    "erdos": (lambda: generators.erdos_renyi(150, 900, seed=6), 150),
    "chain": (lambda: (np.arange(1, 30), np.arange(0, 29)), 30),
    "cycle": (lambda: (np.arange(40), np.roll(np.arange(40), -1)), 40),
    "star": (lambda: (np.arange(1, 25), np.zeros(24, dtype=np.int64)), 25),
}


@lru_cache(maxsize=None)
def graph(name: str) -> CSRGraph:
    build, n = GRAPHS[name]
    src, dst = build()
    return from_edges(np.asarray(src), np.asarray(dst), n=n)


@lru_cache(maxsize=None)
def exact(name: str, c: float = 0.6) -> np.ndarray:
    return exact_simrank(graph(name), c=c)


def edge_arrays(name: str) -> tuple[np.ndarray, np.ndarray]:
    build, _ = GRAPHS[name]
    src, dst = build()
    return np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64)


def csr_reference(src: np.ndarray, dst: np.ndarray, n: int) -> CSRGraph:
    """``from_edges`` by a second route, for int64 ids in ``[0, n)``: each
    direction's CSR by a stable argsort of the simple edges on its major
    endpoint, a bincount and a cumsum, with int64 arrays throughout."""
    src, dst = simple_edges(src, dst, n)

    def build(by: np.ndarray, other: np.ndarray):
        order = np.argsort(by, kind="stable")
        deg = np.bincount(by[order], minlength=n)
        ptr = np.concatenate(([0], np.cumsum(deg)))
        return ptr.astype(np.int64), other[order], deg.astype(np.int64)

    out_ptr, out_idx, out_deg = build(src, dst)
    in_ptr, in_idx, in_deg = build(dst, src)
    return CSRGraph(n=n, out_ptr=out_ptr, out_idx=out_idx, in_ptr=in_ptr,
                    in_idx=in_idx, out_deg=out_deg, in_deg=in_deg)


def assert_same_csr(g: CSRGraph, ref: CSRGraph) -> None:
    """All six arrays equal, entry by entry and in dtype, and the same n."""
    assert g.n == ref.n
    for name in ("out_ptr", "out_idx", "in_ptr", "in_idx", "out_deg",
                 "in_deg"):
        got, want = getattr(g, name), getattr(ref, name)
        assert got.dtype == want.dtype, name
        np.testing.assert_array_equal(got, want, err_msg=name)


def wt_matrix(g: CSRGraph) -> np.ndarray:
    """Dense ``W^T``: row v holds 1/d_I(v) at each in-neighbour of v.
    ``h^(l)(u, .) = u-th row of (sqrt(c) * W^T)^l`` — the brute-force
    reference for every push-based computation."""
    wt = np.zeros((g.n, g.n))
    for v in range(g.n):
        nbrs = g.in_neighbors(v)
        if nbrs.size:
            wt[v, nbrs] = 1.0 / nbrs.size
    return wt


def hitting_bruteforce(g: CSRGraph, u: int, L: int, sqrt_c: float
                       ) -> np.ndarray:
    """``h^(l)(u, v)`` for l = 0..L via dense matrix powers."""
    wt = sqrt_c * wt_matrix(g)
    out = np.zeros((L + 1, g.n))
    vec = np.zeros(g.n)
    vec[u] = 1.0
    out[0] = vec
    for lvl in range(1, L + 1):
        vec = vec @ wt
        out[lvl] = vec
    return out


def gu_edge_nodes(gu, l: int) -> tuple[np.ndarray, np.ndarray]:
    """``G_u``'s edges from level ``l+1`` to level ``l`` as node ids:
    ``(children, parents)``, from the level rows ``gu.edges[l]`` holds."""
    child_row, parent_row = gu.edges[l]
    return gu.level_nodes[l + 1][child_row], gu.level_nodes[l][parent_row]


def gu_hitting_reference(g, gu, att, sqrt_c: float) -> np.ndarray:
    """Alg. 3's ``hAA`` by an independent route: propagate each target's
    indicator up the levels of ``G_u`` with explicit dict vectors
    (Definition 5 verbatim)."""
    n_att = att.size
    hAA = np.zeros((n_att, n_att))
    for b in range(n_att):
        lb, nb = int(att.levels[b]), int(att.nodes[b])
        if lb < 2:
            continue
        vec = {nb: 1.0}  # value at level lb
        for lvl in range(lb, 0, -1):
            # record at attention sources of this level
            for a in range(n_att):
                if int(att.levels[a]) == lvl and lvl < lb:
                    hAA[a, b] = vec.get(int(att.nodes[a]), 0.0)
            if lvl == 1:
                break
            children, parents = gu_edge_nodes(gu, lvl - 1)
            nxt: dict[int, float] = {}
            for c_, p_ in zip(children.tolist(), parents.tolist()):
                if c_ in vec:
                    nxt[p_] = nxt.get(p_, 0.0) + \
                        sqrt_c * vec[c_] / g.in_deg[p_]
            vec = nxt
    return hAA


def hitting_dense_reference(g: CSRGraph, gu, att, sqrt_c: float
                            ) -> np.ndarray:
    """Alg. 3 with one dense ``|level nodes| x |targets|`` block pushed over
    every ``G_u`` edge at every level: a second route to
    ``hitting.attention_hitting_matrix``, which pushes only seeded target
    columns and nonzero child rows and must give exactly the same result.
    It reads the edges as node ids and finds each row by a search of its
    level."""
    def pos(level, nodes):
        return np.searchsorted(gu.level_nodes[level], nodes)

    hAA = np.zeros((att.size, att.size))
    targets = np.flatnonzero(att.levels >= 2)
    cur = np.zeros((gu.level_nodes[gu.L].size, targets.size))
    for lvl in range(gu.L, 0, -1):
        here = att.at_level(lvl)
        hAA[np.ix_(here, targets)] = cur[pos(lvl, att.nodes[here])]
        seed = np.flatnonzero(att.levels[targets] == lvl)
        cur[pos(lvl, att.nodes[targets[seed]]), seed] = 1.0
        children, parents = gu_edge_nodes(gu, lvl - 1)
        cur = sum_by(pos(lvl - 1, parents),
                     cur[pos(lvl, children)]
                     * (sqrt_c / g.in_deg[parents])[:, None],
                     gu.level_nodes[lvl - 1].size)
    return hAA


def reverse_push_reference(g: CSRGraph, att, r: np.ndarray, u: int,
                           eps_h: float, sqrt_c: float) -> np.ndarray:
    """Alg. 5 with one dense residue vector per level, every level seeded
    up front: a second route to ``reverse_push.reverse_push``, which
    carries one vector and must give exactly the same result."""
    L = int(att.levels.max(initial=0))
    residues = {lvl: np.zeros(g.n) for lvl in range(1, L + 1)}
    for a in range(att.size):
        residues[int(att.levels[a])][int(att.nodes[a])] += r[a]
    s = np.zeros(g.n)
    for lvl in range(L, 0, -1):
        res = residues[lvl]
        active = np.flatnonzero(sqrt_c * res >= eps_h)
        if active.size == 0:
            continue
        out = g.push_to_out_neighbors(res, sqrt_c, active=active)
        if lvl > 1:
            residues[lvl - 1] += out
        else:
            s += out
    s[u] = 1.0
    return s


def gu_pair_walk_reference(g, gu, att, sqrt_c: float) -> np.ndarray:
    """Reference gammas by dynamic programming over *pairs* of walk
    positions inside ``G_u`` (Definition 4 verbatim): for each attention
    entry, track the joint distribution of two independent walks through
    ``G_u`` levels, removing mass that meets at an attention node."""
    gammas = np.zeros(att.size)
    for a in range(att.size):
        la, node = int(att.levels[a]), int(att.nodes[a])
        # pair distribution over (x, y) at current level, walks alive.
        idx = {(node, node): 1.0}
        survive = 1.0  # mass that never meets an attention node
        meet_total = 0.0
        for lvl in range(la, gu.L):
            att_here = set()
            nxt: dict[tuple[int, int], float] = {}
            children, parents = gu_edge_nodes(gu, lvl)
            adj: dict[int, np.ndarray] = {}
            for c_, p_ in zip(children, parents):
                adj.setdefault(int(p_), []).append(int(c_))
            for (x, y), p in idx.items():
                nx_, ny_ = adj.get(x, []), adj.get(y, [])
                if not nx_ or not ny_:
                    continue
                w = p * sqrt_c * sqrt_c / (len(nx_) * len(ny_))
                for xx in nx_:
                    for yy in ny_:
                        nxt[(xx, yy)] = nxt.get((xx, yy), 0.0) + w
            att_next = set(
                int(n) for n in att.nodes[att.levels == lvl + 1])
            idx = {}
            for (x, y), p in nxt.items():
                if x == y and x in att_next:
                    meet_total += p
                else:
                    idx[(x, y)] = p
        gammas[a] = 1.0 - meet_total
    return gammas
