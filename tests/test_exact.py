"""Tests for the exact-SimRank oracle (baselines/exact.py): the numpy
power method vs networkx and hand-derived values, its convergence, and its
disk cache."""
import numpy as np
import pytest

import repro.baselines.exact as exact_mod
from repro.baselines.exact import exact_simrank, exact_simrank_cached
from repro.graphs.csr import from_edges
from tests import helpers


@pytest.mark.parametrize("name", ["powerlaw", "social", "chain", "star",
                                  "cycle"])
def test_matches_networkx(name):
    import networkx as nx
    g = helpers.graph(name)
    s = helpers.exact(name)
    G = nx.DiGraph()
    G.add_nodes_from(range(g.n))
    for v in range(g.n):
        for w in g.out_neighbors(v):
            G.add_edge(v, int(w))
    snx = nx.simrank_similarity(G, importance_factor=0.6,
                                max_iterations=300, tolerance=1e-12)
    snx = np.array([[snx[i][j] for j in range(g.n)] for i in range(g.n)])
    assert np.abs(s - snx).max() < 1e-8


@pytest.mark.parametrize("name", ["powerlaw", "social", "undirected"])
def test_fixed_point_properties(name):
    s = helpers.exact(name)
    assert np.abs(s - s.T).max() < 1e-12           # symmetric
    assert (np.diag(s) == 1.0).all()               # diag forced to 1
    assert s.min() >= 0 and s.max() <= 1 + 1e-12   # probabilities


def test_hand_derived_two_node_mutual():
    """a <-> b: s(a,b) = c * s(b,a) => s(a,b) = c/(1) * ... solves to
    s(a,b) = c (walks from a and b step to b and a, i.e. meet prob of
    swapped pair: s(a,b) = c * s(b,a) -> s = c * s fails; exact fixed
    point: s(a,b) = c * s(b,a) with s(x,x)=1 gives s(a,b) = c/(2-c)...
    derive numerically instead: power iteration by hand."""
    g = from_edges(np.array([0, 1]), np.array([1, 0]), n=2)
    s = exact_simrank(g, c=0.6)
    # s(a,b) = c * s(b,a) where I(a)={b}, I(b)={a}: s = c * s only admits
    # 0 = off-diagonal fixed point? No: s(a,b) = c*s(I(a),I(b)) = c*s(b,a)
    # = c*s(a,b) by symmetry -> s(a,b)=0.
    assert s[0, 1] == pytest.approx(0.0, abs=1e-12)


def test_hand_derived_shared_parent():
    """a <- p -> b (I(a)=I(b)={p}): s(a,b) = c * s(p,p) = c."""
    g = from_edges(np.array([2, 2]), np.array([0, 1]), n=3)
    s = exact_simrank(g, c=0.6)
    assert s[0, 1] == pytest.approx(0.6, abs=1e-12)


def test_hand_derived_star():
    """Star leaves share the single hub parent: s(leaf_i, leaf_j) = c."""
    s = helpers.exact("star")
    # leaves are 1..24 sharing parent 0? star edges: i -> 0, so I(0)=all
    # leaves, leaves have no in-neighbours: s(leaf_i, leaf_j) = 0, and
    # s(0, leaf) = 0 (leaf has no in-neighbours).
    assert s[1, 2] == pytest.approx(0.0)
    assert s[0, 1] == pytest.approx(0.0)


def test_reverse_star_shared_parent():
    """Hub pointing at leaves: every pair of leaves has s = c."""
    n = 6
    src = np.zeros(n - 1, dtype=np.int64)
    dst = np.arange(1, n, dtype=np.int64)
    g = from_edges(src, dst, n=n)
    s = exact_simrank(g, c=0.6)
    for i in range(1, n):
        for j in range(i + 1, n):
            assert s[i, j] == pytest.approx(0.6, abs=1e-12)


def test_zero_in_degree_rows():
    """Nodes without in-neighbours have SimRank 0 to everyone else."""
    g = helpers.graph("chain")
    s = helpers.exact("chain")
    no_in = np.flatnonzero(g.in_deg == 0)
    assert no_in.size > 0
    for v in no_in:
        row = s[v].copy()
        row[v] = 0.0
        assert (row == 0).all()


def test_convergence_with_iterations():
    g = helpers.graph("social")
    s_short = exact_simrank(g, iters=8)
    s_mid = exact_simrank(g, iters=20)
    s_long = exact_simrank(g, iters=40)
    assert np.abs(s_long - s_mid).max() < np.abs(s_mid - s_short).max()
    assert np.abs(s_long - s_mid).max() < 1e-4
    # Monotone from below: iterates only add meeting mass.
    assert (s_long - s_short).min() >= -1e-12


def test_cached_roundtrip(tmp_path, monkeypatch):
    monkeypatch.setattr(exact_mod, "_CACHE_DIR", str(tmp_path))
    g = helpers.graph("cycle")
    s1 = exact_simrank_cached(g, tag="t")
    files = list(tmp_path.iterdir())
    assert len(files) == 1
    s2 = exact_simrank_cached(g, tag="t")
    np.testing.assert_array_equal(s1, s2)


def test_cache_write_cut_short_leaves_no_file(tmp_path, monkeypatch):
    """A write that fails part-way (a sweep killed mid-save) leaves nothing
    in the cache, so the next run recomputes instead of loading a
    truncated matrix."""
    monkeypatch.setattr(exact_mod, "_CACHE_DIR", str(tmp_path))

    def save_part(path, arr):
        with open(path, "wb") as f:
            f.write(b"\x93NUMPY partial")
        raise OSError("killed mid-write")

    monkeypatch.setattr(exact_mod.np, "save", save_part)
    with pytest.raises(OSError, match="mid-write"):
        exact_simrank_cached(helpers.graph("cycle"), tag="t")
    assert list(tmp_path.iterdir()) == []

