"""Tests for the CSR substrate (graphs/csr.py): construction, the two push
operators (validated against dict-based brute force and dense linear
algebra), and the batched walk sampler."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pyspark.sql import functions as F

from repro.graphs import datasets, generators
from repro.graphs.csr import CSRGraph, from_edges, sum_by
from repro.oracle import assert_equivalent
from tests import helpers

SQRT_C = np.sqrt(0.6)


def _edges_strategy():
    return st.lists(
        st.tuples(st.integers(0, 19), st.integers(0, 19)),
        max_size=120)


@given(edges=_edges_strategy())
@settings(max_examples=60, deadline=None)
def test_from_edges_matches_bruteforce(edges):
    """Duplicates, self-loops, isolated nodes and no edges at all: the
    neighbour sets are the brute-force ones, and every array, neighbour
    order and dtype included, is the stable-argsort construction's."""
    src = np.array([e[0] for e in edges], dtype=np.int64)
    dst = np.array([e[1] for e in edges], dtype=np.int64)
    g = from_edges(src, dst, n=20)
    helpers.assert_same_csr(g, helpers.csr_reference(src, dst, 20))
    simple = {(a, b) for a, b in edges if a != b}
    assert g.m == len(simple)
    for v in range(20):
        assert set(g.out_neighbors(v).tolist()) == {
            b for a, b in simple if a == v}
        assert set(g.in_neighbors(v).tolist()) == {
            a for a, b in simple if b == v}
        assert g.out_deg[v] == len({b for a, b in simple if a == v})
        assert g.in_deg[v] == len({a for a, b in simple if b == v})


@pytest.mark.parametrize("name", sorted(helpers.GRAPHS))
def test_fixtures_match_reference(name):
    src, dst = helpers.edge_arrays(name)
    g = helpers.graph(name)
    helpers.assert_same_csr(g, helpers.csr_reference(src, dst, g.n))


@pytest.mark.parametrize("name", sorted(datasets.SPECS))
def test_analogs_match_reference(name):
    src, dst, spec = datasets.edge_arrays(name)
    helpers.assert_same_csr(datasets.load(name),
                            helpers.csr_reference(src, dst, spec.n))


@pytest.mark.parametrize("src,dst,n", [
    ([0], [5], 3), ([3], [0], 3), ([4], [4], 3), ([-1], [1], 3),
    ([1, 2], [0, -2], None)])
def test_from_edges_rejects_out_of_range_ids(src, dst, n):
    """``0 -> 5`` with n=3 used to alias to the edge 1 -> 2 in the dedupe
    key; a negative id used to fail inside bincount."""
    with pytest.raises(ValueError, match="not within"):
        from_edges(np.array(src), np.array(dst), n=n)


@pytest.mark.parametrize("src,dst", [
    ([0.5, 2.9], [1.7, 0.2]), ([0.0, 1.0], [2.0, np.nan]),
    ([0, 1], [2.5, 0])])
def test_from_edges_rejects_non_whole_ids(src, dst):
    """``[0.5, 2.9] -> [1.7, 0.2]`` used to build the edges 0 -> 1 and
    2 -> 0 by truncation."""
    with pytest.raises(ValueError, match="whole numbers"):
        from_edges(np.array(src), np.array(dst), n=3)


@pytest.mark.parametrize("n", [2.5, 3.0, "3", True, -1, np.float64(3)],
                         ids=["2.5", "3.0", "str", "True", "-1", "f64"])
def test_from_edges_rejects_invalid_n(n):
    """``n=2.5`` and ``n=3.0`` used to fail with numpy's cast TypeError,
    ``n="3"`` with a UFuncTypeError; ``n=True`` is not a node count."""
    with pytest.raises(ValueError, match="node count"):
        from_edges(np.array([0]), np.array([1]), n=n)


def test_from_edges_accepts_whole_float_and_empty_ids():
    g = from_edges(np.array([0.0, 2.0]), np.array([1.0, 0.0]), n=3)
    assert g.out_idx.dtype == np.int64
    np.testing.assert_array_equal(g.out_neighbors(2), [0])
    assert from_edges(np.array([]), np.array([]), n=2).m == 0
    assert from_edges(np.array([0]), np.array([1]), n=np.int64(3)).n == 3


@pytest.mark.parametrize("name", sorted(helpers.GRAPHS))
def test_in_edges_matches_in_neighbors(name):
    g = helpers.graph(name)
    rng = np.random.default_rng(0)
    sinks = np.flatnonzero(g.in_deg == 0)  # nodes with no in-neighbour
    for nodes in (rng.permutation(g.n), rng.choice(g.n, 12), sinks[:1],
                  np.concatenate((sinks[:1], [g.n - 1, 0])),
                  np.array([], dtype=np.int64)):
        src, row = g.in_edges(nodes)
        nbrs = [g.in_neighbors(v) for v in nodes]
        np.testing.assert_array_equal(
            src, np.concatenate([np.zeros(0, np.int64), *nbrs]))
        np.testing.assert_array_equal(
            row, np.repeat(np.arange(nodes.size), [a.size for a in nbrs]))
        assert src.dtype == row.dtype == np.int64


def test_sum_by_rows_equal_per_column_sums():
    """An ``(entries, k)`` block sums per column exactly as ``k`` calls with
    one value per entry do (repeated indices included)."""
    rng = np.random.default_rng(3)
    idx = rng.integers(0, 7, 50)
    block = rng.random((50, 4))
    out = sum_by(idx, block, 9)
    assert out.shape == (9, 4) and out.dtype == np.float64
    for j in range(4):
        np.testing.assert_array_equal(out[:, j], sum_by(idx, block[:, j], 9))


@pytest.mark.parametrize("idx,k", [([], 3), ([], 0), ([2, 0, 2], 0)])
def test_sum_by_rows_of_no_entries_or_columns(idx, k):
    out = sum_by(np.array(idx, dtype=np.int64), np.zeros((len(idx), k)), 5)
    assert out.shape == (5, k) and out.dtype == np.float64
    assert not out.any()


@pytest.mark.parametrize("name", ["powerlaw", "social", "undirected", "star"])
def test_push_to_in_neighbors_is_linear_operator(name):
    """One Source-Push level equals a row-vector multiply by
    sqrt(c) * W^T (the brute-force dense operator)."""
    g = helpers.graph(name)
    wt = SQRT_C * helpers.wt_matrix(g)
    rng = np.random.default_rng(0)
    for _ in range(3):
        h = rng.random(g.n) * (rng.random(g.n) < 0.3)
        np.testing.assert_allclose(
            g.push_to_in_neighbors(h, SQRT_C), h @ wt, atol=1e-12)


@pytest.mark.parametrize("name", ["powerlaw", "social", "cycle"])
def test_push_to_out_neighbors_is_adjoint(name):
    """Reverse-Push distributes r(v')*sqrt(c)/d_I(v) over out-edges —
    i.e. multiplication by the same matrix from the other side."""
    g = helpers.graph(name)
    wt = SQRT_C * helpers.wt_matrix(g)
    rng = np.random.default_rng(1)
    for _ in range(3):
        r = rng.random(g.n) * (rng.random(g.n) < 0.3)
        np.testing.assert_allclose(
            g.push_to_out_neighbors(r, SQRT_C), wt @ r, atol=1e-12)


def test_push_active_subset():
    g = helpers.graph("powerlaw")
    rng = np.random.default_rng(2)
    r = rng.random(g.n)
    active = np.array([3, 10, 50])
    masked = np.zeros(g.n)
    masked[active] = r[active]
    np.testing.assert_allclose(
        g.push_to_out_neighbors(r, SQRT_C, active=active),
        g.push_to_out_neighbors(masked, SQRT_C), atol=1e-14)


@pytest.mark.parametrize("name", ["cycle", "undirected"])
def test_push_mass_conservation_on_sink_free_graph(name):
    """On graphs where every node has an in-neighbour, each push level
    retains exactly sqrt(c) of the mass (Lemma 2's level identity)."""
    g = helpers.graph(name)
    assert (g.in_deg > 0).all()
    h = np.zeros(g.n)
    h[1] = 1.0
    for lvl in range(1, 5):
        h = g.push_to_in_neighbors(h, SQRT_C)
        assert h.sum() == pytest.approx(SQRT_C ** lvl)


def test_push_mass_leaks_at_sinks():
    g = helpers.graph("chain")  # node 29 has no in-neighbour
    h = np.zeros(g.n)
    h[0] = 1.0
    total = 0.0
    for lvl in range(1, 40):
        h = g.push_to_in_neighbors(h, SQRT_C)
        total = h.sum()
    assert total == 0.0  # chain exhausted


def test_random_in_neighbor_uniform():
    g = helpers.graph("star")  # node 0 has 24 in-neighbours
    rng = np.random.default_rng(3)
    picks = g.random_in_neighbor(np.zeros(50_000, dtype=np.int64), rng)
    counts = np.bincount(picks, minlength=25)[1:]
    assert counts.min() > 0
    # Each neighbour expected 50000/24 ~ 2083; allow 5 sigma.
    assert np.abs(counts - 50_000 / 24).max() < 5 * np.sqrt(50_000 / 24)


def test_random_in_neighbor_none():
    g = helpers.graph("chain")
    rng = np.random.default_rng(0)
    # Chain edges run i -> i-1, so nobody points to 29: a sink is misuse.
    with pytest.raises(ValueError):
        g.random_in_neighbor(np.array([29, 0]), rng)
    assert g.random_in_neighbor(np.array([0]), rng)[0] == 1  # only in-nbr


def test_sqrt_c_walks_shape_and_stopping():
    g = helpers.graph("cycle")
    rng = np.random.default_rng(4)
    pos = g.sqrt_c_walks(np.full(20_000, 7, dtype=np.int64), SQRT_C, 6, rng)
    assert pos.shape == (20_000, 7)
    assert (pos[:, 0] == 7).all()
    # Once stopped, stays stopped.
    stopped = pos[:, 1] < 0
    assert (pos[stopped, 2:] < 0).all()
    # Survival per step ~ sqrt(c).
    alive1 = (pos[:, 1] >= 0).mean()
    assert abs(alive1 - SQRT_C) < 0.02


def test_sqrt_c_walks_match_push_distribution():
    """Empirical step-l occupancy of walks equals the exact push vector."""
    g = helpers.graph("social")
    rng = np.random.default_rng(5)
    n_w = 150_000
    pos = g.sqrt_c_walks(np.full(n_w, 11, dtype=np.int64), SQRT_C, 2, rng)
    h = np.zeros(g.n)
    h[11] = 1.0
    for step in (1, 2):
        h = g.push_to_in_neighbors(h, SQRT_C)
        col = pos[:, step]
        emp = np.bincount(col[col >= 0], minlength=g.n) / n_w
        assert np.abs(emp - h).max() < 0.01


def test_nbytes_positive():
    g = helpers.graph("powerlaw")
    assert g.nbytes > 0


def test_in_degree_matches_duckdb(spark):
    """CSR degrees agree with the SQL definition of in/out degree."""
    import pandas as pd
    src, dst = generators.powerlaw(150, 4, seed=9)
    g = from_edges(src, dst, n=150)
    edges = generators.to_spark(spark, src, dst)
    got = (edges.groupBy(F.col("dst").alias("node"))
           .agg(F.count("*").alias("d")))
    assert_equivalent(
        got, "SELECT dst AS node, COUNT(*) AS d FROM edges GROUP BY dst",
        edges=edges)
    pdf = got.toPandas()
    dense = np.zeros(150, dtype=np.int64)
    dense[pdf["node"].to_numpy()] = pdf["d"].to_numpy()
    np.testing.assert_array_equal(dense, g.in_deg)
