"""Tests for the TSF baseline, including the overestimation bias the
paper criticises (§2.2) — we pin it rather than fix it, since TSF's
flaws are part of the evaluated landscape."""
import numpy as np
import pytest

from repro.baselines.tsf import DEPTH, build_index, query
from tests import helpers


def test_one_way_graphs_sample_real_in_neighbors():
    g = helpers.graph("social")
    idx = build_index(g, R_g=5, seed=0)
    assert idx.owg.shape == (5, g.n)
    for gi in range(5):
        for v in range(g.n):
            w = idx.owg[gi, v]
            if g.in_deg[v] == 0:
                assert w == -1
            else:
                assert w in g.in_neighbors(v)


def test_index_bytes_scale_with_Rg():
    g = helpers.graph("powerlaw")
    small = build_index(g, R_g=10, seed=0)
    big = build_index(g, R_g=40, seed=0)
    assert big.index_bytes == 4 * small.index_bytes


@pytest.mark.parametrize("name", ["social", "powerlaw"])
def test_rough_accuracy(name):
    g = helpers.graph(name)
    s = helpers.exact(name)
    idx = build_index(g, R_g=100, seed=0)
    got = query(g, idx, 5, R_q=20, seed=0)
    vk = np.argsort(s[5])[::-1][1:51]
    assert np.abs(got[vk] - s[5][vk]).mean() < 0.05
    assert got[5] == 1.0


def _query_per_walk(g, idx, u, *, c, R_q, seed):
    """The estimator as the module doc states it: each walk, each step,
    each node whose one-way chain stands where the walk does."""
    rng = np.random.default_rng(seed)
    scores = np.zeros(g.n)
    for gi in range(idx.R_g):
        walks = g.sqrt_c_walks(np.full(R_q, u, dtype=np.int64), 1.0, DEPTH,
                               rng)
        for walk in walks:
            for v in range(g.n):
                at = v
                for step in range(1, DEPTH + 1):
                    at = idx.owg[gi, at] if at >= 0 else -1
                    if at >= 0 and at == walk[step]:
                        scores[v] += c ** step
    scores /= idx.R_g * R_q
    scores[u] = 1.0
    return scores


@pytest.mark.parametrize("name,u", [("social", 5), ("undirected", 2)])
def test_query_matches_per_walk_definition(name, u):
    """The per-step meeting counts sum the same terms in another order, so
    they agree with the per-walk loop to float64 rounding."""
    g = helpers.graph(name)
    idx = build_index(g, R_g=6, seed=3)
    np.testing.assert_allclose(query(g, idx, u, R_q=4, seed=9),
                               _query_per_walk(g, idx, u, c=0.6, R_q=4,
                                               seed=9),
                               rtol=0, atol=1e-12)


def test_query_from_sink_is_unit_vector():
    """Walks from a node with no in-neighbour stop at once and meet no
    chain, so only ``s(u, u) = 1`` is left."""
    g = helpers.graph("chain")
    assert g.in_deg[29] == 0
    got = query(g, build_index(g, R_g=20, seed=0), 29, R_q=5, seed=0)
    expected = np.zeros(g.n)
    expected[29] = 1.0
    np.testing.assert_array_equal(got, expected)


def test_multiple_meetings_overestimate():
    """TSF counts every meeting with c^l decay and allows re-meetings:
    averaged over seeds, its estimates sit above the exact first-meeting
    values on graphs with recurrent structure."""
    g = helpers.graph("undirected")
    s = helpers.exact("undirected")
    acc = np.zeros(g.n)
    k = 4
    for seed in range(k):
        idx = build_index(g, R_g=150, seed=seed)
        acc += query(g, idx, 2, R_q=10, seed=seed + 50)
    acc /= k
    vk = np.argsort(s[2])[::-1][1:31]
    bias = (acc[vk] - s[2][vk]).mean()
    assert bias > 0  # systematic overestimation


def test_better_settings_reduce_variance():
    g = helpers.graph("social")
    s = helpers.exact("social")
    vk = np.argsort(s[5])[::-1][1:51]
    idx_small = build_index(g, R_g=10, seed=0)
    idx_big = build_index(g, R_g=200, seed=0)
    err_small = np.abs(query(g, idx_small, 5, R_q=2, seed=1)[vk]
                       - s[5][vk]).mean()
    err_big = np.abs(query(g, idx_big, 5, R_q=30, seed=1)[vk]
                     - s[5][vk]).mean()
    assert err_big < err_small
