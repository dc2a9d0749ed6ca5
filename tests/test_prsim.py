"""Tests for the PRSim baseline (index build + query)."""
import numpy as np
import pytest

from repro.baselines.prsim import build_index, estimate_eta, query
from tests import helpers


def test_eta_estimates_never_meet_probability():
    """eta(w) must match 1 - P(two sqrt(c)-walks from w meet), which for
    w's own pair is 1 - s-like meeting mass; validate against the pair-MC
    estimator run with a different seed."""
    g = helpers.graph("social")
    eta = estimate_eta(g, n_samples=4000, seed=0)
    assert eta.min() >= 0 and eta.max() <= 1
    # Nodes with no in-neighbours never move: their walks never meet again.
    no_in = np.flatnonzero(g.in_deg == 0)
    if no_in.size:
        np.testing.assert_allclose(eta[no_in], 1.0)
    eta2 = estimate_eta(g, n_samples=4000, seed=99)
    # Two independent estimates agree within MC noise.
    assert np.abs(eta - eta2).max() < 6 * 0.5 / np.sqrt(4000) * 2


def test_index_contents():
    g = helpers.graph("powerlaw")
    idx = build_index(g, eps_a=0.1, seed=0)
    assert idx.hubs.size == int(np.ceil(np.sqrt(g.n)))
    # Hubs are the top in-degree nodes.
    top = set(np.argsort(g.in_deg)[::-1][:idx.hubs.size].tolist())
    assert set(idx.hubs.tolist()) == top
    assert idx.index_bytes > 0
    for vecs in idx.hub_vectors.values():
        for nodes, vals in vecs:
            assert (vals >= idx.theta / 2).all() or vals.size == 0


@pytest.mark.parametrize("name", ["social", "powerlaw"])
def test_query_accuracy(name):
    g = helpers.graph(name)
    s = helpers.exact(name)
    idx = build_index(g, eps_a=0.1, seed=0)
    got = query(g, idx, 5, eps_a=0.1, seed=1)
    vk = np.argsort(s[5])[::-1][1:51]
    assert np.abs(got[vk] - s[5][vk]).mean() < 0.05
    assert got[5] == 1.0


def test_finer_eps_bigger_index_better_accuracy():
    g = helpers.graph("undirected")
    s = helpers.exact("undirected")
    vk = np.argsort(s[2])[::-1][1:51]
    errs, sizes = [], []
    for eps_a in (0.4, 0.1):
        idx = build_index(g, eps_a=eps_a, seed=0)
        got = query(g, idx, 2, eps_a=eps_a, seed=1)
        errs.append(np.abs(got[vk] - s[2][vk]).mean())
        sizes.append(idx.index_bytes)
    assert sizes[1] > sizes[0]
    assert errs[1] < errs[0] + 1e-9


def test_query_deterministic_in_seed():
    g = helpers.graph("social")
    idx = build_index(g, eps_a=0.2, seed=0)
    a = query(g, idx, 7, eps_a=0.2, seed=3)
    b = query(g, idx, 7, eps_a=0.2, seed=3)
    np.testing.assert_array_equal(a, b)
