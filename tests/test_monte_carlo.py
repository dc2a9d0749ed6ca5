"""Tests for the Monte-Carlo estimators against the exact oracle: the
pairwise estimator (baselines/monte_carlo.py) and single-source MC, which
is READS (baselines/reads.py) with depth-20 walks."""
import numpy as np
import pytest

from repro.baselines import reads
from repro.baselines.monte_carlo import pair_meeting_probability
from tests import helpers


@pytest.mark.parametrize("name", ["social", "powerlaw"])
def test_pair_mc_matches_exact(name):
    g = helpers.graph(name)
    s = helpers.exact(name)
    u = 5
    vs = np.argsort(s[u])[::-1][1:9]
    n = 60_000
    est = pair_meeting_probability(g, u, vs, n_samples=n, seed=0)
    # 6 sigma of a Bernoulli with p <= 0.5
    tol = 6 * 0.5 / np.sqrt(n)
    assert np.abs(est - s[u][vs]).max() < tol


def test_pair_mc_self_is_one():
    g = helpers.graph("social")
    est = pair_meeting_probability(g, 5, np.array([5]), n_samples=100,
                                   seed=0)
    assert est[0] == 1.0


def test_pair_mc_deterministic_in_seed():
    g = helpers.graph("powerlaw")
    vs = np.array([1, 2, 3])
    a = pair_meeting_probability(g, 5, vs, n_samples=5000, seed=3)
    b = pair_meeting_probability(g, 5, vs, n_samples=5000, seed=3)
    np.testing.assert_array_equal(a, b)


def test_pair_mc_batching_irrelevant():
    """Chunked evaluation must produce the same estimator distribution;
    with the same seed but different batch splits results may differ —
    check statistical agreement instead."""
    g = helpers.graph("social")
    s = helpers.exact("social")
    vs = np.argsort(s[5])[::-1][1:4]
    a = pair_meeting_probability(g, 5, vs, n_samples=40_000, seed=1,
                                 batch=10**9)
    b = pair_meeting_probability(g, 5, vs, n_samples=40_000, seed=2,
                                 batch=40_000)
    assert np.abs(a - b).max() < 6 * 0.5 / np.sqrt(40_000) * 2


def test_zero_pairs():
    """Nodes with no in-neighbours can never meet anything."""
    g = helpers.graph("chain")
    est = pair_meeting_probability(g, 29, np.array([0, 5]),
                                   n_samples=2000, seed=0)
    np.testing.assert_array_equal(est, [0.0, 0.0])


@pytest.mark.parametrize("name", ["social", "undirected"])
def test_single_source_mc_matches_exact(name):
    g = helpers.graph(name)
    s = helpers.exact(name)
    est = reads.query(g, reads.build_index(g, r=400, t=20, seed=0), 5)
    vk = np.argsort(s[5])[::-1][1:21]
    # Bernoulli with r=400 trials: sigma <= 0.025; allow 5 sigma.
    assert np.abs(est[vk] - s[5][vk]).max() < 0.125
    assert est[5] == 1.0


def test_single_source_mc_range():
    g = helpers.graph("powerlaw")
    est = reads.query(g, reads.build_index(g, r=50, t=20, seed=1), 3)
    assert est.min() >= 0 and est.max() <= 1
