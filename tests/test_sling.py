"""Tests for the SLING baseline: index contents, the paper's
index-size-explosion behaviour, and query accuracy."""
import numpy as np
import pytest

from repro.baselines.sling import MAX_INDEX_N, build_index, query
from tests import helpers


def test_index_levels_are_hitting_probabilities():
    g = helpers.graph("social")
    idx = build_index(g, eps_a=0.2, seed=0)
    ref = helpers.wt_matrix(g) * np.sqrt(0.6)
    # Level 1 must equal sqrt(c) * W^T thresholded.
    h1 = ref.copy()
    h1[h1 < 0.2 * (1 - np.sqrt(0.6)) / 4] = 0.0
    np.testing.assert_allclose(idx.levels[0], h1, atol=1e-12)


@pytest.mark.parametrize("name", ["social", "powerlaw"])
def test_query_accuracy(name):
    g = helpers.graph(name)
    s = helpers.exact(name)
    idx = build_index(g, eps_a=0.1, seed=0)
    got = query(g, idx, 5)
    vk = np.argsort(s[5])[::-1][1:51]
    assert np.abs(got[vk] - s[5][vk]).mean() < 0.05
    assert got[5] == 1.0


def test_index_larger_than_graph_and_grows():
    """The paper: SLING's index is over an order of magnitude larger than
    G itself, and grows as eps_a shrinks."""
    g = helpers.graph("undirected")
    sizes = []
    for eps_a in (0.4, 0.1, 0.05):
        sizes.append(build_index(g, eps_a=eps_a, seed=0).index_bytes)
    assert sizes[0] < sizes[1] < sizes[2]
    assert sizes[2] > 2 * g.nbytes


def test_rejects_large_graphs():
    class Fake:
        n = MAX_INDEX_N + 1
    with pytest.raises(MemoryError):
        build_index(Fake())  # type: ignore[arg-type]


def test_query_error_shrinks_with_eps():
    g = helpers.graph("social")
    s = helpers.exact("social")
    vk = np.argsort(s[9])[::-1][1:51]
    errs = []
    for eps_a in (0.5, 0.1):
        idx = build_index(g, eps_a=eps_a, seed=0)
        errs.append(np.abs(query(g, idx, 9)[vk] - s[9][vk]).mean())
    assert errs[1] < errs[0]
