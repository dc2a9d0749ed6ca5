"""Tests for the Monte-Carlo level-detection stage (core/walks.py and the
DataFrame variant in core/simpush.py)."""
import numpy as np
import pytest

from repro.core import walks
from repro.core.params import SimPushParams
from repro.core.simpush import GraphFrames, detect_L_df
from repro.graphs import generators
from repro.graphs.csr import from_edges
from tests import helpers


def _params(eps=0.1, cap=20_000):
    return SimPushParams(c=0.6, eps=eps, delta=1e-4, walks_cap=cap)


def test_deterministic_in_seed():
    g = helpers.graph("social")
    p = _params()
    L1, c1 = walks.detect_L(g, 5, p, seed=9)
    L2, c2 = walks.detect_L(g, 5, p, seed=9)
    assert L1 == L2
    np.testing.assert_array_equal(c1, c2)


def test_L_bounded_by_L_star():
    g = helpers.graph("undirected")
    p = _params(eps=0.2)
    for seed in range(3):
        L, _ = walks.detect_L(g, 2, p, seed=seed)
        assert 0 <= L <= p.L_star


def test_counts_match_exact_hitting():
    """Empirical visit frequencies converge to the exact hitting
    probabilities (Hoeffding, generous tolerance). The counts are those of
    ``detect_L(..., seed=0)``'s walks, whose maxima it keeps."""
    g = helpers.graph("social")
    p = _params(eps=0.2, cap=120_000)
    counts = g.level_visits(5, p.n_walks, p.sqrt_c, p.L_star,
                            np.random.default_rng(0))
    ref = helpers.hitting_bruteforce(g, 5, 3, p.sqrt_c)
    for lvl in (1, 2, 3):
        emp = counts[lvl] / p.n_walks
        assert np.abs(emp - ref[lvl]).max() < 0.01


def test_no_in_neighbors_gives_L0():
    g = helpers.graph("chain")
    L, level_max = walks.detect_L(g, 29, _params(), seed=0)
    assert L == 0
    assert level_max.sum() == 0


@pytest.mark.parametrize("name", ["social", "undirected", "star", "chain"])
@pytest.mark.parametrize("cap", [20_000, 450_000])
def test_level_max_is_the_max_of_level_visits(name, cap):
    """``detect_L`` keeps each level's largest count of the walks that
    ``level_visits`` counts, from the same draws; 450 k walks span three
    walker batches."""
    g = helpers.graph(name)
    p = _params(eps=0.05, cap=cap)
    for u, seed in ((0, 0), (g.n - 1, 3)):
        _, level_max = walks.detect_L(g, u, p, seed=seed)
        counts = g.level_visits(u, p.n_walks, p.sqrt_c, p.L_star,
                                np.random.default_rng(seed))
        assert level_max.dtype == counts.dtype
        np.testing.assert_array_equal(level_max, counts.max(axis=1))


def test_cycle_levels_detected_to_threshold_depth():
    """On a cycle, h^(l) is concentrated on one node (= sqrt(c)^l), so L
    should be the deepest level where sqrt(c)^l >= eps_h/2-ish."""
    g = helpers.graph("cycle")
    p = _params(eps=0.1, cap=100_000)
    L, _ = walks.detect_L(g, 0, p, seed=1)
    sc = p.sqrt_c
    # The single visited node at level l collects ~ n_walks * sqrt(c)^l
    # visits; threshold is n_walks*eps_h/2.
    analytic = int(np.floor(np.log(p.eps_h / 2) / np.log(sc)))
    assert abs(L - min(analytic, p.L_star)) <= 1


def test_tighter_eps_detects_deeper_levels():
    g = helpers.graph("cycle")
    L_loose, _ = walks.detect_L(g, 0, _params(eps=0.3, cap=50_000), seed=2)
    L_tight, _ = walks.detect_L(g, 0, _params(eps=0.05, cap=50_000), seed=2)
    assert L_tight >= L_loose


def test_detect_L_df_close_to_local(spark):
    """The DataFrame walker loop detects an L within 1 of the local
    engine's (both are MC estimates of the same quantity)."""
    src, dst = generators.social(120, 4, seed=7)
    g = from_edges(src, dst, n=120)
    p = _params(eps=0.25, cap=4_000)
    L_local, _ = walks.detect_L(g, 3, p, seed=0)
    edges = generators.to_spark(spark, src, dst)
    gf = GraphFrames.build(edges)
    try:
        L_df = detect_L_df(spark, gf, 3, p, seed=0)
    finally:
        gf.unpersist()
    assert abs(L_df - L_local) <= 1
