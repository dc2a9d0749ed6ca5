"""End-to-end SimPush tests: Theorem 1's error bound against the exact
oracle, underestimation, eps/seed behaviour, pinned seeded statistics,
degenerate inputs, and local/DataFrame engine agreement."""
import dataclasses

import numpy as np
import pytest

from repro.core import (hitting, last_meeting, reverse_push, simpush,
                        source_push, walks)
from repro.core.params import SimPushParams
from repro.core.simpush import GraphFrames, simpush_df
from repro.core.simpush_local import simpush_local
from repro.graphs import datasets, generators
from repro.graphs.csr import from_edges
from tests import helpers

GRAPHS = ["powerlaw", "social", "undirected", "erdos"]


@pytest.mark.parametrize("name", GRAPHS)
@pytest.mark.parametrize("eps", [0.2, 0.1, 0.05])
@pytest.mark.parametrize("u", [3, 50])
def test_theorem1_bound_deterministic_L(name, eps, u):
    """With L = L* the bound s - s~ <= eps is deterministic (Lemma 4)."""
    g = helpers.graph(name)
    s = helpers.exact(name)
    p = SimPushParams(c=0.6, eps=eps, delta=1e-4)
    res = simpush_local(g, u, eps=eps, L_override=p.L_star)
    diff = s[u] - res.scores
    assert diff.max() <= eps + 1e-12
    assert diff.min() >= -1e-9  # strict underestimate


@pytest.mark.parametrize("name", GRAPHS)
@pytest.mark.parametrize("seed", [0, 1])
def test_theorem1_bound_with_mc_stage(name, seed):
    """Full pipeline including MC level detection (probabilistic bound;
    seeds fixed)."""
    g = helpers.graph(name)
    s = helpers.exact(name)
    for u in (3, 50):
        res = simpush_local(g, u, eps=0.1, seed=seed)
        diff = s[u] - res.scores
        assert diff.max() <= 0.1 + 1e-12
        assert diff.min() >= -1e-9


@pytest.mark.parametrize("name", ["social", "undirected"])
def test_error_shrinks_with_eps(name):
    g = helpers.graph(name)
    s = helpers.exact(name)
    errs = []
    for eps in (0.4, 0.1, 0.025):
        res = simpush_local(g, 3, eps=eps, seed=0)
        errs.append((s[3] - res.scores).max())
    assert errs[2] <= errs[0] + 1e-12
    assert errs[2] < 0.025


def test_deterministic_given_seed():
    g = helpers.graph("social")
    r1 = simpush_local(g, 5, eps=0.1, seed=42)
    r2 = simpush_local(g, 5, eps=0.1, seed=42)
    np.testing.assert_array_equal(r1.scores, r2.scores)
    assert r1.L == r2.L


def test_self_score_is_one():
    g = helpers.graph("powerlaw")
    res = simpush_local(g, 10, eps=0.1, seed=0)
    assert res.scores[10] == 1.0


def test_query_without_in_neighbors():
    g = helpers.graph("chain")
    res = simpush_local(g, 29, eps=0.1, seed=0)
    expect = np.zeros(g.n)
    expect[29] = 1.0
    np.testing.assert_array_equal(res.scores, expect)
    assert res.n_attention == 0


def test_isolated_node():
    src = np.array([0, 1])
    dst = np.array([1, 0])
    g = from_edges(src, dst, n=3)  # node 2 isolated
    res = simpush_local(g, 2, eps=0.1, seed=0)
    assert res.scores[2] == 1.0
    assert res.scores.sum() == 1.0


def test_two_cycle_scores_zero():
    """a <-> b has s(a,b) = 0 exactly; SimPush must not invent mass."""
    g = from_edges(np.array([0, 1]), np.array([1, 0]), n=2)
    res = simpush_local(g, 0, eps=0.05, seed=0)
    assert res.scores[1] == pytest.approx(0.0, abs=1e-9)


def test_shared_parent_pair():
    """p -> a, p -> b: s(a, b) = c = 0.6, reachable at level 1."""
    g = from_edges(np.array([2, 2]), np.array([0, 1]), n=3)
    res = simpush_local(g, 0, eps=0.05, seed=0)
    assert res.scores[1] == pytest.approx(0.6, abs=0.05)


def test_stage_timings_populated():
    """The MC stage runs, and takes time, on the ``mc`` path only; this
    query takes the push path by default and the ``mc`` path at a 50-walk
    cap."""
    g = helpers.graph("social")
    for walks_cap, path in ((None, "push"), (50, "mc")):
        res = simpush_local(g, 5, eps=0.1, seed=0, walks_cap=walks_cap)
        assert res.path == path
        assert (res.t_mc > 0) == (path == "mc") and res.t_source_push > 0
        assert res.t_total >= res.t_mc
        assert res.gu_nodes > 0 and res.gu_edges > 0


def test_attention_count_within_lemma2():
    g = helpers.graph("undirected")
    for eps in (0.2, 0.05):
        p = SimPushParams(c=0.6, eps=eps, delta=1e-4)
        res = simpush_local(g, 2, eps=eps, seed=0)
        assert res.n_attention <= p.max_attention


def test_walks_cap_still_within_bound():
    g = helpers.graph("social")
    s = helpers.exact("social")
    res = simpush_local(g, 5, eps=0.1, seed=0, walks_cap=20_000)
    assert (s[5] - res.scores).max() <= 0.1 + 1e-12


@pytest.mark.parametrize("eps", [20.0, 50.0])
@pytest.mark.parametrize("L_override", [None, 3])
def test_huge_eps_returns_unit_vector(eps, L_override):
    """At eps_h >= 1 no level below u can hold an attention node, so L* is
    0 on the MC and the L_override path alike; e_u is within any eps >= 1
    of SimRank, which lies in [0, 1]."""
    g = helpers.graph("social")
    res = simpush_local(g, 5, eps=eps, seed=0, L_override=L_override)
    assert res.L == 0 and res.n_attention == 0
    np.testing.assert_array_equal(res.scores, np.eye(g.n)[5])


@pytest.mark.parametrize("u,L_override", [
    pytest.param(u, L, id=name) for u, L, name in (
        (-1, None, "-1"), (200, None, "200"), (10_000, None, "10000"),
        (1.5, None, "1.5"), (3, 2.5, "L_override=2.5"),
        (True, None, "True"), (3, True, "L_override=True"))])
def test_query_node_out_of_range_rejected(u, L_override):
    """Also a query node or depth that is not an integer: node 1.5 used to
    fail with an IndexError and ``L_override=2.5`` with a TypeError, and
    node ``True`` answered for node 1."""
    g = helpers.graph("social")
    with pytest.raises(ValueError):
        simpush_local(g, u, eps=0.1, seed=0, L_override=L_override)


def test_negative_L_override_rejected():
    """A negative depth is rejected: clamped by ``min(L_override, L*)`` it
    would answer ``e_u``, outside the Theorem-1 bound."""
    g = helpers.graph("social")
    with pytest.raises(ValueError, match="L_override"):
        simpush_local(g, 11, eps=0.1, L_override=-2)


def test_trim_to_deepest_attention_level_is_exact():
    """Algs. 3-5 on G_u cut at the deepest attention level give exactly
    what they give on the whole G_u (the driver's trim)."""
    trimmed = 0
    for name in helpers.GRAPHS:
        g = helpers.graph(name)
        for eps in (0.2, 0.05):
            p = SimPushParams(c=0.6, eps=eps, delta=1e-4)
            for u in (0, 3, g.n - 1):
                gu, att = source_push.source_push(g, u, p.eps_h, p.L_star,
                                                  p.sqrt_c)
                L = int(att.levels.max(initial=0))
                trimmed += gu.L > L
                outs = []
                for depth, graph in ((gu.L, gu), (L, gu.upto(L))):
                    hAA = hitting.attention_hitting_matrix(g, graph, att,
                                                           p.sqrt_c)
                    gamma = last_meeting.gammas(hAA, att, depth)
                    s = reverse_push.reverse_push(
                        g, att, reverse_push.seed_residues(att, gamma), u,
                        p.eps_h, p.sqrt_c)
                    outs.append((hAA, gamma, s))
                for full, cut in zip(*outs):
                    np.testing.assert_array_equal(full, cut)
    assert trimmed  # some fixture queries reach below their attention


#: ``(u, L, |A_u|, G_u nodes, G_u edges)`` of seeded SimPush (seed 0, the
#: default walk cap, eps = 0.025) on each analog's first five query nodes.
#: All ten take the push path: ``L`` is where the mass bound (in2004) or
#: ``L*`` (pokec) stopped Source-Push, and no seed moves it.
PINNED = {
    "in2004_analog": [(227, 7, 56, 116, 117), (820, 6, 11, 12, 11),
                      (1097, 1, 1, 2, 1), (1060, 2, 3, 4, 3),
                      (432, 6, 17, 18, 18)],
    "pokec_analog": [(417, 23, 94, 33928, 520952),
                     (735, 23, 111, 35205, 541182),
                     (446, 23, 82, 35204, 541197),
                     (1432, 23, 57, 35199, 539976),
                     (1424, 23, 95, 33971, 522309)],
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_seeded_statistics_pinned(name):
    g = datasets.load(name)
    got = []
    for u in datasets.query_nodes(name, 5):
        r = simpush_local(g, int(u), eps=0.025, seed=0)
        assert r.path == "push"
        got.append((int(u), r.L, r.n_attention, r.gu_nodes, r.gu_edges))
    assert got == PINNED[name]


def _push_path_matches_L_star(g, u, eps):
    """Default arguments take the push path and answer exactly as
    ``L_override=L*`` does, for any seed."""
    p = SimPushParams(c=0.6, eps=eps, delta=1e-4)
    res = simpush_local(g, u, eps=eps, seed=0)
    ref = simpush_local(g, u, eps=eps, L_override=p.L_star)
    assert (res.path, ref.path) == ("push", "override")
    assert np.array_equal(res.scores, ref.scores)
    assert np.array_equal(res.scores,
                          simpush_local(g, u, eps=eps, seed=7).scores)


@pytest.mark.parametrize("name", sorted(helpers.GRAPHS))
def test_push_path_is_the_L_star_answer(name):
    g = helpers.graph(name)
    for eps in (0.2, 0.05):
        for u in (0, 3, g.n - 1):
            _push_path_matches_L_star(g, u, eps)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_push_path_is_the_L_star_answer_on_analogs(name):
    g = datasets.load(name)
    for u in datasets.query_nodes(name, 5):
        _push_path_matches_L_star(g, int(u), 0.025)


#: Fixtures whose queries 3 and 50 outgrow the push budgets of these walk
#: caps at eps = 0.1. The MC stage's ``L`` is deeper than the levels pushed
#: at cap 200 and no deeper at cap 3000, so both ways of reaching ``L`` run.
FALLBACK_GRAPHS = ["social", "undirected", "erdos"]
FALLBACK_CAPS = [200, 3000]


def _budget_depth(g, u, p):
    """The level at which the push budget runs out: the first whose
    in-edges take the running total past ``n_walks * sqrt(c) / (1 -
    sqrt(c))``."""
    budget = p.n_walks * p.sqrt_c / (1 - p.sqrt_c)
    gu, _ = source_push.source_push(g, u, p.eps_h, p.L_star, p.sqrt_c)
    total = np.cumsum([g.in_deg[nodes].sum() for nodes in gu.level_nodes])
    assert total[-1] > budget
    return int(np.argmax(total > budget))


@pytest.mark.parametrize("name", FALLBACK_GRAPHS)
@pytest.mark.parametrize("walks_cap", FALLBACK_CAPS)
def test_fallback_is_the_push_to_detected_L(name, walks_cap):
    """A walk cap whose push budget ``G_u`` outgrows sends the query to the
    MC stage. The levels already pushed are kept, so the answer, ``L`` and
    ``G_u`` are exactly those of pushing to the deeper of the budget's
    level and ``walks.detect_L``'s depth; where the MC depth is the deeper,
    that is the MC pipeline's answer, ``L_override=detect_L(...)``."""
    g = helpers.graph(name)
    p = SimPushParams(c=0.6, eps=0.1, delta=1e-4, walks_cap=walks_cap)
    for u in (3, 50):
        res = simpush_local(g, u, eps=0.1, seed=1, walks_cap=walks_cap)
        assert res.path == "mc"
        depth, L_mc = _budget_depth(g, u, p), walks.detect_L(g, u, p,
                                                              seed=1)[0]
        assert (L_mc > depth) == (walks_cap == 200)
        ref = simpush_local(g, u, eps=0.1, walks_cap=walks_cap,
                            L_override=max(depth, L_mc))
        assert np.array_equal(res.scores, ref.scores)
        assert ((res.L, res.n_attention, res.gu_nodes, res.gu_edges)
                == (ref.L, ref.n_attention, ref.gu_nodes, ref.gu_edges))


@pytest.mark.parametrize("name", FALLBACK_GRAPHS)
@pytest.mark.parametrize("walks_cap", FALLBACK_CAPS)
def test_fallback_pushes_within_budget(monkeypatch, name, walks_cap):
    """The edges Source-Push gathers before the MC stage runs stay within
    ``n_walks * sqrt(c) / (1 - sqrt(c))``, and the next level would have
    taken them past it."""
    g = helpers.graph(name)
    p = SimPushParams(c=0.6, eps=0.1, delta=1e-4, walks_cap=walks_cap)
    budget = p.n_walks * p.sqrt_c / (1 - p.sqrt_c)
    real_push, real_detect = source_push.source_push, walks.detect_L
    pushed, seen = [], []  # each level's in-edges; (pushed, next) at MC

    def push(g, u, eps_h, L, sqrt_c, go):
        def counting(level):
            pushed.append(level.in_edges)
            return go(level)  # runs the MC stage when the budget runs out
        return real_push(g, u, eps_h, L, sqrt_c, counting)

    def detect(*args, **kwargs):
        seen.append((sum(pushed[:-1]), pushed[-1]))
        return real_detect(*args, **kwargs)

    monkeypatch.setattr(source_push, "source_push", push)
    monkeypatch.setattr(walks, "detect_L", detect)
    for u in (3, 50):
        pushed[:], seen[:] = [], []
        assert simpush_local(g, u, eps=0.1, walks_cap=walks_cap).path == "mc"
        (before, nxt), = seen
        assert before <= budget < before + nxt


# --------------------------------------------------------------- DataFrame


def test_graph_frames_cache_only_what_stages_read(spark):
    """``build`` caches the two frames the stages read, ``edges_d`` and
    ``in_adj``, and ``unpersist`` releases them."""
    gf = GraphFrames.build(generators.to_spark(spark, np.array([1, 2]),
                                               np.array([0, 0])))
    names = [f.name for f in dataclasses.fields(gf)]
    cached = {n for n in names if getattr(gf, n).is_cached}
    gf.unpersist()
    assert names == ["edges", "in_deg", "edges_d", "in_adj"]
    assert cached == {"edges_d", "in_adj"}
    assert not any(getattr(gf, n).is_cached for n in names)


def test_df_engine_matches_local_on_non_simple_graph(spark):
    """Duplicate edges and self-loops are dropped by both engines."""
    src = np.array([3, 3, 4, 3, 4, 1])
    dst = np.array([1, 1, 1, 2, 2, 1])
    g = from_edges(src, dst, n=5)
    local = simpush_local(g, 1, eps=0.05, L_override=5)
    pdf = simpush_df(spark, generators.to_spark(spark, src, dst), 1,
                     eps=0.05, L_override=5).toPandas()
    dense = np.zeros(g.n)
    dense[pdf["v"].to_numpy()] = pdf["s"].to_numpy()
    np.testing.assert_allclose(dense, local.scores, atol=1e-9)


def test_df_engine_rejects_negative_query_node(spark):
    """Also a query node or depth that is not an integer: ``u=1.5`` and
    ``u=True`` used to answer for node 1."""
    edges = generators.to_spark(spark, np.array([1]), np.array([0]))
    for u, L_override in ((-1, 3), (1.5, 3), (1, 2.5), (True, 3), (1, True)):
        with pytest.raises(ValueError):
            simpush_df(spark, edges, u, eps=0.1, L_override=L_override)


def test_df_engine_rejects_negative_L_override(spark):
    edges = generators.to_spark(spark, np.array([1]), np.array([0]))
    with pytest.raises(ValueError, match="L_override"):
        simpush_df(spark, edges, 0, eps=0.1, L_override=-2)


@pytest.mark.parametrize("u,eps", [(4, 0.1), (40, 0.05)])
def test_df_engine_matches_local(spark, u, eps):
    src, dst = generators.social(150, 4, seed=13)
    g = from_edges(src, dst, n=150)
    edges = generators.to_spark(spark, src, dst)
    local = simpush_local(g, u, eps=eps, L_override=5)
    pdf = simpush_df(spark, edges, u, eps=eps, L_override=5).toPandas()
    dense = np.zeros(g.n)
    dense[pdf["v"].to_numpy()] = pdf["s"].to_numpy()
    np.testing.assert_allclose(dense, local.scores, atol=1e-9)


def test_df_engine_matches_local_on_negative_node_ids(spark):
    """Every node but u = 4 relabelled -(v + 1): Alg. 3's (level, node) key
    must stay ascending in A_u's order for negative ids too."""
    u = 4
    src, dst = generators.social(150, 4, seed=13)
    g = from_edges(src, dst, n=150)
    edges = generators.to_spark(spark, *(np.where(ids == u, u, -(ids + 1))
                                         for ids in (src, dst)))
    pdf = simpush_df(spark, edges, u, eps=0.1, L_override=5).toPandas()
    v = pdf["v"].to_numpy()
    dense = np.zeros(g.n)
    dense[np.where(v == u, u, -v - 1)] = pdf["s"].to_numpy()
    local = simpush_local(g, u, eps=0.1, L_override=5)
    np.testing.assert_allclose(dense, local.scores, atol=1e-9)


def test_df_engine_rejects_non_integer_edge_ids(spark):
    """A cast to long read the edge 2.7 -> 0.0 as (2, 0) and a string id
    as null, which the self-loop filter then dropped."""
    for schema, rows in (("src double, dst double", [(2.7, 0.0), (3.2, 0.0)]),
                         ("src string, dst string", [("a", "0"), ("1", "0")])):
        edges = spark.createDataFrame(rows, schema)
        with pytest.raises(ValueError, match="not an integer"):
            simpush_df(spark, edges, 0, eps=0.1, L_override=3)


def test_df_engine_with_mc_detection(spark, monkeypatch):
    """Full DataFrame pipeline on the MC path, forced by a small walk cap:
    the walker-DataFrame MC stage runs once and the result must satisfy
    the Theorem-1 bound vs the exact oracle."""
    src, dst = generators.social(120, 4, seed=14)
    g = from_edges(src, dst, n=120)
    from repro.baselines.exact import exact_simrank
    s = exact_simrank(g)
    edges = generators.to_spark(spark, src, dst)
    calls = []
    real = simpush.detect_L_df
    monkeypatch.setattr(simpush, "detect_L_df",
                        lambda *a, **k: calls.append(1) or real(*a, **k))
    pdf = simpush_df(spark, edges, 7, eps=0.2, walks_cap=100,
                     seed=0).toPandas()
    assert calls == [1]
    dense = np.zeros(g.n)
    dense[pdf["v"].to_numpy()] = pdf["s"].to_numpy()
    diff = s[7] - dense
    assert diff.max() <= 0.2 + 1e-12
    assert diff.min() >= -1e-9


@pytest.mark.parametrize("u,eps", [(4, 0.1), (40, 0.05)])
def test_df_engine_matches_local_on_push_path(spark, monkeypatch, u, eps):
    """With no ``L_override`` both engines take the push path, which runs
    no walks, so their answers agree to 1e-9 as at a fixed depth."""
    src, dst = generators.social(150, 4, seed=13)
    g = from_edges(src, dst, n=150)
    monkeypatch.setattr(simpush, "detect_L_df", None)  # must not run
    local = simpush_local(g, u, eps=eps)
    pdf = simpush_df(spark, generators.to_spark(spark, src, dst), u,
                     eps=eps).toPandas()
    assert local.path == "push"
    dense = np.zeros(g.n)
    dense[pdf["v"].to_numpy()] = pdf["s"].to_numpy()
    np.testing.assert_allclose(dense, local.scores, atol=1e-9)


def test_df_engine_no_attention(spark):
    src = np.arange(1, 30)
    dst = np.arange(0, 29)
    edges = generators.to_spark(spark, src, dst)
    pdf = simpush_df(spark, edges, 29, eps=0.1, L_override=3).toPandas()
    assert len(pdf) == 1
    assert pdf["v"].iloc[0] == 29 and pdf["s"].iloc[0] == 1.0
