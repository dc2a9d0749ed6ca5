"""Tests for Reverse-Push (Alg. 5): exact linearity when untruncated,
truncation monotonicity, the combined push of a seed and a pushed residue,
and the DataFrame variant
(including a DuckDB oracle check of one push level)."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.reverse_push import reverse_push, seed_residues
from repro.core.simpush import GraphFrames, reverse_push_df
from repro.core.source_push import AttentionSet
from repro.graphs import generators
from repro.graphs.csr import from_edges
from repro.oracle import assert_equivalent
from tests import helpers

SQRT_C = np.sqrt(0.6)


def _att(levels, nodes, h):
    return AttentionSet(levels=np.array(levels, dtype=np.int64),
                        nodes=np.array(nodes, dtype=np.int64),
                        h=np.array(h, dtype=np.float64))


def test_seed_residues_places_and_merges():
    att = _att([1, 2, 2], [4, 4, 9], [0.5, 0.25, 0.125])
    gamma = np.array([1.0, 0.8, 0.5])
    r = seed_residues(att, gamma)
    assert r[0] == pytest.approx(0.5)
    assert r[1] == pytest.approx(0.2)
    assert r[2] == pytest.approx(0.0625)
    assert r[att.at_level(1)].sum() == pytest.approx(0.5)


def test_seed_and_pushed_residue_push_together():
    """The combined push: node 1's level-1 seed and the residue node 2
    pushes onto it from level 2 are each below the threshold, but their
    sum passes, so node 1 pushes their sum on to node 3."""
    g = from_edges(np.array([2, 1]), np.array([1, 3]), n=4)
    att = _att([1, 2], [1, 2], [1.0, 1.0])
    r = np.array([0.1, 0.15])
    eps_h = 0.1
    pushed = SQRT_C * r[1]  # node 2 -> node 1, d_I(1) = 1
    assert SQRT_C * r[1] >= eps_h
    assert max(SQRT_C * r[0], SQRT_C * pushed) < eps_h
    assert SQRT_C * (r[0] + pushed) >= eps_h
    got = reverse_push(g, att, r, 0, eps_h=eps_h, sqrt_c=SQRT_C)
    assert got[3] == pytest.approx(SQRT_C * (r[0] + pushed))
    np.testing.assert_array_equal(got, helpers.reverse_push_reference(
        g, att, r, 0, eps_h, SQRT_C))


@pytest.mark.parametrize("name", ["social", "powerlaw", "undirected"])
def test_untruncated_equals_linear_reference(name):
    """With eps_h = 0, s~(u, v) = sum_l r^(l) . (sqrt(c) W^T)^l applied
    from the residue side — checked against dense matrix powers."""
    g = helpers.graph(name)
    wt = SQRT_C * helpers.wt_matrix(g)
    rng = np.random.default_rng(0)
    L = 3
    residues = {}
    expect = np.zeros(g.n)
    for lvl in range(1, L + 1):
        r = rng.random(g.n) * (rng.random(g.n) < 0.05)
        residues[lvl] = r.copy()
    # Reference: push each level's seed down lvl times: wt applied from
    # the left (column action) lvl times, plus cascading merges are linear
    # so the total is sum over levels of wt^lvl @ r_lvl.
    for lvl, r in residues.items():
        v = r.copy()
        for _ in range(lvl):
            v = wt @ v
        expect += v
    u = 0
    nodes = [np.flatnonzero(residues[lvl]) for lvl in range(1, L + 1)]
    r = np.concatenate([residues[lvl][nodes[lvl - 1]]
                        for lvl in range(1, L + 1)])
    att = _att(np.repeat(np.arange(1, L + 1), [a.size for a in nodes]),
               np.concatenate(nodes), r)
    got = reverse_push(g, att, r, u, eps_h=0.0, sqrt_c=SQRT_C)
    expect_final = expect.copy()
    expect_final[u] = 1.0
    np.testing.assert_allclose(got, expect_final, atol=1e-12)


def test_truncation_only_loses_mass():
    g = helpers.graph("social")
    att = _att([1, 2], [5, 17], [0.4, 0.2])
    gamma = np.ones(2)
    r = seed_residues(att, gamma)
    full = reverse_push(g, att, r, 0, eps_h=0.0, sqrt_c=SQRT_C)
    trunc = reverse_push(g, att, r, 0, eps_h=0.05, sqrt_c=SQRT_C)
    assert (trunc <= full + 1e-12).all()
    coarser = reverse_push(g, att, r, 0, eps_h=0.2, sqrt_c=SQRT_C)
    assert (coarser <= trunc + 1e-12).all()


def test_per_level_truncation_loss_bound():
    """Lemma 4: the mass lost at each level is < eps_h per unpushed node,
    and total loss is bounded by 3 eps_h sqrt(c)/(1-sqrt(c)) when the
    residues are hitting probabilities (coarse sanity check on the real
    pipeline seeds)."""
    g = helpers.graph("undirected")
    from repro.core.hitting import attention_hitting_matrix
    from repro.core.last_meeting import gammas
    from repro.core.source_push import source_push
    gu, att = source_push(g, 2, eps_h=0.01, L=4, sqrt_c=SQRT_C)
    hAA = attention_hitting_matrix(g, gu, att, SQRT_C)
    gam = gammas(hAA, att, gu.L)
    eps_h = 0.01
    r = seed_residues(att, gam)
    full = reverse_push(g, att, r, 2, eps_h=0.0, sqrt_c=SQRT_C)
    trunc = reverse_push(g, att, r, 2, eps_h=eps_h, sqrt_c=SQRT_C)
    bound = 3 * eps_h * SQRT_C / (1 - SQRT_C)
    assert (full - trunc).max() <= bound + 1e-12


def test_query_node_forced_to_one():
    g = helpers.graph("chain")
    got = reverse_push(g, _att([1], [12], [0.5]), np.zeros(1), 13,
                       eps_h=0.1, sqrt_c=SQRT_C)
    assert got[13] == 1.0
    assert got.sum() == 1.0


def test_empty_residues():
    g = helpers.graph("chain")
    got = reverse_push(g, _att([], [], []), np.zeros(0), 5, eps_h=0.1,
                       sqrt_c=SQRT_C)
    assert got[5] == 1.0 and got.sum() == 1.0


# --------------------------------------------------------------- DataFrame


def test_df_matches_local(spark):
    src, dst = generators.social(120, 4, seed=12)
    g = from_edges(src, dst, n=120)
    att = _att([1, 1, 2, 3], [5, 9, 30, 44], [0.4, 0.3, 0.2, 0.15])
    gamma = np.array([1.0, 0.9, 0.7, 1.0])
    r = seed_residues(att, gamma)
    local = reverse_push(g, att, r, 5, eps_h=0.01, sqrt_c=SQRT_C)
    edges = generators.to_spark(spark, src, dst)
    gf = GraphFrames.build(edges)
    try:
        pdf = reverse_push_df(spark, gf, att, r, 5, 0.01,
                              SQRT_C).toPandas()
    finally:
        gf.unpersist()
    dense = np.zeros(g.n)
    dense[pdf["v"].to_numpy()] = pdf["s"].to_numpy()
    np.testing.assert_allclose(dense, local, atol=1e-12)


def test_single_reverse_level_oracle(spark):
    """One Reverse-Push level vs DuckDB SQL: out-edge push with 1/d_I(dst)
    weighting."""
    src, dst = generators.powerlaw(80, 4, seed=3)
    edges = generators.to_spark(spark, src, dst)
    r = spark.createDataFrame(pd.DataFrame(
        {"node": [2, 7, 11], "r": [0.5, 0.25, 0.125]}))
    gf = GraphFrames.build(edges)
    try:
        pushed = (
            r.join(gf.edges_d, r["node"] == gf.edges_d["src"])
            .select(F.col("dst").alias("node"),
                    (F.lit(SQRT_C) * F.col("r") / F.col("d_in_dst"))
                    .alias("contrib"))
            .groupBy("node").agg(F.sum("contrib").alias("rnext")))
        sql = f"""
        WITH d AS (SELECT dst, COUNT(*) AS deg FROM edges GROUP BY dst)
        SELECT e.dst AS node, SUM({SQRT_C} * r.r / d.deg) AS rnext
        FROM r JOIN edges e ON r.node = e.src JOIN d ON d.dst = e.dst
        GROUP BY e.dst
        """
        assert_equivalent(pushed, sql, edges=edges, r=r)
    finally:
        gf.unpersist()
