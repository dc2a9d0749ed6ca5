"""Tests for Source-Push (Alg. 2): the local propagation vs dense linear
algebra, G_u structural invariants, attention selection (vs its SQL
definition through the DuckDB oracle), and local/DataFrame agreement."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.params import SimPushParams
from repro.core.simpush import GraphFrames, _push, source_push_df
from repro.core.source_push import source_push
from repro.graphs import generators
from repro.oracle import assert_equivalent
from tests import helpers

SQRT_C = np.sqrt(0.6)


@pytest.mark.parametrize("name", ["powerlaw", "social", "undirected",
                                  "cycle"])
@pytest.mark.parametrize("u", [1, 7])
def test_h_levels_match_matrix_powers(name, u):
    """h^(l)(u, .) from the propagation equals the u-th row of
    (sqrt(c) W^T)^l."""
    g = helpers.graph(name)
    L = 4
    gu, _ = source_push(g, u, eps_h=0.01, L=L, sqrt_c=SQRT_C)
    ref = helpers.hitting_bruteforce(g, u, L, SQRT_C)
    for lvl in range(gu.L + 1):
        dense = np.zeros(g.n)
        dense[gu.level_nodes[lvl]] = gu.h[lvl]
        np.testing.assert_allclose(dense, ref[lvl], atol=1e-12)
    # If propagation stopped early, remaining reference levels are empty.
    for lvl in range(gu.L + 1, L + 1):
        assert ref[lvl].sum() == 0.0


@pytest.mark.parametrize("name", ["social", "powerlaw"])
def test_gu_structure(name):
    """G_u invariants: levels are exactly the nonzero-h node sets; edges
    link adjacent levels only; an expanded node's children are exactly
    its in-neighbours in G (the d_I^T = d_I property Alg. 3 relies on)."""
    g = helpers.graph(name)
    gu, _ = source_push(g, 3, eps_h=0.02, L=3, sqrt_c=SQRT_C)
    for lvl in range(gu.L):
        children, parents = helpers.gu_edge_nodes(gu, lvl)
        assert set(parents.tolist()) <= set(gu.level_nodes[lvl].tolist())
        assert set(children.tolist()) <= set(
            gu.level_nodes[lvl + 1].tolist())
        # children of each parent == its full in-neighbourhood
        pdf = pd.DataFrame({"c": children, "p": parents})
        for p, grp in pdf.groupby("p"):
            assert set(grp["c"].tolist()) == set(
                g.in_neighbors(int(p)).tolist())


def test_attention_selection_matches_definition():
    g = helpers.graph("social")
    eps_h = 0.05
    gu, att = source_push(g, 5, eps_h=eps_h, L=3, sqrt_c=SQRT_C)
    for lvl in range(1, gu.L + 1):
        expect = {int(n) for n, h in zip(gu.level_nodes[lvl], gu.h[lvl])
                  if h >= eps_h}
        got = {int(n) for n in att.nodes[att.levels == lvl]}
        assert got == expect
    assert (att.h >= eps_h).all()


def test_attention_count_bounded_by_lemma2():
    g = helpers.graph("undirected")
    p = SimPushParams(c=0.6, eps=0.1, delta=1e-4)
    gu, att = source_push(g, 2, eps_h=p.eps_h, L=p.L_star, sqrt_c=SQRT_C)
    assert att.size <= p.max_attention
    assert (att.levels <= p.L_star).all()


def test_level_mass_identity():
    """sum_w h^(l)(u, w) = sqrt(c)^l on sink-free graphs (Lemma 2 proof)."""
    g = helpers.graph("cycle")
    gu, _ = source_push(g, 0, eps_h=0.001, L=6, sqrt_c=SQRT_C)
    for lvl in range(gu.L + 1):
        assert gu.h[lvl].sum() == pytest.approx(SQRT_C ** lvl)


def test_node_on_multiple_levels():
    """A node can be attention at one level and present at another
    (the paper's w_c example)."""
    g = helpers.graph("cycle")  # deterministic: u appears every n steps...
    gu, _ = source_push(g, 0, eps_h=0.001, L=3, sqrt_c=SQRT_C)
    # On a cycle each level is a single node, all distinct here; use the
    # undirected graph for a multi-level revisit instead.
    g2 = helpers.graph("undirected")
    gu2, _ = source_push(g2, 1, eps_h=1e-6, L=4, sqrt_c=SQRT_C)
    seen: dict[int, int] = {}
    revisits = 0
    for lvl in range(1, gu2.L + 1):
        for n in gu2.level_nodes[lvl]:
            if int(n) in seen:
                revisits += 1
            seen[int(n)] = lvl
    assert revisits > 0


def test_source_with_no_in_neighbors():
    g = helpers.graph("chain")  # node 29 has no in-neighbour
    gu, att = source_push(g, 29, eps_h=0.01, L=5, sqrt_c=SQRT_C)
    assert gu.L == 0
    assert att.size == 0


def test_pos_and_h_of_helpers():
    g = helpers.graph("social")
    gu, att = source_push(g, 5, eps_h=0.02, L=3, sqrt_c=SQRT_C)
    if att.size:
        lvl = int(att.levels[0])
        node = att.nodes[:1]
        assert gu.h[lvl][gu.level_nodes[lvl] == node][0] == \
            pytest.approx(att.h[0])


@pytest.mark.parametrize("name", sorted(helpers.GRAPHS))
@pytest.mark.parametrize("u", [0, 3, 17])
def test_gu_edges_are_level_rows(name, u):
    """``gu.edges[l]`` holds level rows in ``CSRGraph.in_edges`` order:
    the parent rows are the rows ``in_edges(level_nodes[l])`` returns, and
    the child rows read back as node ids are its in-neighbours."""
    g = helpers.graph(name)
    gu, _ = source_push(g, u, eps_h=0.005, L=8, sqrt_c=SQRT_C)
    assert len(gu.edges) == gu.L
    for lvl in range(gu.L):
        child_row, parent_row = gu.edges[lvl]
        src, row = g.in_edges(gu.level_nodes[lvl])
        np.testing.assert_array_equal(parent_row, row)
        np.testing.assert_array_equal(gu.level_nodes[lvl + 1][child_row],
                                      src)


# --------------------------------------------------------------- DataFrame


def test_df_matches_local(spark):
    src, dst = generators.social(150, 4, seed=3)
    from repro.graphs.csr import from_edges
    g = from_edges(src, dst, n=150)
    edges = generators.to_spark(spark, src, dst)
    gf = GraphFrames.build(edges)
    try:
        # At eps_h = 0 every nonzero h is an attention entry, so the
        # attention set carries every level's h.
        gu, _ = source_push(g, 4, eps_h=0.0, L=3, sqrt_c=SQRT_C)
        _, every_h = source_push_df(spark, gf, 4, 0.0, 3, SQRT_C)
        assert gu.L == 3
        for lvl in range(1, gu.L + 1):
            at = every_h.at_level(lvl)
            dense = np.zeros(g.n)
            dense[every_h.nodes[at]] = every_h.h[at]
            ref = np.zeros(g.n)
            ref[gu.level_nodes[lvl]] = gu.h[lvl]
            np.testing.assert_allclose(dense, ref, atol=1e-12)
        gu, att = source_push(g, 4, eps_h=0.03, L=3, sqrt_c=SQRT_C)
        gu_edges, att_df = source_push_df(spark, gf, 4, 0.03, 3, SQRT_C)
        np.testing.assert_array_equal(att_df.levels, att.levels)
        np.testing.assert_array_equal(att_df.nodes, att.nodes)
        np.testing.assert_allclose(att_df.h, att.h, atol=1e-12)
        ge = gu_edges.toPandas()
        edges = [helpers.gu_edge_nodes(gu, lvl) for lvl in range(gu.L)]
        n_local = sum(len(np.unique(c * g.n + p)) for c, p in edges)
        assert len(ge) == n_local
        got = set(zip(ge["clevel"], ge["src"], ge["dst"]))
        expect = {(lvl, c_, p_) for lvl, (c, p) in enumerate(edges, 1)
                  for c_, p_ in zip(c.tolist(), p.tolist())}
        assert got == expect
        np.testing.assert_array_equal(ge["d_in_dst"].to_numpy(),
                                      g.in_deg[ge["dst"].to_numpy()])
    finally:
        gf.unpersist()


def test_single_push_level_oracle(spark):
    """One Source-Push level as SQL: the Catalyst plan must agree with
    DuckDB on h'(v') = sum over edges (v', v) of sqrt(c) h(v)/d_I(v)."""
    src, dst = generators.powerlaw(100, 4, seed=1)
    edges = generators.to_spark(spark, src, dst)
    h = spark.createDataFrame(pd.DataFrame({"node": [3], "h": [1.0]}))
    gf = GraphFrames.build(edges)
    try:
        pushed = (
            h.join(gf.edges_d, h["node"] == gf.edges_d["dst"])
            .select(F.col("src").alias("node"),
                    (F.lit(SQRT_C) * F.col("h") / F.col("d_in_dst"))
                    .alias("contrib"))
            .groupBy("node").agg(F.sum("contrib").alias("h1")))
        sql = f"""
        WITH d AS (SELECT dst, COUNT(*) AS deg FROM edges GROUP BY dst)
        SELECT e.src AS node, SUM({SQRT_C} * h.h / d.deg) AS h1
        FROM h JOIN edges e ON h.node = e.dst JOIN d ON d.dst = e.dst
        GROUP BY e.src
        """
        assert_equivalent(pushed, sql, edges=edges, h=h)
    finally:
        gf.unpersist()


@pytest.mark.parametrize("frm,to,keys", [
    ("dst", "src", ()),                    # Source-Push over edges_d
    ("src", "dst", ()),                    # Reverse-Push over edges_d
    ("src", "dst", ("t",)),                # Alg. 3 over one G_u level
])
def test_push_operator_oracle(spark, frm, to, keys):
    """The engine's one push operator, ``_push``, in each of its uses vs
    DuckDB SQL that derives d_I(dst) from the deduplicated raw edges."""
    src, dst = generators.powerlaw(100, 4, seed=1)
    edges = generators.to_spark(spark, src, dst)
    gf = GraphFrames.build(edges)
    try:
        if keys:
            gu_edges, _ = source_push_df(spark, gf, 3, 0.01, 3, SQRT_C)
            step = gu_edges.where(F.col("clevel") == 2)
            nodes = sorted(step.toPandas()["src"].unique().tolist())
            assert nodes
            k = len(nodes)
            state = pd.DataFrame({"node": nodes * 2,
                                  "t": [7] * k + list(range(k)),
                                  "x": np.linspace(0.1, 1.0, 2 * k)})
            table, tables = "(SELECT * FROM gu WHERE clevel = 2)", {
                "gu": gu_edges}
        else:
            step = gf.edges_d
            state = pd.DataFrame({"node": [3, 5, 17],
                                  "x": [1.0, 0.5, 0.25]})
            table, tables = "e", {}
        pushed = _push(spark.createDataFrame(state), step, frm, to, SQRT_C,
                       "x", keys=keys)
        cols = "".join(f", s.{k}" for k in keys)
        sql = f"""
        WITH e AS (SELECT DISTINCT src, dst FROM edges WHERE src <> dst),
             d AS (SELECT dst, COUNT(*) AS deg FROM e GROUP BY dst)
        SELECT g.{to} AS node{cols}, SUM({SQRT_C} * s.x / d.deg) AS x
        FROM s JOIN {table} g ON s.node = g.{frm} JOIN d ON d.dst = g.dst
        GROUP BY g.{to}{cols}
        """
        assert_equivalent(pushed, sql, edges=edges, s=state, **tables)
    finally:
        gf.unpersist()
