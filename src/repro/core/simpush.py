"""SimPush as a distributed Spark DataFrame dataflow (the repro directive's
"GraphX/DataFrame iterative push-based algorithm").

Every O(m)-touching stage is an iterative Catalyst plan over the edge
DataFrame ``(src, dst)``:

* ``detect_L_df``      — batched sqrt(c)-walkers advanced by seeded ``rand()``
                         joins against an in-adjacency-array DataFrame;
* ``source_push_df``   — Alg. 2's level-wise residue push along in-edges
                         (join on ``dst`` + groupBy-sum on ``src``);
* ``hitting_df``       — Alg. 3's per-level aggregation inside ``G_u``;
* ``reverse_push_df``  — Alg. 5's thresholded push along out-edges.

``simpush_df`` runs these through the shared Alg.-1 driver (``core.alg1``),
which also runs Alg. 4 (gamma recurrences over the |A| x |A| attention
table, O(1/eps^3) scalar work) on the driver after collecting that small
table (DESIGN.md §2), exactly as for the local engine.

Each loop iteration ends in ``localCheckpoint`` so lineage stays flat
across the L <= L* = O(log 1/eps) levels.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core import alg1
from repro.core.params import SimPushParams
from repro.core.source_push import AttentionSet


@dataclass
class GraphFrames:
    """Cached per-graph DataFrames shared by all stages of one query."""

    edges: DataFrame       # (src, dst)
    in_deg: DataFrame      # (node, d_in)
    edges_d: DataFrame     # (src, dst, d_in_dst) — edges + dst in-degree
    in_adj: DataFrame      # (node, nbrs: array<long>, d_in) — for walks

    @classmethod
    def build(cls, edges: DataFrame) -> "GraphFrames":
        """Self-loops and duplicate edges are dropped, as in
        ``csr.from_edges`` (SimRank's definition assumes a simple graph)."""
        edges = (edges.select(F.col("src").cast("long"),
                              F.col("dst").cast("long"))
                 .where(F.col("src") != F.col("dst")).distinct().cache())
        in_adj = (edges.groupBy(F.col("dst").alias("node"))
                  .agg(F.collect_list("src").alias("nbrs"),
                       F.count("*").alias("d_in")).cache())
        in_deg = in_adj.select("node", "d_in").cache()
        edges_d = (edges.join(in_deg.withColumnRenamed("node", "dst"), "dst")
                   .select("src", "dst", F.col("d_in").alias("d_in_dst"))
                   .cache())
        return cls(edges=edges, in_deg=in_deg, edges_d=edges_d, in_adj=in_adj)

    def unpersist(self) -> None:
        for df in (self.edges, self.in_deg, self.edges_d, self.in_adj):
            df.unpersist()


def detect_L_df(spark: SparkSession, gf: GraphFrames, u: int,
                params: SimPushParams, seed: int = 0) -> int:
    """Alg. 2 lines 1–8 as a walker DataFrame: ``n_walks`` walkers advance
    one level per iteration (survive w.p. sqrt(c), jump to a uniform random
    in-neighbour); a level qualifies while some node's visitor count clears
    ``params.visit_threshold``. Returns L capped at L*."""
    sc = params.sqrt_c
    walkers = spark.range(params.n_walks).select(
        F.col("id").alias("wid"), F.lit(int(u)).alias("node"))
    L = 0
    for step in range(1, params.L_star + 1):
        walkers = (
            walkers.where(F.rand(seed * 1000 + step) < sc)
            .join(gf.in_adj, "node")
            .select(
                "wid",
                F.element_at(
                    "nbrs",
                    (F.floor(F.rand(seed * 1000 + 500 + step) * F.col("d_in"))
                     + 1).cast("int"),
                ).alias("node"),
            )
            .localCheckpoint(eager=True)
        )
        row = (walkers.groupBy("node").count()
               .agg(F.max("count").alias("mx")).collect()[0])
        if row["mx"] is None:
            break
        if row["mx"] >= params.visit_threshold:
            L = step
    return L


def source_push_df(spark: SparkSession, gf: GraphFrames, u: int,
                   eps_h: float, L: int, sqrt_c: float
                   ) -> tuple[list[DataFrame], DataFrame, DataFrame]:
    """Alg. 2 lines 9–21. Returns ``(h_levels, gu_edges, attention)``:

    * ``h_levels[l]`` — DataFrame ``(node, h)`` of level-``l`` hitting
      probabilities from ``u`` (nonzero rows only);
    * ``gu_edges``    — DataFrame ``(clevel, child, parent)``: ``G_u`` edges
      from level-``clevel`` children down to level-``clevel - 1`` parents;
    * ``attention``   — DataFrame ``(level, node, h)`` with ``h >= eps_h``,
      levels 1..L.
    """
    h = spark.createDataFrame(pd.DataFrame({"node": [int(u)], "h": [1.0]}))
    h_levels = [h]
    gu_parts: list[DataFrame] = []
    for lvl in range(L):
        pushed = (
            h.join(gf.edges_d, h["node"] == gf.edges_d["dst"])
            .select(
                F.col("src").alias("child"),
                F.col("dst").alias("parent"),
                (F.lit(sqrt_c) * F.col("h") / F.col("d_in_dst")).alias("contrib"),
            )
        )
        h_next = (pushed.groupBy(F.col("child").alias("node"))
                  .agg(F.sum("contrib").alias("h"))
                  .localCheckpoint(eager=True))
        if h_next.rdd.isEmpty():
            break
        gu_parts.append(
            pushed.select("child", "parent").distinct()
            .withColumn("clevel", F.lit(lvl + 1)))
        h_levels.append(h_next)
        h = h_next
    if gu_parts:
        gu_edges = gu_parts[0]
        for p in gu_parts[1:]:
            gu_edges = gu_edges.unionByName(p)
        # The union stacks one shuffle's worth of partitions per level;
        # coalesce before checkpointing so later per-level filters do not
        # schedule hundreds of near-empty tasks.
        gu_edges = gu_edges.coalesce(16).localCheckpoint(eager=True)
    else:
        gu_edges = spark.createDataFrame(
            [], schema="child long, parent long, clevel long")
    att_parts = [
        h_levels[lvl].where(F.col("h") >= eps_h).withColumn("level", F.lit(lvl))
        for lvl in range(1, len(h_levels))
    ]
    if att_parts:
        attention = att_parts[0]
        for p in att_parts[1:]:
            attention = attention.unionByName(p)
    else:
        attention = spark.createDataFrame(
            [], schema="node long, h double, level long")
    return h_levels, gu_edges, attention.select("level", "node", "h")


def hitting_df(spark: SparkSession, gf: GraphFrames, gu_edges: DataFrame,
               attention_pdf: pd.DataFrame, L: int, sqrt_c: float
               ) -> np.ndarray:
    """Alg. 3 over the ``G_u`` edge DataFrame. State rows are
    ``(node, tlevel, tnode, val)``: the hitting probability from ``node``
    (at the current loop level) to attention target ``(tlevel, tnode)``.
    Returns the ``|A| x |A|`` matrix ``hAA`` whose rows and columns follow
    ``attention_pdf``'s row order (as ``hitting.attention_hitting_matrix``).
    """
    targets = attention_pdf[attention_pdf["level"] >= 2]
    out_parts: list[pd.DataFrame] = []
    cur: DataFrame | None = None
    for lvl in range(L, 0, -1):
        seeds_pdf = targets[targets["level"] == lvl]
        if len(seeds_pdf):
            seeds = spark.createDataFrame(pd.DataFrame({
                "node": seeds_pdf["node"].to_numpy(),
                "tlevel": seeds_pdf["level"].to_numpy(),
                "tnode": seeds_pdf["node"].to_numpy(),
                "val": np.ones(len(seeds_pdf)),
            }))
            cur = seeds if cur is None else cur.unionByName(seeds)
        if cur is None:
            continue
        # Record h~ rows whose source is an attention entry at this level
        # (targets strictly deeper — same-level rows are the trivial seeds).
        src_here = attention_pdf[attention_pdf["level"] == lvl]
        if len(src_here):
            rows = (cur.where(F.col("node").isin(
                        [int(x) for x in src_here["node"]])
                        & (F.col("tlevel") > lvl))
                    .toPandas())
            if len(rows):
                rows["slevel"] = lvl
                out_parts.append(rows)
        if lvl == 1:
            break
        # Push up one level along G_u edges (children at lvl -> parents).
        step = gu_edges.where(F.col("clevel") == lvl)
        cur = (
            cur.join(step, cur["node"] == step["child"])
            .join(gf.in_deg.withColumnRenamed("node", "parent"), "parent")
            .select(
                F.col("parent").alias("node"), "tlevel", "tnode",
                (F.lit(sqrt_c) * F.col("val") / F.col("d_in")).alias("val"))
            .groupBy("node", "tlevel", "tnode")
            .agg(F.sum("val").alias("val"))
            .localCheckpoint(eager=True)
        )
    hAA = np.zeros((len(attention_pdf), len(attention_pdf)))
    if out_parts:
        rows = pd.concat(out_parts, ignore_index=True)
        index = pd.MultiIndex.from_frame(attention_pdf[["level", "node"]])
        src = index.get_indexer(pd.MultiIndex.from_frame(
            rows[["slevel", "node"]]))
        tgt = index.get_indexer(pd.MultiIndex.from_frame(
            rows[["tlevel", "tnode"]]))
        hAA[src, tgt] = rows["val"].to_numpy()
    return hAA


def reverse_push_df(spark: SparkSession, gf: GraphFrames,
                    residues_pdf: pd.DataFrame, u: int, eps_h: float,
                    sqrt_c: float, L: int) -> DataFrame:
    """Alg. 5: thresholded residue push along out-edges, level L down to 1.
    ``residues_pdf`` holds the initial attention residues
    ``(level, node, r)``. Returns the estimate DataFrame ``(v, s)``."""
    by_level: dict[int, DataFrame | None] = {lvl: None for lvl in range(1, L + 1)}
    for lvl, grp in residues_pdf.groupby("level"):
        by_level[int(lvl)] = spark.createDataFrame(
            pd.DataFrame({"node": grp["node"].to_numpy(),
                          "r": grp["r"].to_numpy()}))
    s_parts: list[DataFrame] = []
    for lvl in range(L, 0, -1):
        r = by_level.get(lvl)
        if r is None:
            continue
        active = r.where(F.lit(sqrt_c) * F.col("r") >= eps_h)
        pushed = (
            active.join(gf.edges_d, active["node"] == gf.edges_d["src"])
            .select(F.col("dst").alias("node"),
                    (F.lit(sqrt_c) * F.col("r") / F.col("d_in_dst"))
                    .alias("contrib"))
            .groupBy("node").agg(F.sum("contrib").alias("r"))
            .localCheckpoint(eager=True)
        )
        if lvl > 1:
            prev = by_level.get(lvl - 1)
            merged = pushed if prev is None else (
                prev.unionByName(pushed).groupBy("node")
                .agg(F.sum("r").alias("r")).localCheckpoint(eager=True))
            by_level[lvl - 1] = merged
        else:
            s_parts.append(pushed.withColumnRenamed("r", "s"))
    if s_parts:
        s = s_parts[0]
    else:
        s = spark.createDataFrame([], schema="node long, s double")
    diag = spark.createDataFrame(
        pd.DataFrame({"node": [int(u)], "s": [1.0]}))
    return (s.where(F.col("node") != int(u)).unionByName(diag)
            .select(F.col("node").alias("v"), "s"))


def simpush_df(spark: SparkSession, edges: DataFrame, u: int, *,
               c: float = 0.6, eps: float = 0.1, delta: float = 1e-4,
               seed: int = 0, walks_cap: int | None = 100_000,
               L_override: int | None = None,
               gf: GraphFrames | None = None) -> DataFrame:
    """Alg. 1 end-to-end on the DataFrame engine. Returns ``(v, s)`` with
    nonzero estimates only (absent nodes have ``s~ = 0``)."""
    params = SimPushParams(c=c, eps=eps, delta=delta, walks_cap=walks_cap)
    sc = params.sqrt_c
    own_gf = gf is None
    if own_gf:
        gf = GraphFrames.build(edges)

    def push(L: int) -> tuple[tuple[DataFrame, pd.DataFrame], AttentionSet]:
        _, gu_edges, attention = source_push_df(
            spark, gf, u, params.eps_h, L, sc)
        att_pdf = attention.toPandas().sort_values(
            ["level", "node"]).reset_index(drop=True)
        att = AttentionSet(levels=att_pdf["level"].to_numpy(np.int64),
                           nodes=att_pdf["node"].to_numpy(np.int64),
                           h=att_pdf["h"].to_numpy(np.float64))
        return (gu_edges, att_pdf), att

    try:
        return alg1.run_alg1(
            params, u, None, L_override,
            lambda: detect_L_df(spark, gf, u, params, seed=seed),
            push,
            lambda gu, att, L: hitting_df(spark, gf, *gu, L, sc),
            lambda att, gamma, L: reverse_push_df(
                spark, gf, pd.DataFrame({"level": att.levels,
                                         "node": att.nodes,
                                         "r": att.h * gamma}),
                u, params.eps_h, sc, L),
        ).scores
    finally:
        if own_gf:
            gf.unpersist()
