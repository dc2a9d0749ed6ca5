"""SimPush as a distributed Spark DataFrame dataflow (the repro directive's
"GraphX/DataFrame iterative push-based algorithm").

Every O(m)-touching stage is an iterative Catalyst plan over the edge
DataFrame ``edges_d = (src, dst, d_in_dst)``:

* ``detect_L_df``      — batched sqrt(c)-walkers advanced by seeded ``rand()``
                         joins against an in-adjacency-array DataFrame,
                         run only where the driver's push budget runs out;
* ``source_push_df``   — Alg. 2's level-wise residue push along in-edges;
* ``hitting_df``       — Alg. 3's per-level aggregation inside ``G_u``;
* ``reverse_push_df``  — Alg. 5's thresholded push along out-edges.

The last three run every level through one operator, ``_push``: join the
state on the edge column ``frm``, sum ``sqrt(c) * x / d_in_dst`` per edge
column ``to``. The weight's ``d_I`` is always the in-degree of the edge's
``dst``, so one operator serves all three directions:

* Source-Push pushes ``dst -> src`` over ``edges_d``;
* Alg. 3 pushes ``src -> dst`` over one level of ``G_u`` (``d_I^T = d_I``
  inside ``G_u``, note (ii) after Eq. 12);
* Reverse-Push pushes ``src -> dst`` over ``edges_d``.

``G_u`` is the edge table ``(src, dst, d_in_dst, clevel)``: the rows of
``edges_d`` whose ``dst`` is in the level-``clevel - 1`` frontier, so
``src`` is a level-``clevel`` child. Source-Push collects the attention
entries once, into the driver's ``AttentionSet`` (``A_u`` in (level, node)
order), and Algs. 3-5 index by it: Alg. 3's state rows are
``(node, t, val)``, keyed by the target's index ``t`` in ``A_u``, and
Reverse-Push's residue frame is ``(A_u.levels, A_u.nodes, r)``.

``simpush_df`` runs these through the shared Alg.-1 driver (``core.alg1``),
which also runs Alg. 4 (gamma recurrences over the |A| x |A| attention
table, O(1/eps^3) scalar work) on the driver after collecting that small
table (DESIGN.md §2), exactly as for the local engine. Alg. 3 and
Reverse-Push each send their input to Spark once; Alg. 3 collects once.

Each push level ends in ``localCheckpoint`` so lineage stays flat
across the L <= L* = O(log 1/eps) levels.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql import types as T

from repro.core import alg1
from repro.core.params import DEFAULT_WALKS_CAP, SimPushParams
from repro.core.source_push import AttentionSet, Level


@dataclass
class GraphFrames:
    """Per-graph DataFrames shared by all stages of one query. The stages
    read only ``edges_d`` and ``in_adj``, so only those two are cached."""

    edges: DataFrame       # (src, dst)
    in_deg: DataFrame      # (node, d_in)
    edges_d: DataFrame     # (src, dst, d_in_dst) — edges + dst in-degree
    in_adj: DataFrame      # (node, nbrs: array<long>, d_in) — for walks

    @classmethod
    def build(cls, edges: DataFrame) -> "GraphFrames":
        """Self-loops and duplicate edges are dropped, as in
        ``csr.from_edges`` (SimRank's definition assumes a simple graph).
        ``src`` and ``dst`` must be integer columns, else ``ValueError``."""
        for col in ("src", "dst"):
            dtype = edges.schema[col].dataType
            if not isinstance(dtype, T.IntegralType):
                raise ValueError(f"edge column {col!r} is "
                                 f"{dtype.simpleString()}, not an integer")
        edges = (edges.select(F.col("src").cast("long"),
                              F.col("dst").cast("long"))
                 .where(F.col("src") != F.col("dst")).distinct())
        in_adj = (edges.groupBy(F.col("dst").alias("node"))
                  .agg(F.collect_list("src").alias("nbrs"),
                       F.count("*").alias("d_in")).cache())
        in_deg = in_adj.select("node", "d_in")
        edges_d = in_adj.select(F.explode("nbrs").alias("src"),
                                F.col("node").alias("dst"),
                                F.col("d_in").alias("d_in_dst")).cache()
        return cls(edges=edges, in_deg=in_deg, edges_d=edges_d, in_adj=in_adj)

    def unpersist(self) -> None:
        self.edges_d.unpersist()
        self.in_adj.unpersist()


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


def _push(state: DataFrame, edges: DataFrame, frm: str, to: str,
          sqrt_c: float, col: str, keys: tuple[str, ...] = ()) -> DataFrame:
    """One push level, shared by Source-Push, Alg. 3 and Reverse-Push:
    ``state`` rows ``(node, *keys, col)`` move along ``edges`` from column
    ``frm`` to column ``to`` and are summed per ``(to, *keys)``, each
    scaled by ``sqrt(c) / d_in_dst``. Returns ``(node, *keys, col)``,
    not yet computed; the caller checkpoints it."""
    return (state.join(edges, state["node"] == edges[frm])
            .groupBy(F.col(to).alias("node"), *keys)
            .agg(F.sum(F.lit(sqrt_c) * F.col(col) / F.col("d_in_dst"))
                 .alias(col)))


def _union(parts: list[DataFrame], spark: SparkSession, schema: str
           ) -> DataFrame:
    """Union by column name; an empty ``schema`` frame when ``parts`` is."""
    if not parts:
        return spark.createDataFrame([], schema=schema)
    return functools.reduce(DataFrame.unionByName, parts)


def source_push_df(spark: SparkSession, gf: GraphFrames, u: int,
                   eps_h: float, L: int, sqrt_c: float,
                   go: Callable[[Level], bool] | None = None
                   ) -> tuple[DataFrame, AttentionSet]:
    """Alg. 2 lines 9–21. Returns ``(gu_edges, attention)``, as
    ``source_push`` returns ``(G_u, A_u)``, and stops where it stops (at
    ``L``, at a dry frontier or at ``go``'s first False):

    * ``gu_edges``  — DataFrame ``(src, dst, d_in_dst, clevel)``: the
      ``G_u`` edges from level-``clevel`` children ``src`` to their
      level-``clevel - 1`` parents ``dst``;
    * ``attention`` — the entries with ``h >= eps_h`` at levels 1..L,
      collected in (level, node) order.

    Each level is one Spark action, which checkpoints the level and sums
    its ``h`` and, joined with ``in_deg``, its nodes' in-degrees for
    ``go``'s :class:`Level`.
    """
    d_in = gf.in_deg.where(F.col("node") == int(u)).collect()
    level = Level(1, 1.0, d_in[0]["d_in"] if d_in else 0)
    h = spark.createDataFrame(pd.DataFrame({"node": [int(u)], "h": [1.0]}))
    gu_parts: list[DataFrame] = []
    att_parts: list[DataFrame] = []
    while (go is None or go(level)) and len(gu_parts) < L and level.in_edges:
        lvl = len(gu_parts) + 1
        gu_parts.append(
            gf.edges_d.join(h, gf.edges_d["dst"] == h["node"], "left_semi")
            .withColumn("clevel", F.lit(lvl)))
        h = _push(h, gf.edges_d, "dst", "src", sqrt_c, "h"
                  ).localCheckpoint(eager=False)
        nodes, mass, in_edges = (h.join(gf.in_deg, "node", "left")
                                 .agg(F.count("*"), F.sum("h"),
                                      F.sum("d_in")).collect()[0])
        level = Level(nodes, mass or 0.0, in_edges or 0)
        att_parts.append(h.where(F.col("h") >= eps_h)
                         .withColumn("level", F.lit(lvl)))
    # The union stacks one shuffle's worth of partitions per level;
    # coalesce before checkpointing so later per-level filters do not
    # schedule hundreds of near-empty tasks.
    gu_edges = (_union(gu_parts, spark,
                       "src long, dst long, d_in_dst long, clevel int")
                .coalesce(16).localCheckpoint(eager=True))
    att = _union(att_parts, spark, "node long, h double, level int"
                 ).toPandas().sort_values(["level", "node"])
    return gu_edges, AttentionSet(
        levels=att["level"].to_numpy(np.int64),
        nodes=att["node"].to_numpy(np.int64), h=att["h"].to_numpy(np.float64))


def hitting_df(spark: SparkSession, gu_edges: DataFrame, att: AttentionSet,
               L: int, sqrt_c: float) -> np.ndarray:
    """Alg. 3 over the ``G_u`` edge DataFrame. State rows are
    ``(node, t, val)``: the hitting probability from ``node`` (at the
    current loop level) to the attention entry ``t`` of ``att``. Returns
    the ``|A| x |A|`` matrix ``hAA`` in ``att``'s order (as
    ``hitting.attention_hitting_matrix``).
    """
    hAA = np.zeros((att.size, att.size))
    targets = np.flatnonzero(att.levels >= 2)
    if targets.size == 0:
        return hAA
    seeds = spark.createDataFrame(pd.DataFrame({
        "node": att.nodes[targets], "t": targets,
        "level": att.levels[targets], "val": np.ones(targets.size),
    }))

    def seeds_at(lvl: int) -> DataFrame:
        return seeds.where(F.col("level") == lvl).drop("level")

    recorded: list[DataFrame] = []
    state = seeds_at(L)
    for lvl in range(L - 1, 0, -1):
        # Push up one level along G_u edges (children at lvl + 1 -> parents).
        cur = _push(state, gu_edges.where(F.col("clevel") == lvl + 1),
                    "src", "dst", sqrt_c, "val", keys=("t",)
                    ).localCheckpoint(eager=True)
        # Record h~ rows whose source is an attention entry at this level
        # (every pushed row targets a strictly deeper level).
        src_here = att.nodes[att.at_level(lvl)]
        if src_here.size:
            recorded.append(
                cur.where(F.col("node").isin(src_here.tolist()))
                .withColumn("slevel", F.lit(lvl)))
        state = cur.unionByName(seeds_at(lvl))
    rows = _union(recorded, spark,
                  "node long, t long, val double, slevel int").toPandas()
    # (level, node - lo) as one int64 key, ascending in att's order.
    lo = int(att.nodes.min())
    span = int(att.nodes.max()) - lo + 1
    src = np.searchsorted(att.levels * span + att.nodes - lo,
                          rows["slevel"].to_numpy(np.int64) * span
                          + rows["node"].to_numpy(np.int64) - lo)
    hAA[src, rows["t"].to_numpy(np.int64)] = rows["val"].to_numpy()
    return hAA


def reverse_push_df(spark: SparkSession, gf: GraphFrames, att: AttentionSet,
                    r: np.ndarray, u: int, eps_h: float, sqrt_c: float
                    ) -> DataFrame:
    """Alg. 5: thresholded residue push along out-edges, level L down to 1,
    from the residues ``r`` (one per entry of ``att``). Returns the
    estimate DataFrame ``(v, s)``."""
    residues = spark.createDataFrame(
        pd.DataFrame({"level": att.levels, "node": att.nodes, "r": r}),
        schema="level long, node long, r double")
    res: DataFrame | None = None
    for lvl in range(int(att.levels.max(initial=0)), 0, -1):
        seeds = residues.where(F.col("level") == lvl).select("node", "r")
        res = seeds if res is None else (
            seeds.unionByName(res).groupBy("node").agg(F.sum("r").alias("r")))
        res = _push(res.where(F.lit(sqrt_c) * F.col("r") >= eps_h),
                    gf.edges_d, "src", "dst", sqrt_c, "r"
                    ).localCheckpoint(eager=True)
    diag = spark.createDataFrame(pd.DataFrame({"node": [int(u)], "r": [1.0]}))
    s = diag if res is None else (
        res.where(F.col("node") != int(u)).unionByName(diag))
    return s.select(F.col("node").alias("v"), F.col("r").alias("s"))


def simpush_df(spark: SparkSession, edges: DataFrame, u: int, *,
               c: float = 0.6, eps: float = 0.1, delta: float = 1e-4,
               seed: int = 0, walks_cap: int | None = DEFAULT_WALKS_CAP,
               L_override: int | None = None,
               gf: GraphFrames | None = None) -> DataFrame:
    """Alg. 1 end-to-end on the DataFrame engine. Returns ``(v, s)`` with
    nonzero estimates only (absent nodes have ``s~ = 0``)."""
    params = SimPushParams(c=c, eps=eps, delta=delta, walks_cap=walks_cap)
    sc = params.sqrt_c
    own_gf = gf is None
    if own_gf:
        gf = GraphFrames.build(edges)
    try:
        return alg1.run_alg1(
            params, u, None, L_override,
            lambda: detect_L_df(spark, gf, u, params, seed=seed),
            lambda L, go: source_push_df(spark, gf, u, params.eps_h, L, sc,
                                         go),
            lambda gu, L: gu,  # hitting_df reads levels 2..L only
            lambda gu, att, L: hitting_df(spark, gu, att, L, sc),
            lambda att, r: reverse_push_df(spark, gf, att, r, u,
                                           params.eps_h, sc),
        ).scores
    finally:
        if own_gf:
            gf.unpersist()
