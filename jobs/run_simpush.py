"""spark-submit entrypoint: answer one single-source SimRank query with the
distributed DataFrame SimPush engine.

Usage:
    spark-submit jobs/run_simpush.py --dataset pokec_analog --u 417 \
        --eps 0.1 [--topk 20]
"""
from __future__ import annotations

import argparse

from pyspark.sql import SparkSession

from repro.core.params import DEFAULT_WALKS_CAP


def run(spark: SparkSession, dataset: str, u: int, eps: float,
        topk: int = 20, walks_cap: int | None = DEFAULT_WALKS_CAP):
    """Generate the analog dataset, run simpush_df, return top-k rows."""
    from repro.core.simpush import simpush_df
    from repro.graphs import datasets, generators

    src, dst, _spec = datasets.edge_arrays(dataset)
    edges = generators.to_spark(spark, src, dst)
    result = simpush_df(spark, edges, u, eps=eps, walks_cap=walks_cap)
    return result.orderBy(result["s"].desc()).limit(topk)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--dataset", default="pokec_analog")
    ap.add_argument("--u", type=int, default=417)
    ap.add_argument("--eps", type=float, default=0.1)
    ap.add_argument("--topk", type=int, default=20)
    args = ap.parse_args()
    spark = SparkSession.builder.appName("simpush-query").getOrCreate()
    run(spark, args.dataset, args.u, args.eps, args.topk).show()
    spark.stop()


if __name__ == "__main__":
    main()
