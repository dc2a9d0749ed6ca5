"""The DataFrame engine (``core.simpush``), timed stage by stage.

A workload with ``df_eps`` runs, in its traced run only, one warm-up and one
traced ``simpush_df`` query on the run's first query node. Spark is local
with 4 worker threads and the test suite's session settings (``conftest.py``).
Its scratch files go under the run's work directory.

Why not a gated workload of its own: a query costs 4-19 s depending on the
node (20-112 Spark jobs), so a run of a few dozen seconds holds one or two
queries and its latency changes with the seed by far more than any bound.
"""
from __future__ import annotations

import os
import shlex
import subprocess
import time

import numpy as np

from repro.core import last_meeting, simpush
from repro.graphs import generators

from perfbench.tracer import SparkProbe, Tracer, patched

SHUFFLE_PARTITIONS = "64"   # conftest.py's default
STAGES = ["detect_L", "source_push", "hitting", "reverse_push", "collect"]


def start_spark(work_dir: str):
    tmp = os.path.join(work_dir, "jvm-tmp")
    os.makedirs(tmp, exist_ok=True)
    java_opts = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    # Keep every file the JVMs write (shuffle, checkpoints, temp files)
    # inside the run's work directory; the launcher JVM reads its own opts.
    os.environ["SPARK_LOCAL_DIRS"] = os.path.join(work_dir, "spark")
    os.environ["SPARK_LAUNCHER_OPTS"] = (
        f"{java_opts} {os.environ.get('SPARK_LAUNCHER_OPTS', '')}".strip())
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join([
        "--master local[4]",
        f"--driver-memory {os.environ.get('SPARK_DRIVER_MEM', '2g')}",
        "--conf spark.driver.host=127.0.0.1",
        "--conf spark.ui.enabled=false",
        "--conf spark.ui.showConsoleProgress=false",
        f"--driver-java-options {shlex.quote(java_opts)}",
        "pyspark-shell",
    ])
    from pyspark.sql import SparkSession
    return (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", SHUFFLE_PARTITIONS)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.sql.warehouse.dir",
                os.path.join(work_dir, "warehouse"))
        .getOrCreate()
    )


def stop_spark(spark) -> None:
    """Stop the session and wait for the JVM it started to exit."""
    from pyspark import SparkContext
    gateway = SparkContext._gateway
    proc = getattr(gateway, "proc", None)
    spark.stop()
    if gateway is not None:
        gateway.shutdown()
    SparkContext._gateway = SparkContext._jvm = None
    if proc is not None:
        if proc.stdin is not None:
            proc.stdin.close()
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def _dense(pdf, n: int) -> np.ndarray:
    scores = np.zeros(n)
    scores[pdf["v"].to_numpy(np.int64)] = pdf["s"].to_numpy(np.float64)
    return scores


def traced_query(src: np.ndarray, dst: np.ndarray, n: int, u: int,
                 eps: float, work_dir: str, last_meeting_count
                 ) -> tuple[dict[str, float], list[np.ndarray], Tracer]:
    """Build the GraphFrames, run one warm-up query and one traced query on
    ``u``. Returns per-layer metrics, both answers (dense) and the tracer."""
    spark = start_spark(work_dir)
    try:
        t0 = time.perf_counter()
        edges = generators.to_spark(spark, src, dst)
        gf = simpush.GraphFrames.build(edges)
        for df in (gf.edges, gf.in_deg, gf.edges_d, gf.in_adj):
            df.count()
        gf_build_s = time.perf_counter() - t0

        def query(collect):
            return collect(simpush.simpush_df(spark, edges, u, eps=eps, gf=gf))

        warm = query(_collect)
        tracer = Tracer(probe=SparkProbe(spark.sparkContext))
        targets = [(simpush, f"{name}_df", f"df.{name}", None)
                   for name in STAGES[:-1]]
        targets.append((last_meeting, "gammas", "last_meeting",
                        last_meeting_count))
        with patched(tracer, targets):
            pdf = tracer.call("df.query", query,
                              tracer.wrap("df.collect", _collect))
    finally:
        stop_spark(spark)
    table = tracer.layer_table("df.query")
    metrics: dict[str, float] = {"df.gf_build_s": gf_build_s}
    for name in STAGES:
        key = f"df.{name}"
        spans = [s for s in tracer.spans if s.name == key]
        metrics[f"{key}.ms"] = table.get(key, 0.0) * 1e3
        for c in ("jobs", "stages", "tasks"):
            metrics[f"{key}.{c}"] = sum(s.counters.get(c, 0) for s in spans)
    root = tracer.roots("df.query")[0]
    metrics["df.driver.self_ms"] = table.get("df.query", 0.0) * 1e3
    metrics["df.failed_tasks"] = root.counters.get("failed_tasks", 0)
    return metrics, [_dense(warm, n), _dense(pdf, n)], tracer


def _collect(df):
    """The answer DataFrame is lazy; collecting it runs the last stage."""
    return df.toPandas()
