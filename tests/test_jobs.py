"""Smoke tests for the spark-submit job entrypoints in jobs/."""
import sys
from pathlib import Path

import numpy as np
import pytest

JOBS = Path(__file__).resolve().parent.parent / "jobs"
sys.path.insert(0, str(JOBS))


def test_dataset_stats_table():
    import dataset_stats
    df = dataset_stats.table4()
    assert len(df) == 9
    assert {"analog", "n", "m", "paper_n", "paper_m"} <= set(df.columns)
    assert (df["n"] > 0).all() and (df["m"] > 0).all()


def _direct_means(dataset, eps, n_queries, seed, **kw):
    """Mean L, |A_u| and G_u edges of SimPush over the first ``n_queries``
    query nodes, query ``i`` seeded ``seed + i``."""
    from repro.core.simpush_local import simpush_local
    from repro.graphs import datasets
    g = datasets.load(dataset)
    res = [simpush_local(g, int(u), eps=eps, seed=seed + i, **kw)
           for i, u in enumerate(datasets.query_nodes(dataset, n_queries))]
    return [float(np.mean([getattr(r, k) for r in res]))
            for k in ("L", "n_attention", "gu_edges")]


def test_stage_breakdown_table():
    import stage_breakdown
    df = stage_breakdown.stage_table(["in2004_analog"], eps_grid=(0.2,),
                                     n_queries=1, walks_cap=20_000)
    assert len(df) == 1
    assert df["t_source_push_ms"].iloc[0] > 0


def test_stage_breakdown_keeps_seed_and_walks_cap():
    """At this cap L depends on both the seed and the cap (4 vs 5 for the
    first query at the default cap)."""
    import stage_breakdown
    df = stage_breakdown.stage_table(["in2004_analog"], eps_grid=(0.1,),
                                     n_queries=2, walks_cap=2000, seed=0)
    L, att, _ = _direct_means("in2004_analog", 0.1, 2, 0, walks_cap=2000)
    assert df["avg_L"].iloc[0] == L
    assert df["avg_attention"].iloc[0] == att


def test_scaling_tables():
    import scaling
    df = scaling.scaling_vs_m(sizes=(300, 600), n_queries=1)
    assert (df["m"].diff().dropna() > 0).all()
    assert (df[["simpush_s", "probesim_s"]] > 0).all().all()
    df2 = scaling.scaling_vs_eps("in2004_analog", eps_grid=(0.3, 0.15),
                                 n_queries=1)
    assert len(df2) == 2
    assert list(df2["eps"]) == [0.3, 0.15]


def test_report_L():
    import eval_tradeoff
    out = eval_tradeoff.report_L("in2004_analog", eps=0.1, n_queries=2)
    assert out["avg_L"] >= 1
    assert out["avg_attention"] >= 1


def test_report_L_keeps_seed_and_default_cap():
    import eval_tradeoff
    out = eval_tradeoff.report_L("dblp_analog", eps=0.1, n_queries=2, seed=3)
    assert [out["avg_L"], out["avg_attention"], out["avg_gu_edges"]] == \
        _direct_means("dblp_analog", 0.1, 2, 3)


def test_run_simpush_job(spark):
    import run_simpush
    from repro.graphs import datasets
    u = int(datasets.query_nodes("in2004_analog", 1)[0])
    top = run_simpush.run(spark, "in2004_analog", u, 0.15,
                          topk=5, walks_cap=20_000).toPandas()
    assert len(top) == 5
    assert top["s"].iloc[0] == 1.0  # the query node itself leads
