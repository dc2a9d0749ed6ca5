"""Smoke tests for the spark-submit job entrypoints in jobs/."""
import sys
from pathlib import Path

JOBS = Path(__file__).resolve().parent.parent / "jobs"
sys.path.insert(0, str(JOBS))


def test_dataset_stats_table():
    import dataset_stats
    df = dataset_stats.table4()
    assert len(df) == 9
    assert {"analog", "n", "m", "paper_n", "paper_m"} <= set(df.columns)
    assert (df["n"] > 0).all() and (df["m"] > 0).all()


def test_scaling_tables():
    import scaling
    df = scaling.scaling_vs_m(sizes=(300, 600), n_queries=1)
    assert (df["m"].diff().dropna() > 0).all()
    assert (df[["simpush_s", "probesim_s"]] > 0).all().all()
    df2 = scaling.scaling_vs_eps("in2004_analog", eps_grid=(0.3, 0.15),
                                 n_queries=1)
    assert len(df2) == 2
    assert list(df2["eps"]) == [0.3, 0.15]


def test_eval_tradeoff_prints_both_tables(monkeypatch, capsys):
    import eval_tradeoff
    monkeypatch.setattr(sys, "argv", [
        "eval_tradeoff.py", "--methods", "simpush", "--datasets",
        "in2004_analog", "--n-queries", "1", "--settings-idx", "0"])
    eval_tradeoff.main()
    out = capsys.readouterr().out
    assert "### in2004_analog\n" in out
    assert "| method | setting | query_time_s |" in out
    assert "### in2004_analog: SimPush statistics" in out
    assert "| " + " | ".join(eval_tradeoff.SIMPUSH_COLUMNS) + " |" in out
    assert "\n| simpush | eps=0.2 |" in out
    assert "\n| eps=0.2 |" in out


def test_run_simpush_job(spark):
    import run_simpush
    from repro.graphs import datasets
    u = int(datasets.query_nodes("in2004_analog", 1)[0])
    top = run_simpush.run(spark, "in2004_analog", u, 0.15,
                          topk=5, walks_cap=20_000).toPandas()
    assert len(top) == 5
    assert top["s"].iloc[0] == 1.0  # the query node itself leads
