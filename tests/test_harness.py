"""Integration tests for the tradeoff harness (eval/harness.py) and the
headline shape claims of the paper on a small analog."""
import time

import numpy as np
import pytest

from repro.baselines import tsf
from repro.core.simpush_local import simpush_local
from repro.eval import harness
from repro.graphs import datasets


@pytest.fixture(scope="module")
def mini_sweep():
    """One small sweep shared by all assertions in this module."""
    return harness.sweep(
        "in2004_analog",
        methods=["simpush", "probesim", "prsim", "topsim"],
        settings_idx=[2], n_queries=2)


def test_sweep_schema(mini_sweep):
    expect = {"dataset", "method", "setting", "query_time_s",
              "build_time_s", "index_MB", "peak_MB", "avg_error@50",
              "precision@50", "n_queries", "avg_L", "avg_attention",
              "avg_gu_edges", "t_mc_ms", "t_source_push_ms", "t_gamma_ms",
              "t_reverse_push_ms", "excluded"}
    assert set(mini_sweep.columns) == expect
    assert len(mini_sweep) == 4
    assert (mini_sweep["excluded"] == "").all()


def test_all_methods_reasonably_accurate(mini_sweep):
    assert (mini_sweep["avg_error@50"] < 0.02).all()
    assert (mini_sweep["precision@50"] > 0.7).all()


def test_simpush_stats_reported(mini_sweep):
    row = mini_sweep[mini_sweep["method"] == "simpush"].iloc[0]
    assert row["avg_L"] >= 1
    assert row["avg_attention"] >= 1
    assert row["avg_gu_edges"] >= 1 and row["t_source_push_ms"] > 0
    other = mini_sweep[mini_sweep["method"] != "simpush"]
    assert other[["avg_gu_edges", "t_mc_ms"]].isna().all().all()


def _direct_means(dataset, eps, n_queries, path, first_seed=0, **kw):
    """Mean L, |A_u| and G_u edges of SimPush over the dataset's
    ``n_queries`` query nodes, query ``i`` seeded ``first_seed + i``; every
    query must take ``path``."""
    g = datasets.load(dataset)
    res = [simpush_local(g, int(u), eps=eps, seed=first_seed + i, **kw)
           for i, u in enumerate(datasets.query_nodes(dataset, n_queries))]
    assert {r.path for r in res} == {path}
    return [float(np.mean([getattr(r, k) for r in res]))
            for k in ("L", "n_attention", "gu_edges")]


def test_simpush_row_is_the_mean_of_direct_queries():
    """The sweep caps the walks at 2 M. The cap matters on twitter at
    eps = 0.05: its push budget lets all three queries take the push path
    (L = 20), where a 500 k cap sends them to the MC stage (L = 8-9)."""
    eps = harness.SETTINGS["simpush"][2]
    row = harness.sweep("twitter_analog", methods=["simpush"],
                        settings_idx=[2], n_queries=3).iloc[0]
    assert row["setting"] == f"eps={eps}"
    assert [row["avg_L"], row["avg_attention"], row["avg_gu_edges"]] == \
        _direct_means("twitter_analog", eps, 3, "push", walks_cap=2_000_000)


def test_simpush_stats_follow_each_querys_seed():
    """``run_setting`` seeds query ``i`` with ``i``. The seed reaches the
    MC stage only; pokec at eps = 0.2 with a 3000-walk cap takes the MC
    path, where seeds ``i`` and ``i + 1`` give different means."""
    eps = harness.SETTINGS["simpush"][0]
    g = datasets.load("pokec_analog")
    rec = harness.run_setting(g, "simpush", eps,
                              datasets.query_nodes("pokec_analog", 3),
                              walks_cap=3000)
    got = [rec.stats[k] for k in ("L", "n_attention", "gu_edges")]
    assert got == _direct_means("pokec_analog", eps, 3, "mc",
                                walks_cap=3000)
    assert got != _direct_means("pokec_analog", eps, 3, "mc", first_seed=1,
                                walks_cap=3000)


def test_index_methods_report_build(mini_sweep):
    row = mini_sweep[mini_sweep["method"] == "prsim"].iloc[0]
    assert row["build_time_s"] > 0
    assert row["index_MB"] > 0
    row2 = mini_sweep[mini_sweep["method"] == "probesim"].iloc[0]
    assert row2["build_time_s"] == 0


def test_build_time_covers_the_whole_build_call(monkeypatch):
    """The harness times each build around the ``build_index`` call, so a
    build that takes 0.2 s is reported as taking at least 0.2 s."""
    real = tsf.build_index

    def slow_build(*args, **kwargs):
        time.sleep(0.2)
        return real(*args, **kwargs)

    monkeypatch.setattr(tsf, "build_index", slow_build)
    g = datasets.load("in2004_analog")
    queries = datasets.query_nodes("in2004_analog", 1)
    assert harness.run_setting(g, "tsf", (10, 2), queries).build_time >= 0.2


def test_run_setting_rejects_an_unknown_method():
    g = datasets.load("in2004_analog")
    queries = datasets.query_nodes("in2004_analog", 1)
    for s, q in ((0.1, queries), ((1, 10), queries[:0])):
        with pytest.raises(ValueError, match="unknown method 'simrank'.*tsf"):
            harness.run_setting(g, "simrank", s, q)


@pytest.mark.parametrize("idx", [[5], [-1], [0, 7]])
def test_sweep_rejects_settings_idx_outside_the_grid(idx):
    """``[5]`` used to return a table with no columns and ``[-1]`` to run
    the finest setting."""
    with pytest.raises(ValueError, match=r"not in \[0, 5\)"):
        harness.sweep("in2004_analog", methods=["simpush"],
                      settings_idx=idx, n_queries=1)


def test_sweep_rejects_unknown_method_before_running(monkeypatch):
    """A misspelt method used to die with a bare ``KeyError`` from the
    settings table; now it is named, with the valid methods, before the
    graph is loaded or any setting runs."""
    def fail(*args, **kwargs):
        raise AssertionError("ran before checking the methods")

    monkeypatch.setattr(harness.datasets, "load", fail)
    monkeypatch.setattr(harness, "run_setting", fail)
    with pytest.raises(ValueError, match="'simpsh'; the methods are "
                       + ", ".join(harness.SETTINGS)):
        harness.sweep("in2004_analog", methods=["simpush", "simpsh"],
                      n_queries=1)


def test_memory_budget_exclusion():
    df = harness.sweep("in2004_analog", methods=["reads"],
                       settings_idx=[4], n_queries=1,
                       index_budget_bytes=1024)
    assert (df["excluded"] == "index exceeds memory budget").all()
    assert np.isnan(df["avg_error@50"]).all()


def test_sling_estimate_uses_the_sweeps_c():
    """SLING's threshold eps_a (1 - sqrt(c)) / 4 at eps_a = 0.1 gives
    floor(log(1/theta) / log(1/sqrt(c))) = 53 levels at c = 0.8 and 20 at
    c = 0.6; the dense estimate is (levels + 2) n^2 float64s."""
    g = datasets.load("in2004_analog")
    for c, lmax in ((0.8, 53), (0.6, 20)):
        assert harness._estimated_index_bytes("sling", 0.1, g, c) == \
            (lmax + 2) * g.n * g.n * 8


def test_sling_excluded_on_large_graphs():
    df = harness.sweep("clueweb_analog", methods=["sling"],
                       settings_idx=[0], n_queries=1, gt_samples=100)
    assert (df["excluded"] != "").all()


def test_to_markdown_renders(mini_sweep):
    md = harness.to_markdown(mini_sweep)
    assert "simpush" in md and "|" in md


def test_settings_grids_have_five_points_each():
    for method, grid in harness.SETTINGS.items():
        assert len(grid) == 5, method
