"""Table 1 reproduction (empirical): query-time scaling of SimPush vs the
index-free competitors as functions of graph size m and error eps,
compared with the claimed asymptotic bounds.

Usage: python jobs/scaling.py
"""
from __future__ import annotations

import argparse

import numpy as np
import pandas as pd


def _query_times(g, queries, eps: float) -> dict:
    """Mean SimPush and ProbeSim query time; query ``i`` is seeded ``i``."""
    from repro.eval.harness import run_setting

    return {f"{m}_s": run_setting(g, m, eps, queries,
                                  walks_cap=500_000).query_time
            for m in ("simpush", "probesim")}


def scaling_vs_m(sizes=(1000, 2000, 4000, 8000), eps: float = 0.1,
                 n_queries: int = 3) -> pd.DataFrame:
    """SimPush/ProbeSim query time on power-law graphs of growing m."""
    from repro.graphs import generators
    from repro.graphs.csr import from_edges

    rows = []
    for n in sizes:
        src, dst = generators.powerlaw(n, 10, seed=n)
        g = from_edges(src, dst, n=n)
        rng = np.random.default_rng(0)
        queries = rng.choice(np.flatnonzero(g.in_deg > 0), n_queries,
                             replace=False)
        rows.append({"n": n, "m": g.m, **_query_times(g, queries, eps)})
    return pd.DataFrame(rows)


def scaling_vs_eps(dataset: str = "pokec_analog",
                   eps_grid=(0.4, 0.2, 0.1, 0.05, 0.025),
                   n_queries: int = 3) -> pd.DataFrame:
    """Query time as eps shrinks (claimed: SimPush ~ 1/eps-ish terms,
    ProbeSim ~ 1/eps^2)."""
    from repro.graphs import datasets

    g = datasets.load(dataset)
    queries = datasets.query_nodes(dataset, n_queries)
    return pd.DataFrame([{"eps": eps, **_query_times(g, queries, eps)}
                         for eps in eps_grid])


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--skip-eps", action="store_true")
    args = ap.parse_args()
    from repro.eval.harness import markdown_table
    print("## scaling vs m (power-law, eps=0.1)")
    print(markdown_table(scaling_vs_m()))
    if not args.skip_eps:
        print("\n## scaling vs eps (pokec_analog)")
        print(markdown_table(scaling_vs_eps()))


if __name__ == "__main__":
    main()
