"""Table 3 reproduction: empirical per-stage cost of SimPush
(MC level detection, Source-Push, gamma computation, Reverse-Push) across
eps.

Usage: python jobs/stage_breakdown.py [--datasets pokec_analog dblp_analog]
"""
from __future__ import annotations

import argparse

import pandas as pd


def stage_table(dataset_names: list[str], eps_grid=(0.2, 0.1, 0.05, 0.025),
                n_queries: int = 3, walks_cap: int = 2_000_000,
                seed: int = 0) -> pd.DataFrame:
    """Average stage wall-times per (dataset, eps)."""
    from repro.eval import harness
    from repro.graphs import datasets

    rows = []
    for name in dataset_names:
        g = datasets.load(name)
        queries = datasets.query_nodes(name, n_queries)
        for eps in eps_grid:
            st = harness.run_setting(g, "simpush", eps, queries, seed=seed,
                                     walks_cap=walks_cap).stats
            rows.append({"dataset": name, "eps": eps, **harness.stage_ms(st),
                         "avg_L": st["L"], "avg_attention": st["n_attention"]})
    return pd.DataFrame(rows)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--datasets", nargs="+",
                    default=["pokec_analog", "dblp_analog"])
    args = ap.parse_args()
    from repro.eval.harness import markdown_table
    print(markdown_table(stage_table(args.datasets)))


if __name__ == "__main__":
    main()
