"""Figures 4/5/6/7 data reproduction: the full method x setting tradeoff
sweep (AvgError@50 / Precision@50 / peak memory vs query time) on the
dataset analogs, rendered as markdown tables for EXPERIMENTS.md.

Usage:
    python jobs/eval_tradeoff.py --datasets pokec_analog dblp_analog
    python jobs/eval_tradeoff.py --datasets twitter_analog --report-L
"""
from __future__ import annotations

import argparse


def report_L(dataset: str, eps: float = 0.05, n_queries: int = 10,
             seed: int = 0) -> dict:
    """The paper's in-text claims: average max level L and attention-set
    size (Twitter: L=2.76 at eps=0.02; DBLP: L=9.0; |A_u| dozens-hundreds).
    """
    from repro.eval.harness import run_setting
    from repro.graphs import datasets

    st = run_setting(datasets.load(dataset), "simpush", eps,
                     datasets.query_nodes(dataset, n_queries), seed=seed,
                     walks_cap=500_000).stats
    return {"dataset": dataset, "eps": eps, "avg_L": st["L"],
            "avg_attention": st["n_attention"],
            "avg_gu_edges": st["gu_edges"]}


def main() -> None:
    from repro.eval import harness
    from repro.graphs import datasets as ds

    ap = argparse.ArgumentParser()
    ap.add_argument("--datasets", nargs="+", default=ds.SMALL)
    ap.add_argument("--methods", nargs="+", default=None)
    ap.add_argument("--n-queries", type=int, default=5)
    ap.add_argument("--settings-idx", nargs="+", type=int, default=None)
    ap.add_argument("--gt-samples", type=int, default=100_000)
    ap.add_argument("--report-L", action="store_true")
    args = ap.parse_args()
    if args.report_L:
        for d in args.datasets:
            print(report_L(d))
        return
    for d in args.datasets:
        df = harness.sweep(d, methods=args.methods,
                           n_queries=args.n_queries,
                           settings_idx=args.settings_idx,
                           gt_samples=args.gt_samples)
        print(f"\n### {d}\n")
        print(harness.to_markdown(df))


if __name__ == "__main__":
    main()
