"""Figures 4/5/6/7 data reproduction: the full method x setting tradeoff
sweep (AvgError@50 / Precision@50 / peak memory vs query time) on the
dataset analogs, rendered as markdown tables for EXPERIMENTS.md. When
SimPush runs, a second table per dataset gives its statistics per setting:
average L, |A_u| and G_u edges (the in-text claims) and the four stage
times (Table 3).

Usage:
    python jobs/eval_tradeoff.py --datasets pokec_analog dblp_analog
    python jobs/eval_tradeoff.py --methods simpush --settings-idx 2
"""
from __future__ import annotations

import argparse

#: The SimPush columns of a sweep row that the statistics table shows.
SIMPUSH_COLUMNS = ["setting", "avg_L", "avg_attention", "avg_gu_edges",
                   "t_mc_ms", "t_source_push_ms", "t_gamma_ms",
                   "t_reverse_push_ms"]


def main() -> None:
    from repro.eval import harness
    from repro.graphs import datasets as ds

    ap = argparse.ArgumentParser()
    ap.add_argument("--datasets", nargs="+", default=ds.SMALL)
    ap.add_argument("--methods", nargs="+", default=None)
    ap.add_argument("--n-queries", type=int, default=5)
    ap.add_argument("--settings-idx", nargs="+", type=int, default=None)
    ap.add_argument("--gt-samples", type=int, default=100_000)
    args = ap.parse_args()
    for d in args.datasets:
        df = harness.sweep(d, methods=args.methods,
                           n_queries=args.n_queries,
                           settings_idx=args.settings_idx,
                           gt_samples=args.gt_samples)
        print(f"\n### {d}\n")
        print(harness.to_markdown(df))
        simpush = df[df["method"] == "simpush"]
        if len(simpush):
            print(f"\n### {d}: SimPush statistics\n")
            print(harness.markdown_table(simpush[SIMPUSH_COLUMNS]))


if __name__ == "__main__":
    main()
