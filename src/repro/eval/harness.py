"""Tradeoff sweep harness — regenerates the data behind the paper's
Figures 4–7 (as tables) and the in-text claims.

One ``sweep()`` call runs every requested (method, setting) pair over a
dataset's query set, collecting per-query scores, query/build wall times,
and accounted memory; ground truth is the exact oracle on the small suite
and the paper's pooling procedure on the large suite; metrics follow
§5.1. Settings whose index would not fit the memory budget, or whose
first query blows the per-query time budget, are recorded as *excluded* —
the same rule the paper applies on its 376 GB server (§5.2).
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields

import numpy as np
import pandas as pd

from repro.baselines import probesim as _probesim
from repro.baselines import prsim as _prsim
from repro.baselines import reads as _reads
from repro.baselines import sling as _sling
from repro.baselines import topsim as _topsim
from repro.baselines import tsf as _tsf
from repro.baselines.exact import exact_simrank_cached
from repro.core.simpush_local import SimPushResult, simpush_local
from repro.eval import memory, metrics
from repro.graphs import datasets
from repro.graphs.csr import CSRGraph

#: Parameter grids. Grids marked "paper" are verbatim from §5.1; the
#: eps-style grids are shifted one notch coarser than the paper's
#: ({0.05..0.002}) because the analogs are ~1000x smaller (DESIGN.md §3).
SETTINGS: dict[str, list] = {
    "simpush": [0.2, 0.1, 0.05, 0.025, 0.0125],
    "probesim": [0.5, 0.2, 0.1, 0.05, 0.025],
    "prsim": [0.5, 0.2, 0.1, 0.05, 0.025],
    "sling": [0.5, 0.2, 0.1, 0.05, 0.025],
    "reads": [(10, 2), (50, 5), (100, 10), (500, 10), (1000, 20)],   # paper
    "tsf": [(10, 2), (100, 20), (200, 30), (300, 40), (600, 80)],    # paper
    "topsim": [(1, 10), (3, 100), (3, 1000), (3, 10000), (4, 10000)],  # paper
}

ALL_METHODS = list(SETTINGS)

#: SimPush's per-query statistics: ``L``, ``|A_u|``, ``G_u``, stage times.
SIMPUSH_STATS = tuple(f.name for f in fields(SimPushResult)
                      if f.name != "scores")


@dataclass
class RunRecord:
    """One (dataset, method, setting) measurement row."""

    dataset: str
    method: str
    setting: str
    query_time: float = math.nan
    build_time: float = 0.0
    index_bytes: int = 0
    peak_bytes: int = 0
    avg_error: float = math.nan
    precision: float = math.nan
    n_queries: int = 0
    excluded: str = ""
    #: Per-query mean of each ``SIMPUSH_STATS`` entry; NaN for other methods.
    stats: dict = field(
        default_factory=lambda: dict.fromkeys(SIMPUSH_STATS, math.nan))
    scores: list = field(default_factory=list, repr=False)


def _setting_str(method: str, s) -> str:
    if method in ("simpush",):
        return f"eps={s}"
    if method in ("probesim", "prsim", "sling"):
        return f"eps_a={s}"
    if method == "reads":
        return f"(r,t)=({s[0]},{s[1]})"
    if method == "tsf":
        return f"(Rg,Rq)=({s[0]},{s[1]})"
    return f"(T,1/h)=({s[0]},{s[1]})"


def _estimated_index_bytes(method: str, s, g: CSRGraph, c: float) -> int:
    """Pre-build footprint estimate used by the memory-budget exclusion."""
    if method == "reads":
        r, t = s
        return r * (t + 1) * g.n * 4
    if method == "tsf":
        return s[0] * g.n * 4
    if method == "sling":
        lmax = _sling.theta_lmax(s, c)[1]
        return (lmax + 2) * g.n * g.n * 8  # dense build working set
    return 0


def stage_ms(stats: dict) -> dict:
    """SimPush's four stage-time means in ``stats`` as ``<stage>_ms``."""
    return {f"{k}_ms": 1e3 * v for k, v in stats.items() if k.startswith("t_")}


def run_setting(g: CSRGraph, method: str, s, queries: np.ndarray, *,
                c: float = 0.6, delta: float = 1e-4, seed: int = 0,
                walks_cap: int = 2_000_000,
                query_time_budget: float = 120.0) -> RunRecord:
    """Build (if index-based) and run every query; returns the record with
    per-query score vectors attached (metrics are filled in by sweep).
    The one timed query loop: the sweep and the timing jobs in ``jobs/`` run
    through it. Query ``i`` is seeded ``seed + i``."""
    rec = RunRecord(dataset="", method=method, setting=_setting_str(method, s))
    index = None
    if method == "prsim":
        index = _prsim.build_index(g, c=c, eps_a=s, seed=seed)
    elif method == "sling":
        index = _sling.build_index(g, c=c, eps_a=s, seed=seed)
    elif method == "reads":
        index = _reads.build_index(g, c=c, r=s[0], t=s[1], seed=seed)
    elif method == "tsf":
        index = _tsf.build_index(g, R_g=s[0], seed=seed)
    if index is not None:
        rec.build_time, rec.index_bytes = index.build_time, index.index_bytes

    times, stats = [], []
    qbytes = memory.generic_query_bytes(g)
    for qi, u in enumerate(queries):
        u = int(u)
        t0 = time.perf_counter()
        if method == "simpush":
            r = simpush_local(g, u, c=c, eps=s, delta=delta,
                              seed=seed + qi, walks_cap=walks_cap)
            scores = r.scores
            stats.append([getattr(r, k) for k in SIMPUSH_STATS])
            qbytes = max(qbytes, memory.simpush_query_bytes(g, r.L))
        elif method == "probesim":
            scores = _probesim.probesim(g, u, c=c, eps_a=s, delta=delta,
                                        seed=seed + qi).scores
        elif method == "prsim":
            scores = _prsim.query(g, index, u, c=c, delta=delta, eps_a=s,
                                  seed=seed + qi)
            qbytes = memory.prsim_query_bytes(g, index.Lmax)
        elif method == "sling":
            scores = _sling.query(g, index, u, c=c)
        elif method == "reads":
            scores = _reads.query(g, index, u)
        elif method == "tsf":
            scores = _tsf.query(g, index, u, c=c, R_q=s[1], seed=seed + qi)
        elif method == "topsim":
            scores = _topsim.topsim(g, u, c=c, T=s[0], inv_h=s[1])
        else:  # pragma: no cover - registry is static
            raise ValueError(method)
        dt = time.perf_counter() - t0
        times.append(dt)
        rec.scores.append(scores)
        if dt > query_time_budget:
            rec.excluded = f"query time {dt:.1f}s > budget"
            break
    rec.query_time = float(np.mean(times)) if times else math.nan
    rec.n_queries = len(rec.scores)
    rec.peak_bytes = memory.peak_bytes(g, rec.index_bytes, qbytes)
    if stats:
        rec.stats = dict(zip(SIMPUSH_STATS, np.mean(stats, axis=0).tolist()))
    return rec


def sweep(dataset: str, methods: list[str] | None = None, *,
          k: int = 50, n_queries: int = 5, c: float = 0.6,
          delta: float = 1e-4, seed: int = 0,
          settings_idx: list[int] | None = None,
          index_budget_bytes: int = 3 << 30,
          query_time_budget: float = 120.0,
          walks_cap: int = 2_000_000,
          gt_samples: int = 100_000) -> pd.DataFrame:
    """Run the full tradeoff sweep on one dataset analog and return the
    tidy results table (one row per method x setting)."""
    g = datasets.load(dataset)
    queries = datasets.query_nodes(dataset, n_queries)
    methods = methods or ALL_METHODS
    records: list[RunRecord] = []
    for method in methods:
        grid = SETTINGS[method]
        if settings_idx is not None:
            grid = [grid[i] for i in settings_idx if i < len(grid)]
        for s in grid:
            est = _estimated_index_bytes(method, s, g, c)
            if est > index_budget_bytes or (
                    method == "sling" and g.n > _sling.MAX_INDEX_N):
                rec = RunRecord(dataset=dataset, method=method,
                                setting=_setting_str(method, s),
                                index_bytes=est,
                                excluded="index exceeds memory budget")
                records.append(rec)
                continue
            rec = run_setting(g, method, s, queries, c=c, delta=delta,
                              seed=seed, walks_cap=walks_cap,
                              query_time_budget=query_time_budget)
            rec.dataset = dataset
            records.append(rec)
    _fill_metrics(g, dataset, queries, records, k=k, c=c, seed=seed,
                  gt_samples=gt_samples)
    rows = []
    for r in records:
        rows.append({
            "dataset": r.dataset or dataset, "method": r.method,
            "setting": r.setting, "query_time_s": r.query_time,
            "build_time_s": r.build_time, "index_MB": r.index_bytes / 2**20,
            "peak_MB": r.peak_bytes / 2**20, "avg_error@50": r.avg_error,
            "precision@50": r.precision, "n_queries": r.n_queries,
            "avg_L": r.stats["L"], "avg_attention": r.stats["n_attention"],
            "avg_gu_edges": r.stats["gu_edges"], **stage_ms(r.stats),
            "excluded": r.excluded,
        })
    return pd.DataFrame(rows)


def _fill_metrics(g: CSRGraph, dataset: str, queries: np.ndarray,
                  records: list[RunRecord], *, k: int, c: float,
                  seed: int, gt_samples: int) -> None:
    """Attach AvgError@k / Precision@k to each record, using the exact
    oracle (small suite) or pooled MC (large suite)."""
    small = dataset in datasets.SMALL or g.n <= 2600
    gts: list[metrics.GroundTruth] = []
    if small:
        s_matrix = exact_simrank_cached(g, c=c, tag=dataset)
        for u in queries:
            gts.append(metrics.exact_ground_truth(s_matrix[int(u)], int(u), k))
    else:
        for qi, u in enumerate(queries):
            per_method = [r.scores[qi] for r in records
                          if len(r.scores) > qi]
            gts.append(metrics.pooled_ground_truth(
                g, int(u), per_method, k, c=c, n_samples=gt_samples,
                seed=seed + 31 * qi))
    for r in records:
        if not r.scores:
            continue
        errs, precs = [], []
        for qi, sc in enumerate(r.scores):
            gt = gts[qi]
            errs.append(metrics.avg_error_at_k(sc, gt.scores, gt.vk))
            precs.append(metrics.precision_at_k(sc, int(queries[qi]), gt.vk))
        r.avg_error = float(np.mean(errs))
        r.precision = float(np.mean(precs))
        r.scores = []  # free memory once metrics are computed


def markdown_table(df: pd.DataFrame) -> str:
    """Minimal GitHub-markdown renderer (the container lacks ``tabulate``,
    which ``DataFrame.to_markdown`` requires)."""
    def cell(x):
        if isinstance(x, float):
            return "" if math.isnan(x) else f"{x:.6g}"
        return str(x)
    header = "| " + " | ".join(df.columns) + " |"
    sep = "|" + "|".join("---" for _ in df.columns) + "|"
    body = ["| " + " | ".join(cell(v) for v in row) + " |"
            for row in df.itertuples(index=False)]
    return "\n".join([header, sep, *body])


def to_markdown(df: pd.DataFrame) -> str:
    """Render a sweep result as the markdown table EXPERIMENTS.md embeds."""
    cols = ["method", "setting", "query_time_s", "build_time_s", "index_MB",
            "peak_MB", "avg_error@50", "precision@50", "excluded"]
    df = df[cols].copy()
    for col, fmt in [("query_time_s", "{:.4f}"), ("build_time_s", "{:.2f}"),
                     ("index_MB", "{:.2f}"), ("peak_MB", "{:.2f}"),
                     ("avg_error@50", "{:.5f}"), ("precision@50", "{:.3f}")]:
        df[col] = df[col].map(
            lambda x, fmt=fmt: "" if pd.isna(x) else fmt.format(x))
    return markdown_table(df)
