"""Runs of the numpy-CSR engine (``core.simpush_local``): set-up, the closed
query loop, the update and memory passes, and the traced replay.

One client: each query is issued only after the previous answer returned.
Only the calls into the program are timed; input generation and the oracle
are not.
"""
from __future__ import annotations

import statistics
import sys
import time
import traceback
import tracemalloc
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core import hitting, last_meeting, reverse_push, source_push, walks
from repro.core.simpush_local import SimPushResult, simpush_local
from repro.eval import memory
from repro.graphs import csr, datasets
from repro.graphs.csr import CSRGraph

from perfbench import gate, speed
from perfbench.tracer import MIB, Tracer, patched
from perfbench.workloads import Inputs, Workload

SETUP_REPS = 3         # set-ups and speed probes timed before the loop ...
SAMPLE_PERIOD_S = 2.0  # ... and one more of each per this much timed work
MEMORY_QUERIES = 10    # heaviest queries of a run replayed under tracemalloc
POOLED_CHECKS = 3      # social-churn answers checked by the pooled oracle


@dataclass
class Graph:
    src: np.ndarray
    dst: np.ndarray
    n: int
    g: CSRGraph


@dataclass
class Loop:
    query_s: list[float] = field(default_factory=list)
    update_s: list[float] = field(default_factory=list)
    setup_s: list[float] = field(default_factory=list)
    probe_s: list[float] = field(default_factory=list)  # speed.probe()
    busy_s: float = 0.0                 # time inside timed calls
    answers: list[tuple[int, np.ndarray | None]] = field(default_factory=list)
    work: list[int] = field(default_factory=list)  # |A_u| * |G_u edges|
    kept: dict[int, CSRGraph] = field(default_factory=dict)  # for the oracle


def setup(wl: Workload) -> Graph:
    """The set-up a user pays before the first query: generate the analog
    and build its CSR. Both are called through their modules so a traced
    run can wrap them."""
    src, dst, spec = datasets.edge_arrays(wl.dataset)
    return Graph(src, dst, spec.n, csr.from_edges(src, dst, n=spec.n))


def timed_setup(wl: Workload) -> tuple[Graph, float]:
    t0 = time.perf_counter()
    graph = setup(wl)
    return graph, time.perf_counter() - t0


def update(graph: Graph, inp: Inputs) -> tuple[Graph, float]:
    """Apply one seeded churn batch to ``graph``; time only the rebuild that
    makes the changed graph queryable. Callers pass the base graph every
    time, so each batch replaces the previous one and the live graph stays
    the analog's shape for the whole run instead of drifting toward a
    random graph."""
    src, dst = inp.churn(graph.src, graph.dst, graph.n)
    t0 = time.perf_counter()
    g = csr.from_edges(src, dst, n=graph.n)
    return Graph(src, dst, graph.n, g), time.perf_counter() - t0


Query = Callable[[CSRGraph, int], SimPushResult]


def plain_query(wl: Workload) -> Query:
    return lambda g, u: simpush_local(g, u, eps=wl.eps)


def warm_up(wl: Workload, graph: Graph, seed: int) -> None:
    """One untimed query on the run's first node, so that first-call costs
    stay out of the timings."""
    simpush_local(graph.g, Inputs(seed).query_node(graph.g), eps=wl.eps)


def run_loop(wl: Workload, graph: Graph, seed: int, query: Query, *,
             seconds: float | None = None, n_ops: int | None = None,
             keep: int = 0) -> Loop:
    """Closed loop until ``seconds`` of timed work or exactly ``n_ops``
    queries. ``keep`` graphs of a seeded reservoir sample stay for the
    oracle.

    Each query follows one update batch. A churn workload queries the
    updated graph and counts the rebuild as timed work; a read-only one
    only times the rebuild and drops it. A set-up and a speed probe are
    timed every ``SAMPLE_PERIOD_S`` of timed work. Sampling them across the
    whole loop, rather than in a burst, makes their medians see the same
    machine speeds as the queries."""
    inp = Inputs(seed)
    live = graph
    loop = Loop()
    slots: list[int] = []
    next_sample = SAMPLE_PERIOD_S
    i = 0
    while (loop.busy_s < seconds) if n_ops is None else (i < n_ops):
        updated, dt = update(graph, inp)
        loop.update_s.append(dt)
        if wl.churn:
            live = updated
            loop.busy_s += dt
        u = inp.query_node(live.g)
        t0 = time.perf_counter()
        try:
            res = query(live.g, u)
        except Exception:  # a failed query is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            res = None
        dt = time.perf_counter() - t0
        loop.busy_s += dt
        if res is not None:
            loop.query_s.append(dt)
        loop.answers.append((u, None if res is None else res.scores))
        loop.work.append(0 if res is None else res.n_attention * res.gu_edges)
        if wl.churn and keep:  # reservoir sample of answers to check
            slot = i if i < keep else int(inp.sample.integers(0, i + 1))
            if slot == len(slots):
                slots.append(i)
            elif slot < keep:
                del loop.kept[slots[slot]]
                slots[slot] = i
            if slot < keep:
                loop.kept[i] = live.g
        if loop.busy_s >= next_sample:
            loop.setup_s.append(timed_setup(wl)[1])
            loop.probe_s.append(speed.probe())
            next_sample += SAMPLE_PERIOD_S
        i += 1
    return loop


# ------------------------------------------------------------------ oracle

@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    avg_error: list[float] = field(default_factory=list)
    precision: list[float] = field(default_factory=list)


def check(wl: Workload, graph: Graph, loop: Loop, cache_dir: str,
          seed: int, verdict: Verdict, eps: float | None = None) -> None:
    """Gate every answer of ``loop`` (see gate.py); collect accuracy."""
    eps = wl.eps if eps is None else eps
    exact = None if wl.churn else gate.exact_matrix(graph.g, cache_dir)
    for i, (u, scores) in enumerate(loop.answers):
        verdict.attempted += 1
        if scores is None:
            verdict.failed += 1
            continue
        ok = gate.sane(scores, u, graph.n)
        if exact is not None:
            ok = ok and gate.theorem1(exact[u], scores, eps)
            gt = gate.metrics.exact_ground_truth(exact[u], u, gate.TOP_K)
        elif i in loop.kept:
            good, gt = gate.pooled_check(loop.kept[i], u, scores, eps,
                                         seed=seed + i)
            ok = ok and good
        else:
            gt = None
        if gt is not None:
            verdict.avg_error.append(
                gate.metrics.avg_error_at_k(scores, gt.scores, gt.vk))
            verdict.precision.append(
                gate.metrics.precision_at_k(scores, u, gt.vk))
        verdict.failed += 0 if ok else 1


# ------------------------------------------------------------------ layers

def _walks(args, kwargs, out):
    return {"n_walks": args[2].n_walks, "L": out[0]}


def _source_push(args, kwargs, out):
    gu, att = out
    return {"gu_nodes": gu.n_nodes, "gu_edges": gu.n_edges,
            "gu_edges_per_m": gu.n_edges / args[0].m, "attention": att.size}


def _hitting(args, kwargs, out):
    _, gu, att, _ = args
    n_targets = int((att.levels >= 2).sum())
    # Alg. 3 pushes every G_u edge of levels L..2 for every target column.
    edges = sum(gu.edges[lvl - 1][0].size for lvl in range(2, gu.L + 1))
    return {"input_cells": n_targets * edges,
            "haa_nnz": int(np.count_nonzero(out))}


def last_meeting_counts(args, kwargs, out):
    raw = 1.0 - last_meeting.first_meeting_matrix(*args).sum(axis=1)
    clip = np.maximum(raw - 1.0, -raw).clip(min=0.0)
    return {"gamma_clipped": int(np.count_nonzero(clip)),
            "gamma_clip_max": float(clip.max(initial=0.0))}


def _reverse_push(args, kwargs, out):
    return {"nnz": int(np.count_nonzero(out))}


STAGES = [
    (walks, "detect_L", "walks", _walks),
    (source_push, "source_push", "source_push", _source_push),
    (hitting, "attention_hitting_matrix", "hitting", _hitting),
    (last_meeting, "gammas", "last_meeting", last_meeting_counts),
    (reverse_push, "seed_residues", "reverse_push", None),
    (reverse_push, "reverse_push", "reverse_push", _reverse_push),
]
SETUP_CALLS = [
    (datasets, "edge_arrays", "datasets.generate", None),
    (csr, "from_edges", "csr.build", None),
]


def traced_query(wl: Workload, tracer: Tracer) -> Query:
    return lambda g, u: tracer.call("query", simpush_local, g, u, eps=wl.eps)


def memory_pass(wl: Workload, graph: Graph, loop: Loop) -> dict[str, float]:
    """Replay the run's heaviest queries (by ``|A_u| * |G_u|``, which sets
    Alg. 3's working set) on the workload's initial graph under
    tracemalloc: the largest peak of a single query and of each stage,
    beside ``eval.memory``'s formula."""
    order = np.argsort(loop.work, kind="stable")[::-1][:MEMORY_QUERIES]
    nodes = [loop.answers[i][0] for i in order]
    tracer = Tracer(memory=True)
    formula = 0
    tracemalloc.start()
    try:
        with patched(tracer, STAGES):
            for u in nodes:
                tracer.call("query", simpush_local, graph.g, u, eps=wl.eps)
    finally:
        tracemalloc.stop()
    for sp in tracer.spans:
        if sp.name == "walks":
            L = sp.counters["L"]
            formula = max(formula, memory.simpush_query_bytes(graph.g, L))
    peak = {name: 0.0 for name in ("query", "walks", "hitting")}
    for sp in tracer.spans:
        peak[sp.name] = max(peak.get(sp.name, 0.0),
                            sp.counters["peak_bytes"] / MIB)
    peak["formula"] = formula / MIB
    peak["queries"] = len(nodes)
    return peak


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-query means over the traced queries: self time of each layer and
    the counters recorded at its boundary."""
    n = max(len(tracer.roots("query")), 1)
    table = tracer.layer_table("query")
    out = {f"{name}.ms": table.get(name, 0.0) * 1e3
           for name in ("walks", "source_push", "hitting", "last_meeting",
                        "reverse_push")}
    out["driver.self_ms"] = table.get("query", 0.0) * 1e3
    sums: dict[str, float] = {}
    clip_max = 0.0
    for sp in tracer.spans:
        if sp.qid is None:
            continue
        for k, v in sp.counters.items():
            if k == "gamma_clip_max":
                clip_max = max(clip_max, v)
            else:
                key = f"{sp.name}.{k}"
                sums[key] = sums.get(key, 0.0) + v
    for key in ("walks.n_walks", "walks.L", "source_push.gu_nodes",
                "source_push.gu_edges", "source_push.gu_edges_per_m",
                "source_push.attention", "hitting.input_cells",
                "hitting.haa_nnz", "last_meeting.gamma_clipped",
                "reverse_push.nnz"):
        out[key] = sums.get(key, 0.0) / n
    cells = sums.get("hitting.input_cells", 0.0)
    out["hitting.useful_share"] = (sums.get("hitting.haa_nnz", 0.0) / cells
                                   if cells else 0.0)
    out["last_meeting.gamma_clip_max"] = clip_max
    out["tracer.ms"] = table.get("tracer", 0.0) * 1e3
    return out


def median_ms(xs: list[float]) -> float:
    return statistics.median(xs) * 1e3 if xs else float("nan")
