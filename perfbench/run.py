"""SimPush query benchmark.

    python3 perfbench/run.py --workload web-shallow --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. ``--trace 0`` measures the end-to-end
metrics with tracing off; ``--trace 1`` is the separate traced run that gives
the per-layer metrics. Human-readable lines go first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. A record of the run (latencies, layer table,
spans) is written to ``perfbench/out/``. See ``perfbench/README.md``.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# name -> (unit, better); BENCHMARK.json lists the same names and units.
END_TO_END = {
    "query_ms.p50": ("ms", "lower"),
    "queries_per_s": ("1/s", "higher"),
    "update_ms.p50": ("ms", "lower"),
    "setup_s": ("s", "lower"),
    "precision_at_50": ("share", "higher"),
}
PER_LAYER = {
    "walks.ms": ("ms", "lower"),
    "walks.n_walks": ("count", "lower"),
    "walks.L": ("levels", "lower"),
    "walks.peak_mib": ("MiB", "lower"),
    "source_push.ms": ("ms", "lower"),
    "source_push.gu_nodes": ("count", "lower"),
    "source_push.gu_edges": ("count", "lower"),
    "source_push.gu_edges_per_m": ("ratio", "lower"),
    "source_push.attention": ("count", "lower"),
    "hitting.ms": ("ms", "lower"),
    "hitting.input_cells": ("count", "lower"),
    "hitting.haa_nnz": ("count", "lower"),
    "hitting.useful_share": ("ratio", "higher"),
    "hitting.peak_mib": ("MiB", "lower"),
    "last_meeting.ms": ("ms", "lower"),
    "last_meeting.gamma_clipped": ("count", "lower"),
    "last_meeting.gamma_clip_max": ("prob", "lower"),
    "reverse_push.ms": ("ms", "lower"),
    "reverse_push.nnz": ("count", "lower"),
    "driver.self_ms": ("ms", "lower"),
    "tracer.ms": ("ms", "lower"),
    "trace.overhead_ms": ("ms", "lower"),
    "csr.build_ms": ("ms", "lower"),
    "datasets.generate_ms": ("ms", "lower"),
    "memory.formula_mib": ("MiB", "lower"),
    **{f"df.{stage}.{c}": (unit, "lower")
       for stage in ("detect_L", "source_push", "hitting", "reverse_push",
                     "collect")
       for c, unit in (("ms", "ms"), ("jobs", "count"), ("stages", "count"),
                       ("tasks", "count"))},
    "df.driver.self_ms": ("ms", "lower"),
    "df.failed_tasks": ("count", "lower"),
    "df.gf_build_s": ("s", "lower"),
}


def bootstrap() -> None:
    """Put this checkout's ``src`` first on the import path, and refuse to
    run when the program is not there. The functions below import ``repro``
    and ``perfbench`` modules only after this has run."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        raise SystemExit(f"perfbench: no program to measure under {src}")
    sys.path[:0] = [src, ROOT]
    import repro
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        raise SystemExit(f"perfbench: repro imported from {repro.__file__}, "
                         f"not from {src}")


def parse(argv: list[str]) -> argparse.Namespace:
    from perfbench.workloads import WORKLOADS
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def end_to_end(wl, seed: int, seconds: float, cache: str) -> dict:
    from perfbench import local, speed

    graph, first = local.timed_setup(wl)
    setups = [first] + [local.timed_setup(wl)[1]
                        for _ in range(local.SETUP_REPS - 1)]
    probes = [speed.probe() for _ in range(local.SETUP_REPS)]
    local.warm_up(wl, graph, seed)
    loop = local.run_loop(wl, graph, seed, local.plain_query(wl),
                          seconds=seconds, keep=local.POOLED_CHECKS)
    setups += loop.setup_s
    probes += loop.probe_s
    updates = loop.update_s
    mem = local.memory_pass(wl, graph, loop)
    verdict = local.Verdict()
    local.check(wl, graph, loop, cache, seed, verdict)
    raw = {
        "query_ms.p50": local.median_ms(loop.query_s),
        "queries_per_s": len(loop.query_s) / loop.busy_s,
        "update_ms.p50": local.median_ms(updates),
        "setup_s": statistics.median(setups),
    }
    # Timings at the reference speed (speed.py); the raw ones are printed.
    factor = statistics.median(probes) / speed.REF_S
    values = {name: v * factor if name == "queries_per_s" else v / factor
              for name, v in raw.items()}
    values["precision_at_50"] = _mean(verdict.precision)
    extra = {f"raw.{name}": (v, END_TO_END[name][0])
             for name, v in raw.items()}
    extra["speed"] = (1.0 / factor, "x")
    # Not gated: on social-deep the largest peak depends on which nodes a
    # seed drew, and moved by 10-22 % between seeds.
    extra["query_peak_mib"] = (mem["query"], "MiB")
    extra.update({
        "queries": (len(loop.query_s), "count"),
        "updates": (len(updates), "count"),
        "setups": (len(setups), "count"),
        "failed_query_share": (verdict.failed / verdict.attempted, "ratio"),
        # Not gated: on web-shallow it is the mean of mostly-zero errors and
        # moves by ~30 % between seeds.
        "avg_error_at_50": (_mean(verdict.avg_error), "score"),
        "accuracy_samples": (len(verdict.avg_error), "count"),
    })
    for name, xs in (("query_ms", loop.query_s), ("update_ms", updates)):
        if len(xs) >= 100:  # a p90 needs at least ten samples beyond it
            extra[f"raw.{name}.p90"] = (
                statistics.quantiles(xs, n=10)[-1] * 1e3, "ms")
    report = {"extra": extra, "setup_s.all": setups, "probe_s.all": probes,
              "memory_pass": mem}
    return {"values": values, "report": report, "verdict": verdict,
            "record": {"query_ms": [t * 1e3 for t in loop.query_s],
                       "update_ms": [t * 1e3 for t in updates],
                       "nodes": [u for u, _ in loop.answers]}}


def _mean(xs: list[float]) -> float:
    """NaN when every query failed, so the run still reports."""
    return statistics.fmean(xs) if xs else float("nan")


def traced(wl, seed: int, seconds: float, cache: str, work: str) -> dict:
    from perfbench import local
    from perfbench.tracer import Tracer, patched

    tracer = Tracer()
    with patched(tracer, local.SETUP_CALLS):
        graph = local.setup(wl)
    local.warm_up(wl, graph, seed)
    plain = local.run_loop(wl, graph, seed, local.plain_query(wl),
                           seconds=seconds / 2, keep=local.POOLED_CHECKS)
    with patched(tracer, local.STAGES + local.SETUP_CALLS):
        replay = local.run_loop(wl, graph, seed,
                                local.traced_query(wl, tracer),
                                n_ops=len(plain.answers))
    mem = local.memory_pass(wl, graph, plain)
    verdict = local.Verdict()
    local.check(wl, graph, plain, cache, seed, verdict)
    local.check(wl, graph, replay, cache, seed, verdict)

    values = {name: 0.0 for name in PER_LAYER}
    values.update(local.layer_metrics(tracer))
    roots = tracer.roots("query")
    for key, name in (("csr.build_ms", "csr.build"),
                      ("datasets.generate_ms", "datasets.generate")):
        durs = [s.dur for s in tracer.spans if s.name == name]
        values[key] = statistics.fmean(durs) * 1e3 if durs else 0.0
    values["trace.overhead_ms"] = (
        local.median_ms([s.dur for s in roots]) - local.median_ms(plain.query_s))
    values["walks.peak_mib"] = mem["walks"]
    values["hitting.peak_mib"] = mem["hitting"]
    values["memory.formula_mib"] = mem["formula"]
    extra = {
        "queries": (len(roots), "count"),
        "traced_query_ms.mean": (
            statistics.fmean(s.dur for s in roots) * 1e3, "ms"),
    }
    report = {"extra": extra, "memory_pass": mem,
              "layer_ms": {k: v * 1e3 for k, v in
                           tracer.layer_table("query").items()}}
    record = {"spans": tracer.dump()}
    if wl.df_eps is not None:
        df_values, df_tracer = df_layers(wl, graph, plain.answers[0][0], work,
                                         cache, verdict)
        values.update({k: v for k, v in df_values.items() if k in PER_LAYER})
        if df_tracer is not None:
            root = df_tracer.roots("df.query")[0]
            extra["df.query_ms"] = (root.dur * 1e3, "ms")
            extra["df.query_jobs"] = (root.counters["jobs"], "count")
            extra["df.query_stages"] = (root.counters["stages"], "count")
            report["df_layer_ms"] = {
                k: v * 1e3 for k, v in df_tracer.layer_table("df.query").items()}
            record["df_spans"] = df_tracer.dump()
    extra["failed_query_share"] = (verdict.failed / verdict.attempted, "ratio")
    return {"values": values, "report": report, "verdict": verdict,
            "record": record}


def df_layers(wl, graph, u: int, work: str, cache: str, verdict) -> tuple:
    from perfbench import dfengine, gate, local

    exact = gate.exact_matrix(graph.g, cache)
    try:
        values, answers, tracer = dfengine.traced_query(
            graph.src, graph.dst, graph.n, u, wl.df_eps, work,
            local.last_meeting_counts)
    except Exception:  # counted as two failed queries, not fatal
        traceback.print_exc(file=sys.stderr)
        verdict.attempted += 2
        verdict.failed += 2
        return {}, None
    for scores in answers:
        verdict.attempted += 1
        ok = gate.sane(scores, u, graph.n) and gate.theorem1(
            exact[u], scores, wl.df_eps)
        verdict.failed += 0 if ok else 1
    return values, tracer


def print_human(wl, seed: int, trace: int, res: dict) -> None:
    print(f"# workload {wl.name} ({wl.dataset}, eps={wl.eps}) seed {seed} "
          f"trace {trace}")
    table = END_TO_END if trace == 0 else PER_LAYER
    for name, value in res["values"].items():
        print(f"{name} = {value:.6g} {table[name][0]}")
    for name, (value, unit) in res["report"]["extra"].items():
        print(f"{name} = {value:.6g} {unit}")
    for key, what in (("layer_ms", "local engine"),
                      ("df_layer_ms", "DataFrame engine")):
        layers = res["report"].get(key)
        if not layers:
            continue
        print(f"# {what}: mean self time per traced query (ms); the rows add "
              "up to the traced query time")
        for name, ms in sorted(layers.items(), key=lambda kv: -kv[1]):
            print(f"  {name:<16} {ms:12.3f}")
        print(f"  {'= total':<16} {sum(layers.values()):12.3f}")
    mem = dict(res["report"]["memory_pass"])
    queries, query, formula = (
        mem.pop(k) for k in ("queries", "query", "formula"))
    stages = ", ".join(f"{k} {v:.3f}" for k, v in mem.items())
    print(f"# memory pass over the {queries} heaviest queries: largest "
          f"tracemalloc peak {query:.3f} MiB (per stage: {stages}) vs "
          f"eval.memory formula {formula:.3f} MiB")


def main(argv: list[str] | None = None) -> int:
    bootstrap()
    args = parse(sys.argv[1:] if argv is None else argv)
    from perfbench.workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    cache = os.path.join(HERE, ".cache")
    work = os.path.join(HERE, ".work", str(os.getpid()))
    os.makedirs(work, exist_ok=True)
    os.environ["TMPDIR"] = work
    tempfile.tempdir = work
    try:
        if args.trace:
            res = traced(wl, args.seed, args.seconds, cache, work)
        else:
            res = end_to_end(wl, args.seed, args.seconds, cache)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    verdict = res["verdict"]
    table = PER_LAYER if args.trace else END_TO_END
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{wl.name}-seed{args.seed}"
                                 f"-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump({"workload": wl.name, "dataset": wl.dataset, "eps": wl.eps,
                   "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "metrics": res["values"],
                   "report": res["report"], **res["record"]}, f)
    print_human(wl, args.seed, args.trace, res)
    print(f"# record written to {os.path.relpath(path, ROOT)}")
    print(json.dumps({
        "correct": verdict.failed == 0,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {name: {"value": res["values"][name], "unit": unit}
                    for name, (unit, _) in table.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
