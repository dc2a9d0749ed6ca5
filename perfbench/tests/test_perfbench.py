"""The benchmark's own tests: its metric list, its correctness gate, its
tracer, and that pytest does not collect the runner.

Run with ``PYTHONPATH=src python -m pytest perfbench/tests -q``.
"""
from __future__ import annotations

import fnmatch
import json
import os
import subprocess
import sys
import time
import tomllib

import numpy as np
import pytest

from perfbench import gate, local, run
from perfbench.tracer import Tracer, patched
from perfbench.workloads import WORKLOADS, Inputs
from repro.baselines.exact import exact_simrank
from repro.core.simpush_local import simpush_local
from repro.graphs import generators
from repro.graphs.csr import from_edges

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
EPS = 0.1


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


@pytest.fixture(scope="module")
def small():
    src, dst = generators.social(200, 5, seed=4)
    g = from_edges(src, dst, n=200)
    return g, exact_simrank(g)


# ---------------------------------------------------------------- metrics

def test_benchmark_json_lists_the_runner_metrics():
    spec = _spec()
    for key, table in (("end_to_end", run.END_TO_END),
                       ("per_layer", run.PER_LAYER)):
        listed = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        assert listed == table
    assert {w["name"]: w["why"] for w in spec["workloads"]}.items() <= {
        w.name: w.why for w in WORKLOADS.values()}.items()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(trace):
    spec = _spec()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "social-churn",
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    out = json.loads(lines[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    expect = spec["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expect} == {
        k: v["unit"] for k, v in out["metrics"].items()}
    for m in expect:  # the human-readable block names each one too
        assert any(line.startswith(f"{m['name']} = ") and
                   line.endswith(f" {m['unit']}") for line in lines)


# ------------------------------------------------------------------- gate

def test_gate_passes_simpush_answers(small):
    g, s = small
    for u in (3, 50):
        scores = simpush_local(g, u, eps=EPS).scores
        assert gate.sane(scores, u, g.n)
        assert gate.theorem1(s[u], scores, EPS)


def test_gate_fires_on_a_corrupted_answer(small):
    g, s = small
    u = 3
    scores = simpush_local(g, u, eps=EPS).scores
    v = int(np.argmax(np.where(np.arange(g.n) == u, -1.0, scores)))
    over = scores.copy()
    over[v] += EPS                     # s~ + eps: overestimates s
    assert not gate.theorem1(s[u], over, EPS)
    diag = scores.copy()
    diag[u] = 0.5
    assert not gate.sane(diag, u, g.n)


def test_corrupted_answer_counts_as_failed(small, tmp_path):
    g, _ = small
    wl = WORKLOADS["web-shallow"]
    graph = local.Graph(np.empty(0), np.empty(0), g.n, g)
    good = simpush_local(g, 3, eps=wl.eps).scores
    bad = good.copy()
    bad[int(np.argsort(good)[-2])] += wl.eps
    loop = local.Loop(answers=[(3, good), (3, bad), (4, None)])
    verdict = local.Verdict()
    local.check(wl, graph, loop, str(tmp_path), seed=0, verdict=verdict)
    assert (verdict.attempted, verdict.failed) == (3, 2)


def test_pooled_gate_fires(small):
    g, _ = small
    u = 3
    scores = simpush_local(g, u, eps=EPS).scores
    ok, _ = gate.pooled_check(g, u, scores, EPS, seed=0)
    assert ok
    bad = scores.copy()
    bad[int(np.argsort(scores)[-2])] += EPS + 2 * gate.pooled_tol(gate.TOP_K)
    ok, _ = gate.pooled_check(g, u, bad, EPS, seed=0)
    assert not ok


# ----------------------------------------------------------------- inputs

def test_inputs_repeat_for_a_seed(small):
    g, _ = small
    a, b = Inputs(7), Inputs(7)
    assert [a.query_node(g) for _ in range(5)] == [
        b.query_node(g) for _ in range(5)]
    src, dst = generators.social(200, 5, seed=4)
    s1, d1 = Inputs(7).churn(src, dst, 200)
    s2, d2 = Inputs(7).churn(src, dst, 200)
    np.testing.assert_array_equal(s1, s2)
    np.testing.assert_array_equal(d1, d2)
    assert s1.size == src.size and not np.any(s1 == d1)


# ----------------------------------------------------------------- tracer

class _Mod:
    @staticmethod
    def inner(x):
        time.sleep(0.002)
        return x

    @staticmethod
    def outer(x):
        time.sleep(0.001)
        return _Mod.inner(x) + 1


def test_layer_table_adds_up_to_the_query_time():
    tracer = Tracer()
    with patched(tracer, [(_Mod, "inner", "inner",
                           lambda a, k, out: {"x": out})]):
        for i in range(3):
            assert tracer.call("query", _Mod.outer, i) == i + 1
    assert _Mod.inner.__name__ == "inner"  # restored
    table = tracer.layer_table("query")
    roots = tracer.roots("query")
    mean = sum(r.dur for r in roots) / len(roots)
    assert sum(table.values()) == pytest.approx(mean, rel=1e-9)
    assert table["inner"] >= 0.002
    kids = [s for s in tracer.spans if s.name == "inner"]
    assert [s.qid for s in kids] == [0, 1, 2]
    assert [s.counters["x"] for s in kids] == [0, 1, 2]
    assert all(s.parent == r.id for s, r in zip(kids, roots))


# -------------------------------------------------------------- collection

def test_pytest_does_not_collect_the_runner():
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as f:
        opts = tomllib.load(f)["tool"]["pytest"]["ini_options"]
    assert not any(p.split("/")[0] == "perfbench" for p in opts["testpaths"])
    here = os.path.join(ROOT, "perfbench")
    for name in os.listdir(here):
        if name.endswith(".py"):
            assert not any(fnmatch.fnmatch(name, pat)
                           for pat in opts["python_files"]), name
