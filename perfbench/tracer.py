"""Spans around the calls into each layer, recorded from outside the program.

A traced run replaces public functions of ``repro`` modules with wrappers for
the length of the run (:func:`patched`) and restores them afterwards. This
works because the drivers call their stages through module attributes
(``walks.detect_L``, ``hitting.attention_hitting_matrix``, ...) or module
globals (``simpush.hitting_df``, ...), which are looked up at call time.

Each span holds its name, start, end, parent span and query id. Spans are
kept in memory and written out once, at the end of the run. Work the tracer
does itself (reading counters, draining Spark's listener bus, tracemalloc)
happens outside the span it describes and is charged to the parent as
``instr``, so self times plus tracer time add up to the query time.
"""
from __future__ import annotations

import contextlib
import time
import tracemalloc
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Iterator

MIB = float(1 << 20)


@dataclass
class Span:
    id: int
    name: str
    qid: int | None
    parent: int | None
    start: float
    end: float = 0.0
    instr: float = 0.0      # tracer's own time spent inside this span
    counters: dict[str, float] = field(default_factory=dict)
    hw: int = 0             # tracemalloc high-water mark (absolute bytes)
    base: int = 0           # tracemalloc current bytes at entry

    @property
    def dur(self) -> float:
        return self.end - self.start


class SparkProbe:
    """Job, stage and task counts of a Spark call, read from outside through
    ``sparkContext.statusTracker()``.

    Jobs and stages are the difference of the highest job / stage id before
    and after the call. ``getJobIdsForGroup`` stops growing once
    ``spark.ui.retainedJobs`` jobs exist, so its length cannot be used.
    The status store is fed by an asynchronous listener bus, which is
    drained before every read so that counts repeat exactly.
    """

    def __init__(self, sc) -> None:
        self._sc = sc
        self._st = sc.statusTracker()

    def _drain(self) -> None:
        self._sc._jsc.sc().listenerBus().waitUntilEmpty()

    def _last_ids(self) -> tuple[int, int]:
        jobs = self._st.getJobIdsForGroup(None)
        if not jobs:
            return -1, -1
        job = max(jobs)
        info = self._st.getJobInfo(job)
        stages = list(info.stageIds) if info is not None else []
        return job, max(stages, default=-1)

    def snapshot(self) -> tuple[int, int]:
        self._drain()
        return self._last_ids()

    def delta(self, before: tuple[int, int]) -> dict[str, float]:
        self._drain()
        job, stage = self._last_ids()
        tasks = failed = 0
        for sid in range(before[1] + 1, stage + 1):
            info = self._st.getStageInfo(sid)
            if info is not None:
                tasks += info.numCompletedTasks
                failed += info.numFailedTasks
        return {"jobs": job - before[0], "stages": stage - before[1],
                "tasks": tasks, "failed_tasks": failed}


Counter = Callable[[tuple, dict, Any], dict[str, float]]


class Tracer:
    """Collects spans; :meth:`wrap` makes a traced version of a function.

    ``memory=True`` records each span's tracemalloc peak above its entry
    point (``peak_bytes``); tracemalloc must be running. ``probe`` adds
    Spark job/stage/task counts to each span.
    """

    def __init__(self, *, memory: bool = False,
                 probe: SparkProbe | None = None) -> None:
        self.spans: list[Span] = []
        self.qid: int | None = None
        self._queries = 0
        self._stack: list[Span] = []
        self._memory = memory
        self._probe = probe

    def wrap(self, name: str, fn: Callable, count: Counter | None = None
             ) -> Callable:
        def traced(*args, **kwargs):
            enter = time.perf_counter()
            parent = self._stack[-1] if self._stack else None
            before = self._probe.snapshot() if self._probe else None
            sp = Span(id=len(self.spans), name=name, qid=self.qid,
                      parent=parent.id if parent else None, start=0.0)
            if self._memory:
                cur, peak = tracemalloc.get_traced_memory()
                if parent is not None:
                    parent.hw = max(parent.hw, peak)
                tracemalloc.reset_peak()
                sp.base = sp.hw = cur
            self.spans.append(sp)
            self._stack.append(sp)
            sp.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                sp.end = time.perf_counter()
                self._stack.pop()
            if self._memory:
                sp.hw = max(sp.hw, tracemalloc.get_traced_memory()[1])
                sp.counters["peak_bytes"] = sp.hw - sp.base
                if parent is not None:
                    parent.hw = max(parent.hw, sp.hw)
            if self._probe:
                sp.counters.update(self._probe.delta(before))
            if count:
                sp.counters.update(count(args, kwargs, out))
            if parent is not None:
                parent.instr += (sp.start - enter) + (time.perf_counter()
                                                      - sp.end)
            return out
        return traced

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` as the root span of a new query."""
        self.qid = self._queries
        self._queries += 1
        try:
            return self.wrap(name, fn)(*args, **kwargs)
        finally:
            self.qid = None

    def roots(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.parent is None and s.name == name]

    def layer_table(self, root: str) -> dict[str, float]:
        """Mean self time per query (seconds) of each span name under the
        ``root`` spans, the root's own self time (``root``) and the tracer's
        own time (``tracer``). The entries add up to the mean root span."""
        roots = self.roots(root)
        table: dict[str, float] = {}
        by_parent: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                by_parent.setdefault(s.parent, []).append(s)

        def walk(sp: Span) -> None:
            kids = by_parent.get(sp.id, [])
            own = sp.dur - sum(k.dur for k in kids) - sp.instr
            table[sp.name] = table.get(sp.name, 0.0) + own
            table["tracer"] = table.get("tracer", 0.0) + sp.instr
            for k in kids:
                walk(k)

        for r in roots:
            walk(r)
        return {k: v / max(len(roots), 1) for k, v in table.items()}

    def dump(self) -> list[dict]:
        out = []
        for s in self.spans:
            d = asdict(s)
            del d["hw"], d["base"]
            out.append(d)
        return out


@contextlib.contextmanager
def patched(tracer: Tracer,
            targets: list[tuple[Any, str, str, Counter | None]]
            ) -> Iterator[None]:
    """Replace ``module.attr`` by a traced wrapper for each
    ``(module, attr, span_name, counter)``; restore them on exit."""
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in targets]
    try:
        for mod, attr, name, count in targets:
            setattr(mod, attr, tracer.wrap(name, getattr(mod, attr), count))
        yield
    finally:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)
