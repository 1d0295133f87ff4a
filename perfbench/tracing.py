"""Spans recorded by the benchmark around calls into repro's layers.

Nothing under ``src/`` records these spans.  :func:`install` replaces
public functions and methods of the program's modules with thin timing
wrappers, in whichever process calls it: the benchmark process (the
service client), the ``compile_table7`` interpreter, and the launcher
that runs ``repro serve`` (its forked shards and workers inherit the
wrappers).  Each process keeps its spans in memory and appends them to
``<trace dir>/spans-<pid>.ndjson`` whenever its outermost wrapped call
returns, because forked workers end with ``os._exit`` and never run
``atexit``.

:func:`layer_metrics` reads the span files of a run back, links the
spans of different processes into one tree per job, and derives the
per-layer self times and counts the README lists.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

#: Per-layer self times, in the order BENCHMARK.json lists them.
TIME_LAYERS = (
    "circuits.get_workload_s",
    "transpiler.passes.layout_s",
    "transpiler.passes.route_s",
    "transpiler.passes.merge_1q_s",
    "transpiler.passes.collect_2q_s",
    "transpiler.passes.translate_s",
    "transpiler.passes.merge_placeholders_s",
    "transpiler.passes.schedule_s",
    "kernels.weyl_s",
    "kernels.membership_s",
    "core.coverage.assemble_s",
    "core.coverage.contains_s",
    "core.rules.templates_s",
    "service.coverage_store.get_clouds_s",
    "service.cache.lookup_many_s",
    "service.engine.execute_job_s",
    "service.server.startup_s",
    "service.server.admit_s",
    "service.server.queue_wait_s",
    "service.server.fork_s",
    "service.server.return_s",
    "service.queue.ops_s",
    "service.router.forward_s",
    "service.client.submit_stream_s",
)
COUNTS = (
    "transpiler.passes.route_swaps_n",
    "transpiler.passes.blocks_n",
    "transpiler.passes.gates_out_n",
    "kernels.weyl_rows_n",
    "kernels.membership_rows_n",
    "core.coverage.hulls_n",
    "core.coverage.contains_rows_n",
    "core.coverage.replays_n",
    "core.rules.templates_rows_n",
    "service.coverage_store.reads_n",
    "service.cache.hits_n",
    "service.cache.misses_n",
    "service.server.dedup_hits_n",
    "service.server.requeues_n",
    "service.router.memo_hits_n",
)
#: The server's span around one forked execution.  Its self time is the
#: fork before the worker's job body starts plus the return after it ends.
EXECUTE_ONCE = "service.server.execute_once"
EXECUTE_JOB = "service.engine.execute_job"


class Recorder:
    """In-memory span buffer of one process, written out per outermost call."""

    def __init__(self, out_dir: str | Path):
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.spans: list[dict] = [{"meta": True, "pid": self.pid, "ppid": os.getppid()}]
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def _stack(self) -> list[dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> dict | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def open(self, name: str, job: str | None = None, nest: bool = True) -> dict:
        """Start a span; ``nest=False`` keeps it off the thread's stack.

        Coroutines interleave on one thread, so a span around one is
        recorded as detached and linked to its children by time.
        """
        parent = self.current() if nest else None
        frame = {
            "pid": self.pid,
            "id": f"{self.pid}-{next(self._ids)}",
            "parent": parent["id"] if parent else None,
            "name": name,
            "job": job or (parent["job"] if parent else None),
            "start": time.perf_counter(),
        }
        if nest:
            self._stack().append(frame)
        else:
            frame["detached"] = True
        return frame

    def close(self, frame: dict, counts: dict | None = None) -> None:
        frame["end"] = time.perf_counter()
        if counts:
            frame["counts"] = counts
        stack = self._stack()
        if stack and stack[-1] is frame:
            stack.pop()
        self.spans.append(frame)
        if not stack:
            self.flush()

    def add(self, name: str, start: float, end: float, job: str | None) -> None:
        """Record a detached span whose interval was measured elsewhere."""
        self.spans.append(
            {"pid": self.pid, "id": f"{self.pid}-{next(self._ids)}",
             "parent": None, "name": name, "job": job, "detached": True,
             "start": start, "end": end}
        )

    def flush(self) -> None:
        with self._lock:
            spans, self.spans = self.spans, []
        if not spans:
            return
        lines = "".join(json.dumps(span) + "\n" for span in spans)
        path = self.out_dir / f"spans-{self.pid}.ndjson"
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(lines)


# -- wrappers ----------------------------------------------------------------


def _rows(value) -> int:
    shape = getattr(value, "shape", None)
    return int(shape[0]) if shape is not None and len(shape) > 1 else 1


def _rows_of(index: int, metric: str):
    return lambda args, kwargs, result: {metric: _rows(args[index])}


def _wrap(rec: Recorder, name: str, function, job_of=None, counts_of=None):
    """Span around a plain call; ``counts_of(args, kwargs, result)``."""

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        frame = rec.open(name, job_of(args, kwargs) if job_of else None)
        result = None
        try:
            result = function(*args, **kwargs)
            return result
        finally:
            rec.close(frame, counts_of(args, kwargs, result) if counts_of else None)

    return wrapper


def _wrap_async(rec: Recorder, name: str, function, job_of=None, before=None, counts=None):
    @functools.wraps(function)
    async def wrapper(*args, **kwargs):
        if before is not None:
            before(args)
        frame = rec.open(name, job_of(args, kwargs) if job_of else None, nest=False)
        try:
            return await function(*args, **kwargs)
        finally:
            rec.close(frame, counts)

    return wrapper


def _wrap_stream(rec: Recorder, name: str, function, job_of):
    """Span from the first ``next()`` of a generator to its exhaustion."""

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        frame = rec.open(name, job_of(args, kwargs))
        try:
            yield from function(*args, **kwargs)
        finally:
            rec.close(frame)

    return wrapper


def _patch_function(module, attr: str, make) -> None:
    """Rebind every ``repro`` module-level name that holds the function.

    Functions imported by name (``from .engine import execute_job``)
    live in several module namespaces; each one must see the wrapper.
    """
    original = getattr(module, attr)
    replacement = make(original)
    for name, loaded in list(sys.modules.items()):
        if loaded is None or not name.startswith("repro"):
            continue
        for key, value in list(vars(loaded).items()):
            if value is original:
                setattr(loaded, key, replacement)


def _patch_method(cls, attr: str, make) -> None:
    setattr(cls, attr, make(cls.__dict__[attr]))


def install(rec: Recorder, started: float | None = None) -> None:
    """Wrap repro's public layer entry points in this process.

    ``started`` (a ``perf_counter`` reading) makes this process the
    service front: the ``service.server.startup`` span runs from it to
    the first time this process's server or router reports ready.
    The launcher passes the moment its interpreter began running it,
    so the span covers imports and the public ``serve`` entry point.
    """
    import repro.circuits.workloads as workloads
    import repro.core.coverage as coverage
    import repro.core.decomposition_rules as rules
    import repro.kernels.membership as membership
    import repro.kernels.weyl_batch as weyl_batch
    import repro.service.cache as cache
    import repro.service.client as client
    import repro.service.coverage_store as coverage_store
    import repro.service.engine as engine
    import repro.service.queue as queue
    import repro.service.router as router
    import repro.service.server as server
    import repro.transpiler.passes.stages as stages

    front_pid = os.getpid() if started is not None else None

    # repro.circuits
    _patch_function(
        workloads, "get_workload",
        lambda f: _wrap(rec, "circuits.get_workload", f),
    )

    # repro.transpiler.passes: one span per pass execution.
    def swaps(args, kwargs, result):
        routing = args[1].routing
        return {"transpiler.passes.route_swaps_n": routing.swap_count if routing else 0}

    def blocks(args, kwargs, result):
        return {
            "transpiler.passes.blocks_n":
                sum(1 for gate in args[1].circuit if gate.num_qubits == 2)
        }

    def gates_out(args, kwargs, result):
        return {"transpiler.passes.gates_out_n": len(args[1].circuit)}

    passes = {
        stages.TrivialLayout: ("layout", None),
        stages.RandomLayout: ("layout", None),
        stages.SetLayout: ("layout", None),
        stages.Route: ("route", swaps),
        stages.Merge1QRuns: ("merge_1q", None),
        stages.Collect2QBlocks: ("collect_2q", blocks),
        stages.TranslateToBasis: ("translate", None),
        stages.MergePlaceholders: ("merge_placeholders", None),
        stages.Schedule: ("schedule", gates_out),
    }
    for cls, (layer, counts_of) in passes.items():
        _patch_method(
            cls, "run",
            lambda f, layer=layer, counts_of=counts_of: _wrap(
                rec, f"transpiler.passes.{layer}", f, counts_of=counts_of
            ),
        )

    # repro.kernels
    for attr in ("weyl_coordinates_many", "canonicalize_coordinates_many"):
        _patch_function(
            weyl_batch, attr,
            lambda f: _wrap(
                rec, "kernels.weyl", f,
                counts_of=_rows_of(0, "kernels.weyl_rows_n"),
            ),
        )
    for attr in ("membership_matrix", "first_covering_k"):
        _patch_function(
            membership, attr,
            lambda f: _wrap(
                rec, "kernels.membership", f,
                counts_of=_rows_of(1, "kernels.membership_rows_n"),
            ),
        )

    # repro.core.coverage: set assembly (hull builds included), batched
    # membership, and the single-row replays contains() makes of rows in
    # its ambiguity band (a nested contains() call is one replay).
    _patch_function(
        coverage, "build_coverage_set",
        lambda f: _wrap(rec, "core.coverage.assemble", f),
    )
    _patch_method(
        coverage.RegionHull, "__init__",
        lambda f: _wrap(
            rec, "core.coverage.assemble", f,
            counts_of=lambda a, k, r: {"core.coverage.hulls_n": 1},
        ),
    )
    original_contains = coverage.RegionHull.contains

    @functools.wraps(original_contains)
    def contains(self, coords):
        parent = rec.current()
        replay = parent is not None and parent["name"] == "core.coverage.contains"
        frame = rec.open("core.coverage.contains")
        try:
            return original_contains(self, coords)
        finally:
            rec.close(
                frame,
                {"core.coverage.replays_n": 1} if replay
                else {"core.coverage.contains_rows_n": _rows(coords)},
            )

    coverage.RegionHull.contains = contains

    # repro.core.decomposition_rules
    for cls in (rules.BaselineSqrtISwapRules, rules.ParallelSqrtISwapRules):
        _patch_method(
            cls, "templates_for_many",
            lambda f: _wrap(
                rec, "core.rules.templates", f,
                counts_of=_rows_of(1, "core.rules.templates_rows_n"),
            ),
        )

    # repro.service.coverage_store / repro.service.cache
    _patch_method(
        coverage_store.CoverageStore, "get_clouds",
        lambda f: _wrap(
            rec, "service.coverage_store.get_clouds", f,
            counts_of=lambda a, k, r: {"service.coverage_store.reads_n": 1},
        ),
    )
    original_lookup = cache.DecompositionCache.lookup_many

    @functools.wraps(original_lookup)
    def lookup_many(self, rules_token, coords, factory_many):
        frame = rec.open("service.cache.lookup_many")
        hits, misses = self.stats.hits, self.stats.misses
        try:
            return original_lookup(self, rules_token, coords, factory_many)
        finally:
            rec.close(frame, {
                "service.cache.hits_n": self.stats.hits - hits,
                "service.cache.misses_n": self.stats.misses - misses,
            })

    cache.DecompositionCache.lookup_many = lookup_many

    # repro.service.engine: the job body, a forked worker's whole work.
    _patch_function(
        engine, "execute_job",
        lambda f: _wrap(rec, EXECUTE_JOB, f, job_of=lambda a, k: a[0].identity_digest()),
    )

    # repro.service.queue: every public queue operation.
    for attr in ("put", "mark_running", "requeue", "mark_done", "recover", "depth"):
        _patch_method(
            queue.PersistentJobQueue, attr,
            lambda f: _wrap(rec, "service.queue.ops", f),
        )

    # repro.service.server
    def dedup(args, kwargs, result):
        hit = any(
            str(event.get("status", "")).startswith("dedup") for event in result or ()
        )
        return {"service.server.dedup_hits_n": int(hit)}

    # Admission is the server's whole handling of a submission (parse,
    # dedup tiers, streaming the events back) less the job's execution.
    _patch_method(
        server.CompileServer, "_handle_submit",
        lambda f: _wrap_async(rec, "service.server.admit", f),
    )
    _patch_method(
        server.CompileServer, "_admit",
        lambda f: _wrap(
            rec, "service.server.admit", f,
            job_of=lambda a, k: a[2].identity_digest(), counts_of=dedup,
        ),
    )

    def queue_wait(args) -> None:
        entry = args[1]
        if entry.attempts == 1:
            rec.add(
                "service.server.queue_wait", entry.enqueued_at,
                time.perf_counter(), entry.key,
            )

    _patch_method(
        server.CompileServer, "_execute_once",
        lambda f: _wrap_async(
            rec, EXECUTE_ONCE, f, job_of=lambda a, k: a[1].key, before=queue_wait,
        ),
    )
    _patch_method(
        server.CompileServer, "_requeue",
        lambda f: _wrap_async(
            rec, "service.server.requeue", f, job_of=lambda a, k: a[1].key,
            counts={"service.server.requeues_n": 1},
        ),
    )

    def ready_hook(original_run):
        @functools.wraps(original_run)
        async def run(self, ready_callback=None):
            def ready(instance):
                if os.getpid() == front_pid:
                    rec.add("service.server.startup", started, time.perf_counter(), None)
                    rec.flush()
                if ready_callback is not None:
                    ready_callback(instance)

            return await original_run(self, ready_callback=ready)

        return run

    if front_pid is not None:
        _patch_method(server.CompileServer, "run", ready_hook)
        _patch_method(router.ShardRouter, "run", ready_hook)

    # repro.service.router: the router's handling of a submission, its memo
    # lookups, and each group it forwards to a shard.
    _patch_method(
        router.ShardRouter, "_handle_submit",
        lambda f: _wrap_async(rec, "service.router.forward", f),
    )

    def group_job(args, kwargs):
        group = args[2]
        return group[0][1].identity_digest() if len(group) == 1 else None

    _patch_method(
        router.ShardRouter, "_forward_group",
        lambda f: _wrap(rec, "service.router.forward", f, job_of=group_job),
    )
    _patch_method(
        router.ShardRouter, "_memo_get",
        lambda f: _wrap(
            rec, "service.router.forward", f,
            counts_of=lambda a, k, r: {"service.router.memo_hits_n": int(r is not None)},
        ),
    )

    # repro.service.client
    def stream_job(args, kwargs):
        jobs = args[1] if len(args) > 1 else kwargs["jobs"]
        return jobs[0].identity_digest() if len(jobs) == 1 else None

    _patch_method(
        client.ServiceClient, "submit_stream",
        lambda f: _wrap_stream(rec, "service.client.submit_stream", f, stream_job),
    )


# -- analysis ----------------------------------------------------------------


def load_spans(trace_dir: str | Path) -> tuple[list[dict], dict[int, int]]:
    """All spans of a run and each recording process's parent pid."""
    spans, parents = [], {}
    for path in sorted(Path(trace_dir).glob("spans-*.ndjson")):
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                record = json.loads(line)
                if record.get("meta"):
                    parents[record["pid"]] = record["ppid"]
                else:
                    spans.append(record)
    return spans, parents


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, None
    for low, high in sorted(intervals):
        if reach is None or low > reach:
            total += high - low
            reach = high
        elif high > reach:
            total += high - reach
            reach = high
    return total


class _Containers:
    """Spans sorted by start, answering "innermost span containing x"."""

    #: Spans scanned backwards from a query's start before giving up.
    SCAN = 256

    def __init__(self, spans: list[dict]):
        self.spans = sorted(spans, key=lambda span: span["start"])
        self.starts = [span["start"] for span in self.spans]

    def innermost(self, span: dict) -> dict | None:
        index = bisect.bisect_right(self.starts, span["start"])
        for candidate in reversed(self.spans[max(0, index - self.SCAN):index]):
            if candidate is span or candidate["end"] < span["end"]:
                continue
            if span["job"] and candidate["job"] and span["job"] != candidate["job"]:
                continue
            return candidate
        return None


def layer_metrics(trace_dir: str | Path, bench_pid: int) -> tuple[dict, float]:
    """Per-layer self times and counts of one traced run.

    A span's self time is its duration minus the part of it that its
    children cover.  Children are the spans opened inside it in the
    same thread, plus spans of other processes linked to it by time:
    a span with no parent in its own thread is a child of the innermost
    span containing it among its own process's detached spans (those
    around coroutines) and the spans of its parent process, and, when
    both name a job, of the same job.  A closed loop has one job in
    flight, so containment in time is unambiguous.

    Returns the metrics and the total self time attributed to layers.
    """
    spans, parents = load_spans(trace_dir)
    by_id = {span["id"]: span for span in spans}
    by_pid: dict[int, list[dict]] = defaultdict(list)
    for span in spans:
        by_pid[span["pid"]].append(span)
    containers = {pid: _Containers(group) for pid, group in by_pid.items()}
    detached = {
        pid: _Containers([span for span in group if span.get("detached")])
        for pid, group in by_pid.items()
    }
    children: dict[str, list[dict]] = defaultdict(list)
    for span in spans:
        parent = by_id.get(span["parent"])
        if parent is None and span["pid"] != bench_pid:
            found = [
                detached[span["pid"]].innermost(span),
                containers[parents[span["pid"]]].innermost(span)
                if parents.get(span["pid"]) in containers else None,
            ]
            found = [candidate for candidate in found if candidate is not None]
            parent = min(found, key=lambda c: c["end"] - c["start"], default=None)
        if parent is not None:
            children[parent["id"]].append(span)

    totals = dict.fromkeys(TIME_LAYERS, 0.0)
    counts = dict.fromkeys(COUNTS, 0)
    for span in spans:
        start, end = span["start"], span["end"]
        kids = children.get(span["id"], ())
        covered = _union_length(
            [(max(k["start"], start), min(k["end"], end)) for k in kids
             if k["start"] < end and k["end"] > start]
        )
        own = (end - start) - covered
        name = span["name"]
        if name == EXECUTE_ONCE:
            body = next((k for k in kids if k["name"] == EXECUTE_JOB), None)
            if body is None:
                totals["service.server.fork_s"] += own
            else:
                totals["service.server.fork_s"] += body["start"] - start
                totals["service.server.return_s"] += end - body["end"]
        elif name + "_s" in totals:
            totals[name + "_s"] += own
        for key, value in span.get("counts", {}).items():
            counts[key] += value
    attributed = sum(totals.values())
    return {**totals, **counts}, attributed
