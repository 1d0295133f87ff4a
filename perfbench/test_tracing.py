"""The traced run's self-time derivation on a hand-built span tree.

Run with ``python -m pytest perfbench/test_tracing.py -q`` from the repo root.
"""

from __future__ import annotations

import json

import pytest

import tracing

BENCH, SERVER, WORKER = 100, 200, 300


def _write(tmp_path, pid, ppid, spans):
    lines = [{"meta": True, "pid": pid, "ppid": ppid}]
    for index, (name, start, end, extra) in enumerate(spans):
        lines.append({
            "pid": pid, "id": f"{pid}-{index}", "name": name, "start": start,
            "end": end, "parent": None, "job": "j1", **extra,
        })
    path = tmp_path / f"spans-{pid}.ndjson"
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))


def test_self_times_link_client_server_and_worker(tmp_path):
    # Client waits 10 s; the server admits (1 s) and runs the job in a
    # forked worker (execute_once 2..9); the worker's body runs 3..8 with
    # a 2 s route pass inside it.
    _write(tmp_path, BENCH, 1, [("service.client.submit_stream", 0.0, 10.0, {})])
    _write(tmp_path, SERVER, BENCH, [
        ("service.server.admit", 1.0, 2.0, {"counts": {"service.server.dedup_hits_n": 0}}),
        (tracing.EXECUTE_ONCE, 2.0, 9.0, {"detached": True}),
    ])
    _write(tmp_path, WORKER, SERVER, [
        (tracing.EXECUTE_JOB, 3.0, 8.0, {}),
        ("transpiler.passes.route", 4.0, 6.0,
         {"parent": f"{WORKER}-0", "counts": {"transpiler.passes.route_swaps_n": 5}}),
    ])
    metrics, attributed = tracing.layer_metrics(tmp_path, BENCH)
    assert metrics["service.client.submit_stream_s"] == pytest.approx(2.0)
    assert metrics["service.server.admit_s"] == pytest.approx(1.0)
    assert metrics["service.server.fork_s"] == pytest.approx(1.0)
    assert metrics["service.server.return_s"] == pytest.approx(1.0)
    assert metrics["service.engine.execute_job_s"] == pytest.approx(3.0)
    assert metrics["transpiler.passes.route_s"] == pytest.approx(2.0)
    assert metrics["transpiler.passes.route_swaps_n"] == 5
    assert attributed == pytest.approx(10.0)


def test_spans_of_another_job_are_not_children(tmp_path):
    _write(tmp_path, BENCH, 1, [("service.client.submit_stream", 0.0, 10.0, {})])
    _write(tmp_path, SERVER, BENCH, [
        ("service.server.admit", 1.0, 2.0, {"job": "other"}),
    ])
    metrics, attributed = tracing.layer_metrics(tmp_path, BENCH)
    assert metrics["service.client.submit_stream_s"] == pytest.approx(10.0)
    assert attributed == pytest.approx(11.0)


def test_recorder_writes_nested_spans_when_the_outermost_returns(tmp_path):
    rec = tracing.Recorder(tmp_path)
    outer = rec.open("circuits.get_workload")
    inner = rec.open("kernels.weyl")
    rec.close(inner, {"kernels.weyl_rows_n": 3})
    assert not list(tmp_path.glob("spans-*.ndjson"))
    rec.close(outer)
    spans, parents = tracing.load_spans(tmp_path)
    assert list(parents) == [rec.pid]
    by_name = {span["name"]: span for span in spans}
    assert by_name["kernels.weyl"]["parent"] == by_name["circuits.get_workload"]["id"]
    assert by_name["kernels.weyl"]["counts"] == {"kernels.weyl_rows_n": 3}
