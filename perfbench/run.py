"""Table VII end-to-end benchmark of repro: one workload, one seed, one run.

    python3 perfbench/run.py --workload compile_table7 --seed 7 --seconds 15 --trace 0

Run from the root of a checkout.  The program is imported from the
checkout's ``src/`` and nowhere else.  The first run in a checkout
builds the coverage store under ``perfbench/.cache/`` (about 95 s);
every later run reads it.

Workloads (README.md says why each exists):

* ``compile_table7`` -- the 18 jobs through ``repro.compile`` in a fresh
  interpreter (cold round), then again in the same interpreter (warm).
* ``shards_table7``  -- the 18 jobs one at a time through an unprimed
  ``repro serve --shards 2``, then replayed against the router's memo.

With ``--trace 0`` the last line of stdout is the result with every
end-to-end metric; with ``--trace 1`` the workload runs untraced and
then traced, and the result carries the per-layer metrics.  Outputs
are checked against computations made apart from the program
(checks.py); a failed check prints ``"correct": false`` and exits 1.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import fcntl
import json
import math
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
CACHE = HERE / ".cache"
STORE = CACHE / "coverage"
STORE_READY = STORE / "built"

sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from launch import (  # noqa: E402
    CIRCUITS,
    NUM_QUBITS,
    RULES,
    TRIALS,
    WORKLOAD_SEED_OFFSET,
    warm_rounds_done,
)

WORKLOADS = ("compile_table7", "shards_table7")
SHARDS = 2
#: A run must print its result within 180 s; leave room for clean-up.
RUN_DEADLINE_S = 165
STORE_DEADLINE_S = 700
#: Jobs per service run recompiled in-process for the digest check.
REFERENCE_SAMPLE = 2
_PR_SET_CHILD_SUBREAPER = 36


class BenchError(RuntimeError):
    """The run could not measure: a process failed, hung or was left over."""


def _on_alarm(signum, frame):
    raise BenchError(f"run exceeded {RUN_DEADLINE_S} s")


def hermetic_env(run_dir: Path) -> dict:
    """Environment of every process the run starts.

    The checkout's sources, the benchmark's own stores, no repro knob
    from the caller's shell.  BLAS thread variables stay as found.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SOURCE)
    env["REPRO_COVERAGE_CACHE"] = "1"
    env["REPRO_CACHE_DIR"] = str(STORE)
    env["REPRO_DECOMP_CACHE_DIR"] = str(run_dir / "decomp")
    return env


def launch(mode_args: list[str], env: dict, **kwargs) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, str(HERE / "launch.py"), *mode_args],
        env=env, cwd=ROOT, start_new_session=True, **kwargs,
    )


def ensure_store() -> None:
    """Build the coverage store once per checkout, before any timed run."""
    if STORE_READY.exists():
        return
    CACHE.mkdir(parents=True, exist_ok=True)
    with open(CACHE / "coverage.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not STORE_READY.exists():
            _build_store()


def _build_store() -> None:
    building = CACHE / "coverage.building"
    shutil.rmtree(building, ignore_errors=True)
    building.mkdir(parents=True)
    env = hermetic_env(building)
    env["REPRO_CACHE_DIR"] = str(building)
    start = time.perf_counter()
    log = building / "build.log"
    with open(log, "w") as sink:
        proc = launch(["build-store"], env, stdout=sink, stderr=subprocess.STDOUT)
        try:
            code = proc.wait(timeout=STORE_DEADLINE_S)
        finally:
            left = settle(proc)
    if code != 0 or left:
        raise BenchError(f"coverage store build failed:\n{log.read_text()[-2000:]}")
    shutil.rmtree(STORE, ignore_errors=True)
    building.rename(STORE)
    STORE_READY.write_text(f"{time.perf_counter() - start:.1f} s\n")


def remove_stale_runs() -> None:
    """Delete run directories left by benchmark processes that were killed."""
    for run_dir in (CACHE / "runs").glob("*-*"):
        pid = int(run_dir.name.rsplit("-", 1)[1])
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            shutil.rmtree(run_dir, ignore_errors=True)


def settle(proc: subprocess.Popen) -> list[str]:
    """Reap a child and its process group; name whatever outlived it.

    A child that is still running (the run failed or timed out) is
    killed with its whole group.  A child that exited on its own must
    have taken its shards and workers with it: a survivor is killed,
    reaped and reported, which fails the run.
    """
    if proc.poll() is None:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return []
    left = []
    deadline = time.monotonic() + 10
    while True:
        # Orphans of the group were re-parented to this process.
        with contextlib.suppress(ChildProcessError):
            while os.waitpid(-1, os.WNOHANG)[0] > 0:
                pass
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return left
        if not left:
            left.append(f"processes of group {proc.pid} outlived it")
            os.killpg(proc.pid, signal.SIGKILL)
        if time.monotonic() > deadline:
            raise BenchError(f"cannot reap process group {proc.pid}")
        time.sleep(0.05)


def geomean(values) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def warm_summary(rounds: list) -> dict:
    """Totals and time averages of ``[round wall, [job latencies]]`` rounds.

    The host's speed moves by a quarter or more for seconds at a time, so
    a median over the phase jumps with the share of it the host spent
    slow; averages over the whole phase move with that share smoothly.
    """
    warm_wall = sum(wall for wall, _ in rounds)
    warm_jobs = sum(len(latencies) for _, latencies in rounds)
    return {
        "warm_wall": warm_wall,
        "warm_jobs": warm_jobs,
        "warm_jobs_per_s": warm_jobs / warm_wall,
        "warm_job_p50_s": statistics.fmean(
            statistics.median(latencies) for _, latencies in rounds
        ),
    }


def duration_metrics(durations: dict) -> dict:
    return {
        f"duration_{rules}": geomean([durations[(name, rules)] for name in CIRCUITS])
        for rules in RULES
    }


# -- compile_table7 -------------------------------------------------------------


def _unitary_gates(rows) -> list:
    """Gate rows as checks.simulate takes them: explicit matrices made complex."""
    return [
        (name, tuple(qubits), tuple(params),
         None if matrix is None else [[complex(*z) for z in line] for line in matrix])
        for name, qubits, params, matrix in rows
    ]


def check_compile(data: dict, seed: int) -> list[str]:
    """Every independent check on the compiled Table VII circuits."""
    errors = []
    inputs = {name: _unitary_gates(rows) for name, rows in data["inputs"].items()}
    state = checks.random_state(NUM_QUBITS, seed)
    expected = {name: checks.simulate(gates, state) for name, gates in inputs.items()}
    durations = {}
    for job in data["jobs"]:
        label = f"{job['workload']}/{job['rules']}"
        compiled = job["compiled"]
        pulses = [row for row in compiled if row[0] == "pulse2q"]
        found = checks.check_lattice([row[1] for row in pulses])
        found += checks.check_critical_path(
            [(tuple(row[1]), row[3] or 0.0) for row in compiled],
            job["starts"], job["duration"],
        )
        found += checks.check_pulse_quanta([row[3] for row in pulses], job["rules"])
        found += checks.check_equivalence(
            inputs[job["workload"]], _unitary_gates(job["routed"]),
            job["initial_layout"], job["final_layout"], state,
            expected=expected[job["workload"]],
        )
        if checks.gate_stream_digest(compiled) != job["digest"]:
            found.append("digest does not match the emitted gates")
        errors += [f"{label}: {error}" for error in found]
        durations[(job["workload"], job["rules"])] = job["duration"]
    errors += checks.check_parallel_wins(durations)
    for round_index, digests in enumerate(data["warm_digests"]):
        for job, digest in zip(data["jobs"], digests):
            if digest != job["digest"]:
                errors.append(
                    f"{job['workload']}/{job['rules']}: warm round {round_index} "
                    "digest differs from the cold one"
                )
        if len(digests) != len(data["jobs"]):
            errors.append(f"warm round {round_index} has {len(digests)} results")
    return errors


def run_compile(args, run_dir: Path, trace_dir: Path | None) -> dict:
    env = hermetic_env(run_dir)
    out = run_dir / "compile.json"
    mode = ["compile", "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--out", str(out)]
    if trace_dir is not None:
        mode += ["--trace-dir", str(trace_dir)]
    log = open(run_dir / "compile.log", "w")
    start = time.perf_counter()
    proc = launch(mode, env, stdout=subprocess.PIPE, stderr=log, text=True)
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait()
    finally:
        left = settle(proc)
        log.close()
    if ready.strip() != "ready" or code != 0:
        raise BenchError(
            f"compile_table7 interpreter failed ({code}):\n"
            f"{(run_dir / 'compile.log').read_text()[-3000:]}"
        )
    data = json.loads(out.read_text())
    warm = warm_summary(data["warm_rounds"])
    durations = {(job["workload"], job["rules"]): job["duration"] for job in data["jobs"]}
    return {
        "errors": left + check_compile(data, args.seed),
        "attempted": len(data["jobs"]) + warm["warm_jobs"],
        "failed": 0,
        "cold_wall": setup + data["cold_wall_s"],
        "warm_wall": warm["warm_wall"],
        "warm_jobs": warm["warm_jobs"],
        "metrics": {
            "setup_s": setup,
            "cold_wall_s": data["cold_wall_s"],
            "warm_jobs_per_s": warm["warm_jobs_per_s"],
            "warm_job_p50_s": warm["warm_job_p50_s"],
            "peak_rss_mb": data["max_rss_kb"] / 1024,
            **duration_metrics(durations),
        },
    }


# -- shards_table7 --------------------------------------------------------------


def suite_jobs(seed: int) -> list:
    from repro.service.jobs import CompileJob

    return [
        CompileJob(
            workload=name, num_qubits=NUM_QUBITS, rules=rules, trials=TRIALS,
            seed=seed, workload_seed=seed + WORKLOAD_SEED_OFFSET, pipeline="paper",
        )
        for name in CIRCUITS
        for rules in RULES
    ]


def submit(client, job) -> tuple[float, dict]:
    """One closed-loop request: send, wait for the result, drain the stream."""
    start = time.perf_counter()
    latency, result = None, None
    for event in client.submit_stream([job]):
        if event["event"] == "result":
            latency = time.perf_counter() - start
            result = event
    if result is None:
        raise BenchError(f"{job.label}: stream ended without a result")
    return latency, result


def check_served(job, event: dict) -> list[str]:
    result = event["result"]
    if not event.get("ok") or result.get("error"):
        return [f"{job.label}: job failed: {str(result.get('error'))[-300:]}"]
    u1q = result["gate_counts"].get("u1q", 0)
    return [
        f"{job.label}: {error}"
        for error in checks.check_duration_bounds(
            result["duration"], result["total_pulse_time"], u1q
        )
    ]


def check_reference(args, jobs: list, served: dict, run_dir: Path) -> list[str]:
    """A seeded sample of served digests against in-process compiles."""
    sample = random.Random(args.seed).sample(jobs, REFERENCE_SAMPLE)
    jobs_path = run_dir / "reference-jobs.json"
    jobs_path.write_text(json.dumps([job.to_dict() for job in sample]))
    out = run_dir / "reference.json"
    env = hermetic_env(run_dir)
    env["REPRO_DECOMP_CACHE_DIR"] = str(run_dir / "reference-decomp")
    proc = launch(
        ["reference", "--jobs", str(jobs_path), "--out", str(out)], env,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    try:
        _, err = proc.communicate()
    finally:
        errors = settle(proc)
    if proc.returncode != 0:
        raise BenchError(f"reference compile failed:\n{err[-3000:]}")
    digests = json.loads(out.read_text())
    for job in sample:
        key = job.identity_digest()
        if digests.get(key) != served[key]["digest"]:
            errors.append(
                f"{job.label}: served digest differs from an in-process compile"
            )
    return errors


def run_service(args, run_dir: Path, trace_dir: Path | None) -> dict:
    from repro.service.client import ServiceClient

    env = hermetic_env(run_dir)
    jobs = suite_jobs(args.seed)
    if trace_dir is not None:
        import tracing

        tracing.install(tracing.Recorder(trace_dir))
    rusage = run_dir / "rusage.json"
    mode = ["serve", "--rusage", str(rusage)]
    if trace_dir is not None:
        mode += ["--trace-dir", str(trace_dir)]
    mode += ["--", "--port", "0", "--shards", str(SHARDS)]
    log = open(run_dir / "serve.log", "w")
    start = time.perf_counter()
    proc = launch(mode, env, stdout=subprocess.PIPE, stderr=log, text=True)
    client = None
    try:
        line = proc.stdout.readline()
        setup = time.perf_counter() - start
        found = re.search(r"listening on (http://\S+)", line)
        if found is None:
            raise BenchError(f"server did not start: {line!r}")
        client = ServiceClient(found.group(1), timeout=150)
        errors, served, failed = [], {}, 0
        cold_start = time.perf_counter()
        for job in jobs:
            _, event = submit(client, job)
            failed += not event.get("ok")
            served[job.identity_digest()] = event["result"]
            errors += check_served(job, event)
        cold_wall = time.perf_counter() - cold_start
        rounds, warm_wall = [], 0.0
        while True:
            round_start, latencies = time.perf_counter(), []
            for job in jobs:
                latency, event = submit(client, job)
                latencies.append(latency)
                failed += not event.get("ok")
                if event["result"].get("digest") != served[job.identity_digest()]["digest"]:
                    errors.append(f"{job.label}: replayed digest differs")
            round_wall = time.perf_counter() - round_start
            warm_wall += round_wall
            rounds.append([round_wall, latencies])
            if warm_rounds_done(warm_wall, len(rounds), args.seconds):
                break
        client.shutdown(drain=True)
        code = proc.wait(timeout=60)
        if code != 0:
            raise BenchError(f"server exited with {code}")
    finally:
        if client is not None:
            client.close()
        left = settle(proc)
        log.close()
    errors += left
    durations = {
        (job.workload, job.rules): served[job.identity_digest()]["duration"]
        for job in jobs
    }
    errors += checks.check_parallel_wins(durations)
    errors += check_reference(args, jobs, served, run_dir)
    warm = warm_summary(rounds)
    return {
        "errors": errors,
        "attempted": len(jobs) + warm["warm_jobs"],
        "failed": failed,
        "cold_wall": setup + cold_wall,
        "warm_wall": warm["warm_wall"],
        "warm_jobs": warm["warm_jobs"],
        "metrics": {
            "setup_s": setup,
            "cold_wall_s": cold_wall,
            "warm_jobs_per_s": warm["warm_jobs_per_s"],
            "warm_job_p50_s": warm["warm_job_p50_s"],
            "peak_rss_mb": json.loads(rusage.read_text())["max_rss_kb"] / 1024,
            **duration_metrics(durations),
        },
    }


# -- entry point ----------------------------------------------------------------


UNITS = {
    "setup_s": "s", "cold_wall_s": "s",
    "warm_jobs_per_s": "1/s", "warm_job_p50_s": "s", "peak_rss_mb": "MB",
    "duration_parallel": "pulse", "duration_baseline": "pulse",
}


def run_workload(args, run_dir: Path, trace_dir: Path | None) -> dict:
    run_dir.mkdir(parents=True, exist_ok=True)
    if args.workload == "compile_table7":
        return run_compile(args, run_dir, trace_dir)
    return run_service(args, run_dir, trace_dir)


def layer_result(untraced: dict, traced: dict, trace_dir: Path) -> dict:
    """Per-layer metrics of the traced run, against the untraced one.

    The warm phase runs for a fixed time, so the two runs answer
    different numbers of warm jobs; the untraced wall is taken for the
    traced run's job count at the untraced run's warm rate.
    """
    import tracing

    layers, attributed = tracing.layer_metrics(trace_dir, os.getpid())
    untraced_wall = (
        untraced["cold_wall"]
        + untraced["warm_wall"] * traced["warm_jobs"] / untraced["warm_jobs"]
    )
    metrics = {
        name: {"value": value, "unit": "s" if name.endswith("_s") else "count"}
        for name, value in layers.items()
    }
    metrics["obs.trace_overhead_s"] = {
        "value": traced["cold_wall"] + traced["warm_wall"] - untraced_wall, "unit": "s",
    }
    metrics["unattributed_s"] = {"value": untraced_wall - attributed, "unit": "s"}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SOURCE}", file=sys.stderr)
        return 2
    # Orphaned shards and workers are re-parented here, so they can be
    # reaped and counted instead of lingering under init.
    ctypes.CDLL(None).prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    run_dir = CACHE / "runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    env = hermetic_env(run_dir)
    os.environ.clear()
    os.environ.update(env)
    sys.path.insert(0, str(SOURCE))
    signal.signal(signal.SIGALRM, _on_alarm)
    try:
        ensure_store()
        remove_stale_runs()
        signal.alarm(RUN_DEADLINE_S)
        untraced = run_workload(args, run_dir / "untraced", None)
        if args.trace:
            trace_dir = run_dir / "traced" / "spans"
            traced = run_workload(args, run_dir / "traced", trace_dir)
            metrics = layer_result(untraced, traced, trace_dir)
            errors = untraced["errors"] + traced["errors"]
        else:
            traced = None
            metrics = {
                name: {"value": value, "unit": UNITS[name]}
                for name, value in untraced["metrics"].items()
            }
            errors = untraced["errors"]
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        shutil.rmtree(run_dir, ignore_errors=True)
    for error in errors:
        print(f"perfbench: check failed: {error}", file=sys.stderr)
    runs = [untraced] + ([traced] if traced else [])
    result = {
        "correct": not errors,
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
