"""Child processes the benchmark starts, one mode each.

    launch.py serve [--trace-dir D] --rusage PATH -- <repro serve arguments>
    launch.py compile --seed N --seconds S --out PATH [--trace-dir D]
    launch.py reference --jobs PATH --out PATH
    launch.py build-store

``run.py`` starts every mode as the leader of a new process group, with
the environment it pins (``PYTHONPATH`` at the checkout's ``src``, the
benchmark's own stores).  Each mode dies with the benchmark: the kernel
sends it SIGTERM when ``run.py`` exits, and SIGTERM kills its whole
process group, so no server, shard or worker outlives a benchmark that
crashed or was killed mid-stream.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parent / "src"

#: The paper's Table VII suite in its published order, and its two rule sets.
CIRCUITS = (
    "quantum_volume", "vqe_linear", "ghz", "hlf", "qft",
    "adder", "qaoa", "vqe_full", "multiplier",
)
RULES = ("baseline", "parallel")
NUM_QUBITS = 16
TRIALS = 10
#: ``--seed n`` sets the trial seed n and the workload seed n + 4, so the
#: default seed 7 reproduces the published table (trial 7, workload 11).
WORKLOAD_SEED_OFFSET = 4
_PR_SET_PDEATHSIG = 1


def _die_with_parent() -> None:
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl(_PR_SET_PDEATHSIG, signal.SIGTERM, 0, 0, 0)
    signal.signal(signal.SIGTERM, lambda *_: os.killpg(0, signal.SIGKILL))
    # Forked shards and workers must not inherit the group-wide kill:
    # the server terminates a worker with SIGTERM.
    os.register_at_fork(
        after_in_child=lambda: signal.signal(signal.SIGTERM, signal.SIG_DFL)
    )
    if os.getppid() == 1:  # the benchmark died before prctl took effect
        os.killpg(0, signal.SIGKILL)


def _import_repro():
    import repro

    origin = Path(repro.__file__).resolve()
    if SOURCE.resolve() not in origin.parents:
        raise SystemExit(f"repro imported from {origin}, not from {SOURCE}")
    return repro


def _install_tracing(trace_dir: str | None, started: float | None = None):
    """Wrap repro's layers in this process when the run is traced."""
    if trace_dir is None:
        return None
    import tracing

    rec = tracing.Recorder(trace_dir)
    tracing.install(rec, started=started)
    return rec


def _max_rss_kb() -> int:
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )


def serve(args) -> int:
    """``repro serve`` through the public CLI entry point."""
    _import_repro()
    import repro.cli

    rec = _install_tracing(args.trace_dir, started=STARTED)
    code = repro.cli.main(["serve", *args.serve_args])
    if rec is not None:
        rec.flush()
    # Workers and shards have been joined by now, so RUSAGE_CHILDREN
    # covers the largest of them.
    Path(args.rusage).write_text(json.dumps({"max_rss_kb": _max_rss_kb()}))
    return code


def warm_rounds_done(elapsed: float, rounds: int, seconds: float) -> bool:
    """Whole rounds, as many as fit ``seconds`` to the nearest round."""
    return elapsed * (rounds + 0.5) / rounds > seconds


def _gates(circuit) -> list:
    """``[name, qubits, params, duration]`` per gate of a compiled circuit."""
    return [
        [gate.name, list(gate.qubits), [float(p) for p in gate.params],
         None if gate.duration is None else float(gate.duration)]
        for gate in circuit
    ]


def _unitaries(circuit) -> list:
    """``[name, qubits, params, matrix]`` per gate; matrix as [re, im] pairs."""
    return [
        [gate.name, list(gate.qubits), [float(p) for p in gate.params],
         None if gate.matrix is None
         else [[[z.real, z.imag] for z in row] for row in gate.matrix.tolist()]]
        for gate in circuit
    ]


def _layout(layout) -> list[int]:
    return [layout.physical(logical) for logical in range(layout.num_logical)]


def compile_table7(args) -> int:
    """The suite through ``repro.compile``: a cold round, then warm rounds."""
    repro = _import_repro()
    import checks
    import repro.circuits.workloads
    from repro.transpiler.compiler import CompilerConfig

    rec = _install_tracing(args.trace_dir)
    circuits = {
        name: repro.circuits.workloads.get_workload(
            name, NUM_QUBITS, seed=args.seed + WORKLOAD_SEED_OFFSET
        )
        for name in CIRCUITS
    }
    configs = {
        rules: CompilerConfig(pipeline="paper", rules=rules, trials=TRIALS)
        for rules in RULES
    }
    print("ready", flush=True)

    def one_round():
        out = []
        for name in CIRCUITS:
            for rules in RULES:
                start = time.perf_counter()
                result = repro.compile(
                    circuits[name], config=configs[rules], seed=args.seed
                )
                out.append((time.perf_counter() - start, name, rules, result))
        return out

    start = time.perf_counter()
    cold = one_round()
    cold_wall = time.perf_counter() - start
    warm_rounds, warm_digests, warm_wall = [], [], 0.0
    while True:
        start = time.perf_counter()
        warm = one_round()
        round_wall = time.perf_counter() - start
        warm_wall += round_wall
        warm_rounds.append([round_wall, [latency for latency, *_ in warm]])
        warm_digests.append([
            checks.gate_stream_digest(_gates(result.circuit)) for *_, result in warm
        ])
        del warm
        if warm_rounds_done(warm_wall, len(warm_rounds), args.seconds):
            break
    # Read before the outputs below are serialized for the checks.
    max_rss_kb = _max_rss_kb()
    if rec is not None:
        rec.flush()
    jobs = []
    for _, name, rules, result in cold:
        compiled = _gates(result.circuit)
        jobs.append({
            "workload": name,
            "rules": rules,
            "duration": float(result.duration),
            "digest": checks.gate_stream_digest(compiled),
            "compiled": compiled,
            "starts": [float(t) for t in result.schedule.start_times],
            "routed": _unitaries(result.routing.circuit),
            "initial_layout": _layout(result.routing.initial_layout),
            "final_layout": _layout(result.routing.final_layout),
        })
    payload = {
        "cold_wall_s": cold_wall,
        "warm_rounds": warm_rounds,
        "warm_digests": warm_digests,
        "jobs": jobs,
        "inputs": {
            name: _unitaries(circuit) for name, circuit in circuits.items()
        },
        "max_rss_kb": max_rss_kb,
    }
    Path(args.out).write_text(json.dumps(payload))
    return 0


def reference(args) -> int:
    """Digests of jobs compiled in-process, each with a fresh decomposition cache."""
    repro = _import_repro()
    from repro.circuits import get_workload
    from repro.service.cache import DecompositionCache
    from repro.service.jobs import CompileJob, circuit_digest

    cache_root = Path(os.environ["REPRO_DECOMP_CACHE_DIR"])
    digests = {}
    for index, payload in enumerate(json.loads(Path(args.jobs).read_text())):
        job = CompileJob.from_dict(payload)
        circuit = get_workload(job.workload, job.num_qubits, seed=job.workload_seed)
        cache = DecompositionCache(path=cache_root / f"reference-{index}.sqlite")
        try:
            result = repro.compile(circuit, config=job.config, seed=job.seed, cache=cache)
        finally:
            cache.close()
        digests[job.identity_digest()] = circuit_digest(result.circuit)
    Path(args.out).write_text(json.dumps(digests))
    return 0


def build_store(args) -> int:
    """Build every coverage set the suite reads into ``REPRO_CACHE_DIR``."""
    _import_repro()
    from repro.core.decomposition_rules import build_rules

    build_rules("baseline").coverage
    parallel = build_rules("parallel")
    parallel.iswap_parallel_k1
    parallel.sqrt_parallel_k1
    parallel.sqrt_parallel_k2
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    serve_parser = sub.add_parser("serve")
    serve_parser.add_argument("--trace-dir")
    serve_parser.add_argument("--rusage", required=True)
    serve_parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    compile_parser = sub.add_parser("compile")
    compile_parser.add_argument("--seed", type=int, required=True)
    compile_parser.add_argument("--seconds", type=float, required=True)
    compile_parser.add_argument("--out", required=True)
    compile_parser.add_argument("--trace-dir")
    reference_parser = sub.add_parser("reference")
    reference_parser.add_argument("--jobs", required=True)
    reference_parser.add_argument("--out", required=True)
    sub.add_parser("build-store")
    args = parser.parse_args(argv)
    if args.mode == "serve" and args.serve_args[:1] == ["--"]:
        args.serve_args = args.serve_args[1:]
    _die_with_parent()
    modes = {
        "serve": serve,
        "compile": compile_table7,
        "reference": reference,
        "build-store": build_store,
    }
    return modes[args.mode](args)


if __name__ == "__main__":
    sys.exit(main())
