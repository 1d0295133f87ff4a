"""Correctness checks on compiled Table VII circuits, made apart from repro.

Nothing here imports the program under test.  Each check takes plain data
(gate names, qubit tuples, durations, layouts) and returns a list of error
strings; an empty list means the check passed.  The expected values come
from the benchmark's own 4x4 lattice, its own ASAP recomputation and its
own statevector simulator, never from repro's scheduler or gate library.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

#: Quantum of a parallel-drive pulse and the baseline sqrt(iSWAP) pulse.
PULSE_QUANTUM = 0.25
BASELINE_PULSE = 0.5
#: Duration of one 1Q layer (D[1Q] in the paper's Table VII setup).
ONE_Q_DURATION = 0.25
#: Absolute slack on float comparisons of durations and start times.
TIME_TOL = 1e-9
#: Smallest |<expected|actual>| accepted by the equivalence check.
OVERLAP_TOL = 1e-8


def lattice_edges(rows: int = 4, cols: int = 4) -> frozenset[tuple[int, int]]:
    """Nearest-neighbour edges of a row-major ``rows x cols`` grid."""
    edges = set()
    for r in range(rows):
        for c in range(cols):
            q = r * cols + c
            if c + 1 < cols:
                edges.add((q, q + 1))
            if r + 1 < rows:
                edges.add((q, q + cols))
    return frozenset(edges)


LATTICE_4X4 = lattice_edges(4, 4)


def check_lattice(pulse_qubits, edges=LATTICE_4X4) -> list[str]:
    """Every 2Q pulse acts on a coupled pair of the lattice."""
    errors = []
    for index, qubits in enumerate(pulse_qubits):
        pair = tuple(sorted(qubits))
        if len(pair) != 2 or pair not in edges:
            errors.append(f"pulse {index} on {tuple(qubits)} is off the lattice")
    return errors


def check_critical_path(gates, starts, duration: float) -> list[str]:
    """ASAP start times and makespan recomputed from ``(qubits, length)``.

    ``gates`` lists each emitted gate's qubits and length in emission
    order; ``starts`` are the reported start times and ``duration`` the
    reported critical-path duration.
    """
    if len(gates) != len(starts):
        return [f"{len(gates)} gates but {len(starts)} start times"]
    clock: dict[int, float] = {}
    errors = []
    for index, ((qubits, length), start) in enumerate(zip(gates, starts)):
        expected = max((clock.get(q, 0.0) for q in qubits), default=0.0)
        if abs(start - expected) > TIME_TOL:
            errors.append(
                f"gate {index} starts at {start}, dependencies end at {expected}"
            )
        for q in qubits:
            clock[q] = expected + length
    makespan = max(clock.values(), default=0.0)
    if abs(makespan - duration) > TIME_TOL:
        errors.append(f"critical path {makespan} != reported duration {duration}")
    return errors


def check_pulse_quanta(pulse_lengths, rules: str) -> list[str]:
    """Parallel pulses are positive multiples of 0.25; baseline ones 0.5."""
    errors = []
    for index, length in enumerate(pulse_lengths):
        if rules == "baseline":
            ok = abs(length - BASELINE_PULSE) <= TIME_TOL
        else:
            steps = length / PULSE_QUANTUM
            ok = length > 0 and abs(steps - round(steps)) <= TIME_TOL
        if not ok:
            errors.append(f"{rules} pulse {index} has length {length}")
    return errors


def check_parallel_wins(durations: dict) -> list[str]:
    """Table VII's claim: per circuit, parallel drive is strictly shorter.

    ``durations`` maps ``(workload, rules)`` to a compiled duration.
    """
    errors = []
    for workload in sorted({name for name, _ in durations}):
        base = durations.get((workload, "baseline"))
        par = durations.get((workload, "parallel"))
        if base is None or par is None:
            errors.append(f"{workload}: missing a baseline or parallel result")
        elif not par < base:
            errors.append(f"{workload}: parallel {par} is not below baseline {base}")
    return errors


def check_duration_bounds(duration: float, total_pulse_time: float, u1q: int) -> list[str]:
    """Bounds any schedule of the reported gates must respect.

    A 4x4 lattice runs at most 8 disjoint pulses at once, so the critical
    path is at least the summed pulse time over 8; it is at most every
    pulse and every 1Q layer run back to back.
    """
    low = total_pulse_time / 8
    high = total_pulse_time + ONE_Q_DURATION * u1q
    if low - TIME_TOL <= duration <= high + TIME_TOL:
        return []
    return [f"duration {duration} outside [{low}, {high}]"]


def gate_stream_digest(gates) -> str:
    """SHA-256 over ``(name, qubits, params, length)`` of a compiled stream."""
    hasher = hashlib.sha256()
    for name, qubits, params, length in gates:
        hasher.update(f"{name}|{tuple(qubits)}|{params!r}|{length!r}\n".encode())
    return hasher.hexdigest()


# -- statevector equivalence ------------------------------------------------------


def _rx(theta):
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]])


def _ry(theta):
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _rz(theta):
    return np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)])


def _diag(*entries):
    return lambda: np.diag(np.asarray(entries, dtype=complex))


#: The gate set of the nine Table VII inputs, written out from the
#: textbook definitions (qubit order: first operand is the high bit).
GATES = {
    "id": _diag(1, 1),
    "x": lambda: np.array([[0, 1], [1, 0]], dtype=complex),
    "z": _diag(1, -1),
    "h": lambda: np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2),
    "s": _diag(1, 1j),
    "sdg": _diag(1, -1j),
    "t": _diag(1, np.exp(0.25j * math.pi)),
    "tdg": _diag(1, np.exp(-0.25j * math.pi)),
    "rx": _rx,
    "ry": _ry,
    "rz": _rz,
    "cx": lambda: np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    ),
    "cz": _diag(1, 1, 1, -1),
    "cp": lambda lam: np.diag([1, 1, 1, np.exp(1j * lam)]),
    "swap": lambda: np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    ),
}


def _matrix(name: str, params, matrix) -> np.ndarray:
    if matrix is not None:
        return np.asarray(matrix, dtype=complex)
    try:
        make = GATES[name]
    except KeyError:
        raise ValueError(f"no reference matrix for gate {name!r}") from None
    return make(*params)


def simulate(gates, state: np.ndarray) -> np.ndarray:
    """Apply ``(name, qubits, params, matrix)`` gates to an ``(2,)*n`` state."""
    for name, qubits, params, matrix in gates:
        k = len(qubits)
        unitary = _matrix(name, params, matrix).reshape((2,) * (2 * k))
        state = np.tensordot(unitary, state, axes=(list(range(k, 2 * k)), list(qubits)))
        state = np.moveaxis(state, list(range(k)), list(qubits))
    return state


def random_state(num_qubits: int, seed: int) -> np.ndarray:
    """Seeded Haar-like random state of shape ``(2,) * num_qubits``."""
    rng = np.random.default_rng(seed)
    shape = (2,) * num_qubits
    state = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return state / np.linalg.norm(state)


def check_equivalence(
    logical_gates,
    routed_gates,
    initial_layout,
    final_layout,
    state: np.ndarray,
    expected: np.ndarray | None = None,
) -> list[str]:
    """Routed circuit == input circuit under the reported layouts.

    ``initial_layout[l]`` / ``final_layout[l]`` give the physical qubit
    that holds logical qubit ``l`` before / after the routed circuit.
    ``expected`` may pass the input circuit's output state on ``state``
    when several routings of one input are checked.
    """
    n = state.ndim
    if sorted(initial_layout) != list(range(n)) or sorted(final_layout) != list(range(n)):
        return ["layouts are not permutations of the physical qubits"]
    if expected is None:
        expected = simulate(logical_gates, state)
    logical_on = {p: l for l, p in enumerate(initial_layout)}
    physical = np.transpose(state, [logical_on[p] for p in range(n)])
    physical = simulate(routed_gates, physical)
    actual = np.transpose(physical, list(final_layout))
    overlap = abs(np.vdot(expected, actual))
    if abs(overlap - 1.0) > OVERLAP_TOL:
        return [f"routed circuit differs from its input (overlap {overlap:.6f})"]
    return []
