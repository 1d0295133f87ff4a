"""Each of the benchmark's correctness checks passes on good data and fails on bad.

Run with ``python -m pytest perfbench/test_checks.py -q`` from the repo root.
"""

from __future__ import annotations

import numpy as np

import checks

# Logical CX(0, 2) on a 4-qubit line, routed with one SWAP on (1, 2):
# after the SWAP logical 1 sits on physical 2 and logical 2 on physical 1.
LOGICAL = [("h", (0,), (), None), ("cx", (0, 2), (), None), ("rz", (2,), (0.3,), None)]
ROUTED = [
    ("h", (0,), (), None),
    ("swap", (1, 2), (), None),
    ("cx", (0, 1), (), None),
    ("rz", (1,), (0.3,), None),
]
INITIAL = [0, 1, 2, 3]
FINAL = [0, 2, 1, 3]


def test_equivalence_accepts_correct_routing():
    state = checks.random_state(4, seed=1)
    assert checks.check_equivalence(LOGICAL, ROUTED, INITIAL, FINAL, state) == []


def test_equivalence_rejects_permuted_final_layout():
    state = checks.random_state(4, seed=1)
    errors = checks.check_equivalence(LOGICAL, ROUTED, INITIAL, [0, 1, 2, 3], state)
    assert errors and "differs" in errors[0]


def test_equivalence_rejects_reversed_cx():
    state = checks.random_state(4, seed=2)
    routed = list(ROUTED)
    routed[2] = ("cx", (1, 0), (), None)
    assert checks.check_equivalence(LOGICAL, routed, INITIAL, FINAL, state)


def test_equivalence_tracks_a_nontrivial_initial_layout():
    state = checks.random_state(3, seed=3)
    logical = [("cx", (0, 1), (), None), ("ry", (2,), (0.7,), None)]
    # Logical l starts on physical initial[l]; no SWAPs, so final == initial.
    initial = [2, 0, 1]
    routed = [("cx", (2, 0), (), None), ("ry", (1,), (0.7,), None)]
    assert checks.check_equivalence(logical, routed, initial, initial, state) == []
    assert checks.check_equivalence(logical, routed, initial, [0, 1, 2], state)


def test_simulate_matches_dense_kron_product():
    state = checks.random_state(3, seed=4)
    gates = [("h", (1,), (), None), ("cp", (2, 0), (0.9,), None)]
    out = checks.simulate(gates, state).reshape(-1)
    eye = np.eye(2)
    h = checks.GATES["h"]()
    dense_h = np.kron(np.kron(eye, h), eye)
    # cp is diagonal: phase when both qubits 2 and 0 are |1>.
    phases = np.ones(8, dtype=complex)
    for index in range(8):
        bits = [(index >> (2 - q)) & 1 for q in range(3)]
        if bits[0] and bits[2]:
            phases[index] = np.exp(0.9j)
    expected = phases * (dense_h @ state.reshape(-1))
    assert np.allclose(out, expected)


def test_lattice_accepts_edges_and_rejects_off_lattice_pulse():
    assert checks.check_lattice([(0, 1), (5, 1), (14, 15), (11, 15)]) == []
    errors = checks.check_lattice([(0, 1), (3, 4)])
    assert errors and "(3, 4)" in errors[0]
    assert checks.check_lattice([(0, 5)])


def test_critical_path_accepts_asap_schedule():
    gates = [((0, 1), 0.5), ((1, 2), 0.5), ((3,), 0.25), ((0,), 0.25)]
    starts = [0.0, 0.5, 0.0, 0.5]
    assert checks.check_critical_path(gates, starts, 1.0) == []


def test_critical_path_rejects_shifted_gate_start():
    gates = [((0, 1), 0.5), ((1, 2), 0.5), ((3,), 0.25), ((0,), 0.25)]
    errors = checks.check_critical_path(gates, [0.0, 0.5, 0.0, 0.75], 1.0)
    assert errors and "gate 3" in errors[0]


def test_critical_path_rejects_wrong_duration():
    gates = [((0, 1), 0.5), ((1, 2), 0.5)]
    assert checks.check_critical_path(gates, [0.0, 0.5], 1.25)


def test_pulse_quanta():
    assert checks.check_pulse_quanta([0.25, 0.5, 1.0, 1.75], "parallel") == []
    assert checks.check_pulse_quanta([0.5, 0.5], "baseline") == []
    errors = checks.check_pulse_quanta([0.25, 0.3], "parallel")
    assert errors and "0.3" in errors[0]
    assert checks.check_pulse_quanta([0.0], "parallel")
    assert checks.check_pulse_quanta([0.25], "baseline")


def test_parallel_wins():
    good = {("qft", "baseline"): 10.0, ("qft", "parallel"): 8.0}
    assert checks.check_parallel_wins(good) == []
    tie = {("qft", "baseline"): 8.0, ("qft", "parallel"): 8.0}
    assert checks.check_parallel_wins(tie)
    assert checks.check_parallel_wins({("qft", "parallel"): 8.0})


def test_duration_bounds():
    assert checks.check_duration_bounds(5.0, total_pulse_time=8.0, u1q=4) == []
    assert checks.check_duration_bounds(0.5, total_pulse_time=8.0, u1q=4)
    assert checks.check_duration_bounds(9.5, total_pulse_time=8.0, u1q=4)


def test_gate_stream_digest_sees_every_field():
    gates = [("pulse2q", (0, 1), (0.5,), 0.5), ("u1q", (0,), (), 0.25)]
    digest = checks.gate_stream_digest(gates)
    assert digest == checks.gate_stream_digest(list(gates))
    assert digest != checks.gate_stream_digest(gates[:1] + [("u1q", (1,), (), 0.25)])
    assert digest != checks.gate_stream_digest([gates[0], ("u1q", (0,), (), 0.5)])
