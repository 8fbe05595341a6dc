import numpy as np
import pytest

from polyshot.circuit import (
    Circuit,
    CircuitError,
    Gate,
    depth,
    depths,
    plan,
    to_qasm,
    validate,
    validate_qasm,
)


def test_validate_empty_ok():
    assert validate(Circuit(1, (), 0)) == []


def test_validate_catches_identical_control_target():
    problems = validate(Circuit(3, (Gate("cx", (2, 2)),), 0))
    assert any("identical control/target at index 0" in p for p in problems)


def test_validate_catches_out_of_range_qubit():
    problems = validate(Circuit(4, (Gate.ry(5, 0.1),), 0))
    assert any("qubit 5" in p and "index 0" in p for p in problems)


def test_validate_catches_bad_measured_qubit():
    assert validate(Circuit(2, (), 5))


def test_validate_catches_angle_on_x():
    problems = validate(Circuit(1, (Gate("x", (0,), 0.3),), 0))
    assert any("must not carry an angle" in p for p in problems)


def test_depth_empty():
    assert depth(Circuit(1, (), 0)) == 0


def test_depth_parallel_single_qubit_gates():
    c = Circuit(2, (Gate.ry(0, 0.1), Gate.ry(1, 0.2)), 0)
    assert depth(c) == 1


def test_depth_serial_chain():
    c = Circuit(2, (Gate.ry(0, 0.1), Gate.cx(0, 1), Gate.ry(1, 0.2)), 1)
    assert depth(c) == 3


def test_depth_counts_only_the_given_kinds():
    c = Circuit(3, (Gate.ry(0, 0.1), Gate.cx(0, 1), Gate.rz(1, 0.2), Gate.cx(1, 2), Gate.x(0)), 2)
    assert depth(c) == 4
    assert depth(c, ("cx",)) == 2
    assert depth(c, ()) == 0


def test_depths_are_both_depths_from_one_walk():
    # random circuits of every kind: depths gives depth(c, kinds) and the
    # two-qubit depth, depth(c, ("cx",)), without a second walk
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(1, 6))
        gates = []
        for _ in range(int(rng.integers(0, 30))):
            kind = str(rng.choice(["ry", "rz", "x", "cx"] if n > 1 else ["ry", "rz", "x"]))
            if kind == "cx":
                gates.append(Gate.cx(*(int(q) for q in rng.choice(n, 2, replace=False))))
            else:
                gates.append(Gate(kind, (int(rng.integers(n)),), None if kind == "x" else 0.3))
        c = Circuit(n, tuple(gates), 0)
        assert depths(c) == (depth(c), depth(c, ("cx",)))
        assert depths(c, ("ry",)) == (depth(c, ("ry",)), depth(c, ("cx",)))


def test_depth_invariant_under_commuting_swap():
    a = Circuit(3, (Gate.ry(0, 0.1), Gate.ry(2, 0.2), Gate.cx(0, 1)), 0)
    b = Circuit(3, (Gate.ry(2, 0.2), Gate.ry(0, 0.1), Gate.cx(0, 1)), 0)
    assert depth(a) == depth(b) == 2


def test_qasm_single_x_golden():
    text = to_qasm(Circuit(1, (Gate.x(0),), 0))
    assert text == (
        "OPENQASM 3.0;\n"
        'include "stdgates.inc";\n'
        "qubit[1] q;\n"
        "bit c;\n"
        "x q[0];\n"
        "c = measure q[0];\n"
    )


def test_qasm_angle_formatting_17_digits():
    text = to_qasm(Circuit(1, (Gate.ry(0, float(np.arccos(0.0))),), 0))
    assert "ry(1.5707963267948966) q[0];" in text


def test_qasm_deterministic():
    c = Circuit(3, (Gate.ry(1, 0.25), Gate.cx(0, 1), Gate.rz(2, -0.5)), 2)
    assert to_qasm(c) == to_qasm(c)


def test_qasm_refuses_invalid_circuit():
    with pytest.raises(CircuitError):
        to_qasm(Circuit(1, (Gate.cx(0, 0),), 0))


def test_qasm_validator_accepts_emitted():
    c = Circuit(
        4,
        (Gate.ry(1, 1.25), Gate.rz(2, -0.5), Gate.x(0), Gate.cx(2, 3)),
        3,
    )
    assert validate_qasm(to_qasm(c)) == []


def test_qasm_validator_rejects_corruption():
    c = Circuit(2, (Gate.ry(1, 0.4),), 0)
    good = to_qasm(c)
    assert validate_qasm(good.replace("OPENQASM 3.0", "OPENQASM 2.0"))
    assert validate_qasm(good.replace("c = measure q[0];\n", ""))
    assert validate_qasm(good.replace("ry(", "rx("))
    assert validate_qasm(good.replace("q[1]", "q[7]"))


def test_qasm_validator_checks_its_statements_as_validate_does():
    good = to_qasm(Circuit(3, (Gate.ry(1, 0.4), Gate.cx(1, 2)), 0))
    assert validate_qasm(good) == []
    cases = {
        "cx q[1], q[2];": ("cx q[1], q[1];", "identical control/target at index 1"),
        "c = measure q[0];": ("c = measure q[3];", "measured qubit 3 out of range for 3 qubits"),
        "ry(0.40000000000000002) q[1];": ("ry(1e999) q[1];", "ry has non-finite angle at index 0"),
    }
    for line, (corrupt, problem) in cases.items():
        assert line in good
        assert validate_qasm(good.replace(line, corrupt)) == [problem]


# each malformed batch of 3 points, the index of its bad gate and the error
_MALFORMED = {
    "five angles": (2, (Gate("ry", (0,), np.linspace(0.1, 0.5, 5)), Gate.cx(0, 1)), 0, r"\(5,\).* 3"),
    "two angles": (2, (Gate("ry", (0,), np.array([0.1, 0.2])), Gate.cx(0, 1)), 0, r"\(2,\).* 3"),
    "a 2-D angle array": (2, (Gate.cx(0, 1), Gate("ry", (0,), np.full((3, 1), 0.3))), 1, r"\(3, 1\)"),
    "a float mask": (
        2, (Gate.ry(0, 0.3), Gate("x", (1,), np.array([0.0, 1.0, 0.5])), Gate.cx(0, 1)), 1, "float64",
    ),
    "a float mask on a wide point": (
        13, (Gate.ry(0, 0.3), Gate("x", (12,), np.array([0.0, 1.0, 0.5])), Gate.cx(0, 12)), 1,
        "float64",
    ),
}


@pytest.mark.parametrize("case", list(_MALFORMED))
def test_a_malformed_batch_raises_naming_its_gate(case):
    # neither simulator sees it: left to them, dense read three of five angles,
    # the window read 0.5 as a mask's True, and numpy raised broadcast errors
    n, gates, index, match = _MALFORMED[case]
    with pytest.raises(CircuitError, match=f"index {index} .*{match}"):
        Circuit(n, gates, 1, 3)


def _random_plan_points(rng, n_points: int) -> list[Circuit]:
    """Points of one skeleton: shared gates (a float as one object, a cx,
    an x), a gate whose angle every point draws, and one angle alike."""
    shared = (Gate.rz(1, 0.5), Gate.cx(0, 1), Gate.x(2), Gate.ry(2, 0.25))
    return [
        Circuit(3, shared[:2] + (Gate.ry(0, float(rng.uniform(-3, 3))), *shared[2:],
                                 Gate.rz(2, 0.75)), 1)
        for _ in range(n_points)
    ]


def _values(gate: Gate, points: int) -> tuple:
    """A gate's kind, qubits and its value at each of a circuit's points."""
    value = gate.angle if gate.angle is None else np.broadcast_to(gate.angle, points).tolist()
    return gate.kind, gate.qubits, value


def test_points_are_the_plan_of_those_points_gate_for_gate():
    rng = np.random.default_rng(7)
    for n_points in (1, 2, 5):
        circuits = _random_plan_points(rng, n_points)
        c = plan(circuits)
        assert c.points(0, n_points) is c
        for lo in range(n_points):
            for hi in range(lo + 1, n_points + 1):
                part, want = c.points(lo, hi), plan(circuits[lo:hi])
                assert (part.n_qubits, part.measured_qubit, part.batch) == (3, 1, hi - lo)
                assert [_values(g, hi - lo) for g in part.gates] == [
                    _values(g, hi - lo) for g in want.gates
                ]
                for g, h in zip(c.gates, part.gates):
                    if not isinstance(g.angle, np.ndarray):  # shared: the same objects
                        assert h is g and h.angle is g.angle
    with pytest.raises(ValueError, match="outside"):
        c.points(2, 2)
    with pytest.raises(ValueError, match="outside"):
        c.points(0, n_points + 1)


def test_points_slice_every_mask():
    mask = np.array([True, False, True, True])
    c = Circuit(2, (Gate("x", (0,), mask), Gate.cx(0, 1), Gate("ry", (1,), np.arange(4.0))), 1, 4)
    part = c.points(1, 3)
    assert part.gates[0].angle.tolist() == [False, True]
    assert part.gates[1] is c.gates[1]
    assert part.gates[2].angle.tolist() == [1.0, 2.0]


def test_plan_resolves_a_gate_once_unless_its_angle_differs_by_point():
    shared = Gate.cx(0, 1)
    a = Circuit(2, (Gate.ry(0, 0.3), shared, Gate.rz(1, 0.5)), 1)
    b = Circuit(2, (Gate.ry(0, 0.7), shared, Gate.rz(1, 0.5)), 1)
    steps = plan([a, b]).gates
    assert steps[1:] == (("cx", (0, 1), None), ("rz", (1,), 0.5))  # shared, then equal
    kind, qubits, angle = steps[0]
    assert (kind, qubits, angle.tolist()) == ("ry", (0,), [0.3, 0.7])
    assert plan([a]).gates == tuple((g.kind, g.qubits, g.angle) for g in a.gates)


def test_plan_rejects_an_empty_batch_and_mixed_skeletons():
    with pytest.raises(ValueError):
        plan([])
    base = Circuit(2, (Gate.ry(0, 0.3), Gate.cx(0, 1)), 1)
    with pytest.raises(ValueError, match="skeleton"):
        plan([base, Circuit(2, (Gate.ry(0, 0.3), Gate.cx(1, 0)), 1)])


def test_validate_and_qasm_refuse_a_circuit_of_several_points():
    a = Circuit(2, (Gate.ry(0, 0.3), Gate.x(1), Gate.cx(0, 1)), 1)
    b = Circuit(2, (Gate.ry(0, 0.7), Gate.x(1), Gate.cx(0, 1)), 1)
    batch = plan([a, b])
    assert validate(batch) == ["a circuit of 2 points, not one"]
    masked = Circuit(2, (Gate("x", (1,), np.array([True, False])),), 1, batch=2)
    for circuit in (batch, masked):
        with pytest.raises(CircuitError, match="2 points"):
            to_qasm(circuit)


def test_every_public_name_resolves():
    import polyshot

    for name in polyshot.__all__:
        assert getattr(polyshot, name) is not None, name
    gone = {"build_circuits", "expect_z_batch", "run_window_batch"}
    gone |= {"ShotOutcome", "draw_shots", "draw_shots_batch", "Estimate", "point_estimate"}
    assert not gone & set(polyshot.__all__)
    assert not [name for name in gone if hasattr(polyshot, name)]
