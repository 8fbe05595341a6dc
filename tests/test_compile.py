import json
import math
import re

import numpy as np
import pytest

from polyshot.circuit import depth
from polyshot.compile import (
    CompileError,
    CompiledProgram,
    EncodingDomainError,
    angle_of_weight,
    build_circuit,
    build_circuits,
    compile_poly,
    compute_weights,
    read_program,
    reconstruct_coeffs,
    resources,
    write_program,
)
from polyshot.poly import Polynomial, eval_poly, normalize


def telescope(tilde, x, order):
    """Classical oracle: fold sign*x^k terms with the schedule's convex weights."""
    mags = np.abs(tilde)
    signs = np.where(np.asarray(tilde) < 0, -1.0, 1.0)
    nz = [k for k in range(len(tilde)) if mags[k] != 0]
    if order == "backward":
        seq = sorted(nz, reverse=True)
        denom = np.cumsum(mags[::-1])[::-1]
    else:
        seq = sorted(nz)
        denom = np.cumsum(mags)
    acc = signs[seq[0]] * x ** seq[0]
    for k in seq[1:]:
        w = mags[k] / denom[k]
        acc = w * (signs[k] * x**k) + (1.0 - w) * acc
    return acc


def test_angle_endpoints():
    assert angle_of_weight(0.0) == 0.0
    assert angle_of_weight(1.0) == pytest.approx(math.pi)
    assert angle_of_weight(0.5) == pytest.approx(math.pi / 2)


def test_angle_clamps_within_tolerance():
    assert angle_of_weight(-1e-13) == 0.0
    assert angle_of_weight(1.0 + 1e-13) == pytest.approx(math.pi)


def test_angle_rejects_out_of_range():
    with pytest.raises(CompileError):
        angle_of_weight(1.01)
    with pytest.raises(CompileError):
        angle_of_weight(-0.01)


def test_backward_weights_match_hand_values():
    sched = compute_weights(normalize(Polynomial((0.1, 0.2, 0.3))), "backward")
    assert sched.weights[1] == pytest.approx(0.4, abs=1e-14)
    assert sched.weights[0] == pytest.approx(1 / 6, abs=1e-14)
    assert sched.angles[0] == pytest.approx(math.acos(2 / 3), abs=1e-12)
    assert sched.seed_index == 2
    assert sched.skip_flags == (False, False, False)


def test_forward_weights_match_hand_values():
    sched = compute_weights(normalize(Polynomial((0.1, 0.2, 0.3))), "forward")
    assert sched.weights[1] == pytest.approx(2 / 3, abs=1e-14)
    assert sched.weights[2] == pytest.approx(0.5, abs=1e-14)
    assert sched.seed_index == 0


def test_monomial_schedule_skips_constant_term():
    sched = compute_weights(normalize(Polynomial((0.0, 1.0))), "backward")
    assert sched.skip_flags == (True, False)
    assert sched.seed_index == 1
    assert all(a == 0.0 for a in sched.angles)


def test_angles_consistent_with_weights():
    rng = np.random.default_rng(3)
    for order in ("backward", "forward"):
        for _ in range(20):
            d = rng.integers(1, 12)
            poly = Polynomial(tuple(rng.uniform(-1, 1, d + 1)))
            sched = compute_weights(normalize(poly), order)
            for k in range(d + 1):
                if not sched.skip_flags[k] and k != sched.seed_index:
                    assert sched.angles[k] == pytest.approx(
                        math.acos(1 - 2 * sched.weights[k]), abs=1e-14
                    )
                    assert 0.0 <= sched.angles[k] <= math.pi


def test_classical_telescoping_reproduces_polynomial():
    rng = np.random.default_rng(7)
    for order in ("backward", "forward"):
        for d in list(range(1, 12)) + [25, 40]:
            coeffs = rng.uniform(-1, 1, d + 1)
            npoly = normalize(Polynomial(tuple(coeffs)))
            for x in np.linspace(-1, 1, 7):
                want = eval_poly(Polynomial(npoly.tilde_coeffs), x)
                got = telescope(npoly.tilde_coeffs, x, order)
                assert got == pytest.approx(want, abs=1e-12)


def test_weight_scale_invariance_bitwise():
    coeffs = (0.11, -0.37, 0.2, 0.45)
    base = compute_weights(normalize(Polynomial(coeffs)), "backward")
    for c in (2.0, 0.25, 4096.0):
        scaled = compute_weights(
            normalize(Polynomial(tuple(c * a for a in coeffs))), "backward"
        )
        assert scaled.weights == base.weights
        assert scaled.angles == base.angles
        assert scaled.signs == base.signs


def test_reconstruct_recovers_source_coeffs():
    rng = np.random.default_rng(13)
    for order in ("backward", "forward"):
        for _ in range(20):
            d = rng.integers(0, 10)
            coeffs = rng.uniform(-1, 1, d + 1)
            if rng.random() < 0.4 and d >= 1:
                coeffs[rng.integers(0, d + 1)] = 0.0
            if not np.any(coeffs):
                coeffs[0] = 0.3
            program = compile_poly(Polynomial(tuple(coeffs)), order)
            back = reconstruct_coeffs(program)
            assert np.allclose(back, coeffs, atol=1e-10)


def test_program_file_roundtrip_is_byte_stable(tmp_path):
    program = compile_poly(Polynomial((0.1, -0.2, 0.0, 0.35)), "forward")
    path = tmp_path / "program.json"
    write_program(program, path)
    first = path.read_bytes()
    back = read_program(path)
    assert back.schedule == program.schedule
    assert back.rescale == program.rescale
    assert np.allclose(back.source.coeffs, program.source.coeffs, atol=1e-12)
    write_program(back, path)
    assert path.read_bytes() == first


def test_program_file_matches_frozen_fixture(tmp_path):
    from pathlib import Path

    program = compile_poly(Polynomial((0.05, -0.15, 0.3, -0.5)), "forward")
    out = tmp_path / "program.json"
    write_program(program, out)
    fixture = Path(__file__).parent / "goldens" / "program_deg3_forward.json"
    assert out.read_bytes() == fixture.read_bytes()
    assert read_program(fixture).schedule == program.schedule


def _edited_program_file(tmp_path, **edits):
    path = tmp_path / "program.json"
    write_program(compile_poly(Polynomial((0.1, 0.2, 0.3, -0.4)), "forward"), path)
    data = json.loads(path.read_text())
    data.update(edits)
    path.write_text(json.dumps(data))
    return path


def test_read_program_derives_angles_from_weights(tmp_path):
    program = compile_poly(Polynomial((0.1, 0.2, 0.3, -0.4)), "forward")
    for angles in ([0.0], [3.0, 3.0, 3.0, 3.0]):
        back = read_program(_edited_program_file(tmp_path, angles=angles))
        assert back.schedule == program.schedule


@pytest.mark.parametrize(
    "edits",
    [
        {"weights": [0.0, 1.7, 0.5, 0.5]},
        {"weights": [0.0, -0.1, 0.5, 0.5]},
        {"signs": [1, 7, 1, -1]},
        {"signs": [1, 0, 1, -1]},
        {"weights": [0.0, 0.5, 0.5]},
        {"signs": [1, 1, 1]},
        {"skips": [False, False, False, False, False]},
        {"weights": 0.5},
        {"degree": -1, "weights": [], "signs": [], "skips": []},
        {"degree": 3.0},
        {"weights": [0.0, "0.5", 0.5, 0.5]},
        {"weights": [0.0, float("nan"), 0.5, 0.5]},
        {"signs": [1, True, 1, -1]},
        {"skips": [0, 0, 0, 0]},
        {"C": 0.0},
        {"C": -1.2},
        {"C": "1.2"},
        {"C": float("nan")},
        {"C": float("inf")},
        {"C": 10**400},
        # a skipped term that still carries weight
        {"skips": [False, True, False, False]},
        # q_0 skipped and the first live forward weight below 1: the terms
        # hold only part of C
        {"weights": [0.0, 0.5, 0.5, 0.4], "skips": [True, False, False, False]},
        # a weight at the forward seed index q_0, which no program reads
        {"weights": [0.5, 2.0 / 3.0, 0.5, 0.4]},
    ],
)
def test_read_program_rejects_malformed_schedule(tmp_path, edits):
    path = _edited_program_file(tmp_path, **edits)
    with pytest.raises(CompileError, match=re.escape(str(path))):
        read_program(path)


@pytest.mark.parametrize("text", ['{"order": "forward", "C": 1', "[1, 2]", "\udcff"])
def test_read_program_rejects_a_file_that_is_not_a_program_object(tmp_path, text):
    path = tmp_path / "program.json"
    path.write_text(text, errors="surrogateescape")
    with pytest.raises(CompileError, match=re.escape(str(path))):
        read_program(path)


def test_build_rejects_out_of_domain_x():
    program = compile_poly(Polynomial((0.2, 0.4)), "backward")
    with pytest.raises(EncodingDomainError):
        build_circuit(program, 1.5)


def test_build_circuits_is_build_circuit_at_each_point_sharing_all_but_encoding():
    rng = np.random.default_rng(21)
    xs = [float(x) for x in np.linspace(-1, 1, 9)]
    for order in ("backward", "forward"):
        for d in range(9):
            coeffs = rng.uniform(-1, 1, d + 1)
            if d >= 2:
                coeffs[1] = 0.0  # a skipped term
            program = compile_poly(Polynomial(tuple(coeffs)), order)
            circuits = build_circuits(program, xs)
            assert circuits == [build_circuit(program, x) for x in xs]
            differing = [
                gates for gates in zip(*(c.gates for c in circuits))
                if any(g is not gates[0] for g in gates)
            ]
            assert len(differing) == d  # one encoding Ry per qubit q_1..q_d
            for gates in differing:
                assert [g.kind for g in gates] == ["ry"] * len(xs)
                assert [g.angle for g in gates] == [float(np.arccos(x)) for x in xs]
    with pytest.raises(EncodingDomainError):
        build_circuits(program, [0.1, 1.5])


def test_qubit_count_is_degree_plus_one():
    for d in (0, 1, 3, 6, 35):
        coeffs = tuple(np.full(d + 1, 1.0 / (d + 1)))
        for order in ("backward", "forward"):
            circuit = build_circuit(compile_poly(Polynomial(coeffs), order), 0.3)
            assert circuit.n_qubits == d + 1


def test_degree_zero_negative_constant():
    program = compile_poly(Polynomial((-0.7,)), "backward")
    circuit = build_circuit(program, 0.123)
    assert circuit.n_qubits == 1
    assert len(circuit.gates) == 1
    assert circuit.gates[0].kind == "x"
    assert circuit.measured_qubit == 0


def test_measured_qubit_per_order():
    poly = Polynomial((0.25, 0.25, 0.25, 0.25))
    assert build_circuit(compile_poly(poly, "backward"), 0.1).measured_qubit == 0
    assert build_circuit(compile_poly(poly, "forward"), 0.1).measured_qubit == 3


def test_resource_counts_against_frozen_formulas():
    # dense programs: 2q gates = 3d-1 for both orders (d >= 1)
    for d in (1, 2, 4, 6, 10, 20):
        coeffs = tuple(np.full(d + 1, 1.0 / (d + 1)))
        for order in ("backward", "forward"):
            circuit = build_circuit(compile_poly(Polynomial(coeffs), order), 0.4)
            res = resources(circuit)
            assert res.qubits == d + 1
            assert res.two_qubit_gates == 3 * d - 1
            assert res.depth == depth(circuit)


def test_two_qubit_depth_at_the_papers_size():
    # the paper's 36-qubit programs report "circuit depths of 70": the CX
    # layers of the forward order, not its depth over every gate
    coeffs = tuple(np.full(36, 1.0 / 36))
    forward = resources(build_circuit(compile_poly(Polynomial(coeffs), "forward"), 0.4))
    assert (forward.qubits, forward.two_qubit_gates, forward.two_qubit_depth) == (36, 104, 71)
    backward = resources(build_circuit(compile_poly(Polynomial(coeffs), "backward"), 0.4))
    assert backward.two_qubit_depth == 104


def test_resource_scaling_affine_r2():
    ds = np.arange(1, 21)
    two_q, depths = [], []
    for d in ds:
        coeffs = tuple(np.full(d + 1, 1.0 / (d + 1)))
        circuit = build_circuit(compile_poly(Polynomial(coeffs), "backward"), 0.4)
        res = resources(circuit)
        two_q.append(res.two_qubit_gates)
        depths.append(res.depth)
    for values in (two_q, depths):
        coeff = np.polyfit(ds, values, 1)
        pred = np.polyval(coeff, ds)
        ss_res = np.sum((np.asarray(values) - pred) ** 2)
        ss_tot = np.sum((np.asarray(values) - np.mean(values)) ** 2)
        assert 1.0 - ss_res / ss_tot > 0.999
