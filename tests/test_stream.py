import math

import numpy as np
import pytest

from polyshot.circuit import Circuit, Gate
from polyshot.compile import build_circuit, compile_poly
from polyshot.dense import NoiseModel, draw_shots, expect_z, run_statevector
from polyshot.poly import Polynomial, eval_poly
from polyshot.rng import derive_seed
from polyshot.stream import WindowOverflowError, liveness, run_window


def dense_program(d, order, seed=0):
    rng = np.random.default_rng(seed)
    coeffs = rng.uniform(-1, 1, d + 1)
    coeffs[np.abs(coeffs) < 1e-3] = 0.1  # keep every block present
    return compile_poly(Polynomial(tuple(coeffs)), order)


def test_liveness_forward_window_small():
    circuit = build_circuit(dense_program(10, "forward"), 0.4)
    assert liveness(circuit).peak_window <= 4


def test_liveness_backward_window_full():
    # all ten power qubits stay live until aggregation begins; the constant
    # qubit q0 is adjoined only at its own (final) block, after others retired
    circuit = build_circuit(dense_program(10, "backward"), 0.4)
    assert liveness(circuit).peak_window == 10


def test_liveness_single_qubit():
    assert liveness(Circuit(1, (Gate.x(0),), 0)).peak_window == 1


def test_liveness_first_before_last():
    circuit = build_circuit(dense_program(6, "forward"), -0.2)
    sched = liveness(circuit)
    for first, last in zip(sched.first_use, sched.last_use):
        assert first <= last


def test_empty_circuit_expectation():
    assert run_window(Circuit(1, (), 0)) == pytest.approx(1.0)


def test_window_matches_dense_both_orders():
    rng = np.random.default_rng(21)
    for order, dmax in (("backward", 7), ("forward", 10)):
        for d in range(1, dmax + 1):
            program = dense_program(d, order, seed=d)
            for x in rng.uniform(-1, 1, 4):
                circuit = build_circuit(program, float(x))
                dense_z = expect_z(run_statevector(circuit), circuit.measured_qubit)
                assert run_window(circuit) == pytest.approx(dense_z, abs=1e-10)


def test_window_invariant_checks_pass():
    circuit = build_circuit(dense_program(5, "forward"), 0.6)
    for noise in (None, NoiseModel(p1=0.05, p2=0.1)):
        z = run_window(circuit, noise=noise, check_invariants=True)
        assert -1.0 <= z <= 1.0


def test_degree_35_forward_horner_oracle():
    rng = np.random.default_rng(35)
    coeffs = rng.uniform(-1, 1, 36)
    poly = Polynomial(tuple(coeffs))
    program = compile_poly(poly, "forward")
    circuit = build_circuit(program, 0.3)
    assert circuit.n_qubits == 36
    z = run_window(circuit)
    assert program.rescale * z == pytest.approx(eval_poly(poly, 0.3), abs=1e-8)


def test_window_overflow_reports_gate_and_suggests_forward():
    circuit = build_circuit(dense_program(10, "backward"), 0.4)
    with pytest.raises(WindowOverflowError, match=r"at gate \d+ .*forward"):
        run_window(circuit, window_cap=8)
    # the measured qubit of a gateless circuit is adjoined after the sweep
    with pytest.raises(WindowOverflowError, match=r"at gate 0 .*forward"):
        run_window(Circuit(1, (), 0), window_cap=0)


def test_stream_sampler_deterministic_outcome():
    outcome = draw_shots(run_window(Circuit(1, (), 0)), 100, seed=5)
    assert outcome.n1 == 0


def test_stream_sampler_bitwise_matches_dense_noiseless():
    program = dense_program(5, "forward", seed=3)
    circuit = build_circuit(program, 0.25)
    seed = derive_seed(1234, 5, 0, 0)
    a = draw_shots(expect_z(run_statevector(circuit), circuit.measured_qubit), 2048, seed)
    b = draw_shots(run_window(circuit), 2048, seed)
    assert (a.n0, a.n1) == (b.n0, b.n1)


def test_stream_degree35_sampling_within_binomial_band():
    rng = np.random.default_rng(88)
    coeffs = rng.uniform(-1, 1, 36)
    poly = Polynomial(tuple(coeffs))
    program = compile_poly(poly, "forward")
    x = 0.3
    circuit = build_circuit(program, x)
    outcome = draw_shots(run_window(circuit), 1024, seed=derive_seed(88, 35))
    estimate = program.rescale * (outcome.n0 - outcome.n1) / 1024
    bound = 5 * program.rescale / math.sqrt(1024)
    assert abs(estimate - eval_poly(poly, x)) < bound


def test_noisy_trajectories_seed_deterministic():
    program = dense_program(4, "forward", seed=9)
    circuit = build_circuit(program, -0.4)
    noise = NoiseModel(p1=0.002, p2=0.01)
    a = draw_shots(run_window(circuit, noise=noise), 256, seed=31)
    b = draw_shots(run_window(circuit, noise=noise), 256, seed=31)
    assert (a.n0, a.n1) == (b.n0, b.n1)


def test_noisy_trajectories_unbiased_at_zero_noise_rate():
    program = dense_program(3, "forward", seed=10)
    circuit = build_circuit(program, 0.5)
    trivial = draw_shots(run_window(circuit, noise=NoiseModel(0.0, 0.0)), 512, seed=7)
    clean = draw_shots(run_window(circuit), 512, seed=7)
    assert (trivial.n0, trivial.n1) == (clean.n0, clean.n1)


# Independent reference for the noise channel: the full 2^n x 2^n density
# matrix, each gate as a full unitary, then the Kraus form
# rho -> (1 - p) rho + (p/3)(X rho X + Y rho Y + Z rho Z) on every touched qubit.
_PAULIS = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def _embed(mat, q, n):
    out = np.eye(1, dtype=complex)
    for k in range(n):
        out = np.kron(out, mat if k == q else np.eye(2))
    return out


def _full_unitary(g, n):
    if g.kind == "cx":
        c, t = g.qubits
        zero, one = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
        return _embed(zero, c, n) + _embed(one, c, n) @ _embed(_PAULIS[0], t, n)
    if g.kind == "ry":
        c, s = math.cos(g.angle / 2), math.sin(g.angle / 2)
        mat = np.array([[c, -s], [s, c]])
    elif g.kind == "rz":
        mat = np.diag([np.exp(-0.5j * g.angle), np.exp(0.5j * g.angle)])
    else:
        mat = _PAULIS[0]
    return _embed(mat, g.qubits[0], n)


def _kraus_reference_z(circuit, noise):
    n = circuit.n_qubits
    rho = np.zeros((2**n, 2**n), dtype=complex)
    rho[0, 0] = 1.0
    for g in circuit.gates:
        u = _full_unitary(g, n)
        rho = u @ rho @ u.conj().T
        p = noise.p2 if g.kind == "cx" else noise.p1
        for q in g.qubits:
            kicked = sum(P @ rho @ P for P in (_embed(s, q, n) for s in _PAULIS))
            rho = (1 - p) * rho + (p / 3) * kicked
    return float(np.real(np.trace(_embed(_PAULIS[2], circuit.measured_qubit, n) @ rho)))


def test_noisy_window_matches_kraus_reference():
    noise = NoiseModel(p1=0.05, p2=0.1)
    for order in ("backward", "forward"):
        for d in range(1, 6):
            program = dense_program(d, order, seed=40 + d)
            for x in (-0.7, 0.1, 0.55):
                circuit = build_circuit(program, x)
                want = _kraus_reference_z(circuit, noise)
                assert abs(run_window(circuit, noise=noise) - want) < 1e-12
                # the reference is not trivially the noiseless value
                assert abs(run_window(circuit) - want) > 1e-3


def test_heavy_noise_runtime_smoke():
    program = dense_program(20, "forward", seed=20)
    circuit = build_circuit(program, 0.1)
    outcome = draw_shots(run_window(circuit, noise=NoiseModel(p1=0.001, p2=0.005)), 512, seed=55)
    assert outcome.total == 512
