import math

import numpy as np
import pytest

from polyshot.circuit import Circuit, Gate, plan
from polyshot.compile import build_circuit, compile_poly, plan_programs
from polyshot import dense, stream
from polyshot.dense import CapacityError, NoiseModel, draw_ones, expect_z, run_statevector
from polyshot.poly import Polynomial, eval_poly
from polyshot.rng import derive_seed
from polyshot.stream import (
    WindowOverflowError,
    liveness,
    run_window,
    run_window_plan,
)


def dense_program(d, order, seed=0):
    rng = np.random.default_rng(seed)
    coeffs = rng.uniform(-1, 1, d + 1)
    coeffs[np.abs(coeffs) < 1e-3] = 0.1  # keep every block present
    return compile_poly(Polynomial(tuple(coeffs)), order)


def test_single_point_entries_refuse_a_batch():
    program = dense_program(3, "forward")
    batch = plan_programs([program], [0.1, 0.5])
    with pytest.raises(ValueError, match="one point"):
        run_window(batch)
    with pytest.raises(ValueError, match="one point"):
        run_statevector(batch)
    # liveness reads the gates alone, so a batch has its points' lifetimes
    assert liveness(batch) == liveness(build_circuit(program, 0.1))


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
    assert draw_ones([run_window(Circuit(1, (), 0))], 100, [5]).tolist() == [0]


def test_stream_sampler_bitwise_matches_dense_noiseless():
    program = dense_program(5, "forward", seed=3)
    circuit = build_circuit(program, 0.25)
    seed = derive_seed(1234, 5, 0, 0)
    a = draw_ones([expect_z(run_statevector(circuit), circuit.measured_qubit)], 2048, [seed])
    b = draw_ones([run_window(circuit)], 2048, [seed])
    assert a.tolist() == b.tolist()


def test_stream_degree35_sampling_within_binomial_band():
    rng = np.random.default_rng(88)
    coeffs = rng.uniform(-1, 1, 36)
    poly = Polynomial(tuple(coeffs))
    program = compile_poly(poly, "forward")
    x = 0.3
    circuit = build_circuit(program, x)
    (n1,) = draw_ones([run_window(circuit)], 1024, [derive_seed(88, 35)]).tolist()
    estimate = program.rescale * (1024 - 2 * n1) / 1024
    bound = 5 * program.rescale / math.sqrt(1024)
    assert abs(estimate - eval_poly(poly, x)) < bound


def test_noisy_trajectories_seed_deterministic():
    program = dense_program(4, "forward", seed=9)
    circuit = build_circuit(program, -0.4)
    noise = NoiseModel(p1=0.002, p2=0.01)
    a = draw_ones([run_window(circuit, noise=noise)], 256, [31])
    b = draw_ones([run_window(circuit, noise=noise)], 256, [31])
    assert a.tolist() == b.tolist()


def test_noisy_trajectories_unbiased_at_zero_noise_rate():
    program = dense_program(3, "forward", seed=10)
    circuit = build_circuit(program, 0.5)
    trivial = draw_ones([run_window(circuit, noise=NoiseModel(0.0, 0.0))], 512, [7])
    clean = draw_ones([run_window(circuit)], 512, [7])
    assert trivial.tolist() == clean.tolist()


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
    z = run_window(circuit, noise=NoiseModel(p1=0.001, p2=0.005))
    assert 0 <= draw_ones([z], 512, [55])[0] <= 512


# --- a trial's points as one batched sweep ---------------------------------


def _points(program, n_points):
    return [build_circuit(program, float(x)) for x in np.linspace(-0.9, 0.9, n_points)]


@pytest.mark.parametrize("noise", [NoiseModel(), NoiseModel(p1=0.05, p2=0.1)])
@pytest.mark.parametrize("n_points", [5, 10])
@pytest.mark.parametrize("order", ["backward", "forward"])
def test_batch_matches_kraus_reference_and_each_point_alone(order, n_points, noise):
    for d in (1, 3, 5):
        circuits = _points(dense_program(d, order, seed=60 + d), n_points)
        zs = run_window_plan(plan(circuits), noise=noise)
        assert len(zs) == n_points
        for circuit, z in zip(circuits, zs):
            assert abs(z - _kraus_reference_z(circuit, noise)) < 1e-12
            assert abs(z - run_window(circuit, noise=noise)) < 1e-14


def test_batch_degree_35_forward_matches_horner_oracle():
    rng = np.random.default_rng(35)
    poly = Polynomial(tuple(rng.uniform(-1, 1, 36)))
    program = compile_poly(poly, "forward")
    xs = np.linspace(-0.9, 0.9, 5)
    zs = run_window_plan(plan([build_circuit(program, float(x)) for x in xs]))
    for x, z in zip(xs, zs):
        assert abs(program.rescale * z - eval_poly(poly, float(x))) < 1e-9


def test_batch_rejects_circuits_of_different_skeletons():
    base = Circuit(2, (Gate.ry(0, 0.3), Gate.cx(0, 1)), 1)
    for other in (
        Circuit(2, (Gate.ry(1, 0.3), Gate.cx(0, 1)), 1),  # another qubit
        Circuit(2, (Gate.rz(0, 0.3), Gate.cx(0, 1)), 1),  # another kind
        Circuit(2, (Gate.ry(0, 0.3), Gate.cx(0, 1)), 0),  # another measured qubit
        Circuit(3, (Gate.ry(0, 0.3), Gate.cx(0, 1)), 1),  # another width
        Circuit(2, (Gate.ry(0, 0.3),), 1),  # fewer gates
    ):
        with pytest.raises(ValueError, match="skeleton"):
            run_window_plan(plan([base, other]))
    with pytest.raises(ValueError):
        run_window_plan(plan([]))
    # only the angles differ: one sweep
    zs = run_window_plan(plan([base, Circuit(2, (Gate.ry(0, 1.1), Gate.cx(0, 1)), 1)]))
    assert zs == pytest.approx([math.cos(0.3), math.cos(1.1)], abs=1e-14)


def test_batch_overflow_reports_gate_and_suggests_forward():
    circuits = _points(dense_program(10, "backward"), 5)
    with pytest.raises(WindowOverflowError, match=r"at gate \d+ .*forward"):
        run_window_plan(plan(circuits), window_cap=8)


def test_batch_invariant_checks_pass_for_every_point():
    circuits = _points(dense_program(5, "forward"), 5)
    for noise in (None, NoiseModel(p1=0.05, p2=0.1)):
        zs = run_window_plan(plan(circuits), noise=noise, check_invariants=True)
        assert all(-1.0 <= z <= 1.0 for z in zs)


@pytest.mark.parametrize(
    "break_point, match",
    [
        (lambda mat: mat.__imul__(2.0), "trace drifted .* at point 3 after gate 7"),
        (lambda mat: mat.__setitem__((0, 1), 0.25), "hermiticity lost at point 3 after gate 7"),
        (
            lambda mat: mat.__setitem__(slice(None), np.diag([1.5, -0.5])),
            "negative eigenvalue at point 3",
        ),
    ],
)
def test_window_check_names_the_broken_point(break_point, match):
    rho = np.zeros((5, 2, 2), dtype=complex)
    rho[:, 0, 0] = 1.0
    break_point(rho[3])
    with pytest.raises(AssertionError, match=match):
        stream._check_window(rho, 7)


def test_batch_memory_check_raises_before_allocation(monkeypatch):
    # the window reaches 2 qubits at gate 1: 5 points x 4^2 amplitudes,
    # plus one window of kernel scratch
    circuits = [Circuit(2, (Gate.ry(0, a), Gate.cx(0, 1)), 1) for a in np.linspace(0.1, 0.5, 5)]
    need = 2 * 16 * 5 * 4**2
    real_zeros = np.zeros

    def small_allocations_only(shape, *args, **kwargs):
        if np.prod(shape) >= 5 * 4**2:
            raise AssertionError("the window was grown before the memory check")
        return real_zeros(shape, *args, **kwargs)

    monkeypatch.setattr(dense, "_free_memory_bytes", lambda: need - 1)
    monkeypatch.setattr(np, "zeros", small_allocations_only)
    with pytest.raises(CapacityError, match=f"{need} bytes.* {need - 1} bytes"):
        run_window_plan(plan(circuits))
    monkeypatch.undo()
    monkeypatch.setattr(dense, "_free_memory_bytes", lambda: need)
    zs = run_window_plan(plan(circuits))
    assert zs == pytest.approx([math.cos(a) for a in np.linspace(0.1, 0.5, 5)], abs=1e-14)


# --- the Pauli-transfer window ----------------------------------------------

NOISE_LEVELS = [(0.001, 0.005), (0.01, 0.03), (0.75, 1.0)]


@pytest.mark.parametrize("p1, p2", NOISE_LEVELS)
@pytest.mark.parametrize("order, d", [("forward", d) for d in (1, 3, 5, 8, 12)]
                         + [("backward", d) for d in (1, 3, 5)])
def test_noisy_z_is_an_exact_degree_d_polynomial_in_x(order, d, p1, p2):
    # the channel scales Pauli coefficients and each x enters through one
    # Ry(arccos x) per power, so the noisy <Z> is still of degree d: a
    # degree-(d+3) interpolant through d+4 Chebyshev nodes has no top terms
    nodes = np.cos(np.pi * (np.arange(d + 4) + 0.5) / (d + 4))
    circuits = [build_circuit(dense_program(d, order, seed=90 + d), float(x)) for x in nodes]
    zs = run_window_plan(plan(circuits), noise=NoiseModel(p1, p2))
    top = np.polynomial.chebyshev.chebfit(nodes, zs, d + 3)[d + 1:]
    assert np.abs(top).max() < 1e-12


def _random_batch(rng, n_points):
    """Circuits of one skeleton on 2-4 qubits holding every gate kind and cx in
    both directions, whose points differ in some ry and some rz angles."""
    n = int(rng.integers(2, 5))
    a, b = (int(q) for q in rng.choice(n, 2, replace=False))
    kinds = ["ry", "rz", "x", "cx", "ry", "rz"] + list(rng.choice(["ry", "rz", "x", "cx"], 8))
    rng.shuffle(kinds)
    skeleton = [("cx", (a, b)), ("cx", (b, a))]
    for kind in kinds:
        qubits = tuple(int(q) for q in rng.choice(n, 2 if kind == "cx" else 1, replace=False))
        skeleton.insert(int(rng.integers(len(skeleton) + 1)), (kind, qubits))
    per_point = {"ry": True, "rz": True}  # the first of each kind varies per point
    columns = []
    for kind, qubits in skeleton:
        if kind in per_point and (per_point[kind] or rng.random() < 0.3):
            per_point[kind] = False
            columns.append([Gate(kind, qubits, float(t)) for t in rng.uniform(-4, 4, n_points)])
        else:
            angle = float(rng.uniform(-4, 4)) if kind in per_point else None
            columns.append([Gate(kind, qubits, angle)] * n_points)
    measured = int(rng.integers(n))
    return [Circuit(n, tuple(gates), measured) for gates in zip(*columns)]


@pytest.mark.parametrize("p1", [0.0, 0.05, 0.75, 1.0])
@pytest.mark.parametrize("p2", [0.0, 0.05, 0.75, 1.0])
def test_random_circuits_match_kraus_reference(p1, p2):
    # p = 3/4 makes the channel's scale 0 and p = 1 makes it negative
    noise = NoiseModel(p1, p2)
    rng = np.random.default_rng(int(400 * p1 + 40 * p2))
    for _ in range(12):
        circuits = _random_batch(rng, 3)
        zs = run_window_plan(plan(circuits), noise=noise)
        for circuit, z in zip(circuits, zs):
            assert abs(z - _kraus_reference_z(circuit, noise)) < 1e-12
            assert abs(z - run_window(circuit, noise=noise)) < 1e-14


def test_noisy_degree_12_batch_passes_the_invariant_checks():
    circuits = _points(dense_program(12, "forward", seed=12), 10)
    zs = run_window_plan(plan(circuits), noise=NoiseModel(0.001, 0.005), check_invariants=True)
    assert zs == run_window_plan(plan(circuits), noise=NoiseModel(0.001, 0.005))


def test_density_of_adjoined_qubits_and_of_ry_then_rz():
    for w in (1, 2, 3):
        rho, active = np.ones(2), []
        for q in range(w):
            rho = stream._adjoin(rho, active, q, q, stream.DEFAULT_WINDOW_CAP)
        want = np.zeros((2**w, 2**w))
        want[0, 0] = 1.0
        assert np.abs(stream._density(rho) - want).max() < 1e-15
    t, s = 0.7, 1.9
    ry, rz = stream._transfer_matrices([("ry", (0,), t), ("rz", (0,), s)], None)
    rho = (ry @ np.array([1.0, 0.0, 0.0, 1.0]))[None]
    ket = np.array([math.cos(t / 2), math.sin(t / 2)])
    assert np.abs(stream._density(rho)[0] - np.outer(ket, ket)).max() < 1e-15
    # <Z> cannot tell rz(s) from rz(-s) in these circuits; the density can
    ket = ket * np.exp([-0.5j * s, 0.5j * s])
    want = np.outer(ket, ket.conj())
    assert np.abs(stream._density((rz @ rho[0])[None])[0] - want).max() < 1e-15


# --- a degree's trials x points as one windowed sweep -----------------------


def _mixed_sign_trials(d, order, n, seed):
    rng = np.random.default_rng(seed)
    programs = [compile_poly(Polynomial(tuple(rng.uniform(-1, 1, d + 1))), order) for _ in range(n)]
    if d >= 1:
        assert len({p.schedule.signs for p in programs}) > 1
    return programs


@pytest.mark.parametrize("noise", [None, NoiseModel(0.001, 0.005), NoiseModel(0.05, 0.1)])
@pytest.mark.parametrize("order", ["backward", "forward"])
def test_degree_batch_is_each_trial_alone_bit_for_bit(order, noise):
    xs = [float(x) for x in np.linspace(-0.9, 0.9, 6)]
    for d in range(0, 8 if order == "backward" else 13):
        programs = _mixed_sign_trials(d, order, 4, seed=110 + d)
        zs = run_window_plan(plan_programs(programs, xs), noise=noise)
        want = [
            z for p in programs
            for z in run_window_plan(plan([build_circuit(p, x) for x in xs]), noise=noise)
        ]
        assert zs == want
        # and the dense sweep of the same batch agrees with the window
        if noise is None:
            dense_zs = dense.expect_z_plan(plan_programs(programs, xs))
            assert np.abs(np.array(zs) - dense_zs).max() < 1e-10


def test_a_masked_x_is_noisy_only_where_it_acts():
    # x alone on the measured qubit, on the first point only: p1 = 3/4 sends
    # that point to I/2 and leaves the other in |0>
    x = compile_poly(Polynomial((-0.5,)), "forward")
    plus = compile_poly(Polynomial((0.5,)), "forward")
    batch = plan_programs([x, plus], [0.0])
    assert [(kind, arg.tolist()) for kind, _, arg in batch.gates] == [("x", [True, False])]
    assert run_window_plan(batch, noise=NoiseModel(p1=0.75)) == [0.0, 1.0]
    assert run_window_plan(batch) == [-1.0, 1.0]


def test_noisy_mixed_sign_degree_batch_passes_the_invariant_checks():
    programs = _mixed_sign_trials(6, "forward", 3, seed=120)
    batch = plan_programs(programs, [-0.8, 0.0, 0.7])
    assert any(kind == "x" and isinstance(arg, np.ndarray) for kind, _, arg in batch.gates)
    noise = NoiseModel(0.05, 0.1)
    zs = run_window_plan(batch, noise=noise, check_invariants=True)
    assert zs == run_window_plan(batch, noise=noise)


@pytest.mark.parametrize("order, d", [("backward", 6), ("forward", 12)])
def test_zero_rate_noise_is_the_noiseless_degree_batch_bit_for_bit(order, d):
    programs = _mixed_sign_trials(d, order, 4, seed=130 + d)
    batch = plan_programs(programs, [float(x) for x in np.linspace(-0.9, 0.9, 5)])
    assert any(kind == "x" and isinstance(arg, np.ndarray) for kind, _, arg in batch.gates)
    assert run_window_plan(batch, noise=NoiseModel(0.0, 0.0)) == run_window_plan(batch)


# --- the window's points in chunks ------------------------------------------


def _sweeps(monkeypatch) -> list[int]:
    """The size of each chunk run_window_plan sweeps, recorded as it runs."""
    sizes, sweep = [], stream._sweep

    def spy(chunk, mats, life, lo, *args):
        sizes.append(chunk.batch)
        return sweep(chunk, mats, life, lo, *args)

    monkeypatch.setattr(stream, "_sweep", spy)
    return sizes


@pytest.mark.parametrize("noise", [None, NoiseModel(0.001, 0.005), NoiseModel(0.05, 0.1)])
@pytest.mark.parametrize("order, d", [("backward", d) for d in (1, 3, 6)]
                         + [("forward", d) for d in (1, 5, 12)])
def test_a_chunked_window_is_the_one_chunk_sweep_bit_for_bit(order, d, noise, monkeypatch):
    # 4 trials x 6 points of mixed signs: chunks of 4, 5 and 7 points straddle
    # the trials' boundaries
    xs = [float(x) for x in np.linspace(-0.9, 0.9, 6)]
    batch = plan_programs(_mixed_sign_trials(d, order, 4, seed=130 + d), xs)
    assert any(isinstance(arg, np.ndarray) for kind, _, arg in batch.gates if kind == "ry")
    if d >= 3:
        assert any(kind == "x" and isinstance(arg, np.ndarray) for kind, _, arg in batch.gates)
    sizes = _sweeps(monkeypatch)
    monkeypatch.setattr(dense, "_CHUNK_BYTES", 8 * 2**62)
    whole = run_window_plan(batch, window_cap=10, noise=noise)
    assert sizes == [24]
    w = stream.liveness(batch).peak_window
    for points in (1, 4, 5, 7):
        sizes.clear()
        monkeypatch.setattr(dense, "_CHUNK_BYTES", 8 * (points * 4**w + 4**w - 1))
        assert run_window_plan(batch, window_cap=10, noise=noise) == whole
        assert sizes == [points] * (24 // points) + [24 % points] * (24 % points > 0)
    assert run_window_plan(batch, window_cap=10, noise=noise, check_invariants=True) == whole


def test_the_window_memory_check_is_per_chunk(monkeypatch):
    # 10 trials x 15 points of a backward degree-6 program: the checked bytes
    # are those of one chunk, not of the 150 points
    xs = [float(x) for x in np.linspace(-0.9, 0.9, 15)]
    programs = _mixed_sign_trials(6, "backward", 10, seed=140)
    batch = plan_programs(programs, xs)
    w = stream.liveness(batch).peak_window
    chunk = dense._CHUNK_BYTES // (8 * 4**w)
    assert 1 < chunk < batch.batch
    need = 2 * 16 * chunk * 4**w
    monkeypatch.setattr(dense, "_free_memory_bytes", lambda: need - 1)
    message = f"{w}-qubit window over {chunk} points needs about {need} bytes"
    with pytest.raises(CapacityError, match=message):
        run_window_plan(batch)
    monkeypatch.setattr(dense, "_free_memory_bytes", lambda: need)
    alone = [z for p in programs for z in run_window_plan(plan_programs([p], xs))]
    assert run_window_plan(batch) == alone


@pytest.mark.parametrize("noise", [None, NoiseModel(0.001, 0.005)])
def test_a_chunk_s_transfer_matrices_are_counted_before_any_is_built(monkeypatch, noise):
    # 40 points of 2 qubits, 20 ry angles and a mask per point: a window of
    # 32 x 40 x 4^2 bytes, and 40 x 21 matrices of 4 x 4 floats, with noise
    # a cx pair of 2 x 16 x 16 and an x of 4 x 4 too
    import tracemalloc

    rng = np.random.default_rng(141)
    rys = [tuple(Gate.ry(k % 2, a) for k, a in enumerate(rng.uniform(-3, 3, 20))) for _ in range(40)]
    batch = plan([Circuit(2, ry + (Gate.x(0), Gate.cx(0, 1)), 1) for ry in rys])
    gates = tuple(Gate("x", (0,), rng.random(40) < 0.5) if g.kind == "x" else g for g in batch.gates)
    batch = Circuit(2, gates, 1, 40)
    need = 8 * (16 * 40 * 21 + (0 if noise is None else 2 * 16 * 16 + 16))
    assert need > 32 * 40 * 4**2
    monkeypatch.setattr(dense, "_free_memory_bytes", lambda: need - 1)
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match=f"matrices need about {need} bytes, but only {need - 1}"):
            run_window_plan(batch, noise=noise)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < need / 4  # the angles and masks, 1/16 of it, but no matrix
    monkeypatch.setattr(dense, "_free_memory_bytes", lambda: need)
    zs = run_window_plan(batch, noise=noise)
    monkeypatch.undo()
    assert zs == run_window_plan(batch, noise=noise)


def test_a_many_trial_window_peaks_at_about_one_chunk():
    import tracemalloc

    def peak(batch):
        tracemalloc.start()
        try:
            run_window_plan(batch)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    xs = [float(x) for x in np.linspace(-0.9, 0.9, 15)]
    programs = _mixed_sign_trials(6, "backward", 10, seed=140)
    batch = plan_programs(programs, xs)
    w = stream.liveness(batch).peak_window
    # one trial's 15 points are one chunk, and 10 trials' are 10 chunks
    assert -(-batch.batch // (dense._CHUNK_BYTES // (8 * 4**w))) == 10
    one_trial = peak(plan_programs(programs[:1], xs))
    assert peak(batch) <= 1.5 * one_trial


def test_window_check_names_the_point_of_the_plan():
    rho = np.zeros((2, 2, 2), dtype=complex)
    rho[:, 0, 0] = 1.0
    rho[1] *= 2.0
    with pytest.raises(AssertionError, match="at point 11 after gate 7"):
        stream._check_window(rho, 7, 10)


# --- the lifetime pass ------------------------------------------------------


def _reference_liveness(circuit: Circuit) -> stream.RetirementSchedule:
    """The gate-by-gate lifetime loop, with the peak counted per gate."""
    n = circuit.n_qubits
    end = len(circuit.gates)
    first = [-1] * n
    last = [-1] * n
    for i, g in enumerate(circuit.gates):
        for q in g.qubits:
            if first[q] < 0:
                first[q] = i
            last[q] = i
    mq = circuit.measured_qubit
    if first[mq] < 0:
        first[mq] = end
    last[mq] = end
    live = peak = 0
    for i, g in enumerate(circuit.gates):
        live += [first[q] for q in g.qubits].count(i)
        peak = max(peak, live)
        live -= [last[q] for q in g.qubits].count(i)
    peak = max(peak, 1)
    return stream.RetirementSchedule(tuple(first), tuple(last), peak)


def test_liveness_is_the_gate_by_gate_reference():
    rng = np.random.default_rng(150)
    circuits = []
    for order in ("backward", "forward"):
        for d in range(16):
            coeffs = rng.uniform(-1, 1, d + 1)
            coeffs[rng.integers(d + 1, size=d // 3)] = 0.0  # zero coefficients
            if not coeffs.any():
                coeffs[d] = 0.5
            circuits.append(build_circuit(compile_poly(Polynomial(tuple(coeffs)), order), 0.3))
    circuits += [_random_batch(rng, 1)[0] for _ in range(40)]
    circuits += [
        Circuit(3, (), 1),  # no gate
        Circuit(4, (Gate.ry(0, 0.3), Gate.cx(0, 2), Gate.x(3)), 1),  # no gate on the measured qubit
        Circuit(3, (Gate.ry(0, 0.3), Gate.cx(0, 2)), 0),  # the last gate adjoins a qubit
    ]
    for circuit in circuits:
        assert liveness(circuit) == _reference_liveness(circuit)


# --- each step contracted where its axes sit --------------------------------


def _by_qubit(rho, active):
    """The window's [B, 2^w, 2^w] density matrices with the qubits in label order."""
    return stream._density(rho.transpose([0] + [1 + active.index(q) for q in sorted(active)]))


def _kraus_step(dens, gate, noise):
    """One gate on [B, 2^w, 2^w] density matrices over qubits 0..w-1 as a full
    unitary per point, then the depolarizing Kraus form on each touched qubit."""
    w, out = dens.shape[-1].bit_length() - 1, []
    for b, mat in enumerate(dens):
        arg = gate.angle[b] if isinstance(gate.angle, np.ndarray) else gate.angle
        if gate.kind == "x" and arg is not None and not arg:  # masked off here
            u, qubits = np.eye(2**w), ()
        else:
            u, qubits = _full_unitary(gate._replace(angle=arg), w), gate.qubits
        mat = u @ mat @ u.conj().T
        p = noise.p2 if gate.kind == "cx" else noise.p1
        for q in qubits:
            kicked = sum(P @ mat @ P for P in (_embed(s, q, w) for s in _PAULIS))
            mat = (1 - p) * mat + (p / 3) * kicked
        out.append(mat)
    return np.array(out)


def _kernel_cases():
    """(width, gate kind, window positions) for every form a step takes: a
    one-qubit gate on each axis (outermost, innermost and the middle ones), and
    cx on every ordered pair (adjacent in both orders at the front, the back
    and the middle, and axes apart)."""
    for w in range(1, 6):
        for kind in ("ry", "rz", "x"):
            yield from ((w, kind, (a,)) for a in range(w))
        yield from ((w, "cx", (a, b)) for a in range(w) for b in range(w) if a != b)


@pytest.mark.parametrize("noise", [NoiseModel(), NoiseModel(p1=0.05, p2=0.1)])
@pytest.mark.parametrize("each", [False, True], ids=["shared", "per-point"])
def test_every_step_form_matches_the_kraus_reference(each, noise):
    rng = np.random.default_rng(160 + each)
    points, seen = 3, set()
    for w, kind, at in _kernel_cases():
        # a window of random coefficients, its qubits labelled 0..w-1 in a random order
        rho, active = rng.normal(size=(points,) + (4,) * w), [int(q) for q in rng.permutation(w)]
        arg = None
        if kind in ("ry", "rz"):
            arg = rng.uniform(-4, 4, points) if each else float(rng.uniform(-4, 4))
        elif kind == "x" and each:
            arg = np.array([True, False, True])
        gate = Gate(kind, tuple(active[a] for a in at), arg)
        (mat,) = stream._transfer_matrices([gate], noise)
        got, order = stream._step(kind, gate.qubits, mat, rho.copy(), list(active))
        want = _kraus_step(_by_qubit(rho, active), gate, noise)
        assert np.abs(_by_qubit(got, order) - want).max() < 1e-12, (w, kind, at)
        if kind != "cx" or abs(at[0] - at[1]) == 1:
            assert order == active  # contracted where it sits
        else:
            assert order[:2] == list(gate.qubits) and sorted(order) == sorted(active)
        form = "outermost" if min(at) == 0 else "innermost" if max(at) == w - 1 else "middle"
        if max(at) - min(at) > 1:
            form = "apart"
        seen.add((len(at), form, at[0] < at[-1]))
    # one-qubit on 3 axes, and cx in both orders on 3 adjacent pairs or apart
    assert len(seen) == 3 + 2 * 4


def _broadcast_sweep(circuit, noise=None, cap=64):
    """<Z> at each point from one sweep with the broadcast kernel: every
    one-qubit matrix broadcast over the axes before its own, and every cx on a
    pair moved to the front first."""
    mats, life = stream._transfer_matrices(circuit.gates, noise), liveness(circuit)
    rho, active = np.ones(circuit.batch), []
    for i, ((kind, qubits, _), mat) in enumerate(zip(circuit.gates, mats)):
        for q in qubits:
            if life.first_use[q] == i:
                rho = stream._adjoin(rho, active, q, i, cap)
        axes = [1 + active.index(q) for q in qubits]
        if kind == "cx":
            order = axes + [k for k in range(1, rho.ndim) if k not in axes]
            pair = rho.transpose([0] + order).reshape(len(rho), 16, -1)
            rho = (mat[0] @ pair).reshape(rho.shape)
            active = [active[k - 1] for k in order]
        else:
            m = mat if mat.ndim == 2 else mat[:, None]
            rho = (m @ rho.reshape(len(rho), 4 ** (axes[0] - 1), 4, -1)).reshape(rho.shape)
        for q in qubits:
            if life.last_use[q] == i:
                rho = rho[(slice(None),) * (1 + active.index(q)) + (0,)]
                active.remove(q)
    if not active:
        rho = stream._adjoin(rho, active, circuit.measured_qubit, len(circuit.gates), cap)
    return [float(z) for z in rho[:, 3]]


@pytest.mark.parametrize("noise", [None, NoiseModel(0.001, 0.005), NoiseModel(0.05, 0.1)])
@pytest.mark.parametrize("order", ["backward", "forward"])
def test_compiled_programs_give_the_broadcast_kernel_bit_for_bit(order, noise):
    xs = [-0.9, -0.2, 0.35, 0.9]
    masked = 0
    for d in range(0, 8 if order == "backward" else 36):
        batch = plan_programs(_mixed_sign_trials(d, order, 3, seed=170 + d), xs)
        masked += any(kind == "x" and isinstance(arg, np.ndarray) for kind, _, arg in batch.gates)
        assert run_window_plan(batch, noise=noise) == _broadcast_sweep(batch, noise)
    assert masked >= 6


@pytest.mark.parametrize("p1, p2", [(0.0, 0.0), (0.05, 0.1), (0.75, 1.0)])
def test_random_circuits_stay_within_an_ulp_of_the_broadcast_kernel(p1, p2):
    # a gemm from the right rounds a*b + c*d once where the broadcast matvec
    # rounds twice, so a random circuit may move by an ulp of its z
    rng = np.random.default_rng(int(180 + 100 * p1))
    for _ in range(60):
        batch = plan(_random_batch(rng, 4))
        got = np.array(run_window_plan(batch, noise=NoiseModel(p1, p2)))
        want = np.array(_broadcast_sweep(batch, NoiseModel(p1, p2)))
        assert np.abs(got - want).max() <= 2.2e-16
