import math

import numpy as np
import pytest

from polyshot.circuit import Circuit, Gate, plan
from polyshot.compile import build_circuit, compile_poly, plan_programs, skeleton_key
from polyshot.dense import (
    CapacityError,
    NoiseModel,
    draw_ones,
    expect_z,
    expect_z_plan,
    prob_one,
    run_statevector,
)
from polyshot.poly import Polynomial, eval_poly
from polyshot.rng import derive_seed, derive_seeds, generator
from polyshot.stream import run_window

HALF_PI = math.pi / 2


# Independent oracle: build the full unitary with kron products and matmuls.
_I2 = np.eye(2, dtype=complex)


def _kron_all(mats):
    out = np.array([[1.0]], dtype=complex)
    for m in mats:
        out = np.kron(out, m)
    return out


def _oracle_gate(gate: Gate, n: int) -> np.ndarray:
    """The 2^n x 2^n matrix of one gate of one point, qubit 0 the most
    significant bit."""
    if gate.kind == "cx":
        c, t = gate.qubits
        full = np.zeros((2**n, 2**n), dtype=complex)
        for basis in range(2**n):
            bits = [(basis >> (n - 1 - i)) & 1 for i in range(n)]
            if bits[c]:
                bits[t] ^= 1
            out = sum(b << (n - 1 - i) for i, b in enumerate(bits))
            full[out, basis] = 1.0
        return full
    if gate.kind == "ry":
        m = np.array(
            [
                [math.cos(gate.angle / 2), -math.sin(gate.angle / 2)],
                [math.sin(gate.angle / 2), math.cos(gate.angle / 2)],
            ],
            dtype=complex,
        )
    elif gate.kind == "rz":
        m = np.diag([np.exp(-0.5j * gate.angle), np.exp(0.5j * gate.angle)])
    elif gate.angle is None or gate.angle:  # x, or a masked x where its mask is set
        m = np.array([[0, 1], [1, 0]], dtype=complex)
    else:
        m = _I2
    return _kron_all([m if i == gate.qubits[0] else _I2 for i in range(n)])


def _oracle_state(circuit: Circuit) -> np.ndarray:
    n = circuit.n_qubits
    state = np.zeros(2**n, dtype=complex)
    state[0] = 1.0
    for g in circuit.gates:
        state = _oracle_gate(g, n) @ state
    return state


def _oracle_expect_z(state: np.ndarray, qubit: int, n: int) -> float:
    total = 0.0
    for basis, amp in enumerate(state):
        bit = (basis >> (n - 1 - qubit)) & 1
        total += (abs(amp) ** 2) * (1.0 if bit == 0 else -1.0)
    return total


def encode(q, x):
    return Gate.ry(q, math.acos(x))


def mult_block(control, target):
    return [Gate.rz(target, HALF_PI), Gate.cx(control, target)]


def test_ry_amplitudes_closed_form():
    state = run_statevector(Circuit(1, (encode(0, 0.6),), 0))
    assert abs(state[0]) == pytest.approx(math.sqrt(0.8), abs=1e-12)
    assert abs(state[1]) == pytest.approx(math.sqrt(0.2), abs=1e-12)


def test_x_flips_basis_state():
    state = run_statevector(Circuit(1, (Gate.x(0),), 0))
    assert state[1] == pytest.approx(1.0)
    assert state[0] == pytest.approx(0.0)


def test_expect_z_ground_state():
    assert expect_z(run_statevector(Circuit(1, (), 0)), 0) == pytest.approx(1.0)


def test_expect_z_recovers_encoded_value():
    state = run_statevector(Circuit(1, (encode(0, -0.35),), 0))
    assert expect_z(state, 0) == pytest.approx(-0.35, abs=1e-12)


def test_mult_primitive_product_with_oracle():
    c = Circuit(2, tuple([encode(0, 0.5), encode(1, -0.4)] + mult_block(0, 1)), 1)
    state = run_statevector(c)
    assert expect_z(state, 1) == pytest.approx(-0.2, abs=1e-12)
    oracle = _oracle_state(c)
    assert _oracle_expect_z(oracle, 1, 2) == pytest.approx(-0.2, abs=1e-12)
    assert np.allclose(np.abs(state.reshape(2, 2)), np.abs(oracle.reshape(2, 2)), atol=1e-12)


def test_statevector_matches_kron_oracle():
    rng = np.random.default_rng(2)
    for _ in range(10):
        poly = Polynomial(tuple(rng.uniform(-1, 1, rng.integers(1, 5))))
        program = compile_poly(poly, "backward")
        circuit = build_circuit(program, float(rng.uniform(-1, 1)))
        got = run_statevector(circuit)
        want = _oracle_state(circuit)
        assert np.allclose(got, want, atol=1e-12)


def _random_kernel_circuit(n: int, rng, measured: int) -> Circuit:
    """Every gate kind on the first, middle and last axis (cx as control and
    as target there), then random gates, in a shuffled order."""
    positions = sorted({0, n // 2, n - 1})
    kinds = ["ry", "rz", "x", "cx"] if n > 1 else ["ry", "rz", "x"]
    gates = []
    for q in positions:
        gates += [
            Gate.ry(q, float(rng.uniform(-math.pi, math.pi))),
            Gate.rz(q, float(rng.uniform(-math.pi, math.pi))),
            Gate.x(q),
        ]
        if n > 1:
            other = int(rng.choice([k for k in range(n) if k != q]))
            gates += [Gate.cx(q, other), Gate.cx(other, q)]
    for _ in range(4 * n):
        kind = rng.choice(kinds)
        q = int(rng.integers(n))
        if kind == "cx":
            gates.append(Gate.cx(q, int(rng.choice([k for k in range(n) if k != q]))))
        elif kind == "x":
            gates.append(Gate.x(q))
        else:
            gates.append(getattr(Gate, kind)(q, float(rng.uniform(-math.pi, math.pi))))
    rng.shuffle(gates)
    assert {g.kind for g in gates} == set(kinds)
    return Circuit(n, tuple(gates), measured)


def test_kernel_matches_kron_oracle_on_every_kind_and_axis():
    rng = np.random.default_rng(17)
    for n in range(1, 8):
        for measured in sorted({0, n // 2, n - 1}):
            circuit = _random_kernel_circuit(n, rng, measured)
            state = run_statevector(circuit)
            assert np.abs(state - _oracle_state(circuit)).max() < 1e-12
            # n <= 7 fits the default window cap of 8
            assert abs(expect_z(state, measured) - run_window(circuit)) < 1e-10


def test_memory_check_raises_before_allocation(monkeypatch):
    from polyshot import dense

    need = 2 * 16 * 2**10  # the state plus the ry scratch
    circuit = Circuit(10, (Gate.ry(4, 0.3),), 0)

    def no_allocation(*args, **kwargs):
        raise AssertionError("the state was allocated before the memory check")

    monkeypatch.setattr(dense, "_free_memory_bytes", lambda: need - 1)
    monkeypatch.setattr(np, "zeros", no_allocation)
    with pytest.raises(CapacityError, match=f"{need} bytes.*stream"):
        run_statevector(circuit)
    monkeypatch.undo()
    monkeypatch.setattr(dense, "_free_memory_bytes", lambda: need)
    assert expect_z(run_statevector(circuit), 4) == pytest.approx(math.cos(0.3), abs=1e-12)


def test_memory_check_reads_all_pages_where_free_ones_are_not_counted(monkeypatch):
    # macOS's sysconf has no SC_AVPHYS_PAGES, and asking for it raises
    # ValueError; the check reads SC_PHYS_PAGES there, before any allocation
    import os

    from polyshot import dense

    values = {"SC_PHYS_PAGES": 7, "SC_PAGE_SIZE": 4096}

    def sysconf(name):
        if name not in values:
            raise ValueError("unrecognized configuration name")
        return values[name]

    def no_allocation(*args, **kwargs):
        raise AssertionError("the state was allocated before the memory check")

    names = {k: v for k, v in os.sysconf_names.items() if k != "SC_AVPHYS_PAGES"}
    monkeypatch.setattr(os, "sysconf_names", names)
    monkeypatch.setattr(os, "sysconf", sysconf)
    assert dense._free_memory_bytes() == 7 * 4096
    monkeypatch.setattr(np, "zeros", no_allocation)
    with pytest.raises(CapacityError, match=f"only {7 * 4096} bytes"):
        run_statevector(Circuit(10, (Gate.ry(4, 0.3),), 0))


# --- a trial's points as one batched statevector sweep ----------------------


@pytest.mark.parametrize("order", ["backward", "forward"])
def test_batch_z_is_each_point_alone_bit_for_bit(order):
    rng = np.random.default_rng(80)
    xs = [float(x) for x in np.linspace(-0.9, 0.9, 15)]
    for d in range(9):
        for _ in range(3):
            poly = Polynomial(tuple(rng.uniform(-1, 1, d + 1)))
            program = compile_poly(poly, order)
            circuits = [build_circuit(program, x) for x in xs]
            zs = expect_z_plan(plan(circuits))
            assert zs == [expect_z(run_statevector(c), c.measured_qubit) for c in circuits]
            for x, z in zip(xs, zs):
                assert abs(program.rescale * z - eval_poly(poly, x)) < 1e-9


def _kernel_batch(n: int, rng, n_points: int, measured: int, kinds: tuple) -> list[Circuit]:
    """Points of one random kernel circuit: each keeps about half of its
    rotations of the given kinds as the shared gate objects and draws its own
    angle for the rest."""
    base = _random_kernel_circuit(n, rng, measured)
    fresh = [g.kind in kinds and rng.random() < 0.5 for g in base.gates]
    return [
        Circuit(
            n,
            tuple(
                Gate(g.kind, g.qubits, float(rng.uniform(-math.pi, math.pi))) if new else g
                for g, new in zip(base.gates, fresh)
            ),
            measured,
        )
        for _ in range(n_points)
    ]


def test_batch_matches_kron_oracle_on_every_kind_and_across_chunks():
    # from n = 9 on, 70 points of n qubits overflow one chunk
    from polyshot import dense

    assert dense._CHUNK_AMPLITUDES >> 9 < 70
    rng = np.random.default_rng(81)
    for n in range(1, 11):
        measured = n // 2
        # per-point ry angles, as the encoding of a program's points: bit for bit
        circuits = _kernel_batch(n, rng, 70, measured, ("ry",))
        zs = expect_z_plan(plan(circuits))
        assert zs == [expect_z(run_statevector(c), measured) for c in circuits]
        # per-point rz phases too: the complex product may round differently
        circuits = _kernel_batch(n, rng, 70, measured, ("ry", "rz"))
        zs = expect_z_plan(plan(circuits))
        for circuit, z in zip(circuits, zs):
            assert abs(z - expect_z(run_statevector(circuit), measured)) < 1e-14
            if n <= 7:
                assert abs(z - _oracle_expect_z(_oracle_state(circuit), measured, n)) < 1e-12


def test_batch_rejects_an_empty_batch_and_mixed_skeletons():
    with pytest.raises(ValueError):
        expect_z_plan(plan([]))
    base = Circuit(2, (Gate.ry(0, 0.3), Gate.cx(0, 1)), 1)
    with pytest.raises(ValueError, match="skeleton"):
        expect_z_plan(plan([base, Circuit(2, (Gate.rz(0, 0.3), Gate.cx(0, 1)), 1)]))


def test_a_wide_batch_peaks_at_one_point_of_memory():
    import tracemalloc

    from polyshot import dense

    n = 15
    circuits = [
        Circuit(n, (Gate.ry(0, a), Gate.ry(n - 1, 0.2), Gate.cx(0, n - 1)), 0) for a in (0.3, 0.9)
    ]

    def peak(run):
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # the circuit is all encoding, which run_statevector builds with no
    # scratch, so the reference is a one-point run that also reads z
    single = peak(lambda: expect_z_plan(plan(circuits[:1])))
    batch = peak(lambda: expect_z_plan(plan(circuits)))
    assert batch <= 1.1 * single
    assert batch <= 1.05 * dense._PEAK_BYTES_PER_AMPLITUDE * 2**n


def test_batch_memory_check_raises_before_allocation(monkeypatch):
    from polyshot import dense

    # 15 points of 7 qubits run as one chunk: the states plus the ry scratch
    circuits = [Circuit(7, (Gate.ry(3, a),), 3) for a in np.linspace(0.1, 0.5, 15)]
    need = 2 * 16 * 15 * 2**7

    def no_allocation(*args, **kwargs):
        raise AssertionError("the states were allocated before the memory check")

    monkeypatch.setattr(dense, "_free_memory_bytes", lambda: need - 1)
    monkeypatch.setattr(np, "zeros", no_allocation)
    with pytest.raises(CapacityError, match=f"{need} bytes.* {need - 1} bytes"):
        expect_z_plan(plan(circuits))
    monkeypatch.undo()
    monkeypatch.setattr(dense, "_free_memory_bytes", lambda: need)
    zs = expect_z_plan(plan(circuits))
    assert zs == pytest.approx([math.cos(a) for a in np.linspace(0.1, 0.5, 15)], abs=1e-14)


def _sweep_peaks(monkeypatch) -> list[tuple]:
    """Spies on dense._sweep under tracemalloc, which the caller starts: each
    chunk's bytes checked, 32 per amplitude, and its traced peak above the
    memory traced when the chunk starts."""
    import tracemalloc

    from polyshot import dense

    peaks, sweep = [], dense._sweep

    def spy(steps, n, lo, hi, encoding, measured=None):
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        swept = sweep(steps, n, lo, hi, encoding, measured)
        checked = dense._PEAK_BYTES_PER_AMPLITUDE * (hi - lo) * 2**n
        peaks.append((checked, tracemalloc.get_traced_memory()[1] - before))
        return swept

    monkeypatch.setattr(dense, "_sweep", spy)
    return peaks


@pytest.mark.parametrize("order", ["backward", "forward"])
def test_a_narrow_chunk_peaks_within_the_bytes_its_sweep_checks(monkeypatch, order):
    # a Table-1 degree (one chunk of 150 points of 7 qubits), and 40 trials
    # of degree 8 and 10 (chunks of 64 and 16 points), with mixed signs
    import tracemalloc

    from polyshot import dense

    peaks = _sweep_peaks(monkeypatch)
    xs = [float(x) for x in np.linspace(-0.9, 0.9, 15)]
    rng = np.random.default_rng(98)
    tracemalloc.start()
    try:
        for d, trials in ((6, 10), (8, 40), (10, 40)):
            programs = _trials(rng, d, order, trials)
            first = [p for p in programs if skeleton_key(p) == skeleton_key(programs[0])]
            batch = plan_programs(first, xs)
            assert any(kind == "x" and isinstance(arg, np.ndarray) for kind, _, arg in batch.gates)
            expect_z_plan(batch)
            for _ in dense._states(batch):  # the states, not z
                pass
    finally:
        tracemalloc.stop()
    assert len(peaks) > 6
    for checked, peak in peaks:
        assert peak <= 1.05 * checked


@pytest.mark.parametrize("mask", [True, False])
def test_a_one_point_narrow_batch_takes_a_mask_of_one_bool(mask):
    # one point's mask is an array of one bool or the bool itself; either is
    # the plain x or no gate, and so is a one-point chunk's slice of a mask
    from polyshot import dense

    rng = np.random.default_rng(99)
    n, angles = 5, rng.uniform(-math.pi, math.pi, 5)
    head = tuple(Gate.ry(q, a) for q, a in enumerate(angles)) + (Gate.cx(0, 1),)
    tail = (Gate.cx(2, 4), Gate.ry(4, 0.3), Gate.rz(2, 0.7))
    sign = (Gate.x(2),) if mask else ()
    want = run_statevector(Circuit(n, head + sign + tail, 4))
    for arg in (np.array([mask]), np.bool_(mask)):
        circuit = Circuit(n, head + (Gate("x", (2,), arg),) + tail, 4)
        assert np.array_equal(run_statevector(circuit), want)
        assert expect_z_plan(circuit) == [expect_z(want, 4)]
    state = np.zeros([2] * n + [1], dtype=complex)
    state[(0,) * n] = 1.0
    for gate in head + (Gate("x", (2,), np.bool_(mask)),) + tail:
        dense._apply_gate(state, gate.kind, list(gate.qubits), gate.angle)
    assert np.array_equal(state.reshape(-1), want)
    # 17 points of 11 qubits run as chunks of 16 and 1
    assert dense._CHUNK_AMPLITUDES >> 11 == 16
    points = [Circuit(11, (Gate.ry(0, a), Gate.x(3), Gate.cx(3, 10), Gate.ry(10, a)), 10)
              for a in rng.uniform(-math.pi, math.pi, 17)]
    masks = np.array([not mask] * 16 + [mask])
    batch = plan(points)
    gates = tuple(Gate("x", (3,), masks) if g.kind == "x" else g for g in batch.gates)
    zs = expect_z_plan(Circuit(11, gates, 10, 17))
    alone = [expect_z(run_statevector(c if m else Circuit(11, c.gates[:1] + c.gates[2:], 10)), 10)
             for c, m in zip(points, masks)]
    assert zs == alone


# --- a degree's trials x points as one batched statevector sweep -----------


def _trials(rng, d: int, order: str, n: int) -> list:
    """n random programs of degree d with signs that differ across trials."""
    return [compile_poly(Polynomial(tuple(rng.uniform(-1, 1, d + 1))), order) for _ in range(n)]


def _each_trial_alone(programs: list, xs: list[float]) -> list[float]:
    """The z of each program's own circuits at xs, as one plan per program."""
    return [z for p in programs for z in expect_z_plan(plan([build_circuit(p, x) for x in xs]))]


@pytest.mark.parametrize("order", ["backward", "forward"])
def test_degree_batch_is_each_trial_alone_bit_for_bit(order):
    rng = np.random.default_rng(82)
    xs = [float(x) for x in np.linspace(-0.9, 0.9, 15)]
    for d in range(9):
        programs = _trials(rng, d, order, 5)
        zs = expect_z_plan(plan_programs(programs, xs))
        assert zs == _each_trial_alone(programs, xs)


def test_degree_batch_across_chunks_is_each_trial_alone_bit_for_bit():
    # 7 qubits: chunks of 256 points, so 40 trials x 15 points span 3 chunks
    from polyshot import dense

    assert dense._CHUNK_AMPLITUDES >> 7 == 256
    xs = [float(x) for x in np.linspace(-0.9, 0.9, 15)]
    for order in ("backward", "forward"):
        programs = _trials(np.random.default_rng(83), 6, order, 40)
        zs = expect_z_plan(plan_programs(programs, xs))
        assert zs == _each_trial_alone(programs, xs)


@pytest.mark.parametrize("order, d", [(o, d) for o in ("backward", "forward") for d in (11, 12, 13)])
def test_fused_degree_batch_of_mixed_signs_is_each_trial_alone_bit_for_bit(order, d):
    # a wide state runs one point at a time, and a masked x is X or the
    # identity per point: its encoding factor and its run are those of the
    # trial's own x, or of no gate, so each point rounds as its trial alone
    xs = [-0.7, 0.2, 0.55]
    for seed in range(4):
        programs = _trials(np.random.default_rng(84 + 10 * d + seed), d, order, 5)
        assert len({p.schedule.signs for p in programs}) > 1
        batch = plan_programs(programs, xs)
        assert any(kind == "x" and isinstance(arg, np.ndarray) for kind, _, arg in batch.gates)
        zs = expect_z_plan(batch)
        assert zs == _each_trial_alone(programs, xs)


def _chunks(monkeypatch) -> list[tuple]:
    """Spies on dense._sweep: each chunk's first point, fused steps and
    encoding, in the order the chunks run."""
    from polyshot import dense

    swept, sweep = [], dense._sweep

    def spy(steps, n, lo, hi, encoding, measured=None):
        swept.append((lo, steps, encoding))
        return sweep(steps, n, lo, hi, encoding, measured)

    monkeypatch.setattr(dense, "_sweep", spy)
    return swept


# --- wide states: runs of gates on up to three qubits fused into one matmul ---


def _unfused(circuits: list[Circuit], i: int) -> np.ndarray:
    """Point i's amplitudes, in qubit order, from the gate-by-gate sweep of
    every gate from |0...0>, with no encoding built."""
    from polyshot import dense
    from polyshot.circuit import plan

    state, order = dense._sweep(plan(circuits).gates, circuits[0].n_qubits, i, i + 1, [])
    assert order == list(range(circuits[0].n_qubits))
    return state.reshape(-1)


def test_only_a_state_of_one_point_per_chunk_is_fused(monkeypatch):
    from polyshot import dense

    swept, sweep = [], dense._sweep

    def spy(steps, n, lo, hi, encoding, measured=None):  # each chunk's size and whether fused
        swept.append((hi - lo, any(kind == "u" for kind, _, _ in steps)))
        return sweep(steps, n, lo, hi, encoding, measured)

    monkeypatch.setattr(dense, "_sweep", spy)
    for n, points, chunks in ((11, 20, [(16, False), (4, False)]), (12, 3, [(1, True)] * 3)):
        circuits = _kernel_batch(n, np.random.default_rng(n), points, 0, ("ry",))
        swept.clear()
        expect_z_plan(plan(circuits))
        assert swept == chunks
        swept.clear()
        run_statevector(circuits[0])  # a point alone: fused as the batch's chunks are
        assert swept == [(1, chunks[0][1])]


def _lone_z(state: np.ndarray, axis: int) -> float:
    """<Z> on one axis of one state, reduced alone: the sum of |amp|^2 over
    every other axis, 0-half minus 1-half."""
    probs = np.abs(state) ** 2
    marg = probs.sum(axis=tuple(i for i in range(state.ndim) if i != axis))
    return float(marg[0] - marg[1])


@pytest.mark.parametrize("n, points", [(9, 150), (11, 40), (12, 3), (13, 2)])
def test_a_chunk_s_z_is_expect_z_of_each_of_its_states(n, points):
    # one reduction per chunk: narrow batches of several chunks, and fused
    # points, whose axes are permuted and whose halves are read as pairwise
    # sums, which the reduction of _lone_z is not
    from polyshot import dense

    rng = np.random.default_rng(86 + n)
    for measured in (0, n // 2, n - 1):
        batch = plan(_kernel_batch(n, rng, points, measured, ("ry", "rz")))
        want, chunks = [], 0
        for _, _, states, order in dense._states(batch):
            axis = order.index(measured)
            want += [expect_z(state, axis) for state in states]
            lone = [_lone_z(state, axis) for state in states]
            assert np.abs(np.subtract(want[-len(states) :], lone)).max() <= (0 if n < 12 else 1e-15)
            chunks += 1
        assert chunks > 1
        if n < 12:
            assert expect_z_plan(batch) == want
        else:  # a wide z is read from its last pass's input, not from a built state
            assert np.abs(np.subtract(expect_z_plan(batch), want)).max() < 1e-14


@pytest.mark.parametrize("n", [12, 13])
def test_fused_sweep_matches_the_gate_by_gate_sweep(n):
    rng = np.random.default_rng(90 + n)
    for measured in (0, n // 2, n - 1):
        circuits = _kernel_batch(n, rng, 3, measured, ("ry",))
        zs = expect_z_plan(plan(circuits))
        for i, (circuit, z) in enumerate(zip(circuits, zs)):
            want = _unfused(circuits, i)
            got = run_statevector(circuit)
            assert np.abs(got - want).max() < 1e-13
            z_want = expect_z(want, measured)
            assert abs(z - z_want) < 1e-14
            assert abs(expect_z(got, measured) - z_want) < 1e-14


def test_fused_backward_programs_are_exact():
    rng = np.random.default_rng(91)
    xs = [-0.85, 0.1, 0.6]
    for d in range(11, 16):
        poly = Polynomial(tuple(rng.uniform(-1, 1, d + 1)))
        program = compile_poly(poly, "backward")
        for x, z in zip(xs, expect_z_plan(plan([build_circuit(program, x) for x in xs]))):
            assert abs(program.rescale * z - eval_poly(poly, x)) < 1e-9


def test_fused_forward_programs_agree_with_the_window():
    rng = np.random.default_rng(92)
    xs = [-0.3, 0.75]
    for d in range(12, 17):
        program = compile_poly(Polynomial(tuple(rng.uniform(-1, 1, d + 1))), "forward")
        circuits = [build_circuit(program, x) for x in xs]
        for circuit, z in zip(circuits, expect_z_plan(plan(circuits))):
            assert abs(z - run_window(circuit)) < 1e-10


def test_a_fused_run_peaks_within_the_checked_bytes_per_amplitude():
    import tracemalloc

    from polyshot import dense

    d = 14
    poly = Polynomial(tuple(np.random.default_rng(93).uniform(-1, 1, d + 1)))
    circuit = build_circuit(compile_poly(poly, "backward"), 0.4)
    tracemalloc.start()
    try:
        run_statevector(circuit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.05 * dense._PEAK_BYTES_PER_AMPLITUDE * 2 ** (d + 1)


def _random_run(qubits: tuple, rng, n_points: int, shared: bool) -> list[tuple]:
    """A shuffled run of every gate kind on each of the qubits (cx both ways
    to the next one), ry and rz with one angle per point and x with a mask
    set at some points and not at others, unless `shared`."""
    run = []
    for i, q in enumerate(qubits):
        for kind in ("ry", "rz"):
            run.append((kind, (q,), rng.uniform(-math.pi, math.pi, None if shared else n_points)))
        run.append(("x", (q,), None if shared else rng.permutation(n_points) % 2 == 0))
        if len(qubits) > 1:
            other = qubits[(i + 1) % len(qubits)]
            run += [("cx", (q, other), None), ("cx", (other, q), None)]
    rng.shuffle(run)
    return run


@pytest.mark.parametrize("shared", [False, True])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_a_fused_step_on_k_unsorted_axes_matches_the_kron_oracle(k, shared):
    from polyshot import dense

    rng = np.random.default_rng(98 + k)
    n, n_points = 5, 3
    qubits = (4, 1, 3)[:k]  # unsorted, and not the leading axes
    run = _random_run(qubits, rng, n_points, shared)
    matrix = dense._run_matrix(run, qubits)
    assert matrix.shape == (1 if shared else n_points, 2**k, 2**k)
    state = rng.normal(size=(n_points, 2**n)) + 1j * rng.normal(size=(n_points, 2**n))
    got = state.reshape([n_points] + [2] * n).copy()
    moved = np.empty_like(got)  # the run's axes apart: moved innermost first, as a sweep does
    dense._to_back(got, moved, [1 + q for q in qubits])
    for p in range(n_points):  # x @ m^T on the rows of its run's axes
        dense._apply_u(moved[p], matrix[0 if shared else p].T[None], got[p])
    order = [q for q in range(n) if q not in qubits] + list(qubits)
    got = got.transpose([0] + [1 + order.index(q) for q in range(n)]).reshape(n_points, -1)
    for p in range(n_points):
        local, full = np.eye(2**k, dtype=complex), np.eye(2**n, dtype=complex)
        for kind, qs, angle in run:
            angle = angle[p] if isinstance(angle, np.ndarray) else angle
            at = tuple(qubits.index(q) for q in qs)  # the matrix's bit order
            local = _oracle_gate(Gate(kind, at, angle), k) @ local
            full = _oracle_gate(Gate(kind, qs, angle), n) @ full
        assert np.abs(matrix[0 if shared else p] - local).max() < 1e-12
        assert np.abs(got[p] - full @ state[p]).max() < 1e-12


def _axis_oracle_state(circuit: Circuit) -> np.ndarray:
    """The kron oracle for states too wide for a full matrix: each gate's
    matrix on its own qubits (_oracle_gate), contracted with the state
    tensor's axes of those qubits."""
    n = circuit.n_qubits
    state = np.zeros([2] * n, dtype=complex)
    state[(0,) * n] = 1.0
    for g in circuit.gates:
        k = len(g.qubits)
        m = _oracle_gate(Gate(g.kind, tuple(range(k)), g.angle), k).reshape([2] * 2 * k)
        state = np.tensordot(m, state, axes=(list(range(k, 2 * k)), list(g.qubits)))
        state = np.moveaxis(state, list(range(k)), list(g.qubits))
    return state.reshape(-1)


def _placed_runs(n: int, rng, n_points: int, shared: bool) -> list[list[tuple]]:
    """Gate lists of runs (_random_run) whose fused steps meet each placement:
    on fresh qubits alone, on held ones and fresh ones that are adjoined after
    them (lone cx gates first meet the qubits between the middle run and the
    last one), a chain that slides by two qubits, and runs whose held qubits
    are not innermost."""

    def runs(*qubit_sets):
        return [g for qubits in qubit_sets for g in _random_run(qubits, rng, n_points, shared)]

    first, middle, last = (0, 1, 2), (3, 4, 5), (n - 3, n - 2, n - 1)
    gap = list(range(6, n - 3))
    lone = [("cx", tuple(gap[j : j + 2]) if j + 1 < len(gap) else (0, gap[j]), None)
            for j in range(0, len(gap), 2)]
    lone.append(("cx", last[:2], None))  # the last run's start
    chain = [(q, q + 1, q + 2) for q in range(0, n - 2, 2)]
    return [
        runs(first, middle) + lone + runs(last),
        runs(*chain),
        runs(first, middle, (0, 4, n - 1), (n // 2, 1), (2,)),
    ]


@pytest.mark.parametrize("shared", [False, True])
@pytest.mark.parametrize("n", [12, 13, 14])
def test_every_placement_of_a_fused_step_matches_the_kron_oracle(monkeypatch, n, shared):
    # a step is innermost once its fresh qubits are adjoined, or once its held
    # qubits are moved there; its matrix is permuted where its axes hold its
    # qubits in another order than its gates meet them
    from polyshot import dense

    rng = np.random.default_rng(100 + n)
    n_points, measured = 2, n // 2
    placed, events, matrices, sizes = set(), [], [], set()
    factors, to_back, fuse = dense._factors, dense._to_back, dense._fuse

    def factors_spy(tensor, held, matrix):
        if matrix is not None:
            placed.add("moved" if events and events[-1] == "move" else "adjoined")
            if not any(np.array_equal(matrix[0], m) for m in matrices):
                placed.add("permuted")
        events.append("step")
        return factors(tensor, held, matrix)

    def to_back_spy(state, out, axes):
        events.append("move")
        to_back(state, out, axes)

    def fuse_spy(gates):
        fused = fuse(gates)
        matrices.extend(m for _, _, arg in fused for m in arg)
        sizes.update(len(arg) for _, _, arg in fused)
        return fused

    monkeypatch.setattr(dense, "_factors", factors_spy)
    monkeypatch.setattr(dense, "_to_back", to_back_spy)
    monkeypatch.setattr(dense, "_fuse", fuse_spy)
    for gates in _placed_runs(n, rng, n_points, shared):
        circuits = [
            Circuit(n, tuple(Gate(k, q, a[p] if isinstance(a, np.ndarray) else a)
                             for k, q, a in gates), measured)
            for p in range(n_points)
        ]
        matrices.clear()
        zs = expect_z_plan(plan(circuits))
        for circuit, z in zip(circuits, zs):
            want = _axis_oracle_state(circuit)
            assert np.abs(run_statevector(circuit) - want).max() < 1e-12
            assert abs(z - _oracle_expect_z(want, measured, n)) < 1e-12
    assert placed == {"adjoined", "moved", "permuted"}
    assert sizes == {1} if shared else n_points in sizes  # a run of x and cx alone shares one


@pytest.mark.parametrize("order", ["backward", "forward"])
def test_a_compiled_point_moves_its_state_at_most_once(monkeypatch, order):
    # it never moves: each step's held qubits are the ones the step before
    # left innermost, and its fresh ones are adjoined after them; the states
    # its steps write grow from 2^3 or 2 x 2^3 amplitudes, and the last pass
    # is read for z, not written, so their sizes sum to at most one final state
    from polyshot import dense

    rng = np.random.default_rng(102)
    moves, sizes = [], []
    apply_u, to_back = dense._apply_u, dense._to_back

    def apply_u_spy(state, factors, out):  # the size of the state it writes
        sizes.append(out.size)
        apply_u(state, factors, out)

    def to_back_spy(*args):
        moves.append(args[2])
        to_back(*args)

    monkeypatch.setattr(dense, "_apply_u", apply_u_spy)
    monkeypatch.setattr(dense, "_to_back", to_back_spy)
    for d in range(11, 21):
        poly = Polynomial(tuple(rng.uniform(-1, 1, d + 1)))
        program = compile_poly(poly, order)
        sizes.clear()
        (z,) = expect_z_plan(build_circuit(program, -0.4))
        assert moves == []
        assert sum(sizes) <= 2 ** (d + 1)
        if order == "backward":  # the last step is read for z, not run
            assert len(sizes) == math.ceil(d / 2) - 1
        assert abs(program.rescale * z - eval_poly(poly, -0.4)) < 1e-9


def test_a_fused_backward_point_runs_one_step_per_two_sum_blocks(monkeypatch):
    # after the encoding, block k on (k, k+1) and block k-1 share qubit k,
    # so each step on three qubits covers two blocks
    rng = np.random.default_rng(99)
    swept = _chunks(monkeypatch)
    for d in range(11, 21):
        poly = Polynomial(tuple(rng.uniform(-1, 1, d + 1)))
        program = compile_poly(poly, "backward")
        swept.clear()
        (z,) = expect_z_plan(build_circuit(program, 0.3))
        ((_, steps, encoding),) = swept
        assert len(encoding) == d
        assert len(steps) == math.ceil(d / 2)
        assert all(kind == "u" and len(qubits) <= 3 for kind, qubits, _ in steps)
        assert abs(program.rescale * z - eval_poly(poly, 0.3)) < 1e-9


# --- the encoding: leading ry gates and their cx chain, built, not swept ----


@pytest.mark.parametrize("order", ["backward", "forward"])
def test_the_built_encoding_is_the_gate_sweep_bit_for_bit(order):
    # below 2^12 amplitudes no chunk is fused, so each chunk's states are
    # those of the sweep of every gate from |0...0>, bit for bit
    from polyshot import dense

    rng = np.random.default_rng(94)
    xs = [-0.8, -0.1, 0.35, 0.9]
    masked = led = False
    for d in range(11):
        batch = plan_programs(_trials(rng, d, order, 3), xs)
        masked |= any(g.kind == "x" and g.angle is not None for g in batch.gates)
        leading_x = bool(batch.gates) and batch.gates[0].kind == "x"
        led |= leading_x
        count, _ = dense._encoding(batch.gates)
        if order == "backward":  # degree 0 is at most the x of a negative c_0
            assert count == max(2 * d - 1, int(leading_x))
        else:  # the x of a negative c_0 on q0, ry(1), ry(2), then the chain's rz
            assert count == leading_x + min(d, 2)
        for lo, hi, states, axes in dense._states(batch):
            assert axes == list(range(d + 1))
            want, _ = dense._sweep(batch.gates, d + 1, lo, hi, [])
            assert np.array_equal(states, want)
    assert masked and led


# each near miss: the smallest encoding that shows it, and whether it needs a
# qubit with no ry
_NEAR_MISSES = {
    None: (1, False),
    "cx out of ry order": (3, False),
    "cx against the ry order": (2, False),
    "repeated ry qubit": (2, False),
    "rz before the chain": (2, False),
    "cx onto a qubit with no ry": (1, True),
}


def _encoded_points(n: int, rng, miss, n_points: int = 3) -> tuple[list[Circuit], int]:
    """Points of one circuit that starts with an encoding, then runs a random
    kernel circuit after an x on r_0, which ends the encoding: ry gates, one
    angle per point, on distinct qubits r_0, r_1, ... in a random order, then
    the cx chain over the first of them in that order.  `miss` breaks the
    encoding one way.  Returns the points and
    how many of their leading gates still make an encoding."""
    r = [int(q) for q in rng.permutation(n)]
    low, spare = _NEAR_MISSES[miss]
    m = int(rng.integers(low, n - spare + 1))
    links = int(rng.integers(0, m))
    rys = [("ry", (q,)) for q in r[:m]]
    chain = [("cx", (a, b)) for a, b in zip(r[:links], r[1 : links + 1])]
    count = m + links
    if miss == "cx out of ry order":
        chain, count = [("cx", (r[1], r[2])), ("cx", (r[0], r[1]))], m
    elif miss == "cx against the ry order":
        chain, count = [("cx", (r[1], r[0]))], m
    elif miss == "repeated ry qubit":
        rys.insert(2, ("ry", (r[0],)))
        count = 2
    elif miss == "rz before the chain":
        chain, count = [("rz", (r[0],))] + chain, m
    elif miss == "cx onto a qubit with no ry":
        chain.append(("cx", (r[links], r[m])))
    kernel = _random_kernel_circuit(n, rng, int(rng.integers(n)))
    points = []
    for _ in range(n_points):
        head = [
            Gate(k, q, float(rng.uniform(-math.pi, math.pi)) if k == "ry" else 0.7 if k == "rz" else None)
            for k, q in rys + chain
        ]
        points.append(Circuit(n, (*head, Gate.x(r[0]), *kernel.gates), kernel.measured_qubit))
    return points, count


@pytest.mark.parametrize("miss", list(_NEAR_MISSES))
def test_an_encoding_and_its_near_misses_match_the_kron_oracle(miss):
    from polyshot import dense

    rng = np.random.default_rng(95)
    low, spare = _NEAR_MISSES[miss]
    for n in range(low + spare, 8):
        for _ in range(3):
            circuits, count = _encoded_points(n, rng, miss)
            batch = plan(circuits)
            assert dense._encoding(batch.gates)[0] == count
            for circuit, z in zip(circuits, expect_z_plan(batch)):
                want = _oracle_state(circuit)
                assert np.abs(run_statevector(circuit) - want).max() < 1e-12
                assert abs(z - _oracle_expect_z(want, circuit.measured_qubit, n)) < 1e-12


def test_a_fused_backward_run_is_the_gate_sweep_within_1e_15():
    rng = np.random.default_rng(96)
    for d in range(11, 17):
        program = compile_poly(Polynomial(tuple(rng.uniform(-1, 1, d + 1))), "backward")
        circuits = [build_circuit(program, x) for x in (-0.6, 0.45)]
        for i, z in enumerate(expect_z_plan(plan(circuits))):
            want = _unfused(circuits, i)
            assert np.abs(run_statevector(circuits[i]) - want).max() < 1e-15
            assert abs(z - expect_z(want, circuits[i].measured_qubit)) < 1e-15


# --- wide points that adjoin each qubit where a step first meets it --------


def _matches_the_sweep_and_the_oracle(circuits: list[Circuit], z_bound=1e-15) -> list[float]:
    """Each point's amplitudes and z against the unfused sweep (1e-15, and
    z_bound) and the kron oracle (1e-12); returns the points' z."""
    zs = expect_z_plan(plan(circuits))
    for i, (circuit, z) in enumerate(zip(circuits, zs)):
        measured, got = circuit.measured_qubit, run_statevector(circuit)
        want = _unfused(circuits, i)
        assert np.abs(got - want).max() < 1e-15
        assert abs(z - expect_z(want, measured)) < z_bound
        oracle = _axis_oracle_state(circuit)
        assert np.abs(got - oracle).max() < 1e-12
        assert abs(z - _oracle_expect_z(oracle, measured, circuit.n_qubits)) < 1e-12
    return zs


def _spy_heads(monkeypatch) -> list[int]:
    """Spies on dense._tensor: how many qubits each adjoin puts outermost."""
    from polyshot import dense

    heads, tensor = [], dense._tensor

    def spy(group, head, tail, bond, sites):
        heads.append(len(head))
        return tensor(group, head, tail, bond, sites)

    monkeypatch.setattr(dense, "_tensor", spy)
    return heads


@pytest.mark.parametrize("order", ["backward", "forward"])
def test_wide_programs_with_zero_coefficients_match_the_sweep_and_the_oracle(monkeypatch, order):
    # a zero coefficient elides its backward block, so no step touches its
    # chain qubit: the step after it adjoins the chain past it, outermost.  A
    # forward point runs about twice as many steps over the wide state (d - 1,
    # not ceil(d/2)), whose roundings move its z by up to ~1.3e-15
    rng = np.random.default_rng(103)
    heads = _spy_heads(monkeypatch)
    for d in range(12, 17):
        coeffs = rng.uniform(-1, 1, d + 1)
        coeffs[rng.choice(np.arange(1, d + 1), 4, replace=False)] = 0.0
        poly = Polynomial(tuple(coeffs))
        program = compile_poly(poly, order)
        xs = [-0.6, 0.45]
        circuits = [build_circuit(program, x) for x in xs]
        zs = _matches_the_sweep_and_the_oracle(circuits, 1e-15 if order == "backward" else 2e-15)
        for x, z in zip(xs, zs):
            assert abs(program.rescale * z - eval_poly(poly, x)) < 1e-9
    assert any(heads) == (order == "backward")


def _chained_points(n: int, rng, meet: str, n_points: int = 2) -> tuple[list[Circuit], list[int]]:
    """Points of one circuit that starts with an encoding whose cx chain runs
    over n - 2 qubits r_0 -> r_1 -> ... in a random order, one ry angle per
    point, then a run on the chain qubit `meet` names (its head, a middle one
    or its tail) and two qubits with no encoding gate, then a random kernel
    circuit.  Returns the points and the chain in its order."""
    r = [int(q) for q in rng.permutation(n)]
    chain, spare = r[:-2], r[-2:]
    first = {"head": chain[0], "middle": chain[len(chain) // 2], "tail": chain[-1]}[meet]
    links = [Gate.cx(a, b) for a, b in zip(chain, chain[1:])]
    start = [Gate.rz(first, 0.4), Gate.cx(first, spare[0]), Gate.ry(spare[1], 1.1),
             Gate.cx(spare[1], first)]
    kernel = _random_kernel_circuit(n, rng, int(rng.integers(n)))
    points = []
    for _ in range(n_points):
        rys = [Gate.ry(q, float(rng.uniform(-math.pi, math.pi))) for q in chain]
        points.append(Circuit(n, (*rys, *links, *start, *kernel.gates), kernel.measured_qubit))
    return points, chain


@pytest.mark.parametrize("meet", ["head", "middle", "tail"])
def test_steps_that_meet_the_chain_anywhere_match_the_sweep_and_the_oracle(monkeypatch, meet):
    # the chain is adjoined from its tail, so a first step that meets the
    # head or a middle qubit adjoins the chain past its own qubits
    from polyshot import dense

    rng = np.random.default_rng(104)
    runs, sites = [], dense._sites

    def sites_spy(encoding, n, point):
        chain, factors = sites(encoding, n, point)
        runs.append(chain)
        return chain, factors

    monkeypatch.setattr(dense, "_sites", sites_spy)
    heads = _spy_heads(monkeypatch)
    for n in (12, 13):
        circuits, chain = _chained_points(n, rng, meet)
        assert dense._encoding(plan(circuits).gates)[0] == 2 * len(chain) - 1
        runs.clear()
        heads.clear()
        _matches_the_sweep_and_the_oracle(circuits)
        assert runs[0] == chain[::-1]
        assert (heads[0] > 0) == (meet != "tail")


def test_a_wide_point_s_z_is_within_1e_13_of_the_polynomial():
    # the measured qubit ends innermost; a reduction over the axes before it
    # adds their rows one by one, and drifts by ~1e-12 at degree 16
    rng = np.random.default_rng(105)
    d, xs = 16, [-0.9, 0.0, 0.9]
    for order in ("backward", "forward"):
        poly = Polynomial(tuple(rng.uniform(-1, 1, d + 1)))
        program = compile_poly(poly, order)
        zs = expect_z_plan(plan_programs([program], xs))
        for x, z in zip(xs, zs):
            assert abs(program.rescale * z - eval_poly(poly, x)) < 1e-13


def test_a_wide_point_s_z_read_peaks_within_the_checked_bytes_per_amplitude():
    import tracemalloc

    from polyshot import dense

    d = 14
    poly = Polynomial(tuple(np.random.default_rng(106).uniform(-1, 1, d + 1)))
    circuit = build_circuit(compile_poly(poly, "backward"), 0.4)
    tracemalloc.start()
    try:
        expect_z_plan(circuit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.05 * dense._PEAK_BYTES_PER_AMPLITUDE * 2 ** (d + 1)


def test_wide_backward_points_are_within_2_5e_15_of_the_polynomial():
    # each z is read from its last step's input rows in blocks of one BLAS
    # dot each; one dot over all of them reaches 3.8e-15 on these points
    rng = np.random.default_rng(107)
    xs = [float(x) for x in np.linspace(-0.9, 0.9, 7)]
    worst = 0.0
    for d in range(12, 18):
        polys = [Polynomial(tuple(rng.uniform(-1, 1, d + 1))) for _ in range(20)]
        programs = [compile_poly(poly, "backward") for poly in polys]
        zs = expect_z_plan(plan_programs(programs, xs))
        want = [eval_poly(poly, x) / p.rescale for poly, p in zip(polys, programs) for x in xs]
        worst = max(worst, np.abs(np.subtract(zs, want)).max())
    assert worst <= 2.5e-15


@pytest.mark.parametrize("d", [14, 16])
def test_a_wide_backward_point_peaks_below_one_full_state(d):
    # its widest state, the last step's output, is never made: z is read from
    # that step's input, after the spare buffer is dropped
    import tracemalloc

    poly = Polynomial(tuple(np.random.default_rng(108 + d).uniform(-1, 1, d + 1)))
    circuit = build_circuit(compile_poly(poly, "backward"), 0.4)
    expect_z_plan(circuit)  # first-call allocations out of the count
    tracemalloc.start()
    try:
        expect_z_plan(circuit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** (d + 1)


@pytest.mark.parametrize("measured", ["heads", "rows", "outputs"])
def test_a_z_read_from_a_pass_s_input_is_the_z_of_its_output(measured):
    # the measured bit on each index of the output [P, rows, N]: among the
    # head bits, the rows (within a block of rows and across blocks) or the
    # outputs; against _zs of the state the pass writes
    from polyshot import dense

    rng = np.random.default_rng(109)
    n, heads, k, outs = 16, 2, 4, 8  # P = 2^2, 2^11 rows of K = 4, N = 2^3
    state = rng.normal(size=2**11 * k) + 1j * rng.normal(size=2**11 * k)
    factors = rng.normal(size=(2**heads, k, outs)) + 1j * rng.normal(size=(2**heads, k, outs))
    out = np.empty(2**heads * 2**11 * outs, dtype=complex)
    dense._apply_u(state, factors, out)
    norm = np.vdot(out, out).real
    for at in {"heads": [0, 1], "rows": [2, 5, 12], "outputs": [13, 15]}[measured]:
        want = dense._zs(out.reshape([1] + [2] * n), at)[0]
        assert abs(dense._read_z(state, factors, at, n) - want) < 1e-14 * norm


def test_a_wide_batch_s_matrices_are_counted_before_any_is_built(monkeypatch):
    # a free memory above one point's state and spare buffer but below the
    # batch's run matrices and encoding factors raises before a matrix exists
    from polyshot import dense

    d, xs = 12, [float(x) for x in np.linspace(-0.9, 0.9, 100)]
    programs = _trials(np.random.default_rng(110), d, "backward", 20)
    batch = plan_programs(programs, xs)
    one_point = dense._PEAK_BYTES_PER_AMPLITUDE * 2 ** (d + 1)
    built = []
    run_matrix = dense._run_matrix

    def spy(run, qubits):
        built.append(qubits)
        return run_matrix(run, qubits)

    monkeypatch.setattr(dense, "_run_matrix", spy)
    monkeypatch.setattr(dense, "_free_memory_bytes", lambda: 2 * one_point)
    with pytest.raises(CapacityError, match=r"2000 point\(s\) of 13 qubits.* about (\d+) bytes"):
        expect_z_plan(batch)
    assert built == []
    count, encoding = dense._encoding(batch.gates)
    runs = dense._runs(batch.gates[count:])
    # the matrices of the 20 x 100 points, 8x8 per run, and a factor pair per point and qubit
    need = sum(16 * 4 ** len(q) * 2000 for q, _ in runs) + d * 2 * 2000 * 8 + one_point
    monkeypatch.setattr(dense, "_free_memory_bytes", lambda: need - 1)
    with pytest.raises(CapacityError, match=f"about {need} bytes"):
        expect_z_plan(batch)
    assert built == []
    monkeypatch.setattr(dense, "_free_memory_bytes", lambda: need)
    assert len(expect_z_plan(batch)) == 2000
    assert len(built) == len(runs)


def test_a_degree_20_backward_point_is_exact():
    poly = Polynomial(tuple(np.random.default_rng(97).uniform(-1, 1, 21)))
    program = compile_poly(poly, "backward")
    (z,) = expect_z_plan(build_circuit(program, -0.35))
    assert abs(program.rescale * z - eval_poly(poly, -0.35)) < 1e-9


def test_norm_preserved():
    rng = np.random.default_rng(4)
    poly = Polynomial(tuple(rng.uniform(-1, 1, 7)))
    circuit = build_circuit(compile_poly(poly, "forward"), 0.3)
    state = run_statevector(circuit)
    assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-12)


def test_end_to_end_exactness_small_degrees():
    rng = np.random.default_rng(8)
    for order in ("backward", "forward"):
        for d in range(0, 6):
            for _ in range(5):
                coeffs = rng.uniform(-1, 1, d + 1)
                poly = Polynomial(tuple(coeffs))
                program = compile_poly(poly, order)
                for x in np.linspace(-1, 1, 7):
                    circuit = build_circuit(program, float(x))
                    z = expect_z(run_statevector(circuit), circuit.measured_qubit)
                    assert program.rescale * z == pytest.approx(
                        eval_poly(poly, float(x)), abs=1e-10
                    )


def test_capacity_error_points_to_stream():
    big = Circuit(30, (), 0)
    with pytest.raises(CapacityError, match="stream"):
        run_statevector(big)


def test_sampler_deterministic_outcome_all_zeros():
    n1 = draw_ones([expect_z(run_statevector(Circuit(1, (), 0)), 0)], 500, [1])
    assert n1.tolist() == [0]


def test_sampler_balanced_within_binomial_band():
    circuit = Circuit(1, (Gate.ry(0, HALF_PI),), 0)  # <Z> = 0
    (n1,) = draw_ones([expect_z(run_statevector(circuit), 0)], 4096, [derive_seed(99, 0)]).tolist()
    assert abs(4096 - n1 - 2048) < 4 * 32  # 4 sigma, sigma = sqrt(4096/4)


def test_sampler_golden_pinned_seed():
    import json
    from pathlib import Path

    golden = json.loads((Path(__file__).parent / "goldens" / "shot_outcome.json").read_text())
    circuit = Circuit(1, (Gate.ry(0, HALF_PI),), 0)
    (n1,) = draw_ones([expect_z(run_statevector(circuit), 0)], golden["N"], [golden["seed"]]).tolist()
    assert (golden["N"] - n1, n1) == (golden["n0"], golden["n1"])


def test_sampler_unbiased_over_seeds():
    x = 0.37
    circuit = Circuit(1, (encode(0, x),), 0)
    n = 512
    z = expect_z(run_statevector(circuit), 0)
    n1 = draw_ones([z] * 200, n, derive_seeds(7, range(200)))
    estimates = (n - 2 * n1) / n
    se = math.sqrt((1 - x * x) / n / 200)
    assert abs(np.mean(estimates) - x) < 5 * se


@pytest.mark.parametrize("shots", [1, 4096])
def test_batched_draws_are_a_generator_per_seed(shots):
    rng = np.random.default_rng(85)
    seeds = [0, 2**64 - 1] + [derive_seed(85, i) for i in range(1000)]
    for z in (1.0, -1.0, 0.0, None):  # p = 0, 1, 0.5 and random
        zs = list(rng.uniform(-1, 1, len(seeds))) if z is None else [z] * len(seeds)
        want = [int(generator(s).binomial(shots, prob_one(z))) for s, z in zip(seeds, zs)]
        n1s = draw_ones(zs, shots, seeds)
        assert n1s.dtype == np.int64 and n1s.tolist() == want
        # no state leaks from one draw into the next
        order = rng.permutation(len(seeds))
        shuffled = draw_ones([zs[i] for i in order], shots, [seeds[i] for i in order])
        assert shuffled.tolist() == [want[i] for i in order]
    with pytest.raises(ValueError):
        draw_ones([0.0], 0, [1])
    with pytest.raises(ValueError):  # a z without its seed
        draw_ones([0.0, 0.5], 8, [1])


def test_expect_z_names_a_qubit_outside_its_state():
    state = run_statevector(Circuit(2, (Gate.ry(1, 0.3),), 1))
    assert expect_z(state, 1) == pytest.approx(math.cos(0.3), abs=1e-15)
    for qubit in (2, -1):
        with pytest.raises(ValueError, match=f"qubit {qubit} outside a state of 2 qubits"):
            expect_z(state, qubit)


@pytest.mark.parametrize("size", [0, 3, 6])
def test_expect_z_names_a_state_size_that_is_not_a_power_of_two(size):
    with pytest.raises(ValueError, match=f"a state of {size} amplitudes is not one of 2\\^n"):
        expect_z(np.ones(size, dtype=complex), 0)


def test_prob_one_matches_expectation():
    circuit = Circuit(1, (encode(0, 0.5),), 0)
    assert prob_one(expect_z(run_statevector(circuit), 0)) == pytest.approx(0.25, abs=1e-12)


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel(p1=-0.1)
    with pytest.raises(ValueError):
        NoiseModel(p2=1.5)


def test_full_depolarizing_scrambles_to_half():
    # one Ry on the measured qubit, so the channel acts once: p = 3/4 sends the
    # qubit to I/2, and p = 1 maps its Bloch vector r to -r/3
    circuit = build_circuit(compile_poly(Polynomial((0.0, 0.9)), "backward"), 0.9)
    assert len(circuit.gates) == 1
    z_ideal = run_window(circuit)
    half = run_window(circuit, noise=NoiseModel(p1=0.75, p2=0.75))
    assert abs(prob_one(half) - 0.5) < 1e-12
    full = NoiseModel(p1=1.0, p2=1.0)
    z_full = run_window(circuit, noise=full)
    assert abs(z_full + z_ideal / 3.0) < 1e-12
    shots = 600
    p1 = prob_one(z_full)
    (n1,) = draw_ones([z_full], shots, [11]).tolist()
    assert abs(n1 - shots * p1) < 5 * math.sqrt(shots * p1 * (1 - p1))
