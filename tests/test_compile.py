import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from polyshot.circuit import Circuit, Gate, depths, plan, to_qasm
from polyshot.compile import (
    CompileError,
    CompiledProgram,
    EncodingDomainError,
    angle_of_weight,
    build_circuit,
    compile_poly,
    compile_polys,
    plan_programs,
    read_program,
    reconstruct_coeffs,
    resources,
    skeleton_key,
    write_program,
)
from polyshot.poly import NormalizationError, Polynomial, eval_poly, normalize_rows


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
    sched = compile_poly(Polynomial((0.1, 0.2, 0.3)), "backward").schedule
    assert sched.weights[1] == pytest.approx(0.4, abs=1e-14)
    assert sched.weights[0] == pytest.approx(1 / 6, abs=1e-14)
    assert sched.angles[0] == pytest.approx(math.acos(2 / 3), abs=1e-12)
    assert sched.seed_index == 2
    assert sched.skip_flags == (False, False, False)


def test_forward_weights_match_hand_values():
    sched = compile_poly(Polynomial((0.1, 0.2, 0.3)), "forward").schedule
    assert sched.weights[1] == pytest.approx(2 / 3, abs=1e-14)
    assert sched.weights[2] == pytest.approx(0.5, abs=1e-14)
    assert sched.seed_index == 0


def test_monomial_schedule_skips_constant_term():
    sched = compile_poly(Polynomial((0.0, 1.0)), "backward").schedule
    assert sched.skip_flags == (True, False)
    assert sched.seed_index == 1
    assert all(a == 0.0 for a in sched.angles)


def test_angle_of_an_array_is_each_weight_s_angle_bit_for_bit():
    weights = np.random.default_rng(2).random((4, 7)) ** 9
    weights[0, :2] = (-1e-13, 1.0 + 1e-13)
    angles = angle_of_weight(weights)
    assert angles.shape == weights.shape
    assert angles.tolist() == [[angle_of_weight(w) for w in row] for row in weights.tolist()]
    with pytest.raises(CompileError, match=r"weight 1\.5 outside \[0, 1\]"):
        angle_of_weight(np.array([0.2, 1.5, -0.5]))


def _draws(rng, d: int, trials: int) -> list[Polynomial]:
    """Random coefficients of both signs, about one in four of them zero."""
    coeffs = rng.uniform(-1.0, 1.0, (trials, d + 1)) * (rng.random((trials, d + 1)) > 0.25)
    coeffs[~coeffs.any(axis=1), 0] = 0.3  # every row normalizes
    return [Polynomial(tuple(row)) for row in coeffs.tolist()]


@pytest.mark.parametrize("order", ["backward", "forward"])
def test_compile_polys_is_compile_poly_of_each_bit_for_bit(order):
    rng = np.random.default_rng(30)
    for d in range(36):
        polys = _draws(rng, d, 9)
        batch = compile_polys(polys, order)
        single = [compile_poly(p, order) for p in polys]
        assert batch == single
        assert repr(batch) == repr(single)  # 0.0 and -0.0, float and np.float64 differ here


def test_compile_polys_of_zero_and_negative_coefficients():
    coeffs = ((0.0, -0.5, 0.0, 0.25), (-0.1, 0.0, 0.0, -0.3), (0.0, 0.0, 0.0, -1.0))
    polys = [Polynomial(c) for c in coeffs]
    for order in ("backward", "forward"):
        batch = compile_polys(polys, order)
        assert repr(batch) == repr([compile_poly(p, order) for p in polys])
        assert [p.schedule.signs for p in batch] == [(1, -1, 1, 1), (-1, 1, 1, -1), (1, 1, 1, -1)]
        assert [p.schedule.skip_flags[:3] for p in batch] == [
            (True, False, True), (False, True, True), (True, True, True)
        ]
        assert [p.schedule.seed_index for p in batch] == [3 if order == "backward" else 0] * 3


def test_compile_polys_of_no_polynomial_is_empty():
    assert compile_polys([], "backward") == []
    assert compile_polys([], "forward") == []


@pytest.mark.parametrize(
    "bad, message",
    [
        ((0.0, 0.0, -0.0), "all-zero polynomial cannot be normalized"),
        ((1e308, 0.5, 1e308), "the l1 norm of the coefficients is not finite"),
    ],
    ids=["zero", "overflow"],
)
def test_compile_polys_raises_the_error_of_the_first_row_that_does_not_normalize(bad, message):
    good = Polynomial((0.1, -0.2, 0.3))
    with pytest.raises(NormalizationError) as single:
        compile_poly(Polynomial(bad))
    assert str(single.value) == message
    for batch in ([Polynomial(bad)], [good, Polynomial(bad), good]):
        with pytest.raises(NormalizationError) as batched:
            compile_polys(batch)
        assert str(batched.value) == message
    other = (0.0, 0.0, 0.0) if "not finite" in message else (1e308, 1e308, 0.0)
    with pytest.raises(NormalizationError, match=message):
        compile_polys([good, Polynomial(bad), Polynomial(other)])


def test_compile_polys_takes_polynomials_of_one_degree():
    with pytest.raises(CompileError, match="one degree"):
        compile_polys([Polynomial((0.1, 0.2)), Polynomial((0.1, 0.2, 0.3))])


def test_angles_consistent_with_weights():
    rng = np.random.default_rng(3)
    for order in ("backward", "forward"):
        for _ in range(20):
            d = rng.integers(1, 12)
            poly = Polynomial(tuple(rng.uniform(-1, 1, d + 1)))
            sched = compile_poly(poly, order).schedule
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
            tilde = tuple(normalize_rows([coeffs])[0][0].tolist())
            for x in np.linspace(-1, 1, 7):
                want = eval_poly(Polynomial(tilde), x)
                got = telescope(tilde, x, order)
                assert got == pytest.approx(want, abs=1e-12)


def test_weight_scale_invariance_bitwise():
    coeffs = (0.11, -0.37, 0.2, 0.45)
    base = compile_poly(Polynomial(coeffs), "backward").schedule
    for c in (2.0, 0.25, 4096.0):
        scaled = compile_poly(Polynomial(tuple(c * a for a in coeffs)), "backward").schedule
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
    assert back == program
    write_program(back, path)
    assert path.read_bytes() == first


def test_program_file_matches_frozen_fixture(tmp_path):
    from pathlib import Path

    program = compile_poly(Polynomial((0.05, -0.15, 0.3, -0.5)), "forward")
    out = tmp_path / "program.json"
    write_program(program, out)
    fixture = Path(__file__).parent / "goldens" / "program_deg3_forward.json"
    assert out.read_bytes() == fixture.read_bytes()
    assert read_program(fixture) == program


# a program file as an older writer wrote it: the compiled schedule, not the
# coefficients it came from
OLD_FORMAT = {"order": "forward", "C": 1.0, "degree": 3,
              "weights": [0.0, 0.7499999999999999, 0.6, 0.5], "signs": [1, -1, 1, -1],
              "skips": [False, False, False, False]}


@pytest.mark.parametrize(
    "edits",  # (edits, a fragment the error names)
    [
        ({"order": None}, "order"),
        ({"coeffs": None}, "coeffs"),
        ({"order": None, "coeffs": None}, "order"),
        ({"angles": [0.0, 1.0]}, "angles"),
        ({"C": 1.0}, "'C'"),
        ({**OLD_FORMAT, "coeffs": None}, "'coeffs'"),
        ({"order": "sideways"}, "sideways"),
        ({"order": "Forward"}, "Forward"),
        ({"order": ["forward"]}, "order"),
        ({"order": 1}, "order"),
        ({"coeffs": [0.0, 0.0, 0.0]}, "all-zero"),
        ({"coeffs": [-0.0]}, "all-zero"),
        ({"coeffs": [1e308, 1e308]}, "not finite"),
        ({"coeffs": [1.7e308, 0.0, -1.7e308]}, "not finite"),
        ({"coeffs": 0.5}, "coeffs"),
        ({"coeffs": []}, "coeffs"),
        ({"coeffs": {"0": 0.5}}, "coeffs"),
        ({"coeffs": [0.5, None]}, "finite number"),
        ({"coeffs": [0.5, True]}, "finite number"),
        ({"coeffs": ["0.5"]}, "finite number"),
        ({"coeffs": [[0.5]]}, "finite number"),
        ({"coeffs": [float("nan")]}, "finite number"),
        ({"coeffs": [10**400]}, "finite number"),
    ],
)
def test_read_program_rejects_malformed_schedule(tmp_path, edits):
    """Each file is one no schedule compiles from: a key missing (an edit to
    None deletes it) or unknown, the schedule of an older writer, an order
    other than the two, or coefficients compile_poly rejects."""
    edits, named = edits
    path = tmp_path / "program.json"
    write_program(compile_poly(Polynomial((0.1, 0.2, 0.3, -0.4)), "forward"), path)
    data = {**json.loads(path.read_text()), **edits}
    data = {k: v for k, v in data.items() if v is not None}
    path.write_text(json.dumps(data))
    with pytest.raises(CompileError, match=re.escape(named)) as exc:
        read_program(path)
    assert str(exc.value).startswith(f"{path}: ")


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


def _plan_of_points(program, xs):
    return plan([build_circuit(program, x) for x in xs])


def test_the_points_of_a_program_differ_only_in_the_encoding():
    rng = np.random.default_rng(21)
    xs = [float(x) for x in np.linspace(-1, 1, 9)]
    for order in ("backward", "forward"):
        for d in range(9):
            coeffs = rng.uniform(-1, 1, d + 1)
            if d >= 2:
                coeffs[1] = 0.0  # a skipped term
            program = compile_poly(Polynomial(tuple(coeffs)), order)
            steps = _plan_of_points(program, xs).gates
            per_point = [step for step in steps if isinstance(step[2], np.ndarray)]
            # one encoding Ry per qubit q_1..q_d
            assert sorted(qubits for _, qubits, _ in per_point) == [(k,) for k in range(1, d + 1)]
            for kind, _, angles in per_point:
                assert kind == "ry"
                assert angles.tolist() == [float(np.arccos(x)) for x in xs]
    with pytest.raises(EncodingDomainError):
        [build_circuit(program, x) for x in [0.1, 1.5]]


# --- the plan of a degree's trials, straight from their schedules ----------


def assert_same_steps(got, want):
    """Step for step: kind, qubits, and the same float or array, bit for bit."""
    assert (got.n_qubits, got.measured_qubit, got.batch) == (
        want.n_qubits, want.measured_qubit, want.batch
    )
    assert len(got.gates) == len(want.gates)
    for (kind, qubits, arg), (want_kind, want_qubits, want_arg) in zip(got.gates, want.gates):
        assert (kind, qubits, type(arg)) == (want_kind, want_qubits, type(want_arg))
        if isinstance(arg, np.ndarray):
            assert arg.dtype == want_arg.dtype and arg.tobytes() == want_arg.tobytes()
        else:
            assert arg == want_arg


@pytest.mark.parametrize("order", ["backward", "forward"])
def test_plan_of_one_program_is_the_plan_of_its_circuits(order):
    rng = np.random.default_rng(33)
    for d in range(9):
        for trial in range(4):
            coeffs = rng.uniform(-1, 1, d + 1)
            if trial == 1:
                coeffs = -np.abs(coeffs)  # every term negative
            if trial >= 2 and d >= 1:
                coeffs[rng.integers(d + 1)] = 0.0  # a skipped term
            if trial == 3 and d >= 2:
                coeffs[0] = 0.0
            if not coeffs.any():
                coeffs[d] = 0.5
            program = compile_poly(Polynomial(tuple(coeffs)), order)
            for xs in ([0.3], [float(x) for x in np.linspace(-1, 1, 9)], [-0.5, -0.5]):
                assert_same_steps(plan_programs([program], xs), _plan_of_points(program, xs))


@pytest.mark.parametrize("order", ["backward", "forward"])
def test_qasm_of_a_point_of_a_batch_is_that_of_its_circuit(order):
    # the point's angles are one-element arrays, written as the floats they hold
    program = compile_poly(Polynomial((0.3, -0.2, 0.5, -0.1)), order)
    xs = [-0.7, 0.1, 0.6]
    batch = plan_programs([program], xs)
    for i, x in enumerate(xs):
        assert to_qasm(batch.points(i, i + 1)) == to_qasm(build_circuit(program, x))


def test_plan_of_trials_shares_what_they_share_and_masks_signs():
    xs = [-0.6, 0.1, 0.8]
    polys = [(0.2, -0.3, 0.4), (-0.2, -0.1, 0.6), (0.5, -0.3, 0.1), (0.2, -0.3, 0.4)]
    programs = [compile_poly(Polynomial(p), "backward") for p in polys]
    batch = plan_programs(programs, xs)
    assert batch.batch == 12 and batch.n_qubits == 3
    steps = batch.gates
    # point t * 3 + p is program t at xs[p]
    encoding = [arg for kind, _, arg in steps if kind == "ry" and isinstance(arg, np.ndarray)][0]
    assert encoding.tolist() == [float(np.arccos(x)) for x in xs] * 4
    signs = {qubits[0]: arg for kind, qubits, arg in steps if kind == "x"}
    assert 2 not in signs  # no trial has a negative x^2 term
    assert signs[1] is None  # every trial has a negative x term: a plain x
    assert signs[0].tolist() == [False] * 3 + [True] * 3 + [False] * 6
    # each Ry holds the angles of the trials' own plans, one float where they agree
    alone = [[arg for kind, _, arg in plan_programs([p], xs).gates if kind == "ry"] for p in programs]
    rys = [arg for kind, _, arg in steps if kind == "ry"]
    assert len(rys) == len(alone[0]) == 2 + 4
    for i, arg in enumerate(rys):
        want = np.concatenate([np.broadcast_to(angles[i], 3) for angles in alone])
        assert np.broadcast_to(arg, 12).tobytes() == want.tobytes()
        assert isinstance(arg, float) == (len(set(want.tolist())) == 1)
    assert sum(isinstance(arg, float) for arg in rys) == 0
    # two equal programs share every angle but the encoding
    same = plan_programs([programs[0], programs[3]], xs)
    assert [type(arg) for kind, _, arg in same.gates if kind == "ry"] == [np.ndarray] * 2 + [float] * 4


def test_plan_of_trials_rejects_programs_of_several_skeletons():
    full = compile_poly(Polynomial((0.2, 0.3, 0.4)), "forward")
    skipped = compile_poly(Polynomial((0.2, 0.0, 0.4)), "forward")
    assert skeleton_key(full) != skeleton_key(skipped)
    with pytest.raises(ValueError, match="skeleton"):
        plan_programs([full, skipped], [0.1])
    backward = compile_poly(Polynomial((0.2, 0.3, 0.4)), "backward")
    with pytest.raises(ValueError, match="skeleton"):
        plan_programs([full, backward], [0.1])
    # a live term of angle 0, here a schedule edited by hand, elides its Ry pair
    sched = full.schedule
    weightless = CompiledProgram(
        replace(sched, weights=(0.0, 0.0, 1.0), angles=(0.0, 0.0, math.pi)), 1.0, full.source
    )
    assert skeleton_key(weightless) != skeleton_key(full)
    with pytest.raises(ValueError, match="skeleton"):
        plan_programs([full, weightless], [0.1])
    xs = [-0.4, 0.9]
    assert_same_steps(plan_programs([weightless], xs), _plan_of_points(weightless, xs))
    assert sum(kind == "ry" for kind, _, _ in plan_programs([weightless], xs).gates) == 2 + 2
    with pytest.raises(ValueError):
        plan_programs([], [0.1])
    with pytest.raises(ValueError):
        plan_programs([full], [])
    for bad in (1.5, float("nan"), -float("inf")):
        with pytest.raises(EncodingDomainError):
            plan_programs([full], [0.1, bad])


@pytest.mark.parametrize(
    "order, coeffs, full",
    [
        ("forward", (1.0, 1e-17, 1.0), (1.0, 0.5, 1.0)),
        ("backward", (1e-17, 1.0, 1.0), (0.5, 1.0, 1.0)),
    ],
)
def test_a_live_term_whose_angle_rounds_to_zero_compiles_without_its_ry_pair(order, coeffs, full):
    from polyshot.dense import expect_z, run_statevector
    from polyshot.stream import run_window

    program = compile_poly(Polynomial(coeffs), order)
    q = 1 if order == "forward" else 0
    assert not program.schedule.skip_flags[q] and program.schedule.weights[q] > 0.0
    assert program.schedule.angles[q] == 0.0
    full = compile_poly(Polynomial(full), order)
    assert skeleton_key(program) != skeleton_key(full)
    with pytest.raises(ValueError, match="skeleton"):
        plan_programs([full, program], [0.1])
    def ry_on_q(circuit):
        return sum(g.kind == "ry" and g.qubits == (q,) for g in circuit.gates)

    for x in (-0.7, 0.0, 0.35, 1.0):
        circuit = build_circuit(program, x)
        assert ry_on_q(circuit) == ry_on_q(build_circuit(full, x)) - 2
        truth = eval_poly(program.source, x)
        dense_z = expect_z(run_statevector(circuit), circuit.measured_qubit)
        assert abs(program.rescale * dense_z - truth) < 1e-9
        assert abs(program.rescale * run_window(circuit) - truth) < 1e-9


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
            assert (res.depth, res.two_qubit_depth) == depths(circuit)


def test_a_batch_s_resources_are_its_first_point_s():
    # the sign x of a term negative in some trials is a mask: no gate at a
    # point it skips, and the batch's per-point values stay whole
    rng = np.random.default_rng(31)
    xs = [-0.5, 0.25, 0.8]
    for order in ("backward", "forward"):
        programs = [compile_poly(Polynomial(tuple(rng.uniform(-1, 1, 6))), order) for _ in range(8)]
        programs = [p for p in programs if skeleton_key(p) == skeleton_key(programs[0])]
        batch = plan_programs(programs, xs)
        assert any(g.kind == "x" and isinstance(g.angle, np.ndarray) for g in batch.gates)
        assert resources(batch) == resources(build_circuit(programs[0], xs[0]))


@pytest.mark.parametrize("mask", [True, np.True_, False, np.False_])
def test_an_x_of_one_bool_counts_as_the_plain_x_or_no_gate(mask):
    plain = (Gate.x(1),) if mask else ()
    for batch in (1, 3):
        gates = (Gate.ry(0, 0.3), Gate("x", (1,), mask), Gate.rz(1, 0.5), Gate.cx(0, 1))
        want = resources(Circuit(2, (Gate.ry(0, 0.3), *plain, Gate.rz(1, 0.5), Gate.cx(0, 1)), 1))
        assert resources(Circuit(2, gates, 1, batch)) == want
        assert want.depth == (3 if mask else 2)


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
