"""Map normalized coefficients to convex weights, rotation angles and one
circuit of any number of programs x points (plan_programs): a degree's trials
x points in one batch, or one program at one point (build_circuit).
compile_polys normalizes and weights a degree's trials in one numpy pass over
their [trials, d + 1] coefficients; compile_poly is that pass of one row.
plan_programs makes that circuit in one walk of the first program's schedule,
in gate order: it emits each Gate where the walk reaches it, reading every
trial's sign and half angle there from arrays made in one numpy pass, with no
intermediate step list.

Aggregation folds monomial terms into a running weighted sum, one two-qubit
sum block per term.  Weights are chosen so the recursion telescopes exactly
to the normalized polynomial:

  backward (highest degree first):  w_k = |a~_k| / sum_{j>=k} |a~_j|
  forward  (lowest degree first):   v_k = |a~_k| / sum_{j<=k} |a~_j|

Gate convention (frozen; see the golden convention test):

* encode: q_0 stays |0>, q_k gets Ry(arccos x) for k = 1..d
* power chain, k = 2..d: CX(q_{k-1} -> q_k) with Rz(pi/2) on the target
  first in forward order, and a bare CX in backward order
* sum block on (term t, sum s):
      Rz(pi/2) s; CX(t -> s); Ry(a/2) t; CX(s -> t); Ry(-a/2) t; Rz(pi/2) t
  with a = arccos(1 - 2w); the term qubit carries the result
* a negative coefficient contributes an X on its term qubit immediately
  before the block

The Rz placement is load-bearing: on entangled chain states the sum block's
Z-expectation identity holds only when the residual cross terms are rotated
onto operators with an odd number of Y factors, which the surrounding state
structure then cancels.  An exhaustive search over Rz/CX/angle-sign variants
confirmed this dressing is the only family exact for both orders; the
power-chain phase must be present in forward order and absent in backward
order.

Zero coefficients get weight 0: backward elides their blocks entirely, while
forward keeps a weightless relay block so the running sum still walks
qubit-by-qubit to q_d (eliding there breaks exactness because the relay CXs
also refresh the dephasing structure the next block relies on).
"""
from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .circuit import Circuit, Gate, depths
from .poly import Polynomial, PolyError, coeffs_of, load_json_object, normalize_rows

HALF_PI = math.pi / 2.0
# how far outside [0, 1] a weight may round before angle_of_weight rejects it
_WEIGHT_TOL = 1e-12

ORDERS = ("backward", "forward")


class CompileError(ValueError):
    pass


class EncodingDomainError(CompileError):
    pass


@dataclass(frozen=True)
class WeightSchedule:
    order: str
    weights: tuple[float, ...]
    angles: tuple[float, ...]
    signs: tuple[int, ...]
    skip_flags: tuple[bool, ...]
    seed_index: int

    @property
    def degree(self) -> int:
        return len(self.weights) - 1


@dataclass(frozen=True)
class CompiledProgram:
    schedule: WeightSchedule
    rescale: float
    source: Polynomial

    @property
    def degree(self) -> int:
        return self.schedule.degree

    @property
    def n_qubits(self) -> int:
        return self.degree + 1


@dataclass(frozen=True)
class ResourceCounts:
    qubits: int
    two_qubit_gates: int
    depth: int
    two_qubit_depth: int


def angle_of_weight(w):
    """a = arccos(1 - 2w), in [0, pi], of a weight (a float) or of each of an
    array of them (an array).  Clamps w within _WEIGHT_TOL of [0, 1]."""
    w = np.asarray(w, dtype=float)
    out = (w < -_WEIGHT_TOL) | (w > 1.0 + _WEIGHT_TOL)
    if out.any():
        raise CompileError(f"weight {w[out].flat[0]} outside [0, 1]")
    angles = np.arccos(1.0 - 2.0 * np.minimum(np.maximum(w, 0.0), 1.0))
    return float(angles) if angles.ndim == 0 else angles


def _schedules(tilde: np.ndarray, order: str) -> list[WeightSchedule]:
    """The convex weights, angles, signs and skip flags for one aggregation
    order of each row of a [rows, d + 1] array of normalized coefficients, in
    one numpy pass: the head or tail masses by a cumsum along each row, so a
    row's schedule is the same in any batch.  A term that is not folded has
    weight 0 and so angle arccos(1) = 0."""
    if order not in ORDERS:
        raise CompileError(f"order must be one of {ORDERS}, got {order!r}")
    mags = np.abs(tilde)
    skips = mags == 0.0
    if skips.all(axis=1).any():
        raise CompileError("normalized polynomial has no mass")
    folded = ~skips
    if order == "backward":
        seeds = tilde.shape[1] - 1 - np.argmax(folded[:, ::-1], axis=1)  # last live terms
        mass = np.cumsum(mags[:, ::-1], axis=1)[:, ::-1]  # tails: sum_{j>=k} mags[j]
        folded &= np.arange(tilde.shape[1]) < seeds[:, None]
        seeds = seeds.tolist()
    else:
        seeds = [0] * len(tilde)
        mass = np.cumsum(mags, axis=1)  # heads: sum_{j<=k} mags[j]
        folded[:, 0] = False
    weights = np.divide(mags, mass, out=np.zeros_like(mags), where=folded)
    angles = angle_of_weight(weights).tolist()
    signs = np.where(tilde < 0.0, -1, 1).tolist()
    return [
        WeightSchedule(order, tuple(w), tuple(a), tuple(s), tuple(k), seed)
        for w, a, s, k, seed in zip(weights.tolist(), angles, signs, skips.tolist(), seeds)
    ]


def compile_polys(polys: list[Polynomial], order: str = "backward") -> list[CompiledProgram]:
    """Normalize and compile polynomials of one degree, in one numpy pass over
    their [len(polys), d + 1] coefficients; a program is the same, bit for
    bit, in any batch.  Raises the error of the first polynomial that does
    not normalize."""
    if not polys:
        return []
    if len({p.degree for p in polys}) > 1:
        raise CompileError("compile_polys compiles polynomials of one degree")
    tilde, scales = normalize_rows([p.coeffs for p in polys])
    schedules = _schedules(tilde, order)
    return [CompiledProgram(*args) for args in zip(schedules, scales.tolist(), polys)]


def compile_poly(poly: Polynomial, order: str = "backward") -> CompiledProgram:
    """Normalize and compile in one step: compile_polys of one polynomial."""
    return compile_polys([poly], order)[0]


def skeleton_key(program: CompiledProgram) -> tuple:
    """Programs with equal keys have one skeleton, so they can share a circuit."""
    s = program.schedule
    return s.order, s.skip_flags, s.seed_index, tuple(a == 0.0 for a in s.angles)


@functools.cache
def _fixed(kind: str, *qubits: int) -> Gate:
    """A gate with no value of its own, made once and shared by every circuit
    that emits it: a cx, a plain x, or the rz(pi/2) of the chain and the sum
    blocks."""
    return Gate(kind, qubits, HALF_PI if kind == "rz" else None)


def plan_programs(programs: list[CompiledProgram], xs) -> Circuit:
    """The circuit of programs of one skeleton_key at each x, point
    t * len(xs) + p being programs[t] at xs[p]; raises ValueError for no point
    or several skeletons.  One walk of the first schedule emits each gate as it
    reaches it, reading every trial's sign and half angle there from
    [trials, d + 1] arrays, so a gate is made once, not per point.  A value
    that every point shares is a float (trial 0's, bit for bit); a sign's x
    is dropped where no point is negative, plain where all are, and else
    Gate("x", (q,), mask).  For one program it is circuit.plan of
    [build_circuit(program, x) for x in xs], gate for gate."""
    xs = np.asarray(xs, dtype=float)
    bad = xs[~(np.abs(xs) <= 1.0)]  # NaN too
    if len(bad):
        raise EncodingDomainError(f"x = {bad[0]} outside the encoding domain [-1, 1]")
    if not programs or not len(xs) or len({skeleton_key(p) for p in programs}) > 1:
        raise ValueError("a circuit runs one or more points of programs of one skeleton")
    scheds, m, thetas = [p.schedule for p in programs], len(xs), np.arccos(xs)
    head, d = scheds[0], scheds[0].degree
    encoding = float(thetas[0]) if (thetas == thetas[0]).all() else np.tile(thetas, len(scheds))
    angles = np.array([s.angles for s in scheds])  # [trials, d + 1]
    negative = np.array([s.signs for s in scheds]) < 0

    def per_term(values: np.ndarray) -> list:  # each term's value every point shares, or its row
        same, rows = (values == values[0]).all(axis=0).tolist(), np.repeat(values.T, m, axis=1)
        return [v if alike else row for v, alike, row in zip(values[0].tolist(), same, rows)]

    ups, downs = per_term(angles * 0.5), per_term(angles * -0.5)
    signs = [  # the x of each term where it is negative
        None if mask is False else _fixed("x", q) if mask is True else Gate("x", (q,), mask)
        for q, mask in enumerate(per_term(negative))
    ]
    gates: list[Gate] = []

    def sign(q: int) -> None:
        if signs[q] is not None:
            gates.append(signs[q])

    def fold(term: int, sum_q: int) -> None:  # term's sign, then its sum block into sum_q
        sign(term)
        live = head.angles[term] != 0.0  # a zero angle elides the block's Ry pair
        gates.extend((_fixed("rz", sum_q), _fixed("cx", term, sum_q)))
        if live:
            gates.append(Gate("ry", (term,), ups[term]))
        gates.append(_fixed("cx", sum_q, term))
        if live:
            gates.append(Gate("ry", (term,), downs[term]))
        gates.append(_fixed("rz", term))

    if head.order == "backward":
        gates.extend(Gate("ry", (k,), encoding) for k in range(1, d + 1))
        gates.extend(_fixed("cx", k - 1, k) for k in range(2, d + 1))
        run_q = head.seed_index
        sign(run_q)
        for k in range(run_q - 1, -1, -1):
            if not head.skip_flags[k]:
                fold(k, run_q)
                run_q = k
        return Circuit(d + 1, gates, run_q, len(programs) * m)

    # forward: encode, multiply and fold interleaved, so that at most three
    # qubits are ever live; the sum walks qubit by qubit to q_d
    sign(0)
    if d:
        gates.append(Gate("ry", (1,), encoding))
    for k in range(1, d + 1):
        if k < d:  # extend the power chain before folding q_k
            gates.extend(
                (Gate("ry", (k + 1,), encoding), _fixed("rz", k + 1), _fixed("cx", k, k + 1))
            )
        fold(k, k - 1)
    return Circuit(d + 1, gates, d, len(programs) * m)


def build_circuit(program: CompiledProgram, x: float) -> Circuit:
    """Instantiate the compiled schedule at one evaluation point: a circuit of
    one point, whose every angle is a float or None."""
    return plan_programs([program], [x])


def resources(circuit: Circuit) -> ResourceCounts:
    """Exact gate counts, dependency depth and two-qubit depth (the longest
    chain of CX layers) from the IR, at the circuit's first point (depths)."""
    return ResourceCounts(circuit.n_qubits, circuit.two_qubit_count, *depths(circuit))


def reconstruct_coeffs(program: CompiledProgram) -> tuple[float, ...]:
    """Invert the weight telescoping back to source coefficients (diagnostic)."""
    sched = program.schedule
    d = sched.degree
    mags = [0.0] * (d + 1)
    if sched.order == "backward":
        seq = [k for k in range(sched.seed_index, -1, -1) if not sched.skip_flags[k]]
    else:
        seq = [0] + [k for k in range(1, d + 1) if not sched.skip_flags[k]]
    survive = 1.0
    for k in seq[:0:-1]:  # processed after the seed, latest first
        mags[k] = sched.weights[k] * survive
        survive *= 1.0 - sched.weights[k]
    seed = seq[0]
    if not sched.skip_flags[seed]:
        mags[seed] = survive
    return tuple(sched.signs[k] * mags[k] * program.rescale for k in range(d + 1))


# --- file format -----------------------------------------------------------


def write_program(program: CompiledProgram, path: str | Path) -> None:
    """Write the order and the source coefficients as JSON: everything else
    in a program is compiled from these two."""
    payload = {"order": program.schedule.order, "coeffs": program.source.coeffs}
    Path(path).write_text(json.dumps(payload) + "\n")


def read_program(path: str | Path) -> CompiledProgram:
    """Load a program file by compiling its order and coefficients, raising
    CompileError naming the file for content write_program could not have
    written, or coefficients compile_poly rejects."""
    try:
        data = load_json_object(path)
        if sorted(data) != ["coeffs", "order"]:
            raise CompileError(f"a program holds the keys 'order' and 'coeffs', got {sorted(data)}")
        return compile_poly(coeffs_of(data), data["order"])
    except (PolyError, CompileError) as exc:
        raise CompileError(f"{path}: {exc}") from exc
