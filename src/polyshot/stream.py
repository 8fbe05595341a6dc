"""Windowed density-matrix simulator with qubit retirement, batched over points.

Sweeps the gate list in order, adjoining each qubit to the active window at
its first use and tracing it out after its last use, so memory is 4^w for
window size w; the forward-order compiler keeps w <= 3, which is what makes
degree-35 programs (36 qubits) cheap to evaluate exactly.  The simulator
sweeps a circuit of `batch` points (compile.plan_programs): the points of one
gate skeleton, such as the trials x points of one degree, whose trials differ
only in their sum-block Ry angles and in the x of a negative term, a mask of
points.  One lifetime pass over the circuit's gates (liveness) gives each
qubit's first and last gate and the peak window w, and the points run in
chunks of at most _CHUNK_ENTRIES window entries, points x 4^w, so a backward
program's window (w up to d + 1) does not grow with the trial count; each
chunk's transfer matrices come from its own slice of each per-point angle
and mask, so they scale with the chunk too.  Every kernel computes each
point's entries alone, in one fixed order of terms, so the chunking moves no
bit of any z.

The window is held in the real Pauli-transfer basis (Greenbaum, "Introduction
to Quantum Gate Set Tomography", 2015): a real tensor of shape [B] + [4]*w,
the batch axis and then one axis per live qubit, holding the coefficients r_P
of rho = 2^-w sum_P r_P P over the products P of I, X, Y and Z.  A qubit is
adjoined as |0><0| = (I + Z)/2, the coefficients (1, 0, 0, 1); tracing it out
keeps its I slice, a view; and <Z> of the last live qubit is its Z
coefficient.  Each step is one real transfer matrix on its qubits' axes: ry(t)
turns the (Z, X) plane by t, rz(t) the (X, Y) plane, x is diag(1, 1, -1, -1)
(a masked x is the identity on the points it skips) and cx a 16x16 signed
permutation.

A step contracts its qubits' axes where they sit in the window, with no
transposed copy, as the kernels of Häner & Steiger ("0.5 Petabyte Simulation
of a 45-Qubit Quantum Circuit", 2017) do: a one-qubit matrix m as
m @ rho from the left on the outermost axis, as rho @ m^T from the right on
the innermost (one gemm over every point for a shared m), and as a
broadcast over the outer axes on a middle one.  A cx on two adjacent axes
contracts its 16-entry pair the same three ways, by S CX S, the pair index
swapped, when its target axis comes first: CX is a signed permutation, so
that is an exact relabelling, and the window keeps its axis order.  Only a
cx on axes apart moves its pair to the front, a copy, and the window keeps
that order.  On a compiled program every z is the one the broadcast kernel
(each one-qubit matrix broadcast over the axes before its own, each cx pair
moved to the front) gives, bit for bit; a random circuit may move by an ulp,
since a gemm rounds a*b + c*d once where a matvec rounds twice.

Noise is the exact depolarizing channel after each gate on every qubit it
touches, rho -> (1 - p) rho + (p/3)(X rho X + Y rho Y + Z rho Z) (Nielsen &
Chuang, section 8.3).  It keeps r_I and scales r_X, r_Y and r_Z by
f = 1 - 4p/3, a scale folded into the rows of the gate's transfer matrix, so
a noisy gate costs what a noiseless one does.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from . import dense
from .circuit import Circuit, Gate
from .dense import NoiseModel

DEFAULT_WINDOW_CAP = 8
# the most window entries, points x 4^peak window, that one chunk holds
_CHUNK_ENTRIES = 2**16

# I, X, Y and Z; the transfer matrices of cx on (control, target), index
# 4 * P_control + P_target and entry (P, Q) = Tr(P CX Q CX) / 4, and of x
_PAULI = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
_PAULI_PAIRS = np.einsum("aij,bkl->abikjl", _PAULI, _PAULI).reshape(16, 4, 4)
_CNOT = np.eye(4)[[0, 1, 3, 2]]
_CX = np.einsum("pij,jk,qkl,li->pq", _PAULI_PAIRS, _CNOT, _PAULI_PAIRS, _CNOT).real / 4
_X = np.diag([1.0, 1.0, -1.0, -1.0])
# a pair's index with its two axes swapped: S CX S, the cx on a window whose
# target axis comes first, is an exact relabelling of the signed permutation
_SWAP = np.arange(16).reshape(4, 4).T.ravel()
# the noiseless cx pair, on 4 * P_control + P_target and on 4 * P_target + P_control
_CX_PAIR = np.stack([_CX, _CX[_SWAP][:, _SWAP]])
# the plane (i, j) each rotation turns: entry (j, i) is sin t and (i, j) is -sin t
_PLANES = {"ry": (3, 1), "rz": (1, 2)}


class WindowOverflowError(RuntimeError):
    pass


@dataclass(frozen=True)
class RetirementSchedule:
    """Per-qubit first/last gate indices (-1 = never used) and the peak window."""

    first_use: tuple[int, ...]
    last_use: tuple[int, ...]
    peak_window: int


def liveness(circuit: Circuit) -> RetirementSchedule:
    """Qubit lifetimes in emitted gate order: each qubit is adjoined at its
    first gate and traced out after its last; the measured qubit lives to the
    end, gate len(circuit.gates)."""
    first, last, end = [-1] * circuit.n_qubits, [-1] * circuit.n_qubits, len(circuit.gates)
    for i, (_, qubits, _) in enumerate(circuit.gates):
        for q in qubits:
            if first[q] < 0:
                first[q] = i
            last[q] = i
    if first[circuit.measured_qubit] < 0:
        first[circuit.measured_qubit] = end
    last[circuit.measured_qubit] = end
    delta = [0] * (end + 2)  # the window at step i is the sum of delta[: i + 1]
    for f, l in zip(first, last):
        delta[f] += 0 <= f < end  # adjoined at its first step
        delta[l + 1] -= 0 <= l < end  # traced out after its last
    peak = max([1, *accumulate(delta[:end])])  # the measured qubit is live at measurement time
    return RetirementSchedule(tuple(first), tuple(last), peak)


def _adjoin(rho: np.ndarray, active: list[int], qubit: int, gate_index: int, cap: int):
    """The window grown by one qubit in |0><0|, after the cap and memory checks."""
    w = len(active)
    if w >= cap:
        raise WindowOverflowError(
            f"window grows to {w + 1} qubits at gate {gate_index} (cap {cap}); "
            "forward aggregation order keeps the window small"
        )
    batch = rho.shape[0]
    need = dense._PEAK_BYTES_PER_AMPLITUDE * batch * 4 ** (w + 1)
    _check_memory(need, f"a {w + 1}-qubit window over {batch} points needs")
    grown = np.zeros((batch, 4**w, 4))
    grown[:, :, 0] = grown[:, :, 3] = rho.reshape(batch, 4**w)
    active.append(qubit)
    return grown.reshape((batch,) + (4,) * (w + 1))


def _check_memory(need: int, what: str) -> None:
    """Raise CapacityError where `what` needs more bytes than are free."""
    free = dense._free_memory_bytes()
    if need > free:
        raise dense.CapacityError(f"{what} about {need} bytes, but only {free} bytes are free")


def _transfer_matrices(steps: tuple[Gate, ...], noise: NoiseModel | None) -> list[np.ndarray]:
    """One real transfer matrix per gate, the channel on each touched qubit folded
    into its rows: [4, 4] for a one-qubit gate, [B, 4, 4] for one angle or x
    mask per point, and [2, 16, 16] for cx, on the pair index
    4 * P_control + P_target and then, S CX S, on 4 * P_target + P_control.
    One vectorized call builds a kind's matrices per shape, one per value
    object: the steps that share one (every rz(pi/2) of a compiled circuit)
    share its matrix.  Their bytes, 128 per value entry and with noise the cx
    pair and x (noiseless, those are constants), are checked against the free
    memory before any is made."""
    keys, groups = [], {}  # (kind, one value per point): {key: value}
    for kind, _, arg in steps:
        if kind == "cx" or arg is None:
            keys.append(kind)
        else:
            keys.append((kind, id(arg)))
            groups.setdefault((kind, isinstance(arg, np.ndarray)), {})[keys[-1]] = arg
    values = {group: np.array(list(v.values())) for group, v in groups.items()}  # [values(, B)]
    need = 16 * sum(t.size for t in values.values()) + (0 if noise is None else _CX_PAIR.size + _X.size)
    _check_memory(8 * need, "a chunk's transfer matrices need")
    f1, f2 = (1.0, 1.0) if noise is None else (1 - 4 * noise.p1 / 3, 1 - 4 * noise.p2 / 3)
    scale1, scale2 = np.array([[1.0], [f1], [f1], [f1]]), np.array([1.0, f2, f2, f2])
    cx, x = _CX_PAIR, _X  # noiseless: the constants, no matrix made
    if noise is not None:  # the pair's row scales are alike under the swap
        cx, x = np.outer(scale2, scale2).reshape(16, 1) * _CX_PAIR, scale1 * _X
    made = {"cx": cx, "x": x}  # by key: a kind without a value, or (kind, id of its value)
    for group, t in values.items():
        if group[0] == "x":  # a mask of points: the exact identity where no x acts
            built = np.where(t[..., None, None], x, np.eye(4))
        else:
            (i, j), built = _PLANES[group[0]], np.tile(np.eye(4), t.shape + (1, 1))
            built[..., i, i] = built[..., j, j] = np.cos(t)
            built[..., j, i], built[..., i, j] = np.sin(t), -np.sin(t)
            built *= scale1
        made.update(zip(groups[group], built))
    return [made[key] for key in keys]


def run_window_plan(
    circuit: Circuit,
    window_cap: int = DEFAULT_WINDOW_CAP,
    noise: NoiseModel | None = None,
    check_invariants: bool = False,
) -> list[float]:
    """Exact <Z> of the measured qubit at each point of a circuit, in order, from
    windowed sweeps of its points in chunks of at most _CHUNK_ENTRIES entries
    at the peak window (and at least one point), each chunk's transfer
    matrices built from its own slice of every per-point angle and mask.  With
    a noise model, each gate (a masked x where it acts) is followed by the
    depolarizing channel on every qubit it touches: strength p1 after a
    one-qubit gate, p2 after cx."""
    life, batch, zs = liveness(circuit), circuit.batch, []
    chunk = max(1, _CHUNK_ENTRIES // 4**life.peak_window)
    for lo in range(0, batch, chunk):
        points = range(lo, min(lo + chunk, batch))
        steps = circuit.gates if len(points) == batch else [
            g._replace(angle=g.angle[lo : points.stop]) if isinstance(g.angle, np.ndarray) else g
            for g in circuit.gates
        ]
        mats = _transfer_matrices(steps, noise)
        zs += _sweep(circuit, mats, life, points, window_cap, check_invariants)
    return zs


def _step(kind: str, qubits: tuple, mat: np.ndarray, rho: np.ndarray, active: list):
    """The window after one step, and its axis order.  A one-qubit step and a
    cx on adjacent axes contract their axes where they sit (a cx whose target
    axis comes first by S CX S), and the window keeps its axis order; a cx on
    axes apart moves its pair to the front first, a copy, and the window keeps
    that order."""
    at = [active.index(q) for q in qubits]
    if kind != "cx":
        return _contract(mat, rho, at[0], 4), active
    if abs(at[0] - at[1]) == 1:
        return _contract(mat[int(at[0] > at[1])], rho, min(at), 16), active
    order = [1 + a for a in at] + [k for k in range(1, rho.ndim) if k - 1 not in at]
    return _contract(mat[0], rho.transpose([0] + order), 0, 16), [active[k - 1] for k in order]


def _contract(mat: np.ndarray, rho: np.ndarray, at: int, dim: int) -> np.ndarray:
    """A step's matrix on the run of window axes of dim entries (one axis, or an
    adjacent pair) whose first axis is window position at, contracted where it
    sits: from the left when the run is outermost, from the right by the
    transpose when it is innermost (one gemm over every point for a shared
    matrix), and as a broadcast over the outer axes in between."""
    points, outer = len(rho), 4**at
    if outer == 1:
        out = mat @ rho.reshape(points, dim, -1)
    elif rho.size == points * outer * dim:
        if mat.ndim == 2:
            out = rho.reshape(-1, dim) @ mat.T
        else:  # a contiguous copy: numpy runs a strided stack of matrices far slower
            out = rho.reshape(points, -1, dim) @ np.ascontiguousarray(mat.transpose(0, 2, 1))
    else:
        out = (mat if mat.ndim == 2 else mat[:, None]) @ rho.reshape(points, outer, dim, -1)
    return out.reshape(rho.shape)


def _sweep(
    circuit: Circuit, mats: list, life: RetirementSchedule, points: range, cap: int, check: bool
) -> list[float]:
    """<Z> at some points of a circuit from one windowed sweep of their transfer
    matrices (a per-point matrix holds those points only), a _step per gate."""
    first, last = life.first_use, life.last_use
    rho, active = np.ones(len(points)), []  # each point's empty window, no live qubit
    for i, ((kind, qubits, _), mat) in enumerate(zip(circuit.gates, mats)):
        for q in qubits:
            if first[q] == i:
                rho = _adjoin(rho, active, q, i, cap)
        rho, active = _step(kind, qubits, mat, rho, active)
        if check:
            _check_window(_density(rho), i, points.start)
        for q in qubits:
            if last[q] == i:  # trace it out: keep its I slice
                rho = rho[(slice(None),) * (1 + active.index(q)) + (0,)]
                active.remove(q)
    if not active:  # no gate touched the measured qubit, the only one live at the end
        rho = _adjoin(rho, active, circuit.measured_qubit, len(circuit.gates), cap)
    return [float(z) for z in rho[:, 3]]


def run_window(
    circuit: Circuit,
    window_cap: int = DEFAULT_WINDOW_CAP,
    noise: NoiseModel | None = None,
    check_invariants: bool = False,
) -> float:
    """Exact <Z> of the measured qubit of a circuit of one point via a single
    windowed sweep."""
    if circuit.batch != 1:
        raise ValueError(f"run_window runs a circuit of one point, not {circuit.batch}")
    return run_window_plan(circuit, window_cap, noise, check_invariants)[0]


def _density(rho: np.ndarray) -> np.ndarray:
    """The window as [B, 2^w, 2^w] density matrices, qubits in window order:
    each Pauli axis in turn becomes a (row, column) pair of axes at the end."""
    w, mat = rho.ndim - 1, rho / 2 ** (rho.ndim - 1)
    for _ in range(w):
        mat = np.tensordot(mat, _PAULI, axes=(1, 0))
    order = [0] + list(range(1, 2 * w, 2)) + list(range(2, 2 * w + 1, 2))
    return mat.transpose(order).reshape(len(rho), 2**w, 2**w)


def _check_window(rho: np.ndarray, gate_index: int, lo: int = 0) -> None:
    """Trace, Hermiticity and positivity of every point's [dim, dim] matrix,
    the first being point lo of its circuit."""
    for point, mat in enumerate(rho, lo):
        where = f"at point {point} after gate {gate_index}"
        if abs(np.trace(mat) - 1.0) > 1e-10:
            raise AssertionError(f"trace drifted to {np.trace(mat)} {where}")
        if np.abs(mat - mat.conj().T).max() > 1e-10:
            raise AssertionError(f"hermiticity lost {where}")
        if np.linalg.eigvalsh(mat).min() < -1e-8:
            raise AssertionError(f"negative eigenvalue {where}")
