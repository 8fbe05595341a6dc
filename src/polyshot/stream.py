"""Windowed density-matrix simulator with qubit retirement, batched over points.

Sweeps the gate list in order, adjoining each qubit to the active window at
its first use and tracing it out after its last use, so memory is 4^w for
window size w; the forward-order compiler keeps w <= 3, which is what makes
degree-35 programs (36 qubits) cheap to evaluate exactly.  One sweep runs a
plan (circuit.plan, compile.plan_programs): the points of one gate skeleton,
such as the trials x points of one degree, whose trials differ only in their
sum-block Ry angles and in the x of a negative term, a mask of points.

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

Noise is the exact depolarizing channel after each gate on every qubit it
touches, rho -> (1 - p) rho + (p/3)(X rho X + Y rho Y + Z rho Z) (Nielsen &
Chuang, section 8.3).  It keeps r_I and scales r_X, r_Y and r_Z by
f = 1 - 4p/3, a scale folded into the rows of the gate's transfer matrix, so
a noisy gate costs what a noiseless one does.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dense
from .circuit import Circuit, Plan, plan
from .dense import NoiseModel

DEFAULT_WINDOW_CAP = 8

# I, X, Y and Z; the transfer matrices of cx on (control, target), index
# 4 * P_control + P_target and entry (P, Q) = Tr(P CX Q CX) / 4, and of x
_PAULI = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
_PAULI_PAIRS = np.einsum("aij,bkl->abikjl", _PAULI, _PAULI).reshape(16, 4, 4)
_CNOT = np.eye(4)[[0, 1, 3, 2]]
_CX = np.einsum("pij,jk,qkl,li->pq", _PAULI_PAIRS, _CNOT, _PAULI_PAIRS, _CNOT).real / 4
_X = np.diag([1.0, 1.0, -1.0, -1.0])
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
    """Qubit lifetimes in emitted gate order; the measured qubit lives to the end."""
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
    peak = max(peak, 1)  # the measured qubit is live at measurement time
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
    free = dense._free_memory_bytes()
    if need > free:
        raise dense.CapacityError(
            f"a {w + 1}-qubit window over {batch} points needs about {need} bytes, "
            f"but only {free} bytes are free"
        )
    grown = np.zeros((batch, 4**w, 4))
    grown[:, :, 0] = grown[:, :, 3] = rho.reshape(batch, 4**w)
    active.append(qubit)
    return grown.reshape((batch,) + (4,) * (w + 1))


def _transfer_matrices(steps: list[tuple], noise: NoiseModel | None) -> list[np.ndarray]:
    """One real transfer matrix per step, the channel on each touched qubit folded
    into its rows: [16, 16] for cx, [4, 4] for a one-qubit gate, [B, 1, 4, 4] for
    one angle or x mask per point.  One vectorized call builds a kind's rotations
    per shape."""
    f1, f2 = (1.0, 1.0) if noise is None else (1 - 4 * noise.p1 / 3, 1 - 4 * noise.p2 / 3)
    scale1, scale2 = np.array([[1.0], [f1], [f1], [f1]]), np.array([1.0, f2, f2, f2])
    cx, x = np.outer(scale2, scale2).reshape(16, 1) * _CX, scale1 * _X
    mats = [cx if kind == "cx" else x for kind, _, _ in steps]
    for k, (kind, _, mask) in enumerate(steps):
        if kind == "x" and mask is not None:  # the exact identity where no x acts
            mats[k] = np.where(mask[:, None, None, None], x, np.eye(4))
    groups: dict[tuple[str, bool], list[int]] = {}  # (kind, one angle per point): steps
    for k, (kind, _, angle) in enumerate(steps):
        if kind in _PLANES:
            groups.setdefault((kind, isinstance(angle, np.ndarray)), []).append(k)
    for (kind, each), at in groups.items():
        (i, j), t = _PLANES[kind], np.array([steps[k][2] for k in at])  # [steps(, B)]
        rot = np.tile(np.eye(4), t.shape + (1, 1))
        rot[..., i, i] = rot[..., j, j] = np.cos(t)
        rot[..., j, i], rot[..., i, j] = np.sin(t), -np.sin(t)
        rot *= scale1
        for k, m in zip(at, rot):
            mats[k] = m[:, None] if each else m
    return mats


def run_window_batch(
    circuits: list[Circuit],
    window_cap: int = DEFAULT_WINDOW_CAP,
    noise: NoiseModel | None = None,
    check_invariants: bool = False,
) -> list[float]:
    """Exact <Z> of each circuit's measured qubit, in order: run_window_plan of
    the batch's plan; raises ValueError unless they share one gate skeleton."""
    return run_window_plan(plan(circuits), window_cap, noise, check_invariants)


def run_window_plan(
    batch: Plan,
    window_cap: int = DEFAULT_WINDOW_CAP,
    noise: NoiseModel | None = None,
    check_invariants: bool = False,
) -> list[float]:
    """Exact <Z> of the measured qubit at each point of a plan, in order, from one
    windowed sweep.  With a noise model, each gate (a masked x where it acts) is
    followed by the depolarizing channel on every qubit it touches: strength p1
    after a one-qubit gate, p2 after cx."""
    first, last = {}, {}  # each qubit's first and last step
    for i, (_, qubits, _) in enumerate(batch):
        for q in qubits:
            first.setdefault(q, i)
            last[q] = i
    last[batch.measured_qubit] = len(batch)  # the measured qubit lives to the end
    rho, active = np.ones(batch.batch), []  # each point's empty window, no live qubit
    for i, ((kind, qubits, _), mat) in enumerate(zip(batch, _transfer_matrices(batch, noise))):
        for q in qubits:
            if first[q] == i:
                rho = _adjoin(rho, active, q, i, window_cap)
        axes = [1 + active.index(q) for q in qubits]
        if kind == "cx":  # the pair's axes move to the front for one matmul, and stay
            order = axes + [k for k in range(1, rho.ndim) if k not in axes]
            rho = (mat @ rho.transpose([0] + order).reshape(len(rho), 16, -1)).reshape(rho.shape)
            active = [active[k - 1] for k in order]
        else:
            rho = (mat @ rho.reshape(len(rho), 4 ** (axes[0] - 1), 4, -1)).reshape(rho.shape)
        if check_invariants:
            _check_window(_density(rho), i)
        for q in qubits:
            if last[q] == i:  # trace it out: keep its I slice
                rho = rho[(slice(None),) * (1 + active.index(q)) + (0,)]
                active.remove(q)
    if not active:  # no gate touched the measured qubit, the only one live at the end
        rho = _adjoin(rho, active, batch.measured_qubit, len(batch), window_cap)
    return [float(z) for z in rho[:, 3]]


def run_window(
    circuit: Circuit,
    window_cap: int = DEFAULT_WINDOW_CAP,
    noise: NoiseModel | None = None,
    check_invariants: bool = False,
) -> float:
    """Exact <Z> of the measured qubit via a single windowed sweep."""
    return run_window_batch([circuit], window_cap, noise, check_invariants)[0]


def _density(rho: np.ndarray) -> np.ndarray:
    """The window as [B, 2^w, 2^w] density matrices, qubits in window order:
    each Pauli axis in turn becomes a (row, column) pair of axes at the end."""
    w, mat = rho.ndim - 1, rho / 2 ** (rho.ndim - 1)
    for _ in range(w):
        mat = np.tensordot(mat, _PAULI, axes=(1, 0))
    order = [0] + list(range(1, 2 * w, 2)) + list(range(2, 2 * w + 1, 2))
    return mat.transpose(order).reshape(len(rho), 2**w, 2**w)


def _check_window(rho: np.ndarray, gate_index: int) -> None:
    """Trace, Hermiticity and positivity of every point's [dim, dim] matrix."""
    for point, mat in enumerate(rho):
        where = f"at point {point} after gate {gate_index}"
        if abs(np.trace(mat) - 1.0) > 1e-10:
            raise AssertionError(f"trace drifted to {np.trace(mat)} {where}")
        if np.abs(mat - mat.conj().T).max() > 1e-10:
            raise AssertionError(f"hermiticity lost {where}")
        if np.linalg.eigvalsh(mat).min() < -1e-8:
            raise AssertionError(f"negative eigenvalue {where}")
