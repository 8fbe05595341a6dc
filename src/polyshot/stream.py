"""Windowed density-matrix simulator with qubit retirement.

Sweeps the gate list in order, adjoining each qubit to the active window at
its first use and tracing it out after its last use.  The state is a density
matrix over the active window only, so memory is 4^w for window size w; the
forward-order compiler keeps w <= 3, which is what makes degree-35 programs
(36 qubits) cheap to evaluate exactly.

The density matrix is stored as a tensor of shape [2]*w + [2]*w: the first w
axes index rows (ket side), the last w columns (bra side), in the order the
qubits were adjoined.

Noise is the exact depolarizing channel on the window density matrix: after
each gate every touched qubit q goes through
rho -> (1 - p) rho + (p/3)(X rho X + Y rho Y + Z rho Z)
   = (1 - 4p/3) rho + (4p/3) (I/2 (x) Tr_q rho)
(Nielsen & Chuang, section 8.3), so one sweep gives the exact noisy <Z>.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import Circuit
from .dense import NoiseModel, _apply_cx, _gate_matrix

DEFAULT_WINDOW_CAP = 8


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
    live: set[int] = set()
    peak = 0
    for i, g in enumerate(circuit.gates):
        for q in g.qubits:
            if first[q] == i:
                live.add(q)
        peak = max(peak, len(live))
        for q in g.qubits:
            if last[q] == i:
                live.discard(q)
    peak = max(peak, 1)  # the measured qubit is live at measurement time
    return RetirementSchedule(tuple(first), tuple(last), peak)


_ZERO_RHO = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)


class _Window:
    """Rolling density matrix over the currently active qubits."""

    def __init__(self, cap: int):
        self.cap = cap
        self.active: list[int] = []
        self.rho = np.ones((), dtype=complex)  # scalar: empty window

    @property
    def width(self) -> int:
        return len(self.active)

    def adjoin(self, qubit: int, gate_index: int) -> None:
        w = self.width
        if w >= self.cap:
            raise WindowOverflowError(
                f"window grows to {w + 1} qubits at gate {gate_index} (cap {self.cap}); "
                "forward aggregation order keeps the window small"
            )
        rho = np.tensordot(self.rho, _ZERO_RHO, axes=0)
        # shape [rows w][cols w][2][2] -> [rows w+1][cols w+1]
        self.rho = np.moveaxis(rho, 2 * w, w)
        self.active.append(qubit)

    def retire(self, qubit: int) -> None:
        w = self.width
        i = self.active.index(qubit)
        self.rho = np.trace(self.rho, axis1=i, axis2=w + i)
        self.active.pop(i)

    def apply_1q(self, mat: np.ndarray, qubit: int) -> None:
        w = self.width
        i = self.active.index(qubit)
        rho = np.tensordot(mat, self.rho, axes=([1], [i]))
        rho = np.moveaxis(rho, 0, i)
        rho = np.tensordot(rho, mat.conj(), axes=([w + i], [1]))
        self.rho = np.moveaxis(rho, 2 * w - 1, w + i)

    def apply_cx(self, control: int, target: int) -> None:
        w = self.width
        i, j = self.active.index(control), self.active.index(target)
        # a permutation: the same swap on the row and on the column axes
        self.rho = _apply_cx(_apply_cx(self.rho, i, j), w + i, w + j)

    def depolarize(self, p: float, qubit: int) -> None:
        """Depolarizing channel of strength p on one qubit (see the module docstring)."""
        w = self.width
        i = self.active.index(qubit)
        reduced = np.trace(self.rho, axis1=i, axis2=w + i)
        mixed = np.tensordot(reduced, np.eye(2) / 2.0, axes=0)
        mixed = np.moveaxis(mixed, (2 * w - 2, 2 * w - 1), (i, w + i))
        mix = 4.0 * p / 3.0
        self.rho = (1.0 - mix) * self.rho + mix * mixed

    def z_expectation(self, qubit: int) -> float:
        w = self.width
        i = self.active.index(qubit)
        reduced = self.rho
        # trace out everything else
        for axis in range(w - 1, -1, -1):
            if axis == i:
                continue
            off = reduced.ndim // 2
            reduced = np.trace(reduced, axis1=axis, axis2=off + axis)
        return float(np.real(reduced[0, 0] - reduced[1, 1]))


def run_window(
    circuit: Circuit,
    window_cap: int = DEFAULT_WINDOW_CAP,
    noise: NoiseModel | None = None,
    check_invariants: bool = False,
) -> float:
    """Exact <Z> of the measured qubit via a single windowed sweep.

    With a noise model, each gate is followed by the depolarizing channel on
    every qubit it touches: strength p1 after a one-qubit gate, p2 after cx.
    """
    sched = liveness(circuit)
    noisy = noise is not None and not noise.is_trivial
    win = _Window(window_cap)
    end = len(circuit.gates)
    for i, g in enumerate(circuit.gates):
        for q in g.qubits:
            if sched.first_use[q] == i:
                win.adjoin(q, i)
        if g.kind == "cx":
            win.apply_cx(g.qubits[0], g.qubits[1])
        else:
            win.apply_1q(_gate_matrix(g), g.qubits[0])
        if noisy:
            p = noise.p2 if g.kind == "cx" else noise.p1
            if p > 0.0:
                for q in g.qubits:
                    win.depolarize(p, q)
        if check_invariants:
            _check_window(win, i)
        for q in g.qubits:
            if sched.last_use[q] == i:
                win.retire(q)
    mq = circuit.measured_qubit
    if mq not in win.active:  # no gate ever touched it
        win.adjoin(mq, end)
    return win.z_expectation(mq)


def _check_window(win: _Window, gate_index: int) -> None:
    w = win.width
    mat = win.rho.reshape(2**w, 2**w)
    tr = np.trace(mat)
    if abs(tr - 1.0) > 1e-10:
        raise AssertionError(f"trace drifted to {tr} after gate {gate_index}")
    if np.abs(mat - mat.conj().T).max() > 1e-10:
        raise AssertionError(f"hermiticity lost after gate {gate_index}")
    if np.linalg.eigvalsh(mat).min() < -1e-8:
        raise AssertionError(f"negative eigenvalue after gate {gate_index}")
