"""Windowed density-matrix simulator with qubit retirement, batched over points.

Sweeps the gate list in order, adjoining each qubit to the active window at
its first use and tracing it out after its last use.  The state is a density
matrix over the active window only, so memory is 4^w for window size w; the
forward-order compiler keeps w <= 3, which is what makes degree-35 programs
(36 qubits) cheap to evaluate exactly.

One sweep runs a batch of circuits that share one gate skeleton, such as the
points of one program (only the encoding Ry(arccos x) angles depend on x), so
the liveness walk, each gate and each channel are paid once per batch.  The
batch's steps come from circuit.plan, which the statevector shares.  The
density matrix is a tensor of shape [B] + [2]*w + [2]*w: the batch axis, then
w row (ket) and w column (bra) axes in the order the qubits were adjoined.
A one-qubit gate U is the statevector's in-place kernel (dense._apply_1q), U
on the qubit's row axis and U* on its column axis (ry and x are real;
rz(t)* = rz(-t)), with one angle per point where the points differ; cx is the
same swap on the row and column axes.

Noise is the exact depolarizing channel on the window density matrix: after
each gate every touched qubit q goes through
rho -> (1 - p) rho + (p/3)(X rho X + Y rho Y + Z rho Z)
   = (1 - 4p/3) rho + (4p/3) (I/2 (x) Tr_q rho)
(Nielsen & Chuang, section 8.3), so one sweep gives the exact noisy <Z>.  In
place on the four blocks of q's row and column, the diagonal blocks move
toward their mean by 4p/3 and the off-diagonal blocks scale by 1 - 4p/3.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dense
from .circuit import Circuit, plan
from .dense import NoiseModel

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
    live = peak = 0
    for i, g in enumerate(circuit.gates):
        live += sum(first[q] == i for q in g.qubits)
        peak = max(peak, live)
        live -= sum(last[q] == i for q in g.qubits)
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
    grown = np.zeros((batch, 2**w, 2, 2**w, 2), dtype=complex)
    grown[:, :, 0, :, 0] = rho.reshape(batch, 2**w, 2**w)
    active.append(qubit)
    return grown.reshape((batch,) + (2,) * (2 * w + 2))


def _blocks(rho: np.ndarray, row: int, w: int) -> tuple[np.ndarray, ...]:
    """Views of the blocks (row 0, col 0), (0, 1), (1, 0), (1, 1) of the qubit
    whose row axis is `row` in a window of w qubits."""
    zero, one = dense._halves(rho, row)
    return dense._halves(zero, row + w - 1) + dense._halves(one, row + w - 1)


def _depolarize(rho: np.ndarray, p: float, row: int, w: int) -> None:
    """Depolarizing channel of strength p in place (see the module docstring)."""
    mix = 4.0 * p / 3.0
    d0, off01, off10, d1 = _blocks(rho, row, w)
    shift = (0.5 * mix) * (d1 - d0)
    d0 += shift
    d1 -= shift
    off01 *= 1.0 - mix
    off10 *= 1.0 - mix


def run_window_batch(
    circuits: list[Circuit],
    window_cap: int = DEFAULT_WINDOW_CAP,
    noise: NoiseModel | None = None,
    check_invariants: bool = False,
) -> list[float]:
    """Exact <Z> of each circuit's measured qubit, in order, from one windowed
    sweep of the batch; raises ValueError unless they share one gate skeleton.

    With a noise model, each gate is followed by the depolarizing channel on
    every qubit it touches: strength p1 after a one-qubit gate, p2 after cx.
    """
    steps = plan(circuits)
    sched = liveness(circuits[0])
    rho = np.ones(len(circuits), dtype=complex)  # each point's empty window
    active: list[int] = []
    for i, (kind, qubits, angle) in enumerate(steps):
        for q in qubits:
            if sched.first_use[q] == i:
                rho = _adjoin(rho, active, q, i, window_cap)
        w = len(active)
        rows = [1 + active.index(q) for q in qubits]
        if kind == "cx":
            dense._apply_cx(dense._apply_cx(rho, *rows), rows[0] + w, rows[1] + w)
        else:
            dense._apply_1q(rho, kind, rows[0], angle)
            dense._apply_1q(rho, kind, rows[0] + w, -angle if kind == "rz" else angle)
        p = 0.0 if noise is None else noise.p2 if kind == "cx" else noise.p1
        if p > 0.0:
            for row in rows:
                _depolarize(rho, p, row, w)
        if check_invariants:
            _check_window(rho, i)
        for q in qubits:
            if sched.last_use[q] == i:  # trace it out
                d0, _, _, d1 = _blocks(rho, 1 + active.index(q), len(active))
                active.remove(q)
                rho = d0 + d1
    if not active:  # no gate touched the measured qubit, the only one live at the end
        rho = _adjoin(rho, active, circuits[0].measured_qubit, len(steps), window_cap)
    return [float(z) for z in np.real(rho[:, 0, 0] - rho[:, 1, 1])]


def run_window(
    circuit: Circuit,
    window_cap: int = DEFAULT_WINDOW_CAP,
    noise: NoiseModel | None = None,
    check_invariants: bool = False,
) -> float:
    """Exact <Z> of the measured qubit via a single windowed sweep."""
    return run_window_batch([circuit], window_cap, noise, check_invariants)[0]


def _check_window(rho: np.ndarray, gate_index: int) -> None:
    """Trace, Hermiticity and positivity of every point's window."""
    dim = 2 ** ((rho.ndim - 1) // 2)
    for point, mat in enumerate(rho.reshape(-1, dim, dim)):
        where = f"at point {point} after gate {gate_index}"
        if abs(np.trace(mat) - 1.0) > 1e-10:
            raise AssertionError(f"trace drifted to {np.trace(mat)} {where}")
        if np.abs(mat - mat.conj().T).max() > 1e-10:
            raise AssertionError(f"hermiticity lost {where}")
        if np.linalg.eigvalsh(mat).min() < -1e-8:
            raise AssertionError(f"negative eigenvalue {where}")
