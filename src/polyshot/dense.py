"""Dense statevector simulator: exact expectations and the binomial shot draw.

A statevector holds only pure states, so it runs noiseless circuits; noise is
the exact depolarizing channel on the window density matrix (see stream.py).

R_y(t) = [[cos t/2, -sin t/2], [sin t/2, cos t/2]]
R_z(t) = diag(exp(-it/2), exp(+it/2))

The state is a tensor with one axis per qubit, and every gate updates it in
place on the two half-state views of its axis (the slices where that qubit is
0 and 1), one branch per gate kind: x swaps the halves, rz scales each half
by its phase, ry is a real 2x2 rotation that keeps one copy of the 0-half,
and cx swaps the target's halves where the control is 1.  No gate matrix is
built and no new state is made per gate (Haner & Steiger, "0.5 Petabyte
Simulation of a 45-Qubit Quantum Circuit", 2017).  The peak is the state plus
at most one state of scratch, and that peak is checked against the free
memory before the state is allocated.

The one-qubit kernel (_apply_1q) is shared with the windowed simulator, which
runs it on the row and the column axes of its density matrix and passes a
per-point angle array that broadcasts across its leading batch axis.  The
statevector itself runs one point at a time: a batch axis would multiply its
2^n state, which is the one allocation that limits it.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit
from .rng import generator

DEFAULT_QUBIT_CAP = 26
# peak bytes of a run per amplitude: the complex128 state plus the ry
# branch's scratch (a copy of one half and one half-sized temporary)
_PEAK_BYTES_PER_AMPLITUDE = 2 * 16


class CapacityError(RuntimeError):
    """Raised when a circuit exceeds the dense qubit cap, or a statevector or a
    batched window exceeds the free memory."""


@dataclass(frozen=True)
class NoiseModel:
    """Depolarizing probabilities per one- and two-qubit gate."""

    p1: float = 0.0
    p2: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.p1 <= 1.0 and 0.0 <= self.p2 <= 1.0):
            raise ValueError("noise probabilities must lie in [0, 1]")


@dataclass(frozen=True)
class ShotOutcome:
    n0: int
    n1: int

    @property
    def total(self) -> int:
        return self.n0 + self.n1


def prob_one(z: float) -> float:
    """Probability of measuring 1 on a qubit with <Z> = z, clamped into [0, 1]
    against rounding."""
    return min(max(0.5 * (1.0 - z), 0.0), 1.0)


def draw_shots(z: float, shots: int, seed: int) -> ShotOutcome:
    """`shots` measurements of a qubit whose exact <Z> is z.

    The shots are independent, so the count of 1s is one binomial draw with
    probability prob_one(z).
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    n1 = int(generator(seed).binomial(shots, prob_one(z)))
    return ShotOutcome(shots - n1, n1)


def _apply_cx(tensor: np.ndarray, c_axis: int, t_axis: int) -> np.ndarray:
    """CX in place on a tensor with one axis per qubit: where the control is 1,
    swap the target's two slices."""
    hi = [slice(None)] * tensor.ndim
    hi[c_axis] = 1
    lo = list(hi)
    hi[t_axis], lo[t_axis] = 1, 0
    hi, lo = tuple(hi), tuple(lo)
    tensor[lo], tensor[hi] = tensor[hi], tensor[lo].copy()
    return tensor


def _halves(tensor: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """The views of a tensor where one axis is 0 and where it is 1 (the
    Ellipsis keeps a view, not a scalar, when the tensor has one axis)."""
    lead = (slice(None),) * axis
    return tensor[lead + (0, ...)], tensor[lead + (1, ...)]


def _apply_1q(tensor: np.ndarray, kind: str, axis: int, angle) -> None:
    """One-qubit gate ("ry", "rz" or "x") in place on one axis of a tensor.

    `angle` is a float, or an array that broadcasts against a half (one angle
    per point of a batch); x takes none."""
    a, b = _halves(tensor, axis)
    if kind == "x":
        a[...], b[...] = b, a.copy()
    elif kind == "rz":
        a *= np.exp(-0.5j * angle)
        b *= np.exp(0.5j * angle)
    else:  # ry
        c, s = np.cos(angle / 2.0), np.sin(angle / 2.0)
        a0 = a.copy()
        a *= c
        a -= s * b
        b *= c
        b += s * a0


def _free_memory_bytes() -> int:
    """Free physical memory, read on every run (tests substitute it)."""
    return os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def run_statevector(circuit: Circuit) -> np.ndarray:
    """Apply all gates in order to |0...0>; returns the final amplitudes."""
    n = circuit.n_qubits
    if n > DEFAULT_QUBIT_CAP:
        raise CapacityError(
            f"{n} qubits exceeds the dense cap of {DEFAULT_QUBIT_CAP}; "
            "route this circuit to the windowed stream simulator"
        )
    need = _PEAK_BYTES_PER_AMPLITUDE * 2**n
    free = _free_memory_bytes()
    if need > free:
        raise CapacityError(
            f"{n} qubits need about {need} bytes, but only {free} bytes are free; "
            "route this circuit to the windowed stream simulator"
        )
    state = np.zeros([2] * n, dtype=complex)
    state[(0,) * n] = 1.0
    for g in circuit.gates:
        if g.kind == "cx":
            _apply_cx(state, g.qubits[0], g.qubits[1])
        else:
            _apply_1q(state, g.kind, g.qubits[0], g.angle)
    return state.reshape(-1)


def expect_z(state: np.ndarray, qubit: int) -> float:
    """<Z> of one qubit: sum of |amp|^2 signed by that qubit's bit."""
    n = int(round(np.log2(state.size)))
    probs = np.abs(state.reshape([2] * n)) ** 2
    marg = probs.sum(axis=tuple(i for i in range(n) if i != qubit))
    return float(marg[0] - marg[1])
