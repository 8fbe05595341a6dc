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
at most as much again of scratch, and that peak is checked against the free
memory before the state is allocated.

Both simulators sweep a batch of circuits that share one gate skeleton, such
as the points of one program, as a leading batch axis, with one angle per
point where the points differ (circuit.plan): here the state is a tensor of
shape [B] + [2]*n, and the windowed simulator runs the same one-qubit kernel
on the row and the column axes of its density matrix.  expect_z_batch runs a
batch in chunks whose state holds at most _CHUNK_AMPLITUDES amplitudes, and
at least one point.  A small program (2-7 qubits in the Table-1 protocol)
then runs a whole trial in one sweep, so each gate's Python dispatch is paid
once per trial, not once per point.  A wide state (2^12 amplitudes and up)
runs one point at a time: its cost per gate is memory traffic, which a batch
does not cut, and a batch would multiply its peak memory, the one allocation
that limits it.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, plan
from .rng import generator

DEFAULT_QUBIT_CAP = 26
# peak bytes of a run per amplitude: the complex128 state plus the ry
# branch's scratch (a copy of one half and one half-sized temporary)
_PEAK_BYTES_PER_AMPLITUDE = 2 * 16
# the most amplitudes one chunk of expect_z_batch holds (see the module docstring)
_CHUNK_AMPLITUDES = 2**12


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

    `angle` is a float, or an array of one angle per point of the tensor's
    leading batch axis; x takes none."""
    if isinstance(angle, np.ndarray):  # broadcast against a half
        angle = angle.reshape((-1,) + (1,) * (tensor.ndim - 2))
    a, b = _halves(tensor, axis)
    if kind == "x":
        a[...], b[...] = b, a.copy()
    elif kind == "rz":
        a *= np.exp(-0.5j * angle)
        b *= np.exp(0.5j * angle)
    else:  # ry
        c, s = np.cos(angle / 2.0), np.sin(angle / 2.0)
        if isinstance(angle, np.ndarray):  # else each use casts them in a ufunc buffer
            c, s = c.astype(complex), s.astype(complex)
        a0 = a.copy()
        a *= c
        a -= s * b
        b *= c
        b += s * a0


def _free_memory_bytes() -> int:
    """Free physical memory, read on every run (tests substitute it)."""
    return os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def _sweep(steps: list[tuple], n: int, lo: int, hi: int) -> np.ndarray:
    """The states, shape [hi - lo] + [2]*n, that the plan of a batch leaves
    its points lo..hi-1 in, from |0...0>, after the width and memory checks."""
    if n > DEFAULT_QUBIT_CAP:
        raise CapacityError(
            f"{n} qubits exceeds the dense cap of {DEFAULT_QUBIT_CAP}; "
            "route this circuit to the windowed stream simulator"
        )
    need = _PEAK_BYTES_PER_AMPLITUDE * (hi - lo) * 2**n
    free = _free_memory_bytes()
    if need > free:
        raise CapacityError(
            f"{hi - lo} state(s) of {n} qubits need about {need} bytes, but only {free} "
            "bytes are free; route this circuit to the windowed stream simulator"
        )
    state = np.zeros([hi - lo] + [2] * n, dtype=complex)
    state[(slice(None),) + (0,) * n] = 1.0
    for kind, qubits, angle in steps:
        if kind == "cx":
            _apply_cx(state, qubits[0] + 1, qubits[1] + 1)
        else:
            if isinstance(angle, np.ndarray):  # one per point: a chunk of one takes a scalar
                angle = angle[lo] if hi - lo == 1 else angle[lo:hi]
            _apply_1q(state, kind, qubits[0] + 1, angle)
    return state


def run_statevector(circuit: Circuit) -> np.ndarray:
    """Apply all gates in order to |0...0>; returns the final amplitudes."""
    return _sweep(plan([circuit]), circuit.n_qubits, 0, 1).reshape(-1)


def expect_z_batch(circuits: list[Circuit]) -> list[float]:
    """Exact <Z> of each circuit's measured qubit, in order, from statevector
    sweeps of the batch in chunks; raises ValueError unless the circuits share
    one gate skeleton.  Where the points differ only in ry angles, as those of
    build_circuits do, each z is the one expect_z(run_statevector(circuit),
    circuit.measured_qubit) gives, bit for bit: a real rotation rounds the same
    with one angle or many.  A per-point rz phase may move the last bit."""
    steps = plan(circuits)
    n, qubit = circuits[0].n_qubits, circuits[0].measured_qubit
    chunk = max(1, _CHUNK_AMPLITUDES >> n)
    zs: list[float] = []
    for lo in range(0, len(circuits), chunk):
        hi = min(lo + chunk, len(circuits))
        # the chunk's states are freed before the next chunk is allocated
        zs += [expect_z(state, qubit) for state in _sweep(steps, n, lo, hi)]
    return zs


def expect_z(state: np.ndarray, qubit: int) -> float:
    """<Z> of one qubit: sum of |amp|^2 signed by that qubit's bit."""
    n = int(round(np.log2(state.size)))
    probs = np.abs(state.reshape([2] * n)) ** 2
    marg = probs.sum(axis=tuple(i for i in range(n) if i != qubit))
    return float(marg[0] - marg[1])
