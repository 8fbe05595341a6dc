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

Both simulators sweep a circuit of `batch` points (compile.plan_programs):
the points of one gate skeleton, such as the trials x points of one degree,
with one angle per point where the points differ and a mask where an x (the
sign of a negative term) acts on some points only.  Here the state is a
tensor of shape [B] + [2]*n, and a masked x swaps the halves of its points
alone; the windowed simulator has kernels of its own (see stream.py).  Every
run goes through one chunk driver, _states.  A point narrower than
_FUSE_AMPLITUDES (2^12) amplitudes runs in chunks of at most
_CHUNK_AMPLITUDES (2^15) amplitudes, so a Table-1 degree (10 trials x 15
points of 2-7 qubits) runs in one sweep, each gate's Python dispatch is paid
once per degree, not once per point, and <Z> is one reduction per chunk.  A
wide state (2^12 amplitudes and up) runs one point at a time: its cost per
gate is memory traffic, which a batch does not cut, and a batch would
multiply its peak memory, the one allocation that limits it.

A chunk's state starts from its circuit's encoding, built, not swept
(_encoding, _encode): the leading ry gates on distinct qubits and the cx gates
that chain them in ry order (backward order's Ry(arccos x) on q1..qd and
cx(k-1, k), 2d - 1 passes over the state when swept; forward order's first
two ry gates) leave amplitudes that are products of one cos or sin per ry
qubit.  Multiplied in the gates' order, they are the sweep's bit for bit.
The gates after the encoding are swept, or fused.

On a wide state the traffic is cut instead by gate fusion.  The compiled
programs are chains of two-qubit sum blocks, 6-7 gates on one qubit pair, and
each block shares one qubit with the next, so each maximal run of consecutive
gates on at most _FUSE_QUBITS = 3 qubits becomes one matrix of up to 8x8
(_fuse), built by sweeping the run's own gates over the identity's columns; a
backward point of degree d runs ceil(d/2) such steps after its encoding, two
sum blocks each.  The state of a fused point is laid out, as its encoding is
built, with its qubits in the order its steps first meet them (_layout), so a
compiled program's runs, on (d, d-1, d-2), (d-2, d-3, d-4), ... backward
and (0, 1, 2), (1, 2, 3), ... forward, each sit on adjacent axes, and each
run's matrix is built in the order of its axes.  A fused step is then one matmul
from the state's buffer into a second buffer of its size, and the two swap
(_apply_u): one pass over each, whatever the step's size, so an 8x8 step
costs about what a 4x4 one does, while a 16x16 one costs more and saves
little per sum block (see _FUSE_QUBITS).  Only a run on axes apart (a circuit
that is not compiled), or one in the middle with few amplitudes after it (see
_MIN_INNER), is first copied into the other buffer with its axes moved to the
front, then the qubits still to come in the order they come (_to_front): a
compiled point makes at most one such copy, where its runs reach the inner
axes.  The sweep
keeps the qubit each axis holds, so every later gate reads it;
run_statevector returns the amplitudes in qubit order, and expect_z_plan reads
z on the measured qubit's axis.  The state and the second buffer are a
point's own: neither is kept for the next point.  Only a chunk of one point
is fused, and from its sign group's gates (each masked x made an x or
dropped): their encoding is built and the gates after it are fused, so its
encoding, runs and their rounding are those of its trial alone.  A group's
run matrices are built for its own points only.  A degree-20 backward point
(21 qubits) takes about 0.16-0.20 s on a 2-vCPU Intel Xeon host with one
BLAS thread.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, Gate
from .rng import rekeyed

DEFAULT_QUBIT_CAP = 26
# the most shots one draw takes: numpy's binomial reads its count as a C long
MAX_SHOTS = 2**63 - 1
# peak bytes of a run per amplitude: the complex128 state plus one state of
# scratch (ry's copy of one half and one half-sized temporary, the second
# buffer fused steps write into, made once the encoding is built and dropped
# before run_statevector's qubit-order copy, that copy, or the encoding
# build's copy of the real amplitudes it reads, at most 2 bytes per amplitude)
_PEAK_BYTES_PER_AMPLITUDE = 2 * 16
# a point of at least this many amplitudes runs alone, fused; narrower points
# run in chunks of at most _CHUNK_AMPLITUDES (see the module docstring).  At
# 2^15 a chunk's peak is 1 MiB, and the 150 points of 7 qubits of a Table-1
# degree run as one chunk
_FUSE_AMPLITUDES = 2**12
_CHUNK_AMPLITUDES = 2**15
# a fused step whose axes have fewer amplitudes than this after them, and are
# not innermost, is moved to the front first (_sweep): in place, m @ x would
# be one small gemm per value of the axes before them.  At 17 qubits (2-vCPU
# host, one BLAS thread) an 8x8 step took 0.46 ms outermost, 0.47 ms
# innermost, and 0.56 / 0.65 / 0.85 / 1.3 / 2.0 / 4.1 ms with 64 / 32 / 16 /
# 8 / 4 / 2 amplitudes after it, where the move took 0.42-0.46 ms.  A move
# also takes the runs after it off the inner axes, so a compiled point of
# degree 11-20 makes at most one; at 64, degree 11 would make two
_MIN_INNER = 32
# the most qubits one fused step acts on.  A step is bound by its pass over
# each buffer, not by its flops: at 17 qubits (2-vCPU host, one BLAS thread)
# a 4x4 step took 0.37 ms, an 8x8 one, which covers two sum blocks, 0.46 ms,
# and a 16x16 one, which covers three, 0.69 ms: 0.23 ms per sum block either
# way, no gain to take
_FUSE_QUBITS = 3


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


def draw_shots_batch(zs, shots: int, seeds) -> list[ShotOutcome]:
    """draw_shots(z, shots, seed) for each z and seed in turn, from one Philox
    re-keyed per draw (rng.rekeyed) instead of a generator per draw."""
    if not 1 <= shots <= MAX_SHOTS:
        raise ValueError(f"shots must lie in [1, {MAX_SHOTS}], got {shots}")
    n1s = [int(gen.binomial(shots, prob_one(z))) for z, gen in zip(zs, rekeyed(seeds), strict=True)]
    return [ShotOutcome(shots - n1, n1) for n1 in n1s]


def draw_shots(z: float, shots: int, seed: int) -> ShotOutcome:
    """`shots` measurements of a qubit whose exact <Z> is z.

    The shots are independent, so the count of 1s is one binomial draw with
    probability prob_one(z), from generator(seed).
    """
    return draw_shots_batch([z], shots, [seed])[0]


def _halves(tensor: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """The views of a tensor where one axis is 0 and where it is 1 (the
    Ellipsis keeps a view, not a scalar, when the tensor has one axis)."""
    lead = (slice(None),) * axis
    return tensor[lead + (0, ...)], tensor[lead + (1, ...)]


def _apply_gate(tensor: np.ndarray, kind: str, axes: list[int], angle) -> None:
    """One gate in place on its qubits' axes of a tensor whose first axis is the
    batch.  `angle` is ry's or rz's: a float, or an array of one angle per
    point; x takes none, or a mask of the points it acts on (an array, or one
    bool for a tensor of one point); cx is x on the target where the control
    is 1."""
    if kind == "cx":
        c, t = axes
        tensor, kind, axes = _halves(tensor, c)[1], "x", [t - (t > c)]
    a, b = _halves(tensor, axes[0])
    if kind == "x":
        at = ... if angle is None else angle
        a[at], b[at] = b[at], a[at].copy()
        return
    if isinstance(angle, np.ndarray):  # broadcast against a half
        angle = angle.reshape((-1,) + (1,) * (tensor.ndim - 2))
    if kind == "rz":
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


def _run_matrix(run: list[tuple], qubits: tuple[int, ...], batch: int) -> np.ndarray:
    """The 2^k x 2^k matrix of a run of gates on k qubits, [b, 2^k, 2^k] with
    row and column index the bits of `qubits` in their order, the first the
    most significant: the run's own gates swept over the identity's columns.
    b is the batch where a gate holds one angle per point, else 1."""
    k = len(qubits)
    b = batch if any(isinstance(angle, np.ndarray) for _, _, angle in run) else 1
    eye = np.eye(2**k, dtype=complex).reshape((1,) + (2,) * k + (2**k,))
    cols = np.tile(eye, (b,) + (1,) * (k + 1))
    for kind, gate_qubits, angle in run:
        _apply_gate(cols, kind, [1 + qubits.index(q) for q in gate_qubits], angle)
    return cols.reshape(b, 2**k, 2**k)


def _fuse(steps: list[tuple], points: list[int]) -> list[tuple]:
    """The gates of a batch with each maximal run of consecutive gates whose
    qubits fit in _FUSE_QUBITS qubits merged into one step ("u", qubits,
    matrix), on exactly the run's qubits in the order of their axes in the
    layout of the fused point's state (_layout); a run of one gate stays as it
    is.  A matrix is built for the given points alone: one per point, in their
    order, where a gate of the run holds one angle per point, else one for
    all."""
    runs: list[tuple[tuple, list]] = []  # (the run's qubits, its steps)
    for step in steps:
        qubits, run = runs[-1] if runs else ((), [])
        union = qubits + tuple(q for q in step[1] if q not in qubits)
        if run and len(union) <= _FUSE_QUBITS:
            runs[-1] = (union, run)
            run.append(step)
        else:
            runs.append((tuple(step[1]), [step]))
    rank = {q: i for i, q in enumerate(_layout([qubits for qubits, _ in runs]))}
    fused = []
    for qubits, run in runs:
        if len(run) > 1:  # from the run's angles and masks at the points alone
            run = [(k, q, a[points] if isinstance(a, np.ndarray) else a) for k, q, a in run]
            qubits = tuple(sorted(qubits, key=rank.get))  # the order of its axes
            run = [("u", qubits, _run_matrix(run, qubits, len(points)))]
        fused += run
    return fused


def _layout(touches: list[tuple[int, ...]]) -> list[int]:
    """The qubits of a list of steps' qubit tuples, in the order the steps
    first touch them; the qubits one step touches first are ordered by the
    last step that touches them, so the ones the next steps still need sit
    next to the qubits those steps add: a compiled program's qubits come in
    the order d, d-1, ..., 0 backward and 0, 1, ..., d forward, so each of its
    runs sits on adjacent axes."""
    first: dict[int, int] = {}
    last: dict[int, int] = {}
    for i, qubits in enumerate(touches):
        for q in qubits:
            first.setdefault(q, i)
            last[q] = i
    return sorted(first, key=lambda q: (first[q], last[q]))


def _apply_u(state: np.ndarray, matrix: np.ndarray, at: int, out: np.ndarray) -> None:
    """A matrix (_run_matrix's [b, 2^k, 2^k]) on the k adjacent axes at,
    at + 1, ... of a batched state, in the matrix's bit order, written into
    out, a buffer of the state's shape: one matmul, one pass over each buffer,
    and the axes keep their qubits.  On the innermost axes it is x @ m^T over
    rows of 2^k amplitudes, one gemm per point; elsewhere it is m @ x on the
    [2^k, inner] blocks, inner the amplitudes of the axes after them: one gemm
    per point where the axes are outermost, else one per value of the axes
    before them (see _MIN_INNER)."""
    size = matrix.shape[-1]
    inner = state[0].size // (size << (at - 1))
    if inner == 1:
        shape = (len(state), -1, size)
        np.matmul(state.reshape(shape), matrix.swapaxes(1, 2), out=out.reshape(shape))
    else:
        shape = (len(state), -1, size, inner)
        np.matmul(matrix[:, None], state.reshape(shape), out=out.reshape(shape))


def _to_front(state: np.ndarray, out: np.ndarray, axes: list[int]) -> None:
    """Copy a batched state into out, a buffer of its shape, with the given
    axes first, in their order, and the others after them in theirs: one
    strided pass."""
    np.copyto(out, np.moveaxis(state, axes, range(1, 1 + len(axes))))


def _by_signs(circuit: Circuit):
    """The points of a circuit grouped by the masked x gates that act on them,
    each group with the gates of its points: every masked x made an x or
    dropped."""
    gates = circuit.gates
    masks = {i: g.angle for i, g in enumerate(gates) if g.kind == "x" and g.angle is not None}
    groups: dict[tuple, list[int]] = {}
    for point in range(circuit.batch):
        groups.setdefault(tuple(bool(m[point]) for m in masks.values()), []).append(point)
    for acts, points in groups.items():
        on, steps = dict(zip(masks, acts)), enumerate(gates)
        gates_on = [Gate(k, q, None if i in on else a) for i, (k, q, a) in steps if on.get(i, True)]
        yield gates_on, points


def _encoding(
    gates: tuple[Gate, ...] | list[Gate],
) -> tuple[int, list[tuple[int, bool, np.ndarray]]]:
    """The leading gates of a gate list that make an encoding: ry gates on
    distinct qubits r_0, r_1, ... (untouched, so each acts on a 0), then cx
    gates that chain them in that order, cx(r_0, r_1), cx(r_1, r_2), ...
    Returns how many gates that is and, for each r_k in order, the qubit,
    whether the chain reaches it, and the factors f_k = (cos, sin) of half its
    angle, shape [2, b], b the batch where the angle holds one per point, else
    1.  Each distinct angle's factors are computed once per call (the
    encodings of a program share one angle)."""
    qubits = []
    for gate in gates:
        if gate.kind != "ry" or gate.qubits[0] in qubits:
            break
        qubits.append(gate.qubits[0])
    links = 0
    for gate in gates[len(qubits) :]:
        if links + 1 >= len(qubits) or gate != Gate.cx(qubits[links], qubits[links + 1]):
            break
        links += 1
    factors: dict[int, np.ndarray] = {}
    encoding = []
    for k, gate in enumerate(gates[: len(qubits)]):
        if id(gate.angle) not in factors:
            half = np.reshape(gate.angle, (1, -1)) / 2.0
            factors[id(gate.angle)] = np.concatenate((np.cos(half), np.sin(half)))
        encoding.append((gate.qubits[0], 0 < k <= links, factors[id(gate.angle)]))
    return len(qubits) + links, encoding


def _encode(state: np.ndarray, encoding: list[tuple], lo: int, hi: int, order: list[int]) -> None:
    """Write the state an encoding (_encoding) leaves the points lo..hi-1 in
    into their zeroed batch of |0...0> states, in place, each axis after the
    batch axis holding the qubit `order` names for it.  The chain maps basis
    index b to b' with b'_k = b_0 ^ ... ^ b_k on the ry qubits, so the
    amplitude at b' is the product, in ry order, of f_k(b'_k ^ b'_(k-1)), and
    of f_k(b'_k) past the chain's end.  Qubit r_k is built on the amplitudes
    where it and every later ry qubit is 0: its 1-half is that half times
    f_k(1 ^ b'_(k-1)), then its 0-half is scaled by f_k(b'_(k-1)).  These are
    the products the gates make on a state that holds only them, so the
    amplitudes are theirs bit for bit."""
    n, axes = state.ndim - 1, [order.index(q) for q, _, _ in encoding]
    # the ry qubits' axes first, in ry order, and the batch last, where a factor broadcasts
    axes += [a for a in range(n) if a not in axes]
    real = state.real.transpose([1 + a for a in axes] + [0])
    for k, (_, linked, f) in enumerate(encoding):
        built = real[(slice(None),) * (k + 1) + (0,) * (n - k - 1)]
        zero, one = built[..., 0, :], built[..., 1, :]
        if f.shape[1] > 1:
            f = f[:, lo:hi]
        if linked:  # f runs over qubit r_(k-1)'s axis
            np.multiply(zero, f[::-1], out=one)
            zero *= f
        else:
            np.multiply(zero, f[1], out=one)
            zero *= f[0]


def _sweep(
    steps: list[tuple], n: int, lo: int, hi: int, encoding: list[tuple]
) -> tuple[np.ndarray, list[int]]:
    """The states, shape [hi - lo] + [2]*n, that an encoding (_encoding; empty
    for none) and then the gates (or fused steps) of a batch leave its points
    lo..hi-1 in, from |0...0>, after the width and memory checks, and the
    qubit each axis after the batch axis holds: qubit order where no step is
    fused, else the order the steps meet the qubits (_layout).  Each fused
    step is one matmul into a second buffer, and the two swap (_apply_u); a
    run on axes apart, or not innermost with fewer than _MIN_INNER amplitudes
    after it, is first moved to the front with the qubits still to come
    (_to_front)."""
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
    order = list(range(n))
    fused = any(kind == "u" for kind, _, _ in steps)
    if fused:  # laid out as the steps meet the qubits
        touched = _layout([qubits for _, qubits, _ in steps])
        order = touched + [q for q in order if q not in touched]
    _encode(state, encoding, lo, hi, order)
    spare = np.empty_like(state) if fused else None  # made after the encoding is built
    for i, (kind, qubits, arg) in enumerate(steps):
        axes = [1 + order.index(q) for q in qubits]
        if kind != "u":
            if isinstance(arg, np.ndarray):  # one per point: a chunk of one takes a scalar
                arg = arg[lo] if hi - lo == 1 else arg[lo:hi]
            _apply_gate(state, kind, axes, arg)
            continue
        at = axes[0]
        inner = 2 ** (n + 1 - at - len(axes))
        if axes != list(range(at, at + len(axes))) or 1 < inner < _MIN_INNER:
            later = _layout([q for _, q, _ in steps[i + 1 :]])
            front = list(qubits) + [q for q in later if q not in qubits]
            _to_front(state, spare, [1 + order.index(q) for q in front])
            order = front + [q for q in order if q not in front]
            state, spare, at = spare, state, 1
        _apply_u(state, arg, at, spare)
        state, spare = spare, state
    return state, order


def _states(circuit: Circuit):
    """lo, hi, the states of the circuit's points lo..hi-1 and the qubit each
    of their axes after the batch axis holds, for each chunk in turn.  Points
    narrower than _FUSE_AMPLITUDES run in chunks of at most _CHUNK_AMPLITUDES
    amplitudes, each built from the circuit's encoding (_encoding), then swept
    over the gates after it.  A wider point runs alone: it is built from the
    encoding of its sign group's gates (_by_signs), then swept over the steps
    that fuse the gates after it (_fuse), whose matrices are built for the
    group's points alone and read at the point's position in the group.  The
    caller drops each chunk's states before asking for the next."""
    n, batch = circuit.n_qubits, circuit.batch
    if 2**n < _FUSE_AMPLITUDES:
        chunk = _CHUNK_AMPLITUDES >> n
        count, encoding = _encoding(circuit.gates)
        for lo in range(0, batch, chunk):
            hi = min(lo + chunk, batch)
            yield (lo, hi, *_sweep(circuit.gates[count:], n, lo, hi, encoding))
        return
    for gates, points in _by_signs(circuit):
        count, encoding = _encoding(gates)
        steps = _fuse(gates[count:], points)
        for j, lo in enumerate(points):  # each point's own matrix, or the one for all
            own = [(k, q, a[j : j + 1] if k == "u" and len(a) > 1 else a) for k, q, a in steps]
            yield (lo, lo + 1, *_sweep(own, n, lo, lo + 1, encoding))


def run_statevector(circuit: Circuit) -> np.ndarray:
    """Apply all gates of a circuit of one point in order to |0...0>; returns
    the final amplitudes."""
    if circuit.batch != 1:
        raise ValueError(f"run_statevector runs a circuit of one point, not {circuit.batch}")
    ((_, _, states, order),) = _states(circuit)
    return states[0].transpose(np.argsort(order)).reshape(-1)


def expect_z_plan(circuit: Circuit) -> list[float]:
    """Exact <Z> of the measured qubit at each point of a circuit, in order,
    one reduction (_zs) per chunk.  Where the points differ only in ry
    angles, each point's state is the one run_statevector gives for that point
    alone, bit for bit: a real rotation rounds the same with one angle or many
    (a per-point rz phase may move the last bit).  Below 2^12 amplitudes each
    z is also expect_z(run_statevector(point), measured) bit for bit; above,
    the fused sweep lays the axes out in another order, and the sum over them
    may round differently (by about 1e-15).  The encoding is built
    (_encoding) and only the gates after it are fused, so a fused point's z
    may also differ, by about 1e-16, from a fusion of all its gates, the
    encoding's included."""
    zs = [0.0] * circuit.batch
    for lo, hi, states, order in _states(circuit):
        zs[lo:hi] = _zs(states, order.index(circuit.measured_qubit))
        del states  # freed before the next chunk is allocated
    return zs


def expect_z(state: np.ndarray, qubit: int) -> float:
    """<Z> of one qubit: sum of |amp|^2 signed by that qubit's bit."""
    n = int(round(np.log2(state.size)))
    return _zs(state.reshape([1] + [2] * n), qubit)[0]


def _zs(states: np.ndarray, axis: int) -> list[float]:
    """<Z> on one axis (after the batch axis) of each state of a batch
    [B] + [2]*n, as one reduction: per state, the sum of |amp|^2 over every
    other axis, 0-half minus 1-half.  Each state's sums run in the order a
    lone state's would, so a state's z does not depend on its batch.  The
    |amp|^2 scratch is bound to no name, so it is freed on return."""
    others = tuple(1 + i for i in range(states.ndim - 1) if i != axis)
    marg = (np.abs(states) ** 2).sum(axis=others)
    return (marg[:, 0] - marg[:, 1]).tolist()
