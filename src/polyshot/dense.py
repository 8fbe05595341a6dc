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

Both simulators sweep a circuit of `batch` points in chunks that
Circuit.points cuts (circuit.py states the batch contract and the chunk
rule).  Here a narrow chunk's state is a tensor of shape [2]*n + [B], its
points innermost, so each half view is a run of whole rows of points, a
per-point angle broadcasts along the last axis and a masked x swaps the
halves of its points alone; the windowed simulator has kernels of its own
(see stream.py).  Every run goes through one chunk driver, _states.  A
Table-1 degree (10 trials x 15 points of 2-7 qubits) is one chunk, so each
gate's Python dispatch is paid once per degree, not once per point, and <Z>
is one reduction per chunk.  A wide state (_FUSE_AMPLITUDES, 2^12
amplitudes, and up) runs one point at a time: its cost per gate is memory
traffic, which a batch does not cut, and a batch would multiply its peak
memory, the one allocation that limits it.

A chunk's state starts from its circuit's encoding, built, not swept
(_encoding): the leading ry and x gates on distinct qubits and the cx gates
that chain them in their order (backward order's Ry(arccos x) on q1..qd and
cx(k-1, k), 2d - 1 passes over the state when swept; forward order's sign x on
q0 and first two ry gates) leave amplitudes that are products of one factor
per encoded qubit: cos or sin for an ry, 0 or 1 for an x.  A narrow chunk
writes them into its zeroed states (_encode), multiplied in the gates' order,
so they are the sweep's bit for bit, then sweeps the gates after the encoding.

A wide point cuts its traffic by gate fusion instead.  The compiled programs
are chains of two-qubit sum blocks, 6-7 gates on one qubit pair, and each
block shares one qubit with the next, so each maximal run of consecutive gates
on at most _FUSE_QUBITS = 3 qubits becomes one matrix of up to 8x8 (_runs,
_fuse), its gates swept by _apply_gate over the basis states, so each gate's
action is written once; a backward point of degree d runs ceil(d/2) such steps
after its encoding, two sum blocks each (its last step is read for z, not run;
see below).  Its state holds only the qubits its steps have met
(_adjoining_sweep), as the windowed simulator adjoins each qubit at its first
gate.  The encoding is a product state apart from its cx chain, and the chain
is a matrix-product state of bond dimension 2 (Vidal, "Efficient classical
simulation of slightly entangled quantum computations", 2003), so each qubit
is adjoined where a step first needs it: as |0>, as its encoding factor, or,
on the chain, from the tail, where a compiled program's steps reach it first,
the open bond an innermost axis of size 2 (_sites).  A step adjoins its fresh
qubits innermost, ordered by the last step that needs them, so a compiled
program's runs, on (d, d-1, d-2), (d-2, d-3, d-4), ... backward and (2, 1, 0),
(3, 2, 1), ... forward, each meet the qubits the step before left innermost,
and adjoining and the run's matrix are one matmul from the state into a spare
buffer (_factors, _apply_u).  Only a step whose held qubits are not innermost
(a circuit that is not compiled) first copies them there (_to_back); chain
qubits adjoined on the way to the one a step needs go outermost, and the
qubits no step needs are adjoined last.  The sweep keeps the qubit each axis
holds, and run_statevector returns the amplitudes in qubit order.
expect_z_plan does not make the last state: after the last pass U, <Z> is
<psi|U^H Z U|psi>, so z is read from that pass's input rows through a K x K
form, K = 4 on a compiled program, in blocks of 2^10 rows, one BLAS dot each,
added pairwise (_read_z).  A backward point of degree 16 then writes 2 x 2^3,
2 x 2^5, ..., 2 x 2^15 amplitudes, about 0.67 of a state of 2^17, where a
sweep of the whole state would write 8, and reads the last of them once.
The spare buffer is made anew, of the new state's size, where the state
grows, and dropped before the read, so the peak is the last two states
written, 0.64 of a full state at degree 16 and 0.68 at 14; no buffer is kept
for the next point.
A masked x is per-point data here too, X or the exact identity: a factor
(1 - m, m) in the encoding, and in the runs held back to the next gate on
its qubit (_runs), so each point's runs and rounding are its trial's alone.
The run matrices, each its run's gates swept over its basis states, are
built for all of a batch's points at once, and their bytes, the encoding
factors' and one point's state and spare buffer are checked against the
free memory before the first matrix is built.
A degree-20 backward point (21 qubits) takes 6-10 ms, and a circuit of two
such points 11-17 ms (best of 7 runs, on a 2-vCPU Intel Xeon host that
drifts, with one BLAS thread).
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
# scratch (ry's copy of one half and one half-sized temporary, the spare
# buffer a fused step writes into, dropped before run_statevector's
# qubit-order copy or a wide point's z read, that copy, _zs's |amp|^2 of half
# the state's bytes and a narrow chunk's copy of it with the points first, or
# the encoding build's copy of the real amplitudes it reads)
_PEAK_BYTES_PER_AMPLITUDE = 2 * 16
# a point of at least this many amplitudes runs alone, fused (see the module docstring)
_FUSE_AMPLITUDES = 2**12
# the most bytes of state one chunk holds in either simulator (see circuit.py):
# a Table-1 degree's 150 points of 7 qubits are one dense chunk, peaking at 1 MiB
_CHUNK_BYTES = 2**19
_ROUTE = "; route this circuit to the windowed stream simulator"
# the most qubits one fused step acts on.  A step is bound by its pass over
# each buffer, not by its flops: at 17 qubits (2-vCPU host, one BLAS thread)
# a 4x4 step took 0.37 ms, an 8x8 one, which covers two sum blocks, 0.46 ms,
# and a 16x16 one, which covers three, 0.69 ms: 0.23 ms per sum block either
# way, no gain to take
_FUSE_QUBITS = 3
# the most qubits one pass adjoins (_adjoining_sweep): their factors make a
# tensor of at most 2 x 2^4 x 2 entries (_tensor), not one the state's size,
# and a state that grows by 2^4 a pass is written about 1.07 times in all
_ADJOIN_QUBITS = 4
# the factor that adjoins a qubit with no encoding gate, as |0>
_ZERO = np.array([[1.0], [0.0]])
# the ufunc buffer, in elements, of a narrow sweep's gates.  A half's inner
# run can be short (B points at the last qubit); under numpy's default of
# 8192 a gate's ufuncs then allocate buffers of 8192 elements per operand,
# up to ~13 bytes an amplitude of a Table-1 chunk past the checked peak, and
# the degree's gates ran about 18% slower than at 256 (numpy 2.4)
_UFUNC_BUFFER = 256
# the rows of a wide point's last pass that one BLAS dot of its z read takes
# (_read_z): one dot over all of them rounds about twice as far
_Z_BLOCK_ROWS = 2**10


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


def prob_one(z):
    """Probability of measuring 1 on a qubit with <Z> = z, clamped into [0, 1]
    against rounding: a float, or an array of one per z of an array."""
    return np.clip(0.5 * (1.0 - np.asarray(z)), 0.0, 1.0)


def draw_ones(zs, shots: int, seeds) -> np.ndarray:
    """The counts of 1s in `shots` measurements of a qubit whose exact <Z> is
    z, for each z and seed in turn, as an int64 array.  The shots are
    independent, so each count is one binomial draw with probability
    prob_one(z) from generator(seed), here from one Philox re-keyed per draw
    (rng.rekeyed) instead of a generator per draw."""
    if not 1 <= shots <= MAX_SHOTS:
        raise ValueError(f"shots must lie in [1, {MAX_SHOTS}], got {shots}")
    p1s = prob_one(zs).tolist()
    n1s = [gen.binomial(shots, p1) for p1, gen in zip(p1s, rekeyed(seeds), strict=True)]
    return np.array(n1s, dtype=np.int64)


def _halves(tensor: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """The views of a tensor where one axis is 0 and where it is 1 (the
    Ellipsis keeps a view, not a scalar, when the tensor has one axis)."""
    lead = (slice(None),) * axis
    return tensor[lead + (0, ...)], tensor[lead + (1, ...)]


def _apply_gate(tensor: np.ndarray, kind: str, axes: list[int], angle) -> None:
    """One gate in place on its qubits' axes of a tensor whose last axis holds
    the points, after any other trailing axes (a run matrix's columns,
    _run_matrix).  `angle` is ry's or rz's: a float, or an array of one angle
    per point, which broadcasts along that last axis; x takes none, or a mask of
    the points it acts on (an array, or one bool); cx is x on the target where
    the control is 1.  ry scales the float (re, im) view, each cos and sin
    repeated per pair: a real scale rounds as a complex one with a zero
    imaginary part does."""
    if kind == "cx":
        c, t = axes
        tensor, kind, axes = _halves(tensor, c)[1], "x", [t - (t > c)]
    if kind == "ry":
        tensor = tensor.view(float)
    a, b = _halves(tensor, axes[0])
    if kind == "x":
        at, a0 = True if angle is None else angle, a.copy()
        np.copyto(a, b, where=at)
        np.copyto(b, a0, where=at)
    elif kind == "rz":
        a *= np.exp(-0.5j * angle)
        b *= np.exp(0.5j * angle)
    else:  # ry
        c, s = np.cos(angle / 2.0), np.sin(angle / 2.0)
        if isinstance(angle, np.ndarray):
            c, s = np.repeat(c, 2), np.repeat(s, 2)
        a0 = a.copy()
        a *= c
        a -= s * b
        b *= c
        b += s * a0


def _free_memory_bytes() -> int:
    """Free physical memory, read on every run (tests substitute it), or all
    of it where the platform does not count free pages (macOS)."""
    pages = "SC_AVPHYS_PAGES" if "SC_AVPHYS_PAGES" in os.sysconf_names else "SC_PHYS_PAGES"
    return os.sysconf(pages) * os.sysconf("SC_PAGE_SIZE")


def _run_matrix(run: list[tuple], qubits: tuple[int, ...]) -> np.ndarray:
    """The 2^k x 2^k matrix of a run of gates on k qubits, [b, 2^k, 2^k] with
    row and column index the bits of `qubits` in their order, the first the
    most significant: the run's gates swept in order by _apply_gate over the
    basis states, column j the state the run leaves |j> in.  b is the batch
    where a gate holds one angle or mask per point, else 1; the points sit
    on the last axis, after the columns, so a gate's values broadcast."""
    k = len(qubits)
    b = max((len(angle) for _, _, angle in run if isinstance(angle, np.ndarray)), default=1)
    columns = np.repeat(np.eye(2**k, dtype=complex)[..., None], b, axis=2)
    tensor = columns.reshape([2] * k + [2**k, b])
    for kind, gate_qubits, angle in run:
        _apply_gate(tensor, kind, [qubits.index(q) for q in gate_qubits], angle)
    return columns.transpose(2, 0, 1)


def _runs(gates: list[Gate]) -> list[tuple[tuple, list]]:
    """The gates of a batch as runs (qubits, gates), one per maximal run of
    consecutive gates whose qubits fit in _FUSE_QUBITS qubits, on the run's
    qubits in the order its gates meet them.  Each x is held back until the
    next gate on its qubit, with which it commutes past every gate in between,
    and joins that gate's run (or, with none, ends the circuit), so no x
    decides where a run ends: a point's runs are those of its trial's gates
    alone, whatever its signs."""
    runs: list[tuple[tuple, list]] = []  # (the run's qubits, its gates)
    held: dict[int, list[Gate]] = {}  # each qubit's x gates, held back

    def place(gate: Gate) -> None:
        qubits, run = runs[-1] if runs else ((), [])
        union = qubits + tuple(q for q in gate.qubits if q not in qubits)
        if run and len(union) <= _FUSE_QUBITS:
            runs[-1] = (union, run)
        else:
            run = []
            runs.append((tuple(gate.qubits), run))
        for q in gate.qubits:
            run += held.pop(q, ())
        run.append(gate)

    for gate in gates:
        if gate.kind == "x":
            held.setdefault(gate.qubits[0], []).append(gate)
        else:
            place(gate)
    for q in list(held):  # the x gates no gate follows
        for x in held.pop(q):
            place(x)
    return runs


def _fuse(runs: list[tuple[tuple, list]]) -> list[tuple]:
    """Each run (_runs) as one step ("u", qubits, matrix), the matrix its
    gates swept over the basis states (_run_matrix): one per point where a
    gate of the run holds one angle or mask per point, else one for all."""
    return [("u", qubits, _run_matrix(run, qubits)) for qubits, run in runs]


def _apply_u(state: np.ndarray, factors: np.ndarray, out: np.ndarray) -> None:
    """Each row of K amplitudes (the innermost axes) of a state times each of
    P right factors [P, K, N], written into out as [P, rows, N]: one gemm
    per factor, one pass over each buffer.  With P = 1 and the factor m^T,
    it is a matrix m on the innermost axes."""
    rows = state.reshape(-1, factors.shape[1])
    for factor, block in zip(factors, out.reshape(len(factors), len(rows), -1)):
        np.matmul(rows, factor, out=block)


def _to_back(state: np.ndarray, out: np.ndarray, axes: list[int]) -> None:
    """Copy a state tensor into out, a buffer of its size, with the given
    axes last, in their order, and the others before them in theirs: one
    strided pass."""
    moved = np.moveaxis(state, axes, range(state.ndim - len(axes), state.ndim))
    np.copyto(out.reshape(moved.shape), moved)


def _factor(gate: Gate) -> np.ndarray:
    """The amplitudes (of 0, of 1) that an encoding gate leaves its qubit in
    from 0, shape [2, b], b the batch where the gate holds one angle or mask
    per point, else 1: ry's (cos, sin) of half its angle, x's (0, 1), or a
    masked x's (1 - m, m) per point."""
    if gate.kind == "x":
        on = np.reshape(1.0 if gate.angle is None else gate.angle, (1, -1)).astype(float)
        return np.concatenate((1.0 - on, on))
    half = np.reshape(gate.angle, (1, -1)) / 2.0
    return np.concatenate((np.cos(half), np.sin(half)))


def _encoding(
    gates: tuple[Gate, ...] | list[Gate],
) -> tuple[int, list[tuple[int, bool, np.ndarray]]]:
    """The leading gates of a gate list that make an encoding: ry or x gates
    on distinct qubits r_0, r_1, ... (untouched, so each acts on a 0), then cx
    gates that chain them in that order, cx(r_0, r_1), cx(r_1, r_2), ...
    Returns how many gates that is and, for each r_k in order, the qubit,
    whether the chain reaches it, and its factor f_k (_factor)."""
    qubits = []
    for gate in gates:
        if gate.kind not in ("ry", "x") or gate.qubits[0] in qubits:
            break
        qubits.append(gate.qubits[0])
    links = 0
    for gate in gates[len(qubits) :]:
        if links + 1 >= len(qubits) or gate != Gate.cx(qubits[links], qubits[links + 1]):
            break
        links += 1
    leading = enumerate(gates[: len(qubits)])
    encoding = [(gate.qubits[0], 0 < k <= links, _factor(gate)) for k, gate in leading]
    return len(qubits) + links, encoding


def _encode(state: np.ndarray, encoding: list[tuple]) -> None:
    """Write the state an encoding (_encoding) leaves a chunk's points in
    into their zeroed |0...0> states [2]*n + [B], in place, the qubit axes in
    qubit order and the points last, where each factor broadcasts; only the
    qubit axes are transposed.  The chain maps basis index b to b' with
    b'_k = b_0 ^ ... ^ b_k on the ry qubits, so the amplitude at b' is the
    product, in ry order, of f_k(b'_k ^ b'_(k-1)), and of f_k(b'_k) past the
    chain's end.  Qubit r_k is built on the amplitudes where it and every
    later ry qubit is 0: its 1-half is that half times f_k(1 ^ b'_(k-1)), then
    its 0-half is scaled by f_k(b'_(k-1)).  These are the products the gates
    make on a state that holds only them, so the amplitudes are theirs bit
    for bit."""
    n, axes = state.ndim - 1, [q for q, _, _ in encoding]
    # the ry qubits' axes first, in ry order; the points stay last, where a factor broadcasts
    axes += [a for a in range(n) if a not in axes]
    real = state.real.transpose(axes + [n])
    for k, (_, linked, f) in enumerate(encoding):
        built = real[(slice(None),) * (k + 1) + (0,) * (n - k - 1)]
        zero, one = built[..., 0, :], built[..., 1, :]
        if linked:  # f runs over qubit r_(k-1)'s axis
            np.multiply(zero, f[::-1], out=one)
            zero *= f
        else:
            np.multiply(zero, f[1], out=one)
            zero *= f[0]


def _sites(encoding: list[tuple], n: int, point: int) -> tuple[list, dict]:
    """How one point's encoding (_encoding) adjoins each of n qubits: the
    chain's qubits in the order they are adjoined, and for each qubit its
    factor.  A qubit off the chain carries a product factor v, [2, 1]: f_k
    for an ry qubit r_k, (1, 0) for a qubit with no encoding gate.  The
    chain r_0 -> ... -> r_L is a matrix-product state of bond 2: the open
    bond is the value of the next chain qubit to come, and a chain qubit
    carries g[b, c], [2, 2] (or [2, 1] where the bond closes), its bit b
    being the old bond.  The chain is adjoined from its tail, where a
    compiled program's steps meet it first: r_L first, r_k (k >= 1) carries
    f_k(b ^ c) and the head closes with f_0(b)."""
    factor = [f[:, point] if f.shape[1] > 1 else f[:, 0] for _, _, f in encoding]
    links = sum(linked for _, linked, _ in encoding)
    chain = [q for q, _, _ in encoding[: links + 1]] if links else []
    sites = dict.fromkeys(range(n), (False, _ZERO))
    for (q, _, _), f in zip(encoding, factor):
        if q not in chain:
            sites[q] = (False, f[:, None])
    if not chain:
        return chain, sites
    link = [np.array([[f[0], f[1]], [f[1], f[0]]]) for f in factor[1 : len(chain)]]  # f_k(b ^ c)
    chain, carried = chain[::-1], link[::-1] + [factor[0][:, None]]
    sites.update((q, (True, g)) for q, g in zip(chain, carried))
    return chain, sites


def _tensor(group: list[int], head: list[int], tail: list[int], bond: int, sites: dict):
    """The factors (_sites) that adjoin a group of qubits (a chain's in its
    order) to a state whose open bond has `bond` values, multiplied one at a
    time into T[c_old, head bits, tail bits, c_new], shape [bond, 2^h, 2^t,
    bond'], the group being its head qubits and its tail ones, each in the
    order given."""
    tensor = np.eye(bond)  # [c_old, c]: the bond as it is
    for q in group:
        chained, g = sites[q]
        tensor = tensor[..., :, None] * g if chained else tensor[..., None, :] * g
    axes = [0] + [1 + group.index(q) for q in head + tail] + [tensor.ndim - 1]
    return tensor.transpose(axes).reshape(bond, 2 ** len(head), 2 ** len(tail), -1)


def _factors(tensor: np.ndarray, held: int, matrix: np.ndarray | None) -> np.ndarray:
    """The right factors [P, K, N] of a step that adjoins qubits by a tensor
    (_tensor) and then applies a matrix (or none) on its `held` innermost
    held qubits and the adjoined ones after them: a row of K = 2^held x bond
    amplitudes, the held bits then the bond, becomes for each value of the
    head bits N = 2^k x bond' amplitudes, the step's bits then the new bond."""
    bond, heads, fresh, new_bond = tensor.shape
    m = np.eye(fresh) if matrix is None else matrix[0]
    m = m.reshape(len(m), 2**held, fresh)
    factors = np.einsum("oht,cptn->phcon", m, tensor)
    return factors.reshape(heads, 2**held * bond, len(m) * new_bond)


def _fresh(needed, order: list[int], chain: list[int]) -> list[int]:
    """The qubits to adjoin to a state that holds `order` so it holds
    `needed`: the chain's (in the order it is adjoined) up to the farthest
    one needed, then the others needed, in their order."""
    held = set(order)
    fresh = [q for q in needed if q not in held]
    reach = [chain.index(q) for q in fresh if q in chain]
    if not reach:
        return fresh
    return [q for q in chain[: max(reach) + 1] if q not in held] + [
        q for q in fresh if q not in chain
    ]


def _in_order(matrix: np.ndarray, qubits, axes: list[int]) -> np.ndarray:
    """A run matrix on `qubits` (_run_matrix) with its bits in the order of
    the qubits its axes hold."""
    k, b = len(qubits), len(matrix)
    perm = [qubits.index(q) for q in axes]
    if perm == list(range(k)):
        return matrix
    matrix = matrix.reshape((b,) + (2,) * 2 * k)
    matrix = matrix.transpose([0] + [1 + p for p in perm] + [1 + k + p for p in perm])
    return matrix.reshape(b, 2**k, 2**k)


def _read_z(state: np.ndarray, factors: np.ndarray, at: int, n: int) -> float:
    """<Z> on bit `at` (the first the most significant) of the n-qubit state
    [P, rows, N] that _apply_u(state, factors) would write, read from the
    state's rows instead: sum_r s(r) row_r G row_r^H, G = sum_p s(p) F_p S F_p^H,
    the sign (+1 on 0, -1 on 1) on the index that holds the bit (S on the
    outputs).  Blocks of about _Z_BLOCK_ROWS rows of one sign are one BLAS dot
    each, their sums added pairwise; none is the state's size."""
    heads, k, outs = factors.shape
    h, o = heads.bit_length() - 1, outs.bit_length() - 1
    rows, halves, sign = state.reshape(1, 1, -1, k), (1.0,), 1.0  # [outer, bit, inner, K]
    if h <= at < n - o:  # on the rows
        rows, halves = state.reshape(-1, 2, 2 ** (n - o - 1 - at), k), (1.0, -1.0)
    else:  # on f's columns, (p, j)
        shift = n - 1 - at if at >= n - o else h + o - 1 - at
        sign = 1.0 - 2.0 * ((np.arange(heads * outs) >> shift) & 1)
    f = factors.transpose(1, 0, 2).reshape(k, -1)
    g = (f * sign) @ f.conj().T
    # the real form of g on a row read as (re, im) pairs: x form x^T = row g row^H
    form = np.empty((k, 2, k, 2))
    form[:, 0, :, 0] = form[:, 1, :, 1] = g.real
    form[:, 0, :, 1], form[:, 1, :, 0] = g.imag, -g.imag
    form = form.reshape(2 * k, 2 * k)
    outer, inner = rows.shape[0], rows.shape[2]
    a_step, c_step = max(1, _Z_BLOCK_ROWS // inner), min(inner, _Z_BLOCK_ROWS)
    sums = [
        s * np.vdot(block, block @ form)
        for a in range(0, outer, a_step)
        for c in range(0, inner, c_step)
        for half, s in enumerate(halves)
        for block in [rows[a : a + a_step, half, c : c + c_step].reshape(-1, k).view(float)]
    ]
    return float(np.sum(sums))


def _adjoining_sweep(
    steps: list[tuple], n: int, point: int, encoding: list[tuple], measured: int | None = None
):
    """The state, [1] + [2]*n, that one point's encoding (_encoding) and
    fused steps leave it in, and the qubit each of its axes after the first
    holds.  The state holds only the qubits the steps have met, and, while
    the encoding's chain is open, its bond as the innermost axis.  A step
    adjoins its fresh qubits innermost, before the bond, ordered by the last
    step that touches them, so the qubits the next step shares are the
    innermost; chain qubits adjoined on the way to one the step needs go
    outermost.  Adjoining and the step's matrix are one matmul (_factors,
    _apply_u) from the state into a spare buffer, and the two swap; where a
    step's held qubits are not innermost, they are first moved there
    (_to_back).  The qubits no step touches are adjoined last, at most
    _ADJOIN_QUBITS a pass.  The spare buffer is made anew, of the new state's
    size, where the state grows, the old one dropped first.  With `measured`,
    returns instead [<Z>] of that qubit, read from the input of the last pass
    (_read_z), which is not run: the rest pass if it adjoins a qubit, else
    the last step's last group."""
    last: dict[int, int] = {}  # in the order the steps first meet the qubits
    for i, (_, qubits, _) in enumerate(steps):
        last.update((q, i) for q in qubits)
    chain, sites = _sites(encoding, n, point)
    state, spare, bond, order = np.ones(1, dtype=complex), np.empty(0, dtype=complex), 1, []

    def out(size: int) -> np.ndarray:
        nonlocal spare
        if spare.size != size:
            spare = None  # dropped before the larger one is made
            spare = np.empty(size, dtype=complex)
        return spare

    # each step's matrix for the point: its own, or the one for all
    own = [(q, m[point : point + 1] if len(m) > 1 else m) for _, q, m in steps]
    for j, (qubits, matrix) in enumerate([*own, (range(n), None)]):  # then the rest
        needed = sorted(qubits, key=lambda q: last.get(q, len(steps)))
        fresh = _fresh(needed, order, chain)
        held = [q for q in needed if q not in fresh]
        if set(order[len(order) - len(held) :]) != set(held):  # innermost, before the bond
            axes = [order.index(q) for q in held] + [len(order)]
            _to_back(state.reshape([2] * len(order) + [bond]), out(state.size), axes)
            state, spare, order = spare, state, [q for q in order if q not in held] + held
        groups = [fresh[i : i + _ADJOIN_QUBITS] for i in range(0, len(fresh), _ADJOIN_QUBITS)]
        for i, group in enumerate(groups or [[]]):  # the last with the step's matrix
            step = matrix if i == max(len(groups) - 1, 0) else None
            if step is None and not group:
                continue
            head = [q for q in group if q not in qubits]
            tail = [q for q in needed if q in group]
            tensor = _tensor(group, head, tail, bond, sites)
            order = head + order + tail
            if step is not None:
                step = _in_order(step, qubits, order[-len(qubits) :])
            factors = _factors(tensor, 0 if step is None else len(qubits) - len(tail), step)
            if measured is not None and j >= len(own) - 1 and len(order) == n:  # the last pass
                spare = None
                return [_read_z(state, factors, order.index(measured), n)]
            size = len(factors) * state.size // factors.shape[1] * factors.shape[2]
            _apply_u(state, factors, out(size))
            state, spare, bond = spare, state, tensor.shape[-1]
    return state.reshape([1] + [2] * n), order


def _check_memory(need: int, what: str, advice: str = _ROUTE) -> None:
    """Raise CapacityError, before anything is allocated, where `what` (its
    subject and verb) needs more bytes than are free."""
    free = _free_memory_bytes()
    if need > free:
        raise CapacityError(f"{what} about {need} bytes, but only {free} bytes are free{advice}")


def _sweep(circuit: Circuit, measured: int | None = None):
    """The states [B] + [2]*n of a narrow chunk's B points, after the memory
    check, and the qubit each axis after the batch axis holds, or with
    `measured` each point's <Z> of that qubit (_zs): allocated [2]*n + [B],
    points innermost, the encoding (_encoding) built into |0...0> (_encode)
    and the gates after it swept (_apply_gate) with a small ufunc buffer."""
    n, batch = circuit.n_qubits, circuit.batch
    _check_memory(_PEAK_BYTES_PER_AMPLITUDE * batch * 2**n, f"{batch} state(s) of {n} qubits need")
    count, encoding = _encoding(circuit.gates)
    state = np.zeros([2] * n + [batch], dtype=complex)
    state[(0,) * n] = 1.0
    size = np.setbufsize(_UFUNC_BUFFER)
    try:
        _encode(state, encoding)
        for kind, qubits, arg in circuit.gates[count:]:
            _apply_gate(state, kind, qubits, arg)
    finally:
        np.setbufsize(size)
    states = np.moveaxis(state, -1, 0)
    return (states, list(range(n))) if measured is None else _zs(states, measured)


def _states(circuit: Circuit, z: bool = False):
    """lo, hi, the states of the circuit's points lo..hi-1 and the qubit each
    of their axes after the batch axis holds, or with `z` the points' <Z> of
    the measured qubit, for each chunk in turn: narrow chunks Circuit.points
    swept (_sweep), or each wide point alone (_adjoining_sweep), the batch's
    encoding and fused runs (_fuse) built once.  A circuit past the qubit cap
    raises first, and a wide one whose run matrices, encoding factors and
    one point's state exceed the free memory raises before a matrix is
    built.  The caller drops each chunk's states before asking for the next."""
    n, batch = circuit.n_qubits, circuit.batch
    if n > DEFAULT_QUBIT_CAP:
        raise CapacityError(f"{n} qubits exceeds the dense cap of {DEFAULT_QUBIT_CAP}{_ROUTE}")
    measured = circuit.measured_qubit if z else None
    if 2**n < _FUSE_AMPLITUDES:
        chunk = max(1, _CHUNK_BYTES // (16 * 2**n))
        for lo in range(0, batch, chunk):
            hi = min(lo + chunk, batch)
            swept = _sweep(circuit.points(lo, hi), measured)
            yield swept if z else (lo, hi, *swept)
        return
    count, encoding = _encoding(circuit.gates)
    runs = _runs(circuit.gates[count:])
    per_point = [any(isinstance(g.angle, np.ndarray) for g in run) for _, run in runs]
    need = sum(16 * 4 ** len(q) * (batch if p else 1) for (q, _), p in zip(runs, per_point))
    need += sum(f.nbytes for _, _, f in encoding) + _PEAK_BYTES_PER_AMPLITUDE * 2**n
    what = f"{batch} point(s) of {n} qubits: their run matrices, encoding and one state need"
    _check_memory(need, what)
    steps = _fuse(runs)
    for point in range(batch):
        swept = _adjoining_sweep(steps, n, point, encoding, measured)
        yield swept if z else (point, point + 1, *swept)


def run_statevector(circuit: Circuit) -> np.ndarray:
    """Apply all gates of a circuit of one point in order to |0...0>; returns
    the final amplitudes."""
    if circuit.batch != 1:
        raise ValueError(f"run_statevector runs a circuit of one point, not {circuit.batch}")
    ((_, _, states, order),) = _states(circuit)
    return states[0].transpose(np.argsort(order)).reshape(-1)


def expect_z_plan(circuit: Circuit) -> list[float]:
    """Exact <Z> of the measured qubit at each point of a circuit, in order.
    Below 2^12 amplitudes each chunk is one reduction (_zs), and where the
    points differ only in ry angles each point's z is expect_z(
    run_statevector(point), measured) bit for bit: a real rotation rounds the
    same with one angle or many (a per-point rz phase may move the last bit).
    From 2^12 amplitudes a point's z is read from the input of its last pass
    through that pass's K x K form (_read_z), and the state run_statevector
    gives is never made, so z may differ from expect_z of that state, and
    from a sweep of all its gates, by about 1e-15."""
    return [z for zs in _states(circuit, z=True) for z in zs]


def expect_z(state: np.ndarray, qubit: int) -> float:
    """<Z> of one qubit: sum of |amp|^2 signed by that qubit's bit."""
    n = max(state.size.bit_length() - 1, 0)
    if state.size != 2**n:
        raise ValueError(f"a state of {state.size} amplitudes is not one of 2^n")
    if not 0 <= qubit < n:
        raise ValueError(f"qubit {qubit} outside a state of {n} qubits")
    return _zs(state.reshape([1] + [2] * n), qubit)[0]


def _zs(states: np.ndarray, axis: int) -> list[float]:
    """<Z> on one axis (after the batch axis) of each state of a batch
    [B] + [2]*n, in any memory layout: per state, the sum of |amp|^2 over
    every other axis, 0-half minus 1-half.  A narrow batch is one reduction
    of |amp|^2 (8 bytes an amplitude) copied with the points first, if they
    are not (a narrow sweep holds them innermost), so each state's sums run
    in the order a lone state's would and a state's z does not depend on its
    batch.  A wide state (2^12 amplitudes and up) is read into one |amp|^2
    scratch of half its bytes, each run of it along the axes after `axis` is
    summed, then each half's runs as one 1-D pairwise sum: a reduction over
    the axes before `axis` adds its rows one by one, and its rounding grows
    with their number.  The scratch is freed on return."""
    probs = np.abs(states)
    np.square(probs, out=probs)
    if states[0].size < _FUSE_AMPLITUDES:
        others = tuple(1 + i for i in range(states.ndim - 1) if i != axis)
        marg = np.ascontiguousarray(probs).sum(axis=others)
        return (marg[:, 0] - marg[:, 1]).tolist()
    inner = 2 ** (states.ndim - 2 - axis)
    runs = probs.reshape(len(states), -1, 2, inner)
    runs = runs.sum(axis=3) if inner > 1 else runs[..., 0]
    return [float(run[:, 0].sum() - run[:, 1].sum()) for run in runs]
