"""Flat gate-level circuit representation shared by the compiler and simulators.

The gate set is deliberately tiny: RY, RZ, X and CX, plus a designated
measured qubit on the circuit.  Emission to OpenQASM 3.0 is byte-stable:
identical circuits of one point serialize to identical text.

A Circuit is also the one batch input of both simulators: `batch` points of
one gate skeleton (compile.plan_programs makes one of a degree's trials x
points).  Circuit.__post_init__ is the one check, so an invalid Circuit
cannot be made: it raises CircuitError, naming the gate index where there is
one, unless batch >= 1, 0 <= measured_qubit < n_qubits, and each entry is a
Gate (not a tuple) of GATE_KINDS on int qubits in range (a cx on two distinct
ones) holding: for ry and rz, a finite int or float (not a bool) or a numeric
array of `batch` finite angles, one per point; for x, None, one bool (Python
or numpy) or a bool mask of the `batch` points it acts on; for cx, None.  A
list of angles, a bool angle, an x holding a number and a cx holding a value
are refused, though the kernels would run them.

Both simulators run a batch in chunks Circuit.points(lo, hi) of at most
dense._CHUNK_BYTES (2^19) bytes of state and at least one point: 2^15 >> n
dense points of n qubits at 16 bytes an amplitude (a point of 2^12
amplitudes and up runs alone, see dense.py), and 2^16 // 4^w points at 8
bytes a window entry, w the peak window.  Every kernel computes each point
alone, so the chunks move no bit of any z.
"""
from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

GATE_KINDS = ("ry", "rz", "x", "cx")


class Gate(NamedTuple):
    kind: str
    qubits: tuple[int, ...]
    angle: float | np.ndarray | None = None

    @staticmethod
    def ry(q: int, angle: float) -> "Gate":
        return Gate("ry", (q,), float(angle))

    @staticmethod
    def rz(q: int, angle: float) -> "Gate":
        return Gate("rz", (q,), float(angle))

    @staticmethod
    def x(q: int) -> "Gate":
        return Gate("x", (q,))

    @staticmethod
    def cx(control: int, target: int) -> "Gate":
        return Gate("cx", (control, target))


class CircuitError(ValueError):
    pass


@dataclass(frozen=True)
class Circuit:
    n_qubits: int
    gates: tuple[Gate, ...]
    measured_qubit: int
    batch: int = 1  # the points it runs, each gate's angle or mask holding one per point

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        n, m, batch = self.n_qubits, self.measured_qubit, self.batch
        if not (isinstance(batch, int) and batch >= 1):
            raise CircuitError(f"a circuit of {batch!r} points, not one or more")
        if not (isinstance(n, int) and n >= 1):
            raise CircuitError("circuit must have at least one qubit")
        if not (isinstance(m, int) and 0 <= m < n):
            raise CircuitError(f"measured qubit {m} out of range for {n} qubits")
        arrays = {}  # the per-point values by id, for one finiteness check
        for i, g in enumerate(self.gates):
            if type(g) is not Gate:  # refused, not rebuilt: plan and points rely on gate identity
                raise CircuitError(f"entry at index {i} is a {type(g).__name__}, not a Gate")
            kind, qubits, v = g
            if kind not in GATE_KINDS:
                raise CircuitError(f"unknown gate kind {kind!r} at index {i}")
            want = 2 if kind == "cx" else 1
            if len(qubits) != want:
                raise CircuitError(f"{kind} at index {i} has {len(qubits)} qubits, expected {want}")
            for q in qubits:
                if not (type(q) is int and 0 <= q < n):
                    raise CircuitError(f"gate on qubit {q} out of range at index {i}")
            if kind == "cx" and qubits[0] == qubits[1]:
                raise CircuitError(f"identical control/target at index {i}")
            if isinstance(v, np.ndarray) and kind != "cx":
                if v.shape != (batch,) or v.dtype.kind not in ("b" if kind == "x" else "iuf"):
                    need = f"{batch} bools" if kind == "x" else f"{batch} values"
                    raise CircuitError(f"{kind} at index {i} holds {v.shape} {v.dtype}, not {need}")
                arrays[id(v)] = v
            elif kind == "x" or kind == "cx":
                if not (v is None or kind == "x" and isinstance(v, (bool, np.bool_))):
                    raise CircuitError(f"{kind} must not carry an angle (index {i})")
            elif v is None:
                raise CircuitError(f"{kind} missing angle at index {i}")
            elif isinstance(v, bool) or not isinstance(v, (int, float)):
                raise CircuitError(f"{kind} at index {i} holds {type(v).__name__}, not an angle")
            elif not abs(v) <= sys.float_info.max:  # NaN, an infinity, or an int past every float
                raise CircuitError(f"{kind} has non-finite angle at index {i}")
        if arrays and not np.isfinite(np.concatenate(list(arrays.values()))).all():
            i, kind = next((i, g.kind) for i, g in enumerate(self.gates)
                           if id(g.angle) in arrays and not np.isfinite(g.angle).all())
            raise CircuitError(f"{kind} has non-finite angle at index {i}")

    def points(self, lo: int, hi: int) -> "Circuit":
        """The circuit of points lo..hi-1, every per-point angle and mask
        sliced to them and every other gate the same object; the circuit
        itself for all its points."""
        if not 0 <= lo < hi <= self.batch:
            raise ValueError(f"points {lo}..{hi - 1} outside a batch of {self.batch}")
        if hi - lo == self.batch:
            return self
        cut = [g._replace(angle=g.angle[lo:hi]) if isinstance(g.angle, np.ndarray) else g
               for g in self.gates]
        return Circuit(self.n_qubits, cut, self.measured_qubit, hi - lo)

    @property
    def two_qubit_count(self) -> int:
        return sum(1 for g in self.gates if g.kind == "cx")

    @property
    def one_qubit_count(self) -> int:
        return sum(1 for g in self.gates if g.kind != "cx")


def depths(circuit: Circuit) -> tuple[int, int]:
    """The depth, the longest chain in the dependency DAG (gates conflict iff
    they share a qubit), and the two-qubit depth, the same counting the cx
    gates alone, from one walk of the gates, at the first point: an x whose
    mask skips it is no gate there."""
    level = [0] * circuit.n_qubits  # the layer each qubit's last gate ends
    two = [0] * circuit.n_qubits  # the same, counting the two-qubit gates alone
    for g in circuit.gates:
        if len(g.qubits) == 1:
            if g.kind != "x" or g.angle is None or np.ravel(g.angle)[0]:
                level[g.qubits[0]] += 1
        else:
            a, b = g.qubits
            level[a] = level[b] = max(level[a], level[b]) + 1
            two[a] = two[b] = max(two[a], two[b]) + 1
    return max(level, default=0), max(two, default=0)


def plan(circuits: list[Circuit]) -> Circuit:
    """Circuits of one point that share one gate skeleton (width, measured
    qubit, and each gate's kind and qubits) stacked into one circuit of
    len(circuits) points; raises ValueError for an empty batch or one of
    several skeletons.  A gate every point holds alike stays as it is, found
    by identity first; a gate whose angle differs holds an array of one angle
    per point."""
    if not circuits:
        raise ValueError("a batch needs at least one circuit")
    first = circuits[0]
    skeleton = {(first.n_qubits, first.measured_qubit, len(first.gates), 1)}
    if {(c.n_qubits, c.measured_qubit, len(c.gates), c.batch) for c in circuits} != skeleton:
        raise ValueError("a batch runs circuits of one point and one gate skeleton")
    steps = []
    for gates in zip(*(c.gates for c in circuits)):
        g = gates[0]
        if gates.count(g) == len(gates):  # tuple.count tries identity first
            steps.append(g)
            continue
        if any(h.kind != g.kind or h.qubits != g.qubits for h in gates):
            raise ValueError("a batch runs circuits of one point and one gate skeleton")
        steps.append(g._replace(angle=np.array([h.angle for h in gates])))
    return Circuit(first.n_qubits, steps, first.measured_qubit, len(circuits))


def _fmt_angle(a) -> str:
    """An angle, or the one angle of a one-point circuit's array, in 17 digits."""
    return format(float(np.ravel(a)[0]), ".17g")


def to_qasm(circuit: Circuit) -> str:
    """Emit OpenQASM 3.0 text for a circuit of one point.

    Refuses a circuit of several points and a masked x, which QASM cannot
    hold; output is deterministic down to the byte.
    """
    if circuit.batch != 1 or any(g.kind == "x" and g.angle is not None for g in circuit.gates):
        raise CircuitError(f"cannot emit a circuit of {circuit.batch} points, or with a masked x")
    lines = [
        "OPENQASM 3.0;",
        'include "stdgates.inc";',
        f"qubit[{circuit.n_qubits}] q;",
        "bit c;",
    ]
    for g in circuit.gates:
        if g.kind in ("ry", "rz"):
            lines.append(f"{g.kind}({_fmt_angle(g.angle)}) q[{g.qubits[0]}];")
        elif g.kind == "x":
            lines.append(f"x q[{g.qubits[0]}];")
        else:
            lines.append(f"cx q[{g.qubits[0]}], q[{g.qubits[1]}];")
    lines.append(f"c = measure q[{circuit.measured_qubit}];")
    return "\n".join(lines) + "\n"


_NUM = r"-?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_QASM_RE = {
    "rot": re.compile(rf"^(ry|rz)\(({_NUM})\) q\[(\d+)\];$"),
    "x": re.compile(r"^x q\[(\d+)\];$"),
    "cx": re.compile(r"^cx q\[(\d+)\], q\[(\d+)\];$"),
    "measure": re.compile(r"^c = measure q\[(\d+)\];$"),
    "qreg": re.compile(r"^qubit\[(\d+)\] q;$"),
}


def validate_qasm(text: str) -> list[str]:
    """Grammar-level check of emitted QASM against the subset this library
    writes: the header, then each statement parsed into a Gate, and the
    CircuitError, if any, of the Circuit they make."""
    res = _QASM_RE
    problems: list[str] = []
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines = lines[:-1]
    else:
        problems.append("file must end with a single newline")
    if len(lines) < 5:
        problems.append("too few lines for a valid program")
        return problems
    if lines[0] != "OPENQASM 3.0;":
        problems.append(f"bad header: {lines[0]!r}")
    if lines[1] != 'include "stdgates.inc";':
        problems.append(f"bad include: {lines[1]!r}")
    m = res["qreg"].match(lines[2])
    if not m:
        problems.append(f"bad qubit declaration: {lines[2]!r}")
        return problems
    if lines[3] != "bit c;":
        problems.append(f"bad bit declaration: {lines[3]!r}")
    mm = res["measure"].match(lines[-1])
    if not mm:
        problems.append(f"last statement must be a measure, got {lines[-1]!r}")
    gates = []
    for ln, line in enumerate(lines[4:-1], start=5):
        rot, x, cx = (res[kind].match(line) for kind in ("rot", "x", "cx"))
        if rot:
            gates.append(Gate(rot.group(1), (int(rot.group(3)),), float(rot.group(2))))
        elif x:
            gates.append(Gate.x(int(x.group(1))))
        elif cx:
            gates.append(Gate.cx(int(cx.group(1)), int(cx.group(2))))
        else:
            problems.append(f"line {ln}: unrecognized statement {line!r}")
    try:
        Circuit(int(m.group(1)), gates, int(mm.group(1)) if mm else 0)
    except CircuitError as e:
        problems.append(str(e))
    return problems
