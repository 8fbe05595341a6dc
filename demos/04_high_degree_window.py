"""Degree 35 on 36 qubits without a 2^36 statevector.

Forward aggregation retires each qubit shortly after its last gate, so a
windowed density-matrix sweep touches at most three live qubits at a time.
That makes exact evaluation of a 36-qubit program essentially free, while
the dense simulator would need half a terabyte of amplitudes.
"""
import time

import numpy as np

from polyshot import (
    Polynomial,
    build_circuit,
    compile_poly,
    draw_ones,
    eval_poly,
    liveness,
    run_window,
)

rng = np.random.default_rng(35)
poly = Polynomial(tuple(rng.uniform(-1, 1, 36)))
program = compile_poly(poly, "forward")

x = 0.3
circuit = build_circuit(program, x)
sched = liveness(circuit)
print(f"degree 35 program: {circuit.n_qubits} qubits, {len(circuit.gates)} gates")
print(f"peak simulation window: {sched.peak_window} qubits")

t0 = time.perf_counter()
z = run_window(circuit)
elapsed = time.perf_counter() - t0
print(f"\nexact C*<Z> = {program.rescale * z:+.10f}   ({elapsed * 1000:.1f} ms)")
print(f"Horner truth = {eval_poly(poly, x):+.10f}")
print(f"difference   = {abs(program.rescale * z - eval_poly(poly, x)):.2e}")

(n1,) = draw_ones([z], 1024, [123]).tolist()
estimate = program.rescale * (1024 - 2 * n1) / 1024
print(f"\n1024-shot estimate = {estimate:+.6f} "
      f"(shot noise ~ {program.rescale / 32:.4f})")

print("\nwindow growth by degree (forward order):")
for d in (5, 10, 20, 35):
    p = Polynomial(tuple(rng.uniform(-1, 1, d + 1)))
    c = build_circuit(compile_poly(p, "forward"), 0.1)
    print(f"  degree {d:>2}: {c.n_qubits:>2} qubits, window {liveness(c).peak_window}")
