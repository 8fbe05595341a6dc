"""Finite-shot sampling: the only error source, shrinking as 1/sqrt(N).

Sampling the output qubit N times gives the estimator C*(n0 - n1)/N with a
binomial error bar.  Repeating over a geometric ladder of shot counts and
fitting log(rmse) against log(N) recovers the -1/2 power law.
"""
import numpy as np

from polyshot import (
    Polynomial,
    build_circuit,
    compile_poly,
    derive_seed,
    draw_ones,
    eval_poly,
    expect_z,
    point_estimates,
    run_statevector,
    shot_scaling_fit,
)
from polyshot.rng import derive_seeds

poly = Polynomial((0.1, -0.2, 0.0, 0.3))
program = compile_poly(poly, "backward")
x = 0.45
truth = eval_poly(poly, x)
circuit = build_circuit(program, x)
z = expect_z(run_statevector(circuit), circuit.measured_qubit)

print(f"truth P({x}) = {truth:+.6f}, rescale C = {program.rescale:.4f}\n")
print("shots     estimate    stderr     |error|")
for shots in (64, 256, 1024, 4096, 16384):
    n1 = draw_ones([z], shots, [derive_seed(7, shots)])
    (value,), (stderr,) = point_estimates(n1, shots, program.rescale)
    print(f"{shots:>6}  {value:+.6f}  {stderr:.6f}   {abs(value - truth):.6f}")

ladder = (2**8, 2**10, 2**12, 2**14, 2**16)
samples = []
for shots in ladder:
    # 40 repetitions: one draw per seed, each derive_seed(11, shots, rep)
    n1 = draw_ones([z] * 40, shots, derive_seeds(11, shots, range(40)))
    values, _ = point_estimates(n1, shots, program.rescale)
    samples.append((shots, float(np.sqrt(np.mean((values - truth) ** 2)))))

slope = shot_scaling_fit(samples)
print("\nempirical rmse per shot count:", [(n, round(r, 5)) for n, r in samples])
print(f"log-log slope = {slope:.4f} (ideal -0.5)")
