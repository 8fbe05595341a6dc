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
    draw_shots,
    eval_poly,
    expect_z,
    point_estimate,
    run_statevector,
    shot_scaling_fit,
)

poly = Polynomial((0.1, -0.2, 0.0, 0.3))
program = compile_poly(poly, "backward")
x = 0.45
truth = eval_poly(poly, x)
circuit = build_circuit(program, x)
z = expect_z(run_statevector(circuit), circuit.measured_qubit)

print(f"truth P({x}) = {truth:+.6f}, rescale C = {program.rescale:.4f}\n")
print("shots     estimate    stderr     |error|")
for shots in (64, 256, 1024, 4096, 16384):
    outcome = draw_shots(z, shots, seed=derive_seed(7, shots))
    est = point_estimate(outcome, program.rescale)
    print(
        f"{shots:>6}  {est.value:+.6f}  {est.stderr:.6f}   {abs(est.value - truth):.6f}"
    )

ladder = (2**8, 2**10, 2**12, 2**14, 2**16)
samples = []
for shots in ladder:
    errs = []
    for rep in range(40):
        outcome = draw_shots(z, shots, seed=derive_seed(11, shots, rep))
        est = point_estimate(outcome, program.rescale)
        errs.append((est.value - truth) ** 2)
    samples.append((shots, float(np.sqrt(np.mean(errs)))))

slope = shot_scaling_fit(samples)
print("\nempirical rmse per shot count:", [(n, round(r, 5)) for n, r in samples])
print(f"log-log slope = {slope:.4f} (ideal -0.5)")
