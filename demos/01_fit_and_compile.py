"""Fit a polynomial to a target function, then compile it to circuit parameters.

The pipeline has three classical steps before anything touches a simulator:

1. fit coefficients to samples by least squares,
2. normalize them so their absolute values sum to one (the downstream
   weighted-sum recursion needs exactly this),
3. turn the normalized coefficients into convex weights and rotation angles.
"""
import math

import numpy as np

from polyshot import compile_poly, fit, normalize_rows, sup_norms

samples = [(x, math.sin(math.pi * x)) for x in np.linspace(-1, 1, 101)]
result = fit(samples, degree=7)
print(f"degree-7 fit of sin(pi x): MSE = {result.mse:.3e}")
print("coefficients:", np.round(result.poly.coeffs, 6))

(tilde,), (scale,) = normalize_rows([result.poly.coeffs])
print(f"\nl1 rescale constant C = {scale:.6f}")
print(f"sup norm over [-1,1]  = {sup_norms([result.poly.coeffs])[0]:.6f} (always <= C)")
print("normalized coefficients sum of |.|:", sum(abs(t) for t in tilde.tolist()))

for order in ("backward", "forward"):
    sched = compile_poly(result.poly, order).schedule
    print(f"\n{order} schedule (seed index {sched.seed_index}):")
    for k, (w, a, s, skip) in enumerate(
        zip(sched.weights, sched.angles, sched.signs, sched.skip_flags)
    ):
        tag = "seed" if k == sched.seed_index else ("skip" if skip else "")
        print(f"  k={k}: weight {w:.4f}  angle {a:.4f} rad  sign {s:+d}  {tag}")
