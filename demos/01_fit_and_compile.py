"""Fit a polynomial to a target function, then compile it to circuit parameters.

The pipeline has three classical steps before anything touches a simulator:

1. fit coefficients to samples by least squares,
2. normalize them so their absolute values sum to one (the downstream
   weighted-sum recursion needs exactly this),
3. turn the normalized coefficients into convex weights and rotation angles.
"""
import math

import numpy as np

from polyshot import compute_weights, fit, normalize, sup_norm

samples = [(x, math.sin(math.pi * x)) for x in np.linspace(-1, 1, 101)]
result = fit(samples, degree=7)
print(f"degree-7 fit of sin(pi x): MSE = {result.mse:.3e}")
print("coefficients:", np.round(result.poly.coeffs, 6))

npoly = normalize(result.poly)
print(f"\nl1 rescale constant C = {npoly.scale:.6f}")
print(f"sup norm over [-1,1]  = {sup_norm(result.poly):.6f} (always <= C)")
print("normalized coefficients sum of |.|:", sum(abs(t) for t in npoly.tilde_coeffs))

for order in ("backward", "forward"):
    sched = compute_weights(npoly, order)
    print(f"\n{order} schedule (seed index {sched.seed_index}):")
    for k, (w, a, s, skip) in enumerate(
        zip(sched.weights, sched.angles, sched.signs, sched.skip_flags)
    ):
        tag = "seed" if k == sched.seed_index else ("skip" if skip else "")
        print(f"  k={k}: weight {w:.4f}  angle {a:.4f} rad  sign {s:+d}  {tag}")
