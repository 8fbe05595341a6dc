"""Counts of 1s to rescaled estimates; run-quality metrics."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

PASS_THRESHOLD = 0.03


@dataclass(frozen=True)
class Metrics:
    rmse: float
    pearson: float | None  # None when truth variance is degenerate
    pass_rate: float


def point_estimates(n1, shots: int, rescale) -> tuple[np.ndarray, np.ndarray]:
    """The estimates of C <Z> from the counts n1 of 1s (an int64 array) in
    `shots` shots each, C the rescale (a float, or one per count), as float
    arrays: value = C (n0 - n1) / N and stderr = 2 |C| sqrt(p (1 - p) / N),
    with n0 = N - n1 and p = n1 / N.  Each is the formula in Python ints and
    floats, bit for bit: n0 - n1 is exact in int64, and each int meets a float
    as Python converts it, rounded to the nearest.  p is one float division
    where both are exact in a float (up to 2^53 shots); past that Python
    divides the ints exactly, so p is theirs."""
    if shots < 1:
        raise ValueError("empty shot outcome")
    p = n1 / shots if shots <= 2**53 else np.array([k / shots for k in n1.tolist()])
    value = rescale * (shots - n1 - n1) / shots
    stderr = 2.0 * np.abs(rescale) * np.sqrt(p * (1.0 - p) / shots)
    return value, stderr


def run_metrics(truths, estimates) -> Metrics:
    """RMSE, Pearson correlation and pass rate (|estimate - truth| under
    PASS_THRESHOLD) of estimates against their truths, in order."""
    if len(truths) < 2 or len(estimates) != len(truths):
        raise ValueError("need at least two estimates, one per truth")
    truth = np.asarray(truths, dtype=float)
    est = np.asarray(estimates, dtype=float)
    resid = est - truth
    rmse = float(np.sqrt(np.mean(resid**2)))
    pass_rate = float(np.mean(np.abs(resid) < PASS_THRESHOLD))
    if np.all(truth == truth[0]) or np.all(est == est[0]):
        pearson = None  # degenerate variance: correlation undefined
    else:
        pearson = float(np.corrcoef(truth, est)[0, 1])
    return Metrics(rmse, pearson, pass_rate)


def predicted_pearson(truth, var, shots: float) -> float:
    """Pearson of estimate against truth when shot noise is the only error,
    sqrt(s^2 / (s^2 + mean(var) / N)): s^2 is the variance of the truths, var
    the per-shot variance of each estimate (C^2 (1 - z^2) for one binomial
    draw) and N the shots.  The truths must vary."""
    s2 = float(np.var(truth))
    return math.sqrt(s2 / (s2 + float(np.mean(var)) / shots))


def shots_for_pearson(truth, var, target: float) -> float:
    """Shots at which predicted_pearson reaches target, 0 < target < 1."""
    return float(np.mean(var)) / (float(np.var(truth)) * (target**-2 - 1.0))


def shot_scaling_fit(samples: list[tuple[int, float]]) -> float:
    """Least-squares slope of log(rmse) against log(shots)."""
    if len({n for n, _ in samples}) < 4:
        raise ValueError("need at least four distinct shot counts")
    ns = np.asarray([s[0] for s in samples], dtype=float)
    if ns.max() / ns.min() < 100.0:
        raise ValueError("shot counts must span at least two decades")
    rs = np.asarray([s[1] for s in samples], dtype=float)
    if np.any(rs <= 0.0):
        raise ValueError("rmse values must be positive for a log-log fit")
    slope, _ = np.polyfit(np.log(ns), np.log(rs), 1)
    return float(slope)
