import math

import numpy as np
import pytest

from polyshot.dense import MAX_SHOTS
from polyshot.estimate import (
    point_estimates,
    predicted_pearson,
    run_metrics,
    shot_scaling_fit,
    shots_for_pearson,
)


def _estimate(n1: int, shots: int, rescale: float) -> tuple[float, float]:
    """(value, stderr) of one point: point_estimates of one count."""
    value, stderr = point_estimates(np.array([n1]), shots, rescale)
    return value.item(), stderr.item()


def test_point_estimate_basic():
    value, stderr = _estimate(1024, 4096, 1.0)
    assert value == pytest.approx(0.5)
    assert stderr == pytest.approx(2 * math.sqrt(0.25 * 0.75 / 4096), abs=1e-15)


def test_point_estimate_degenerate_all_zeros():
    value, stderr = _estimate(0, 4096, 0.6)
    assert value == pytest.approx(0.6)
    assert stderr == 0.0


def test_point_estimate_balanced_stderr():
    value, stderr = _estimate(2048, 4096, 1.0)
    assert value == 0.0
    assert stderr == pytest.approx(2 * math.sqrt(0.25 / 4096), abs=1e-15)
    assert stderr == pytest.approx(0.015625)


def test_point_estimate_linear_in_rescale():
    one = _estimate(300, 1000, 1.0)
    two = _estimate(300, 1000, 2.0)
    assert two[0] == pytest.approx(2 * one[0])
    assert two[1] == pytest.approx(2 * one[1])


@pytest.mark.parametrize("shots", [1, 2, 4096, 2**53 + 1, MAX_SHOTS])
def test_array_estimates_are_point_estimate_bit_for_bit(shots):
    # the reference is each point's formula in Python ints and floats; past
    # 2^53 shots an int64 count rounds on its way to a float, so p is Python's
    # exact int division there, not one float division
    rng = np.random.default_rng(27)
    n1 = np.unique(np.concatenate([[0, shots, shots // 2], rng.integers(0, shots, 300, endpoint=True)]))
    bits = lambda values: np.asarray(values, dtype=float).view(np.uint64).tolist()  # noqa: E731
    for rescale in (0.7, -1.3, rng.uniform(-2, 2, len(n1))):
        values, stderrs = point_estimates(n1, shots, rescale)
        want_values, want_stderrs = [], []
        for k, c in zip(n1.tolist(), np.broadcast_to(rescale, n1.shape).tolist()):
            p = k / shots
            want_values.append(c * ((shots - k) - k) / shots)
            want_stderrs.append(2.0 * abs(c) * math.sqrt(p * (1.0 - p) / shots))
        assert bits(values) == bits(want_values)
        assert bits(stderrs) == bits(want_stderrs)
    with pytest.raises(ValueError):
        point_estimates(np.zeros(1, dtype=np.int64), 0, 1.0)


def test_metrics_perfect():
    m = run_metrics([0.1, -0.4, 0.3], [0.1, -0.4, 0.3])
    assert m.rmse == 0.0
    assert m.pearson == pytest.approx(1.0)
    assert m.pass_rate == 1.0


def test_metrics_constant_offset():
    truths = np.linspace(-0.5, 0.5, 9)
    m = run_metrics(truths, truths + 0.05)
    assert m.pass_rate == 0.0
    assert m.pearson == pytest.approx(1.0)
    assert m.rmse == pytest.approx(0.05)


def test_metrics_degenerate_truth_reports_undefined_pearson():
    m = run_metrics([0.2, 0.2, 0.2], [0.21, 0.18, 0.2])
    assert m.pearson is None
    assert m.rmse > 0.0


def test_metrics_permutation_invariant():
    rng = np.random.default_rng(2)
    truths = rng.uniform(-1, 1, 50)
    estimates = truths + rng.normal(0, 0.01, 50)
    m1 = run_metrics(truths, estimates)
    order = rng.permutation(50)
    m2 = run_metrics(truths[order], estimates[order])
    assert m1.rmse == pytest.approx(m2.rmse, abs=1e-15)
    assert m1.pearson == pytest.approx(m2.pearson, abs=1e-12)
    assert m1.pass_rate == m2.pass_rate


def test_metrics_needs_two_pairs():
    with pytest.raises(ValueError):
        run_metrics([0.0], [0.0])
    with pytest.raises(ValueError):  # a lone estimate would broadcast against three truths
        run_metrics([0.1, 0.2, 0.3], [0.1])


def test_scaling_fit_exact_inverse_sqrt():
    samples = [(n, 1.0 / math.sqrt(n)) for n in (256, 1024, 4096, 16384, 65536)]
    assert shot_scaling_fit(samples) == pytest.approx(-0.5, abs=1e-12)


def test_scaling_fit_prefactor_absorbed():
    samples = [(n, 2.0 / math.sqrt(n)) for n in (256, 1024, 4096, 16384, 65536)]
    assert shot_scaling_fit(samples) == pytest.approx(-0.5, abs=1e-12)


def test_scaling_fit_rejects_narrow_span():
    samples = [(n, 1.0 / math.sqrt(n)) for n in (256, 300, 350, 400)]
    with pytest.raises(ValueError, match="decades"):
        shot_scaling_fit(samples)


def test_scaling_fit_rejects_nonpositive_rmse():
    samples = [(256, 0.1), (1024, 0.0), (4096, 0.01), (65536, 0.005)]
    with pytest.raises(ValueError, match="positive"):
        shot_scaling_fit(samples)


def test_predicted_pearson_is_one_without_shot_noise():
    truth = [-0.4, 0.1, 0.7]
    assert predicted_pearson(truth, [0.0, 0.0, 0.0], 1024) == 1.0


@pytest.mark.parametrize("target", [0.5, 0.9, 0.999])
def test_predicted_pearson_reaches_its_target_at_the_prescribed_shots(target):
    truth = np.array([-0.8, -0.1, 0.3, 0.65])
    var = 2.5**2 * (1.0 - (truth / 2.5) ** 2)  # C^2 (1 - z^2) with C = 2.5
    shots = shots_for_pearson(truth, var, target)
    # closed form: s^2 / (s^2 + mean(var) / N) = target^2
    s2, v = float(np.var(truth)), float(np.mean(var))
    assert shots == pytest.approx(v * target**2 / (s2 * (1.0 - target**2)), rel=1e-12)
    assert abs(predicted_pearson(truth, var, shots) - target) < 1e-12
