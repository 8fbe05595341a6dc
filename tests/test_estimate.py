import math

import numpy as np
import pytest

from polyshot.dense import MAX_SHOTS, ShotOutcome
from polyshot.estimate import (
    point_estimate,
    point_estimates,
    predicted_pearson,
    run_metrics,
    shot_scaling_fit,
    shots_for_pearson,
)


def test_point_estimate_basic():
    est = point_estimate(ShotOutcome(3072, 1024), 1.0)
    assert est.value == pytest.approx(0.5)
    assert est.stderr == pytest.approx(2 * math.sqrt(0.25 * 0.75 / 4096), abs=1e-15)


def test_point_estimate_degenerate_all_zeros():
    est = point_estimate(ShotOutcome(4096, 0), 0.6)
    assert est.value == pytest.approx(0.6)
    assert est.stderr == 0.0


def test_point_estimate_balanced_stderr():
    est = point_estimate(ShotOutcome(2048, 2048), 1.0)
    assert est.value == 0.0
    assert est.stderr == pytest.approx(2 * math.sqrt(0.25 / 4096), abs=1e-15)
    assert est.stderr == pytest.approx(0.015625)


def test_point_estimate_linear_in_rescale():
    outcome = ShotOutcome(700, 300)
    one = point_estimate(outcome, 1.0)
    two = point_estimate(outcome, 2.0)
    assert two.value == pytest.approx(2 * one.value)
    assert two.stderr == pytest.approx(2 * one.stderr)


@pytest.mark.parametrize("shots", [1, 2, 4096, 2**53 + 1, MAX_SHOTS])
def test_array_estimates_are_point_estimate_bit_for_bit(shots):
    # past 2^53 shots an int64 count rounds on its way to a float, so p is
    # Python's exact int division there, not one float division
    rng = np.random.default_rng(27)
    n1 = np.unique(np.concatenate([[0, shots, shots // 2], rng.integers(0, shots, 300, endpoint=True)]))
    bits = lambda values: np.asarray(values, dtype=float).view(np.uint64).tolist()  # noqa: E731
    for rescale in (0.7, -1.3, rng.uniform(-2, 2, len(n1))):
        values, stderrs = point_estimates(n1, shots, rescale)
        cs = np.broadcast_to(rescale, n1.shape).tolist()
        want = [point_estimate(ShotOutcome(shots - k, k), c) for k, c in zip(n1.tolist(), cs)]
        assert bits(values) == bits([e.value for e in want])
        assert bits(stderrs) == bits([e.stderr for e in want])
    with pytest.raises(ValueError):
        point_estimates(np.zeros(1, dtype=np.int64), 0, 1.0)


def test_metrics_perfect():
    pairs = [(0.1, 0.1), (-0.4, -0.4), (0.3, 0.3)]
    m = run_metrics(pairs)
    assert m.rmse == 0.0
    assert m.pearson == pytest.approx(1.0)
    assert m.pass_rate == 1.0


def test_metrics_constant_offset():
    pairs = [(t, t + 0.05) for t in np.linspace(-0.5, 0.5, 9)]
    m = run_metrics(pairs, threshold=0.03)
    assert m.pass_rate == 0.0
    assert m.pearson == pytest.approx(1.0)
    assert m.rmse == pytest.approx(0.05)


def test_metrics_degenerate_truth_reports_undefined_pearson():
    pairs = [(0.2, 0.21), (0.2, 0.18), (0.2, 0.2)]
    m = run_metrics(pairs)
    assert m.pearson is None
    assert m.rmse > 0.0


def test_metrics_permutation_invariant():
    rng = np.random.default_rng(2)
    pairs = [(float(t), float(t + rng.normal(0, 0.01))) for t in rng.uniform(-1, 1, 50)]
    m1 = run_metrics(pairs)
    rng.shuffle(pairs)
    m2 = run_metrics(pairs)
    assert m1.rmse == pytest.approx(m2.rmse, abs=1e-15)
    assert m1.pearson == pytest.approx(m2.pearson, abs=1e-12)
    assert m1.pass_rate == m2.pass_rate


def test_metrics_needs_two_pairs():
    with pytest.raises(ValueError):
        run_metrics([(0.0, 0.0)])


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
