import json
import math
import re
import warnings

import numpy as np
import pytest

from polyshot.poly import (
    FitError,
    NormalizationError,
    PolyError,
    Polynomial,
    eval_poly,
    fit,
    normalize,
    read_coeffs,
    read_samples,
    sample_function,
    sup_norm,
    sup_norms,
    write_coeffs,
    write_samples,
)


def direct_eval(coeffs, x):
    """Independent power-sum oracle."""
    return sum(a * x**k for k, a in enumerate(coeffs))


def test_eval_identity_poly():
    assert eval_poly(Polynomial((0.0, 1.0)), 0.5) == 0.5


def test_eval_one_minus_x_squared_at_one():
    assert eval_poly(Polynomial((1.0, 0.0, -1.0)), 1.0) == 0.0


def test_eval_matches_direct_summation():
    assert eval_poly(Polynomial((0.1, 0.2, 0.3)), 0.5) == pytest.approx(0.275, abs=1e-15)
    assert direct_eval((0.1, 0.2, 0.3), 0.5) == pytest.approx(0.275, abs=1e-15)


def test_horner_vs_direct_random():
    rng = np.random.default_rng(11)
    for _ in range(40):
        d = rng.integers(0, 21)
        coeffs = tuple(rng.uniform(-1, 1, d + 1))
        poly = Polynomial(coeffs)
        for x in rng.uniform(-1, 1, 100):
            assert eval_poly(poly, x) == pytest.approx(direct_eval(coeffs, x), abs=1e-12)


def test_empty_coeffs_invalid():
    with pytest.raises(PolyError):
        Polynomial(())


def test_nonfinite_coeffs_invalid():
    with pytest.raises(PolyError):
        Polynomial((1.0, float("nan")))


def test_fit_exact_linear():
    xs = np.linspace(-1, 1, 10)
    result = fit([(x, x) for x in xs], 1)
    assert result.poly.coeffs[0] == pytest.approx(0.0, abs=1e-10)
    assert result.poly.coeffs[1] == pytest.approx(1.0, abs=1e-10)
    assert result.mse < 1e-20


def test_fit_runge_matches_normal_equations_oracle():
    xs = np.linspace(-1, 1, 101)
    ys = 1.0 / (1.0 + 25.0 * xs**2)
    V = np.vander(xs, 11, increasing=True)
    oracle = np.linalg.solve(V.T @ V, V.T @ ys)
    oracle_mse = float(np.mean((V @ oracle - ys) ** 2))
    result = fit(list(zip(xs, ys)), 10)
    assert np.allclose(result.poly.coeffs, oracle, atol=1e-8)
    assert result.mse == pytest.approx(oracle_mse, rel=1e-6)


@pytest.mark.parametrize("degree", [-1, -3])
def test_fit_rejects_a_negative_degree(degree):
    samples = [(x, x) for x in (-0.5, 0.0, 0.5)]
    with pytest.raises(FitError, match=f"degree must be >= 0, got {degree}"):
        fit(samples, degree)


def test_fit_too_few_samples():
    with pytest.raises(FitError):
        fit([(0.0, 0.0), (0.5, 0.5), (1.0, 1.0)], 5)


def test_fit_rank_deficient_duplicates():
    samples = [(0.5, 1.0)] * 8 + [(0.1, 0.2)] * 8
    with pytest.raises(FitError, match="rank"):
        fit(samples, 3)


def test_fit_recovers_exact_polynomial_coeffs():
    rng = np.random.default_rng(5)
    for d in range(1, 13):
        coeffs = rng.uniform(-1, 1, d + 1)
        poly = Polynomial(tuple(coeffs))
        xs = np.linspace(-1, 1, max(40, 3 * d))
        result = fit([(x, eval_poly(poly, x)) for x in xs], d)
        assert np.allclose(result.poly.coeffs, coeffs, atol=1e-9)


def test_normalize_basic():
    npoly = normalize(Polynomial((0.1, 0.2, 0.3)))
    assert npoly.scale == pytest.approx(0.6, abs=1e-15)
    assert npoly.tilde_coeffs[0] == pytest.approx(1 / 6, abs=1e-12)
    assert npoly.tilde_coeffs[1] == pytest.approx(1 / 3, abs=1e-12)
    assert npoly.tilde_coeffs[2] == pytest.approx(1 / 2, abs=1e-12)
    assert abs(sum(abs(t) for t in npoly.tilde_coeffs) - 1.0) < 1e-12


def test_normalize_linear_monomial():
    npoly = normalize(Polynomial((0.0, 2.0)))
    assert npoly.scale == pytest.approx(2.0)
    assert npoly.tilde_coeffs == (0.0, 1.0)
    assert sup_norm(Polynomial((0.0, 2.0))) == pytest.approx(2.0, abs=1e-12)


def test_sup_norm_against_dense_grid_oracle():
    # every candidate lies in [-1, 1] and every interior extremum is one of them
    rng = np.random.default_rng(24)
    grid, h = np.linspace(-1.0, 1.0, 200001, retstep=True)
    for d in range(36):
        for _ in range(3):
            a = rng.uniform(-1, 1, d + 1)
            on_grid = float(np.max(np.abs(eval_poly(Polynomial(tuple(a)), grid))))
            # a grid point lies within h/2 of an interior maximum, where P' = 0,
            # so the grid falls short of it by at most max|P''| h^2 / 8
            second = Polynomial(tuple(k * (k - 1) * a[k] for k in range(2, d + 1)) or (0.0,))
            slack = float(np.max(np.abs(eval_poly(second, grid)))) * h * h / 8
            assert on_grid <= sup_norm(Polynomial(tuple(a))) <= on_grid + 1e-9 + slack


def test_sup_norms_of_a_batch_are_each_row_alone_bit_for_bit():
    # a degree's trials in one call; trailing zeros give rows whose P' has a
    # lower degree, so the batch takes one eigvals call per degree of P'
    rng = np.random.default_rng(26)
    for d in (0, 1, 2, 7, 20, 35):
        rows = rng.uniform(-1, 1, (6, d + 1))
        for i, row in enumerate(rows[1:], 1):
            row[max(d + 1 - i, 1) :] = 0.0
        assert sup_norms(rows) == [sup_norm(Polynomial(tuple(row))) for row in rows]


@pytest.mark.parametrize(
    "coeffs, peak", [((1.0, 1.0, 1e-320), 2.0), ((0.5, -0.25, 1e-310, 0.0), 0.75)]
)
def test_sup_norm_drops_a_subnormal_leading_term_of_p_prime(coeffs, peak):
    # its roots lie far outside [-1, 1]; dividing by it would overflow
    assert sup_norm(Polynomial(coeffs)) == peak


def test_eval_poly_on_an_array_is_the_scalar_form_bit_for_bit():
    # a run's truths are eval_poly on its grid of x, one array per trial
    rng = np.random.default_rng(25)
    for d in range(36):
        poly = Polynomial(tuple(rng.uniform(-1, 1, d + 1)))
        grid = np.concatenate((np.linspace(-0.9, 0.9, 15), rng.uniform(-1, 1, 50), [-1.0, 0.0, 1.0]))
        assert eval_poly(poly, grid).tolist() == [eval_poly(poly, x) for x in grid.tolist()]


def test_sup_norm_interior_extremum():
    # closed forms, to a few ulps
    for coeffs, peak in [
        ((-1.0, 0.0, 2.0), 1.0),  # |2x^2 - 1| peaks at x = 0 and x = +-1
        ((0.0, 1.0, 0.0, -1.0), 2.0 / (3.0 * math.sqrt(3.0))),  # x - x^3 at 1/sqrt(3)
        ((0.0, 5.0, 0.0, -20.0, 0.0, 16.0), 1.0),  # T_5 at cos(k pi / 5)
        ((-0.3,), 0.3),  # a constant is its |a_0|
    ]:
        assert sup_norm(Polynomial(coeffs)) == pytest.approx(peak, rel=1e-15)


def test_normalize_rejects_zero_poly():
    with pytest.raises(NormalizationError):
        normalize(Polynomial((0.0, 0.0)))


@pytest.mark.parametrize("coeffs", [(1e308, 1e308), (-1.7e308, 0.0, 1.7e308)])
def test_normalize_rejects_an_l1_norm_that_overflows_without_a_warning(coeffs):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NormalizationError, match="l1 norm .* not finite"):
            normalize(Polynomial(coeffs))


def test_normalize_scale_equivariant():
    rng = np.random.default_rng(17)
    coeffs = tuple(rng.uniform(-1, 1, 7))
    base = normalize(Polynomial(coeffs))
    for c in (2.0, 0.5, 1024.0):  # powers of two scale without rounding
        scaled = normalize(Polynomial(tuple(c * a for a in coeffs)))
        assert scaled.tilde_coeffs == base.tilde_coeffs
        assert scaled.scale == pytest.approx(c * base.scale, rel=1e-15)
    general = normalize(Polynomial(tuple(3.7 * a for a in coeffs)))
    assert np.allclose(general.tilde_coeffs, base.tilde_coeffs, atol=1e-14)


def test_sup_norm_never_exceeds_l1_scale():
    rng = np.random.default_rng(23)
    for _ in range(30):
        d = rng.integers(0, 15)
        coeffs = rng.uniform(-1, 1, d + 1)
        if not np.any(coeffs):
            continue
        poly = Polynomial(tuple(coeffs))
        assert sup_norm(poly) <= normalize(poly).scale + 1e-12


def test_coeff_file_roundtrip(tmp_path):
    poly = Polynomial((0.1, -0.25, 1e-17, 0.75))
    path = tmp_path / "coeffs.json"
    write_coeffs(poly, path)
    back = read_coeffs(path)
    assert back.coeffs == poly.coeffs
    data = json.loads(path.read_text())
    assert list(data) == ["coeffs"]


def test_samples_csv_roundtrip(tmp_path):
    samples = [(-0.5, 0.25), (0.0, 0.0), (0.123456789012345, -1.0)]
    path = tmp_path / "xy.csv"
    write_samples(samples, path)
    assert read_samples(path) == samples
    assert path.read_text().splitlines()[0] == "x,y"


def test_read_samples_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(PolyError):
        read_samples(path)


def test_read_samples_names_the_file_and_line_of_a_value_that_is_not_finite(tmp_path):
    path = tmp_path / "xy.csv"
    for row in ("nan,1", "0.3,inf", "1e400,1"):
        path.write_text(f"x,y\n0.1,0.2\n{row}\n")
        with pytest.raises(PolyError, match=f"^{re.escape(str(path))}: line 3: .*finite"):
            read_samples(path)


def test_read_samples_names_the_file_and_line_of_a_field_past_csv_s_limit(tmp_path):
    path = tmp_path / "big.csv"
    path.write_text("x,y\n0.1,0.2\n1," + "9" * 200_000 + "\n")
    with pytest.raises(PolyError, match=f"^{re.escape(str(path))}: line 3: field larger"):
        read_samples(path)


def test_read_samples_names_a_file_that_is_not_utf_8(tmp_path):
    path = tmp_path / "latin.csv"
    path.write_bytes(b"x,y\n0.1,0.2\n\xff\xfe,1\n")
    with pytest.raises(PolyError, match=f"^{re.escape(str(path))}: .*can't decode"):
        read_samples(path)


def test_sample_function_grid():
    samples = sample_function(lambda x: x * x, 5)
    assert len(samples) == 5
    assert samples[0] == (-1.0, 1.0)
    assert samples[2] == (0.0, 0.0)
    with pytest.raises(FitError, match="sample count"):
        sample_function(lambda x: x * x, 0)
