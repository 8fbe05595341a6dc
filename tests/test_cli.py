import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from polyshot import bench
from polyshot.cli import main
from polyshot.compile import build_circuit, read_program
from polyshot.dense import draw_ones, expect_z, run_statevector
from polyshot.estimate import point_estimates
from polyshot.poly import eval_poly, read_coeffs, write_samples


def run_cli(*argv):
    return main(list(argv))


def test_fit_target_writes_coeffs_and_prints_mse(tmp_path, capsys):
    out = tmp_path / "sin7.json"
    code = run_cli(
        "fit", "--target", "sin", "--degree", "7", "--out", str(out),
    )
    assert code == 0
    assert out.exists()
    captured = capsys.readouterr().out
    assert "MSE" in captured
    poly = read_coeffs(out)
    assert poly.degree == 7


def test_fit_requires_exactly_one_source(tmp_path):
    assert run_cli("fit", "--degree", "3", "--out", str(tmp_path / "x.json")) == 2


def test_fit_samples_linear(tmp_path):
    xy = tmp_path / "xy.csv"
    write_samples([(x / 10.0, x / 10.0) for x in range(-9, 10)], xy)
    out = tmp_path / "lin.json"
    assert run_cli("fit", "--samples", str(xy), "--degree", "1", "--out", str(out)) == 0
    poly = read_coeffs(out)
    assert poly.coeffs[0] == pytest.approx(0.0, abs=1e-10)
    assert poly.coeffs[1] == pytest.approx(1.0, abs=1e-10)


def test_fit_samples_rejects_short_row(tmp_path, capsys):
    xy = tmp_path / "xy.csv"
    xy.write_text("x,y\n0.1,0.2\n0.3\n")
    code = run_cli("fit", "--samples", str(xy), "--degree", "1", "--out", str(tmp_path / "o.json"))
    assert code == 1
    err = capsys.readouterr().err
    assert "line 3" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("row", ["nan,1", "0.3,inf", "1e400,1"])
def test_fit_samples_names_the_file_and_line_of_a_value_that_is_not_finite(tmp_path, capsys, row):
    xy = tmp_path / "xy.csv"
    xy.write_text(f"x,y\n0.1,0.2\n0.5,0.4\n{row}\n")
    out = tmp_path / "o.json"
    assert run_cli("fit", "--samples", str(xy), "--degree", "1", "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {xy}: line 4: ") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "body", [b"1," + b"9" * 200_000, b"\xff\xfe,1"], ids=["past_field_limit", "not_utf_8"]
)
def test_fit_samples_names_a_file_csv_cannot_read(tmp_path, capsys, body):
    # a field past csv's size limit, or bytes that are not UTF-8
    xy = tmp_path / "xy.csv"
    xy.write_bytes(b"x,y\n0.1,0.2\n" + body + b"\n")
    out = tmp_path / "o.json"
    assert run_cli("fit", "--samples", str(xy), "--degree", "1", "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {xy}: ") and "Traceback" not in err
    assert not out.exists()


def test_fit_poly_target(tmp_path):
    out = tmp_path / "p.json"
    assert run_cli(
        "fit", "--target", "poly:0.1,0.2,0.3", "--degree", "2", "--out", str(out)
    ) == 0
    poly = read_coeffs(out)
    assert poly.coeffs == pytest.approx((0.1, 0.2, 0.3), abs=1e-9)


def test_compile_prints_l1_constant(tmp_path, capsys):
    coeffs = tmp_path / "c.json"
    coeffs.write_text('{"coeffs": [0.1, 0.2, 0.3]}\n')
    out = tmp_path / "prog.json"
    assert run_cli("compile", "--coeffs", str(coeffs), "--out", str(out)) == 0
    printed = capsys.readouterr().out
    assert "C = 0.600" in printed
    assert "forecast: 3 qubits, 5 two-qubit gates, depth 14, two-qubit depth 5" in printed
    assert json.loads(out.read_text()) == {"order": "backward", "coeffs": [0.1, 0.2, 0.3]}


def test_compile_orders_share_constant(tmp_path):
    coeffs = tmp_path / "c.json"
    coeffs.write_text('{"coeffs": [0.1, -0.2, 0.3]}\n')
    back, fwd = tmp_path / "b.json", tmp_path / "f.json"
    run_cli("compile", "--coeffs", str(coeffs), "--order", "backward", "--out", str(back))
    run_cli("compile", "--coeffs", str(coeffs), "--order", "forward", "--out", str(fwd))
    b, f = read_program(back), read_program(fwd)
    assert b.rescale == f.rescale
    assert b.schedule.weights != f.schedule.weights


def test_compile_rejects_zero_poly(tmp_path, capsys):
    coeffs = tmp_path / "zero.json"
    coeffs.write_text('{"coeffs": [0.0, 0.0]}\n')
    assert run_cli("compile", "--coeffs", str(coeffs), "--out", str(tmp_path / "p.json")) == 1
    assert capsys.readouterr().err == f"error: {coeffs}: all-zero polynomial cannot be normalized\n"


@pytest.mark.parametrize(
    "text",
    [
        "not json",
        "[0.5]",
        '{"coeffs": 5}',
        '{"coeffs": []}',
        '{"coeffs": [null, 1]}',
        '{"coeffs": [true, 0.5]}',
        '{"coeffs": ["0.5"]}',
        '{"coeffs": [NaN]}',
        '{"coeffs": [1e999]}',
        '{"coeffs": [' + "9" * 400 + "]}",
    ],
)
def test_compile_rejects_malformed_coeffs_without_traceback(tmp_path, capsys, text):
    """Each text fails as a coefficient file, and as a program file once it
    is given an order: both readers check coefficients with the same code."""
    coeffs = tmp_path / "bad.json"
    coeffs.write_text(text)
    program = tmp_path / "bad_program.json"
    program.write_text(text.replace("{", '{"order": "forward", ', 1))
    for argv, path in (
        (("compile", "--coeffs", str(coeffs), "--out", str(tmp_path / "p.json")), coeffs),
        (("evaluate", "--program", str(program), "--x", "0.5"), program),
    ):
        assert run_cli(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ")
        assert "Traceback" not in err


def test_compile_rejects_an_l1_norm_that_overflows_without_a_warning(tmp_path, capsys):
    coeffs = tmp_path / "c.json"
    coeffs.write_text('{"coeffs": [1e308, 1e308]}\n')
    assert run_cli("compile", "--coeffs", str(coeffs), "--out", str(tmp_path / "p.json")) == 1
    err = capsys.readouterr().err
    assert err == f"error: {coeffs}: the l1 norm of the coefficients is not finite\n"


@pytest.mark.parametrize("flag, value", [("--sample-count", "0"), ("--sample-count", "-1")])
def test_fit_rejects_a_flag_value_as_usage_error(tmp_path, capsys, flag, value):
    out = tmp_path / "o.json"
    argv = ["fit", "--target", "sin", "--degree", "2"]
    assert run_cli(*argv, flag, value, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag} ") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, value", [("--method", "least_squares"), ("--epochs", "5"), ("--step-size", "0.1")]
)
def test_fit_has_no_gradient_descent_flags(tmp_path, capsys, flag, value):
    out = tmp_path / "o.json"
    with pytest.raises(SystemExit) as exc:
        run_cli("fit", "--target", "sin", "--degree", "2", flag, value, "--out", str(out))
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("degree", ["-1", "-3"])
def test_fit_rejects_a_negative_degree_as_usage_error(tmp_path, capsys, degree):
    out = tmp_path / "o.json"
    assert run_cli("fit", "--target", "sin", "--degree", degree, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: --degree {degree} ") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("target", ["poly:1,abc", "poly:", "poly:0.5,inf", "nosuch"])
def test_fit_rejects_a_bad_target_as_usage_error(tmp_path, capsys, target):
    code = run_cli("fit", "--target", target, "--degree", "1", "--out", str(tmp_path / "o.json"))
    assert code == 2
    err = capsys.readouterr().err
    assert repr(target) in err
    assert "Traceback" not in err


def test_evaluate_constant_program_deterministic(tmp_path, capsys):
    coeffs = tmp_path / "c.json"
    coeffs.write_text('{"coeffs": [-0.7]}\n')
    prog = tmp_path / "prog.json"
    run_cli("compile", "--coeffs", str(coeffs), "--out", str(prog))
    capsys.readouterr()
    code = run_cli("evaluate", "--program", str(prog), "--x", "0.4", "--shots", "64")
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["estimate"] == pytest.approx(-0.7)
    assert payload["stderr"] == 0.0
    assert payload["truth_if_known"] == pytest.approx(-0.7)


def test_evaluate_rejects_out_of_range_x(tmp_path):
    coeffs = tmp_path / "c.json"
    coeffs.write_text('{"coeffs": [0.5, 0.5]}\n')
    prog = tmp_path / "prog.json"
    run_cli("compile", "--coeffs", str(coeffs), "--out", str(prog))
    assert run_cli("evaluate", "--program", str(prog), "--x", "1.5") == 2


def _linear_program(tmp_path):
    coeffs = tmp_path / "c.json"
    coeffs.write_text('{"coeffs": [0.5, 0.5]}\n')
    prog = tmp_path / "prog.json"
    run_cli("compile", "--coeffs", str(coeffs), "--out", str(prog))
    return prog


@pytest.mark.parametrize(
    "flag, value",
    [("--noise-p1", "2"), ("--noise-p2", "-0.1"), ("--noise-p1", "nan"), ("--shots", "0"),
     ("--shots", str(2**63)), ("--shots", str(10**20))],
)
def test_evaluate_rejects_a_bad_flag_value_as_usage_error(tmp_path, capsys, flag, value):
    prog = _linear_program(tmp_path)
    capsys.readouterr()
    assert run_cli("evaluate", "--program", str(prog), "--x", "0.2", flag, value) == 2
    err = capsys.readouterr().err
    assert flag in err
    assert "Traceback" not in err


def test_evaluate_seeded_golden(tmp_path, capsys):
    coeffs = tmp_path / "c.json"
    coeffs.write_text('{"coeffs": [0.1, 0.2, 0.3]}\n')
    prog = tmp_path / "prog.json"
    run_cli("compile", "--coeffs", str(coeffs), "--out", str(prog))
    capsys.readouterr()
    args = ("evaluate", "--program", str(prog), "--x", "0.5",
            "--shots", "4096", "--seed", "12345")
    assert run_cli(*args) == 0
    first = capsys.readouterr().out
    assert first == (
        '{"x": 0.5, "estimate": 0.273046875, '
        '"stderr": 0.008347982950917671, "truth_if_known": 0.275}\n'
    )
    assert run_cli(*args) == 0
    assert capsys.readouterr().out == first
    payload = json.loads(first)
    assert abs(payload["estimate"] - 0.275) < 5 * payload["stderr"]


def test_evaluate_stream_matches_dense_bitwise(tmp_path, capsys):
    coeffs = tmp_path / "c.json"
    coeffs.write_text('{"coeffs": [0.2, 0.0, 0.4, -0.1]}\n')
    prog = tmp_path / "prog.json"
    run_cli("compile", "--coeffs", str(coeffs), "--order", "forward", "--out", str(prog))
    capsys.readouterr()
    base = ("evaluate", "--program", str(prog), "--x", "-0.3",
            "--shots", "2048", "--seed", "777")
    run_cli(*base, "--sim", "dense")
    dense_out = capsys.readouterr().out
    run_cli(*base, "--sim", "stream")
    assert capsys.readouterr().out == dense_out


def test_evaluate_noisy_runs_one_channel_sweep_on_either_sim(tmp_path, capsys):
    coeffs = tmp_path / "c.json"
    coeffs.write_text('{"coeffs": [0.2, 0.0, 0.4, -0.1]}\n')
    prog = tmp_path / "prog.json"
    run_cli("compile", "--coeffs", str(coeffs), "--out", str(prog))
    capsys.readouterr()
    base = ("evaluate", "--program", str(prog), "--x", "-0.3", "--shots", "2048",
            "--seed", "777", "--noise-p1", "0.01", "--noise-p2", "0.05")
    assert run_cli(*base, "--sim", "dense") == 0
    dense_out = capsys.readouterr().out
    assert run_cli(*base, "--sim", "stream") == 0
    assert capsys.readouterr().out == dense_out
    json.loads(dense_out)


def test_evaluate_noisy_backward_above_window_cap_names_forward(tmp_path, capsys):
    coeffs = tmp_path / "c.json"
    coeffs.write_text('{"coeffs": [0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1]}\n')
    prog = tmp_path / "prog.json"
    run_cli("compile", "--coeffs", str(coeffs), "--order", "backward", "--out", str(prog))
    capsys.readouterr()
    code = run_cli("evaluate", "--program", str(prog), "--x", "0.2",
                   "--noise-p1", "0.01", "--sim", "dense")
    assert code == 1
    err = capsys.readouterr().err
    assert "forward" in err
    assert "Traceback" not in err


def test_evaluate_rejects_bad_sign_without_traceback(tmp_path, capsys):
    """A program file holds no signs: a signs list, as older files carry, is
    an unknown key."""
    coeffs = tmp_path / "c.json"
    coeffs.write_text('{"coeffs": [0.1, 0.2, 0.3, -0.4]}\n')
    prog = tmp_path / "prog.json"
    run_cli("compile", "--coeffs", str(coeffs), "--order", "forward", "--out", str(prog))
    data = json.loads(prog.read_text())
    data["signs"] = [1, 7, 1, -1]
    prog.write_text(json.dumps(data))
    capsys.readouterr()
    assert run_cli("evaluate", "--program", str(prog), "--x", "0.3") == 1
    err = capsys.readouterr().err
    assert "'signs'" in err
    assert "Traceback" not in err


def test_export_qasm_byte_stable(tmp_path):
    coeffs = tmp_path / "c.json"
    coeffs.write_text('{"coeffs": [0.1, 0.2, 0.3]}\n')
    prog = tmp_path / "prog.json"
    run_cli("compile", "--coeffs", str(coeffs), "--out", str(prog))
    out1, out2 = tmp_path / "a.qasm", tmp_path / "b.qasm"
    assert run_cli("export-qasm", "--program", str(prog), "--x", "0", "--out", str(out1)) == 0
    assert run_cli("export-qasm", "--program", str(prog), "--x", "0", "--out", str(out2)) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert "ry(1.5707963267948966)" in out1.read_text()


def test_export_qasm_rejects_bad_x(tmp_path):
    coeffs = tmp_path / "c.json"
    coeffs.write_text('{"coeffs": [0.5, 0.5]}\n')
    prog = tmp_path / "prog.json"
    run_cli("compile", "--coeffs", str(coeffs), "--out", str(prog))
    assert run_cli(
        "export-qasm", "--program", str(prog), "--x", "1.5", "--out", str(tmp_path / "x.qasm")
    ) == 2


def test_bench_table1_writes_reports(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(
        '{"degrees": [1, 2], "trials": 2, "points_per_trial": 4, "shots": 256}\n'
    )
    out_dir = tmp_path / "runs"
    code = run_cli(
        "bench", "table1", "--config", str(config), "--out-dir", str(out_dir),
        "--seed", "99",
    )
    assert code == 0
    assert (out_dir / "table1.json").exists()
    assert (out_dir / "table1_records.csv").exists()
    printed = capsys.readouterr().out
    assert "deg" in printed
    report = json.loads((out_dir / "table1.json").read_text())
    assert report["config"]["master_seed"] == 99
    assert len(report["records"]) == 2 * 2 * 4


@pytest.mark.parametrize(
    "text", ["not json", "[" * 10**5 + "]" * 10**5], ids=["not-json", "nested-1e5-deep"]
)
def test_bench_rejects_a_config_file_that_is_not_json(tmp_path, capsys, text):
    config = tmp_path / "cfg.json"
    config.write_text(text)
    out_dir = tmp_path / "r"
    assert run_cli("bench", "table1", "--config", str(config), "--out-dir", str(out_dir)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: --config {config}: not a JSON file")
    assert "Traceback" not in err
    assert not out_dir.exists()


def test_bench_rejects_unknown_config_key(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text('{"bogus": 1}\n')
    assert run_cli(
        "bench", "table1", "--config", str(config), "--out-dir", str(tmp_path / "r")
    ) == 2
    # the pass threshold is estimate.PASS_THRESHOLD, not a config key
    config.write_text('{"pass_threshold": 0.03}\n')
    assert run_cli(
        "bench", "table1", "--config", str(config), "--out-dir", str(tmp_path / "r")
    ) == 2
    assert "unknown config key 'pass_threshold'" in capsys.readouterr().err


@pytest.mark.parametrize("experiment", ["table1", "shots"])
@pytest.mark.parametrize(
    "bad",
    [
        {"nosuch": 1}, {"master_seed": 1.5}, {"master_seed": "abc"}, {"master_seed": True},
        {"noise": None}, {"__doc__": "x"},
    ],
)
def test_bench_checks_the_config_of_every_experiment(tmp_path, capsys, experiment, bad):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(bad))
    out_dir = tmp_path / "r"
    assert run_cli("bench", experiment, "--config", str(config), "--out-dir", str(out_dir)) == 2
    err = capsys.readouterr().err
    (key,) = bad
    assert repr(key) in err
    assert "Traceback" not in err
    assert not out_dir.exists()


def test_bench_shots_rejects_a_key_it_does_not_read(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text('{"trials": 2}\n')
    assert run_cli("bench", "shots", "--config", str(config), "--out-dir", str(tmp_path)) == 2
    assert "'trials'" in capsys.readouterr().err
    config.write_text('{"master_seed": 7}\n')
    assert run_cli("bench", "shots", "--config", str(config), "--out-dir", str(tmp_path)) == 0
    assert json.loads((tmp_path / "shots.json").read_text())["master_seed"] == 7


@pytest.mark.parametrize(
    "bad",
    [
        {"degrees": 5},
        {"degrees": [1, 2.5]},
        {"x_domain": 0.5},
        {"x_domain": [-0.5]},
        {"trials": "3"},
        {"trials": 3.0},
        {"shots": True},
        {"simulator": 1},
    ],
)
def test_bench_rejects_mistyped_config_value(tmp_path, capsys, bad):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(bad))
    code = run_cli(
        "bench", "table1", "--config", str(config), "--out-dir", str(tmp_path / "r")
    )
    assert code == 2
    err = capsys.readouterr().err
    (key,) = bad
    assert repr(key) in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "bad, key",
    [
        ({"noise_p1": 2}, "noise_p1"),
        ({"noise_p2": -0.1}, "noise_p2"),
        ({"coeff_bound": -1}, "coeff_bound"),
        ({"coeff_bound": 0}, "coeff_bound"),
        ({"degrees": []}, "degrees"),
        ({"degrees": [1, -2]}, "degrees"),
        ({"trials": 1, "points_per_trial": 1}, "points_per_trial"),
        ({"points_per_trial": 0}, "points_per_trial"),
        ({"sup_rescale_target": 0}, "sup_rescale_target"),
        ({"sup_rescale_target": -1}, "sup_rescale_target"),
        ({"window_cap": 0}, "window_cap"),
        ({"trials": 0}, "trials"),
        ({"shots": -1}, "shots"),
        ({"order": "sideways"}, "order"),
        ({"x_domain": [0.5, -0.5]}, "x_domain must satisfy -1 <= lo < hi <= 1, got (0.5, -0.5)"),
        ({"x_domain": [0.5, 0.5]}, "x_domain must satisfy -1 <= lo < hi <= 1, got (0.5, 0.5)"),
        ({"x_domain": [-1.5, 0.5]}, "x_domain"),
        ({"degrees": [3, 3]}, "degrees"),
        ({"x_domain": [0.5]}, "config key 'x_domain' must be a list of two floats, got [0.5]"),
        ({"x_domain": []}, "config key 'x_domain' must be a list of two floats, got []"),
        (
            {"x_domain": [-0.5, 0.0, 0.5]},
            "config key 'x_domain' must be a list of two floats, got [-0.5, 0.0, 0.5]",
        ),
    ],
)
def test_bench_rejects_out_of_range_config_value(tmp_path, capsys, bad, key):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(bad))
    out_dir = tmp_path / "r"
    code = run_cli("bench", "table1", "--config", str(config), "--out-dir", str(out_dir))
    assert code == 2
    err = capsys.readouterr().err
    assert key in err
    assert "Traceback" not in err
    assert not out_dir.exists()


def _edited(**edits):
    def edit(text):
        data = json.loads(text)
        data.update(edits)
        return json.dumps(data)

    return edit


@pytest.mark.parametrize(
    "corrupt",
    [
        _edited(order="sideways"),
        _edited(C=1.0),
        _edited(coeffs=[1e308, 1e308]),
        lambda text: text[:20],
    ],
)
def test_evaluate_rejects_malformed_program_without_traceback(tmp_path, capsys, corrupt):
    coeffs = tmp_path / "c.json"
    coeffs.write_text('{"coeffs": [0.1, 0.2, 0.3, -0.4]}\n')
    prog = tmp_path / "prog.json"
    run_cli("compile", "--coeffs", str(coeffs), "--order", "forward", "--out", str(prog))
    prog.write_text(corrupt(prog.read_text()))
    capsys.readouterr()
    assert run_cli("evaluate", "--program", str(prog), "--x", "0.3") == 1
    err = capsys.readouterr().err
    assert str(prog) in err
    assert "Traceback" not in err and "Warning" not in err


def test_bench_reports_identical_across_runs(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text('{"degrees": [1, 2], "trials": 1, "points_per_trial": 3, "shots": 128}\n')
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    run_cli("bench", "table1", "--config", str(config), "--out-dir", str(d1), "--seed", "5")
    run_cli("bench", "table1", "--config", str(config), "--out-dir", str(d2), "--seed", "5")
    assert (d1 / "table1_records.csv").read_bytes() == (d2 / "table1_records.csv").read_bytes()


def _bits(value):
    """The value with every float replaced by its exact hex form, so that ==
    compares floats bit for bit (0.0 and -0.0 differ, a NaN equals itself)."""
    if isinstance(value, dict):
        return {k: _bits(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_bits(v) for v in value]
    return value.hex() if isinstance(value, float) else value


def test_report_json_reads_back_every_float_bit_for_bit():
    small = bench.ExperimentConfig(degrees=(1, 2, 3), points_per_trial=5, trials=2, shots=512)
    stress = bench.stress_config(degrees=(1, 10, 20), points_per_trial=3, trials=2)
    for report in (bench.recovery_run(small), bench.recovery_run(stress)):
        back = json.loads(bench.report_json(report))
        assert _bits(back["config"]) == _bits(vars(report.config))
        assert _bits(back["per_degree"]) == _bits(report.per_degree)
        assert _bits(back["records"]) == _bits([r._asdict() for r in report.records])
        assert _bits(back["timings_ms"]) == _bits(report.timings_ms)


def test_shots_json_reads_back_every_float_bit_for_bit(tmp_path, capsys):
    assert run_cli("bench", "shots", "--seed", "7", "--out-dir", str(tmp_path)) == 0
    back = json.loads((tmp_path / "shots.json").read_text())
    assert _bits(back) == _bits(bench.shot_scaling_experiment(master_seed=7))


def test_evaluate_line_reads_back_every_float_bit_for_bit(tmp_path, capsys):
    coeffs = tmp_path / "c.json"
    coeffs.write_text('{"coeffs": [0.1, -0.23, 0.3, 0.07]}\n')
    prog = tmp_path / "prog.json"
    run_cli("compile", "--coeffs", str(coeffs), "--out", str(prog))
    program = read_program(prog)
    for x in (-0.9, -0.3, 1 / 3, 0.7):
        capsys.readouterr()
        assert run_cli("evaluate", "--program", str(prog), "--x", repr(x), "--seed", "11") == 0
        back = json.loads(capsys.readouterr().out)
        circuit = build_circuit(program, x)
        z = expect_z(run_statevector(circuit), circuit.measured_qubit)
        value, stderr = point_estimates(draw_ones([z], 4096, [11]), 4096, program.rescale)
        want = {"x": x, "estimate": value.item(), "stderr": stderr.item(),
                "truth_if_known": eval_poly(read_coeffs(coeffs), x)}
        assert _bits(back) == _bits(want)


def test_help_covers_subcommands(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for sub in ("fit", "compile", "evaluate", "bench", "export-qasm"):
        assert sub in out


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


# --- whole evaluate runs over generated arguments ---------------------------

# deterministic examples, so a tier-1 run is the same on every rerun
CLI_PROPERTY = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    phases=(Phase.explicit, Phase.generate, Phase.shrink),
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
# most examples are in range, so the runs reach the simulators as often as
# the argument checks
probability = st.one_of(
    st.just(0.0),
    st.floats(0.0, 1.0),
    st.sampled_from([0.001, 0.75, 1.0]),
    st.sampled_from([float("nan"), -0.1, 1.5, float("inf")]),
    st.floats(allow_nan=True, allow_infinity=True),
)
point = st.one_of(
    st.floats(-1.0, 1.0),
    st.sampled_from([-1.0, 1.0, -0.0]),
    st.sampled_from([1.0000001, -3.0, float("nan"), float("-inf")]),
    st.floats(allow_nan=True, allow_infinity=True),
)
# numpy's binomial takes at most 2**63 - 1 shots; more is a usage error
shot_count = st.one_of(st.integers(1, 4096), st.integers(1, 8), st.integers(-5, 0),
                       st.sampled_from([2**63 - 1, 2**63, 10**20]))


@CLI_PROPERTY
@given(
    order=st.sampled_from(["forward", "backward"]),
    sim=st.sampled_from(["dense", "stream"]),
    p1=probability,
    p2=probability,
    x=point,
    shots=shot_count,
)
def test_evaluate_exits_with_a_documented_code_and_no_traceback(
    tmp_path, capsys, order, sim, p1, p2, x, shots
):
    # forward d=3 fits any window; backward d=9 outgrows the window cap, which
    # binds on --sim stream and on any noisy run
    coeffs = [0.1, -0.2, 0.3, 0.4] if order == "forward" else [0.1] * 10
    prog = tmp_path / f"{order}.json"
    if not prog.exists():
        (tmp_path / "c.json").write_text(json.dumps({"coeffs": coeffs}))
        assert run_cli("compile", "--coeffs", str(tmp_path / "c.json"), "--order", order,
                       "--out", str(prog)) == 0
    capsys.readouterr()
    code = run_cli("evaluate", "--program", str(prog), f"--x={x!r}", f"--shots={shots}",
                   f"--sim={sim}", f"--noise-p1={p1!r}", f"--noise-p2={p2!r}", "--seed=3")
    out, err = capsys.readouterr()
    assert "Traceback" not in out + err
    in_range = 0.0 <= p1 <= 1.0 and 0.0 <= p2 <= 1.0 and abs(x) <= 1.0
    bad = not (1 <= shots <= 2**63 - 1 and in_range)
    if bad:
        assert code == 2 and err.startswith("error: ")
    elif order == "backward" and (sim == "stream" or p1 or p2):
        assert code == 1 and "forward" in err
    else:
        assert code == 0
        assert json.loads(out)["x"] == x


# --- whole bench runs over generated config files ---------------------------

BENCH_PROPERTY = settings(CLI_PROPERTY, max_examples=100)
# a config of small, well-typed values, and in about half of the examples one
# entry that is out of range, of the wrong type, or an unknown key
good_values = st.fixed_dictionaries(
    {  # the size keys are always given, so no run takes an experiment's full size
        "degrees": st.lists(st.integers(0, 8), min_size=1, max_size=3, unique=True),
        "trials": st.integers(1, 3),
        "points_per_trial": st.integers(2, 4),
    },
    optional={
        "shots": st.integers(0, 64),
        "simulator": st.sampled_from(["dense", "stream"]),
        "order": st.sampled_from(["backward", "forward"]),
        "noise_p1": st.one_of(st.just(0.0), st.floats(0.0, 0.1)),
        "noise_p2": st.one_of(st.just(0.0), st.floats(0.0, 0.2)),
        "window_cap": st.integers(1, 8),
    },
)
bad_entry = st.sampled_from([
    ("degrees", []), ("degrees", [-1]), ("degrees", 3), ("degrees", [1.5]), ("degrees", [2, 2]),
    ("trials", 0), ("trials", "2"), ("trials", 2.0), ("points_per_trial", 0),
    ("points_per_trial", None),
    ("shots", -1), ("shots", True), ("shots", 2**63), ("shots", 10**20),
    ("simulator", "gpu"), ("simulator", 1),
    ("order", "sideways"), ("noise_p1", 1.5), ("noise_p1", "0"), ("noise_p2", -0.1),
    ("window_cap", 0), ("window_cap", 2.5), ("no_such_key", 1),
    ("noise", None), ("__doc__", "x"),
])


@BENCH_PROPERTY
@given(
    experiment=st.sampled_from(["table1", "stress", "noise"]),
    overrides=good_values,
    bad=st.one_of(st.none(), bad_entry),
)
def test_bench_exits_with_a_documented_code_and_no_traceback(
    tmp_path, capsys, experiment, overrides, bad
):
    from dataclasses import replace

    from polyshot.compile import compile_poly
    from polyshot.poly import Polynomial
    from polyshot.stream import liveness

    overrides = dict(overrides, **dict([bad] if bad else []))
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(overrides))
    out_dir = tmp_path / "runs"
    code = run_cli("bench", experiment, "--config", str(config_path), "--out-dir", str(out_dir))
    out, err = capsys.readouterr()
    assert "Traceback" not in out + err
    if bad:
        assert code == 2 and err.startswith("error: ") and bad[0] in err
        return
    base = {"table1": bench.ExperimentConfig, "stress": bench.stress_config,
            "noise": bench.noise_config}[experiment]()
    config = replace(base, **dict(overrides, degrees=tuple(overrides["degrees"])))
    windowed = config.simulator == "stream" or config.noise is not None
    too_wide = [
        d for d in config.degrees if windowed and config.window_cap < liveness(
            build_circuit(compile_poly(Polynomial((0.1,) * (d + 1)), config.order), 0.0)
        ).peak_window
    ]
    if too_wide:
        trials = list(range(config.trials))
        assert code == 1 and err.startswith(f"error: degree={too_wide[0]} trials={trials}: ")
    else:
        assert code == 0, err
        report = json.loads((out_dir / f"{experiment}.json").read_text())
        assert len(report["records"]) == (
            len(config.degrees) * config.trials * config.points_per_trial
        )


def test_bench_names_the_degree_and_trials_of_a_failing_batch(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(
        {"degrees": [2, 6], "trials": 3, "simulator": "stream", "window_cap": 4}
    ))
    out_dir = tmp_path / "runs"
    assert run_cli("bench", "table1", "--config", str(config), "--out-dir", str(out_dir)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: degree=6 trials=[0, 1, 2]: window grows to 5 qubits")
    assert "forward" in err and "Traceback" not in err
    assert not out_dir.exists()


def test_bench_refuses_a_dense_degree_over_the_qubit_cap_before_any_point_runs(
    tmp_path, capsys, monkeypatch
):
    # the default stress degrees reach 35, and degree 30 is the first over the cap
    def no_draw(*args, **kwargs):
        raise AssertionError("a polynomial was drawn before the qubit cap check")

    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"simulator": "dense"}))
    out_dir = tmp_path / "runs"
    with monkeypatch.context() as patch:
        patch.setattr(bench, "gen_random_polys", no_draw)
        assert run_cli("bench", "stress", "--config", str(config), "--out-dir", str(out_dir)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: degree 30 needs 31 qubits, over the dense cap of 26")
    assert "stream" in err and "Traceback" not in err
    assert not out_dir.exists()
    # a noisy config runs every degree in the window, so the cap does not bind
    config.write_text(json.dumps(
        {"simulator": "dense", "degrees": [30], "trials": 1, "points_per_trial": 2,
         "noise_p2": 0.001}
    ))
    assert run_cli("bench", "stress", "--config", str(config), "--out-dir", str(out_dir)) == 0


def test_consecutive_main_calls_each_read_their_own_arguments(tmp_path, capsys, monkeypatch):
    # main builds its parser at its first call only; no call may see a flag of
    # an earlier one
    from polyshot import cli
    from polyshot.cli import build_parser

    builds = []
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build_parser())
    cli._parser.cache_clear()
    config = tmp_path / "cfg.json"
    config.write_text(
        '{"degrees": [1, 2], "trials": 1, "points_per_trial": 2, "shots": 64, "master_seed": 11}\n'
    )
    seeded, plain = tmp_path / "seeded", tmp_path / "plain"
    assert run_cli("bench", "noise", "--config", str(config), "--seed", "5",
                   "--out-dir", str(seeded)) == 0
    assert run_cli("bench", "noise", "--config", str(config), "--out-dir", str(plain)) == 0
    assert json.loads((seeded / "noise.json").read_text())["config"]["master_seed"] == 5
    assert json.loads((plain / "noise.json").read_text())["config"]["master_seed"] == 11

    coeffs, prog = tmp_path / "c.json", tmp_path / "prog.json"
    coeffs.write_text('{"coeffs": [0.1, 0.2, 0.3]}\n')
    run_cli("compile", "--coeffs", str(coeffs), "--out", str(prog))
    evaluate = ["evaluate", "--program", str(prog), "--x", "0.5"]
    capsys.readouterr()
    assert run_cli(*evaluate, "--seed", "3", "--shots", "64", "--sim", "stream") == 0
    flagged = capsys.readouterr().out
    assert run_cli("bench", "noise", "--config", str(config), "--seed", "5",
                   "--out-dir", str(seeded)) == 0
    capsys.readouterr()
    assert run_cli(*evaluate) == 0
    after = capsys.readouterr().out
    fresh = build_parser().parse_args(evaluate)
    assert fresh.fn(fresh) == 0
    assert after == capsys.readouterr().out != flagged
    assert builds == [1]
