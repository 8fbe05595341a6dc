import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from polyshot.bench import (
    ExperimentConfig,
    Record,
    RunReport,
    gen_random_poly,
    gen_random_polys,
    noise_config,
    records_csv,
    recovery_run,
    report_json,
    shot_scaling_experiment,
    stress_config,
    summary_table,
    write_report,
)
from polyshot.poly import Polynomial, sup_norms
from polyshot.rng import derive_seed, derive_seeds, generator

SMALL = ExperimentConfig(degrees=(1, 2, 3), points_per_trial=5, trials=2, shots=512)


def test_gen_random_poly_hits_sup_target():
    for d in (1, 3, 6):
        poly = gen_random_poly(d, derive_seed(42, d), 0.5, 0.5)
        assert sup_norms([poly.coeffs])[0] == pytest.approx(0.5, abs=1e-9)


def test_gen_random_poly_degree_zero_magnitude():
    poly = gen_random_poly(0, derive_seed(42, 0), 0.5, 0.5)
    assert abs(poly.coeffs[0]) == pytest.approx(0.5, abs=1e-12)


def test_gen_random_poly_golden_vector():
    poly = gen_random_poly(6, derive_seed(20250808, 6, 0), 0.5, 0.5)
    golden = (
        -0.043717045719625348,
        -0.31183605486051541,
        0.33368880283342012,
        -0.15660167347500156,
        0.45800681620400818,
        0.072164599439294638,
        -0.71587849740517484,
    )
    assert np.allclose(poly.coeffs, golden, atol=1e-12)


@pytest.mark.parametrize("bound", [0.0, -0.5, float("nan"), float("inf")])
def test_gen_random_poly_rejects_a_bound_with_no_draw(bound):
    # a coeff_bound of 0.0 used to loop forever waiting for a non-zero draw
    # from [-0, 0]; a sup_rescale_target of 0 or below rescales to no draw
    for key in ("coeff_bound", "sup_rescale_target"):
        with pytest.raises(ValueError, match=key):
            gen_random_poly(3, 11, **{key: bound})


def test_gen_random_poly_deterministic():
    a = gen_random_poly(4, derive_seed(7, 4, 1))
    b = gen_random_poly(4, derive_seed(7, 4, 1))
    assert a.coeffs == b.coeffs


def test_a_degree_s_draws_are_each_seed_drawn_alone_bit_for_bit():
    # one re-keyed Philox and one sup_norms call for the trials, against a
    # generator and a sup norm per seed
    for d in (0, 1, 6, 20, 35):
        seeds = derive_seeds(9, d, range(7))
        for bound, target in ((0.5, 0.5), (0.25, 1.0)):
            want = []
            for seed in seeds:
                a = generator(seed).uniform(-bound, bound, d + 1)
                scale = target / sup_norms([a])[0]
                want.append(tuple(float(c * scale) for c in a))
            got = gen_random_polys(d, seeds, bound, target)
            assert [poly.coeffs for poly in got] == want


def test_table1_report_shape():
    report = recovery_run(SMALL)
    assert len(report.records) == 3 * 2 * 5
    assert [row["degree"] for row in report.per_degree] == [1, 2, 3]
    for row in report.per_degree:
        assert row["qubits"] == row["degree"] + 1
        assert 0.0 <= row["pass_rate"] <= 1.0
        assert row["rmse_pred"] > 0.0


@pytest.mark.parametrize(
    "config, paper_degrees",
    [
        (ExperimentConfig(), [1, 2, 3, 4, 5, 6]),
        (ExperimentConfig(degrees=(2, 9), master_seed=5), [2]),
        (SMALL, []),  # the Table-1 protocol at other sizes is not Table 1
        (stress_config(), []),
        (noise_config(), []),
    ],
    ids=["table1", "table1-degrees-and-seed", "table1-resized", "stress", "noise"],
)
def test_paper_sim_columns_only_on_table1_rows(config, paper_degrees):
    rows = recovery_run(config).per_degree
    assert [row["degree"] for row in rows if "paper_sim_rmse" in row] == paper_degrees
    assert [row["degree"] for row in rows if "paper_sim_pass_pct" in row] == paper_degrees


def test_report_determinism_byte_identical():
    a = recovery_run(SMALL)
    b = recovery_run(SMALL)
    assert report_json(a, include_timings=False) == report_json(b, include_timings=False)
    assert records_csv(a) == records_csv(b)


def _dumps_reference(report, include_timings: bool) -> str:
    """The report as json.dumps writes it, records as dicts: what report_json
    writes, byte for byte."""
    payload = {
        "config": vars(report.config),
        "per_degree": report.per_degree,
        "records": [r._asdict() for r in report.records],
    }
    if include_timings:
        payload["timings_ms"] = report.timings_ms
    return json.dumps(payload) + "\n"


def _csv_reference(report) -> str:
    lines = ["%d,%d,%d,%.17g,%.17g,%.17g,%.17g" % r for r in report.records]
    return "\n".join(["degree,trial,point_index,x,truth,estimate,stderr", *lines, ""])


@pytest.mark.parametrize(
    "config",
    [
        ExperimentConfig(),
        stress_config(trials=2),
        noise_config(degrees=(1, 5, 10), trials=1, points_per_trial=4),
        replace(SMALL, shots=0),
    ],
    ids=["table1", "stress", "noise", "shots-0"],
)
def test_report_writers_match_json_dumps_and_the_record_layout(config):
    report = recovery_run(config)
    for include_timings in (True, False):
        assert report_json(report, include_timings) == _dumps_reference(report, include_timings)
    assert records_csv(report) == _csv_reference(report)
    assert records_csv(report).split("\n", 1)[0] == ",".join(Record._fields)


# floats of every size, the edge cases named; deterministic examples
_finite = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 0.0, 5e-324, -5e-324, 1e16, 1e-05, 2.0, 1e-07, 0.1, 1.7976931348623157e308]
)
_records = st.lists(
    st.builds(
        Record, st.integers(0, 40), st.integers(0, 10**6), st.integers(0, 99),
        _finite, _finite, _finite, _finite,
    ),
    max_size=12,
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          phases=(Phase.explicit, Phase.generate, Phase.shrink))
@given(records=_records)
def test_report_writers_write_any_finite_floats_as_json_dumps_and_17g_do(records):
    records = [
        *records,  # an x of -0.0 next to one of 0.0, and numpy float64s
        Record(3, 0, 0, -0.0, np.float64(0.5), 0.0, 1e-05),
        Record(3, 0, 0, 0.0, -0.0, np.float64(-0.0), 2.0),
        Record(3, 1, 4, np.float64(1e16), 5e-324, 1e-07, np.float64(0.1)),
    ]
    report = RunReport(SMALL, [], records, {"total": 1.5})
    for include_timings in (True, False):
        assert report_json(report, include_timings) == _dumps_reference(report, include_timings)
    assert records_csv(report) == _csv_reference(report)


def test_report_writers_of_no_record():
    report = RunReport(SMALL, [], [])
    assert report_json(report) == _dumps_reference(report, True)
    assert records_csv(report) == "degree,trial,point_index,x,truth,estimate,stderr\n"


def test_write_report_files(tmp_path):
    report = recovery_run(SMALL)
    json_path, csv_path = write_report(report, tmp_path, "table1")
    assert json_path.exists() and csv_path.exists()
    text = csv_path.read_text().splitlines()
    assert text[0] == "degree,trial,point_index,x,truth,estimate,stderr"
    assert len(text) == 1 + len(report.records)
    assert '"timings_ms"' in json_path.read_text()


def test_timings_split_each_degree_by_layer():
    report = recovery_run(stress_config(degrees=(1, 5), points_per_trial=3, trials=2))
    for d in (1, 5):
        laps = [
            report.timings_ms[f"degree_{d}.{layer}"]
            for layer in ("generate", "compile", "build_circuit", "simulate", "sample", "metrics")
        ]
        assert min(laps) > 0.0
        assert sum(laps) <= report.timings_ms[f"degree_{d}"]
    assert list(report.timings_ms)[-1] == "total"


def _with_a_zero_term(monkeypatch, trial_with_zero: int):
    """Trial `trial_with_zero` of every degree draws a polynomial with a zero
    x term, so its program skips that term's block; counts the plans built."""
    from polyshot import bench

    draw, bench_plan, plans = bench.gen_random_polys, bench.plan_programs, []

    def gen(degree, seeds, *args):
        polys = draw(degree, seeds, *args)
        zero = derive_seed(SMALL.master_seed, degree, trial_with_zero)
        return [
            Polynomial(poly.coeffs[:1] + (0.0,) + poly.coeffs[2:])
            if degree >= 1 and seed == zero
            else poly
            for poly, seed in zip(polys, seeds)
        ]

    def plan_programs(programs, xs):
        plans.append(len(programs))
        return bench_plan(programs, xs)

    monkeypatch.setattr(bench, "gen_random_polys", gen)
    monkeypatch.setattr(bench, "plan_programs", plan_programs)
    return plans


@pytest.mark.parametrize("simulator, order", [("dense", "backward"), ("stream", "forward")])
def test_trials_of_several_skeletons_split_into_batches_with_the_per_trial_report(
    monkeypatch, simulator, order
):
    from dataclasses import replace

    from polyshot import bench

    config = replace(SMALL, trials=4, simulator=simulator, order=order)
    plans = _with_a_zero_term(monkeypatch, trial_with_zero=2)
    report = recovery_run(config)
    assert plans == [3, 1] * 3  # per degree: trials 0, 1 and 3, then trial 2
    assert [r.trial for r in report.records[:20]] == [t for t in range(4) for _ in range(5)]
    # one batch per trial gives the same report, byte for byte
    monkeypatch.setattr(bench, "skeleton_key", lambda program: id(program))
    per_trial = recovery_run(config)
    assert plans[6:] == [1] * 12
    assert report_json(report, include_timings=False) == report_json(
        per_trial, include_timings=False
    )
    assert records_csv(report) == records_csv(per_trial)


def test_a_wide_dense_run_reruns_byte_identical_and_exact():
    # degrees 14-16 run one point at a time on the fused wide path
    from dataclasses import replace

    config = ExperimentConfig(degrees=(14, 15, 16), trials=1, points_per_trial=2, master_seed=61)
    first, second = recovery_run(config), recovery_run(config)
    assert report_json(first, include_timings=False) == report_json(second, include_timings=False)
    assert records_csv(first) == records_csv(second)
    exact = recovery_run(replace(config, shots=0))  # the estimate is C <Z>
    assert len(exact.records) == 6
    for record in exact.records:
        assert abs(record.estimate - record.truth) < 1e-9


def test_exact_z_takes_the_window_for_noise_and_else_the_configured_simulator():
    # a statevector cannot hold the mixed state the noise channel makes, so a
    # noisy dense config is swept on the window
    from dataclasses import replace

    from polyshot.bench import exact_z
    from polyshot.compile import compile_poly, plan_programs
    from polyshot.dense import expect_z_plan
    from polyshot.stream import run_window_plan

    rng = np.random.default_rng(62)
    programs = [compile_poly(Polynomial(tuple(rng.uniform(-1, 1, 5))), "backward") for _ in range(3)]
    batch = plan_programs(programs, [-0.5, 0.1, 0.8])
    noisy = replace(SMALL, noise_p1=0.01, noise_p2=0.02)
    assert noisy.simulator == SMALL.simulator == "dense"
    want = run_window_plan(batch, noisy.window_cap, noisy.noise)
    assert exact_z(batch, noisy) == want
    assert exact_z(batch, SMALL) == expect_z_plan(batch) != want


@pytest.mark.parametrize(
    "simulator, order, p",
    [(sim, order, 0.0) for sim in ("dense", "stream") for order in ("backward", "forward")]
    + [("stream", order, 0.01) for order in ("backward", "forward")],
)
def test_resource_counts_are_those_of_trial_0_at_the_first_x(simulator, order, p):
    # counted from the planned batch of mixed-sign trials, whose masked x acts
    # at point 0 on some terms and not on others
    from dataclasses import replace

    from polyshot.compile import build_circuit, compile_poly, plan_programs, resources
    from polyshot.rng import derive_seeds

    config = replace(SMALL, degrees=(2, 4, 6), trials=6, simulator=simulator, order=order,
                     noise_p1=p, noise_p2=p)
    report = recovery_run(config)
    xs = np.linspace(*config.x_domain, config.points_per_trial).tolist()
    at_point_0 = []
    for row in report.per_degree:
        d = row["degree"]
        programs = [
            compile_poly(gen_random_poly(d, seed, config.coeff_bound, config.sup_rescale_target),
                         order)
            for seed in derive_seeds(config.master_seed, d, range(config.trials))
        ]
        want = resources(build_circuit(programs[0], xs[0]))
        assert (row["qubits"], row["two_qubit_gates"], row["depth"]) == (
            want.qubits, want.two_qubit_gates, want.depth
        )
        batch = plan_programs(programs, xs)
        masks = [g.angle for g in batch.gates if g.kind == "x" and g.angle is not None]
        at_point_0 += [bool(mask[0]) for mask in masks]
    assert True in at_point_0 and False in at_point_0


def test_stress_small_run_qubit_counts():
    config = stress_config(degrees=(1, 5, 10), trials=2, points_per_trial=3)
    report = recovery_run(config)
    for row in report.per_degree:
        assert row["qubits"] == row["degree"] + 1


def test_noise_config_small_run_degrades():
    config = noise_config(
        degrees=(1, 8, 16), points_per_trial=6, trials=2, shots=256, noise_p2=0.02
    )
    report = recovery_run(config)
    rows = {row["degree"]: row for row in report.per_degree}
    assert rows[16]["pearson"] < rows[1]["pearson"]


def test_infinite_shot_surrogate_is_exact():
    config = ExperimentConfig(degrees=(1, 3, 6), points_per_trial=7, trials=2, shots=0)
    report = recovery_run(config)
    for row in report.per_degree:
        assert row["rmse"] < 1e-9
    assert all(r.stderr == 0.0 for r in report.records)


def test_summary_table_formats():
    report = recovery_run(SMALL)
    table = summary_table(report)
    assert "deg" in table.splitlines()[0]
    assert len(table.splitlines()) == 1 + len(report.per_degree)


def _noiseless_report_digests(monkeypatch) -> dict:
    """sha256 of the seeded noiseless table1 (dense), stress (stream) and shots
    reports, the shots run at 3 repetitions of 5 points."""
    import hashlib
    import json

    from polyshot import bench

    def digest(text: str) -> str:
        return hashlib.sha256(text.encode()).hexdigest()

    table1 = recovery_run(SMALL)
    stress = recovery_run(stress_config(degrees=(1, 10, 20), points_per_trial=3, trials=2))
    monkeypatch.setattr(bench, "SHOTS_REPETITIONS", 3)
    monkeypatch.setattr(bench, "SHOTS_POINTS", 5)
    shots = shot_scaling_experiment()
    return {
        "table1_json": digest(report_json(table1, include_timings=False)),
        "table1_csv": digest(records_csv(table1)),
        "stress_json": digest(report_json(stress, include_timings=False)),
        "stress_csv": digest(records_csv(stress)),
        "shots_json": digest(json.dumps(shots)),
    }


def test_noiseless_reports_match_golden_digests(monkeypatch):
    import json
    from pathlib import Path

    golden = Path(__file__).parent / "goldens" / "noiseless_report_digests.json"
    assert _noiseless_report_digests(monkeypatch) == json.loads(golden.read_text())
