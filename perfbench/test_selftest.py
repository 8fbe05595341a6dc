"""Self-test of the benchmark: it measures the real `polyshot bench` path.

    python3 -m pytest perfbench -q

For every workload, the artifacts of the benchmark's in-process call (plain
and traced) must equal, once timings_ms is stripped, those of a plain
`python -m polyshot.cli bench <experiment> --config ... --seed ...` run in a
fresh interpreter.  The gate must pass those artifacts and fail corrupted ones.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from gate import Gate  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 4242


@pytest.fixture(scope="module")
def polyshot():
    return run.import_polyshot()


def cli_artifacts(workload, config_path: Path, out_dir: Path) -> tuple[str, str]:
    env = dict(os.environ, PYTHONPATH=str(run.SRC))
    cmd = [sys.executable, "-m", "polyshot.cli", "bench", workload.experiment,
           "--config", str(config_path), "--seed", str(SEED), "--out-dir", str(out_dir)]
    subprocess.run(cmd, cwd=run.ROOT, env=env, check=True, capture_output=True, timeout=120)
    stem = workload.experiment
    return (out_dir / f"{stem}.json").read_text(), (out_dir / f"{stem}_records.csv").read_text()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_benchmark_call_matches_plain_cli_run(name, polyshot, tmp_path):
    workload = WORKLOADS[name]
    session = run.Session(polyshot, workload, tmp_path / "bench")
    session.write_config(workload.overrides)
    plain = session.call(SEED, "plain")
    tracer = Tracer()
    tracer.install(0)
    try:
        traced = session.call(SEED, "traced")
    finally:
        tracer.uninstall()
    assert plain["rc"] == 0 and traced["rc"] == 0
    assert tracer.spans, "the traced call recorded no spans"
    assert session.same_artifacts(plain, traced)

    report, csv = session.artifacts(plain)
    cli_report, cli_csv = cli_artifacts(workload, session.config_path, tmp_path / "cli")
    assert run.strip_timings(report) == run.strip_timings(cli_report)
    assert csv == cli_csv

    gate = Gate(polyshot, workload)
    config = workload.config(polyshot.bench, SEED)
    assert gate.check_call(config, report, 0) == (0, [])


def test_gate_flags_corrupted_records(polyshot, tmp_path):
    workload = WORKLOADS["table1"]
    session = run.Session(polyshot, workload, tmp_path)
    session.write_config(workload.overrides)
    call = session.call(SEED, "0")
    report = json.loads(session.artifacts(call)[0])
    config = workload.config(polyshot.bench, SEED)
    gate = Gate(polyshot, workload)

    wrong_truth = json.loads(json.dumps(report))
    wrong_truth["records"][3]["truth"] += 1e-15
    n_failed, messages = gate.check_call(config, json.dumps(wrong_truth), 0)
    assert n_failed == 1 and "eval_poly" in messages[0]

    biased = json.loads(json.dumps(report))
    rec = biased["records"][7]
    rec["estimate"] = -rec["estimate"] if abs(rec["estimate"]) > 0.2 else rec["estimate"] + 0.25
    assert gate.check_call(config, json.dumps(biased), 0)[0] == 1

    truncated = json.loads(json.dumps(report))
    del truncated["records"][-1]
    assert gate.check_call(config, json.dumps(truncated), 0)[0] == len(report["records"])


def test_tracer_tolerates_a_target_the_program_no_longer_has(polyshot, tmp_path, monkeypatch):
    monkeypatch.delattr(polyshot.bench, "_sample")
    workload = WORKLOADS["table1"]
    session = run.Session(polyshot, workload, tmp_path)
    session.write_config({"degrees": [2], "trials": 1, "points_per_trial": 2})
    tracer = Tracer()
    tracer.install(0)
    try:
        assert session.call(SEED, "0")["rc"] == 0
    finally:
        tracer.uninstall()
    assert "bench._sample" in tracer.never_called()
    assert not hasattr(polyshot.bench, "_sample")
