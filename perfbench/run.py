#!/usr/bin/env python3
"""Host-time benchmark for polyshot.

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 20 --trace 0

Run from the root of a polyshot source tree; it imports polyshot from ./src
and drives it only through `polyshot.cli.main(["bench", ...])`, in process.
One client, closed loop: each `polyshot bench` call starts when the previous
one returns, and call i gets master seed seed * 10000 + i, so inputs follow
from --seed and never repeat inside a run.  BLAS is pinned to one thread.

--trace 0 prints the end-to-end metrics: set-up time (median of fresh
interpreters that import polyshot, write the config and make the warm-up
call), points per second (median over the timed calls) and peak RSS.  Both
timings are rescaled by the host-speed probe below.
--trace 1 alternates untraced and traced calls on the same seeds and prints
the per-layer metrics of the traced calls (see tracer.py).  Both modes then
check every record (see gate.py), and exit 1 if any check failed.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""
from __future__ import annotations

import time

_T_PROCESS = time.perf_counter()

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SEED_STRIDE = 10_000
SETUP_PROBES = 5
MIN_CALLS = 2
PROBE_TIMEOUT_S = 60
# Host-speed probe.  The shared host's speed drifts by 20% and more over tens
# of seconds; a fixed pure-Python loop timed right before and after each
# measured interval tracks that drift, and every timing metric is rescaled to
# the speed at which the loop takes REF_NOMINAL_S (its median on the 2-vCPU
# host the baseline was taken on).  Raw wall-clock figures are printed too.
REF_ITERATIONS = 400_000
REF_NOMINAL_S = 0.020


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def import_polyshot():
    sys.path.insert(0, str(SRC))
    import polyshot
    import polyshot.cli

    if Path(polyshot.__file__).resolve().parent != SRC / "polyshot":
        raise ImportError(f"polyshot imported from {polyshot.__file__}, not from {SRC}")
    return polyshot


def strip_timings(report_text: str) -> str:
    """The report without its volatile trailing timings_ms block."""
    cut = report_text.rfind(', "timings_ms": ')
    return report_text if cut < 0 else report_text[:cut]


class Session:
    """One workload's calls into `polyshot bench`; each call writes its own out dir."""

    def __init__(self, polyshot, workload, run_dir: Path):
        self.ps = polyshot
        self.workload = workload
        self.run_dir = run_dir
        self.config_path = run_dir / "config.json"
        run_dir.mkdir(parents=True, exist_ok=True)

    def write_config(self, overrides: dict) -> None:
        self.config_path.write_text(json.dumps(overrides))

    def call(self, master_seed: int, tag: str) -> dict:
        """One `polyshot bench` invocation; returns its wall time and out dir."""
        out_dir = self.run_dir / "out" / tag
        argv = [
            "bench", self.workload.experiment,
            "--config", str(self.config_path),
            "--seed", str(master_seed),
            "--out-dir", str(out_dir),
        ]
        sink = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                rc = self.ps.cli.main(argv)
        except (Exception, SystemExit) as exc:  # a crash is a failed call, not a dead run
            rc = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        result = {"seed": master_seed, "wall": wall, "rc": rc, "dir": out_dir}
        if rc != 0:
            result["error"] = f"exit {rc}: {sink.getvalue().strip()[-500:]}"
        return result

    def warm_up(self) -> dict:
        """The set-up call at the smallest size, then this workload's config file."""
        from workloads import WARMUP_OVERRIDES

        self.write_config(WARMUP_OVERRIDES)
        warm = self.call(0, "warmup")
        self.write_config(self.workload.overrides)
        return warm

    def artifacts(self, call: dict) -> tuple[str, str]:
        """The call's JSON report and records CSV, as written."""
        stem = self.workload.experiment
        return ((call["dir"] / f"{stem}.json").read_text(),
                (call["dir"] / f"{stem}_records.csv").read_text())

    def same_artifacts(self, a: dict, b: dict) -> bool:
        """Byte-identical records CSV, and JSON report once timings_ms is stripped."""
        if not a["rc"] == b["rc"] == 0:
            return False
        (report_a, csv_a), (report_b, csv_b) = self.artifacts(a), self.artifacts(b)
        return strip_timings(report_a) == strip_timings(report_b) and csv_a == csv_b


def setup_probe(workload, run_dir: Path) -> int:
    """Import, config generation and one warm-up call in this fresh interpreter."""
    ps = import_polyshot()
    session = Session(ps, workload, run_dir)
    warm = session.warm_up()
    if warm["rc"] != 0:
        print(warm["error"], file=sys.stderr)
        return 1
    print(repr(time.perf_counter() - _T_PROCESS))
    return 0


def measure_setup(args) -> float:
    """Median set-up time over fresh interpreters, each timed from its own start."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    samples = []
    refs = [host_reference_s()]
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, check=False)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
        samples.append(float(done.stdout.strip().splitlines()[-1]))
        refs.append(host_reference_s())
    print(f"setup_s raw wall = {statistics.median(samples)!r} s")
    return statistics.median(t * f for t, f in zip(samples, speed_factors(refs)))


def host_reference_s() -> float:
    """Wall time of the fixed pure-Python reference loop."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(REF_ITERATIONS):
        acc += i
    return time.perf_counter() - t0


def speed_factors(refs: list[float]) -> list[float]:
    """Per interval i, REF_NOMINAL_S over the mean reference time around it."""
    return [2.0 * REF_NOMINAL_S / (a + b) for a, b in zip(refs, refs[1:])]


def timed_loop(seconds: float, step) -> list[float]:
    """Call step(i) for i = 0, 1, ... until `seconds` have passed.

    Returns the reference-loop times taken before each step and after the last.
    """
    refs = [host_reference_s()]
    t0 = time.perf_counter()
    i = 0
    while i < MIN_CALLS or time.perf_counter() - t0 < seconds:
        step(i)
        refs.append(host_reference_s())
        i += 1
    return refs


def measure_plain(session: Session, args, base_seed: int, points_per_call: int, calls: list):
    """End-to-end metrics: untraced calls, then a same-seed rerun of the first."""
    setup_s = measure_setup(args)
    session.warm_up()
    refs = timed_loop(args.seconds, lambda i: calls.append(session.call(base_seed + i, str(i))))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rerun = session.call(calls[0]["seed"], "rerun")
    if calls[0]["rc"] == 0 and not session.same_artifacts(calls[0], rerun):
        calls[0]["mismatch"] = "a same-seed rerun gave different records"
    done = [(c["wall"], f) for c, f in zip(calls, speed_factors(refs)) if c["rc"] == 0]
    # a run whose calls all failed completed 0 points per second
    raw = statistics.median(points_per_call / w for w, _ in done) if done else 0.0
    rate = statistics.median(points_per_call / (w * f) for w, f in done) if done else 0.0
    print(f"timed calls: {len(calls)}, {points_per_call} points each")
    print(f"host reference loop: median {1000 * statistics.median(refs)!r} ms, "
          f"nominal {1000 * REF_NOMINAL_S} ms")
    print(f"points_per_s raw wall = {raw!r} 1/s")
    return {"setup_s": setup_s, "points_per_s": rate, "peak_rss_mb": peak_rss_mb}


def measure_traced(session: Session, args, base_seed: int, points_per_call: int, calls: list):
    """Per-layer metrics: twin calls per seed, one untraced and one traced."""
    from tracer import Tracer, layer_metrics

    session.warm_up()
    tracer = Tracer()
    pairs = []

    def step(i):
        # alternate which twin runs first, so neither always finds the warmer caches
        twins = {}
        for traced in (i % 2 == 1, i % 2 == 0):
            if traced:
                tracer.install(i)
            try:
                twins[traced] = session.call(base_seed + i, f"{i}t" if traced else str(i))
            finally:
                tracer.uninstall()
        pairs.append((twins[False], twins[True]))

    timed_loop(args.seconds, step)
    tracer.write(session.run_dir / "spans.csv")
    for plain, traced in pairs:
        calls.append(plain)
        if plain["rc"] == 0 and not session.same_artifacts(plain, traced):
            plain["mismatch"] = "traced records differ from the untraced ones"
    never = tracer.never_called()
    print(f"traced calls: {len(pairs)}, {points_per_call} points each")
    print(f"never called ({len(never)}): {', '.join(never) or '-'}")
    return layer_metrics(tracer, session.ps, pairs, points_per_call)


def machine() -> dict:
    import numpy

    commit = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=False)
        if done.returncode == 0:
            commit = done.stdout.strip()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "commit": commit,
    }


def run(args, workload, declared: dict) -> int:
    from gate import Gate

    run_dir = RUNS / workload.name
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    ps = import_polyshot()
    session = Session(ps, workload, run_dir)
    config = workload.config(ps.bench, 0)
    points_per_call = len(config.degrees) * config.trials * config.points_per_trial
    base_seed = args.seed * SEED_STRIDE
    calls: list[dict] = []  # every timed call; the gate checks each one's records
    measure = measure_traced if args.trace else measure_plain
    metrics = measure(session, args, base_seed, points_per_call, calls)

    gate = Gate(ps, workload)
    failures: list[str] = []
    attempted = points_failed = 0
    for i, c in enumerate(calls):
        attempted += points_per_call
        problems = [c["error"]] if c["rc"] != 0 else [c["mismatch"]] if "mismatch" in c else []
        if problems:
            points_failed += points_per_call
        else:
            n_failed, problems = gate.check_call(
                workload.config(ps.bench, c["seed"]), session.artifacts(c)[0], i)
            points_failed += n_failed
        failures.extend(f"call {i}: {m}" for m in problems)

    for line in failures[:20]:
        print(f"FAILED {line}")
    print(f"machine: {json.dumps(machine())}")
    print(f"failed_frac = {points_failed / attempted!r} ({points_failed} of {attempted} points)")
    if set(declared) != set(metrics):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(declared) ^ set(metrics))}")
    out = {}
    for name, unit in declared.items():
        print(f"{name} = {metrics[name]!r} {unit}")
        out[name] = {"value": metrics[name], "unit": unit}
    correct = points_failed == 0 and not failures
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": points_failed,
                      "metrics": out}))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "polyshot" / "__init__.py").is_file():
        print(f"error: no polyshot source tree at {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(workload, RUNS / workload.name / "probe")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    return run(args, workload, declared)


if __name__ == "__main__":
    sys.exit(main())
