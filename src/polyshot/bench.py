"""Experiment harness: the random-polynomial recovery run and the shot-noise
scaling run.  The paper's three recovery protocols are one run under three
configs: Table 1 (ExperimentConfig), the high-degree windowed stress run
(stress_config) and the noise sweep (noise_config).

Reports are deterministic: every stochastic draw is keyed by
derive_seed(master_seed, degree, trial, point), so scheduling cannot change
any number.  Reports are written by json.dumps, so every float is in its
shortest round-trip form and json.loads gives back the same double.  The JSON
report carries a volatile "timings_ms" block; the canonical serialization
used for determinism checks omits it.
"""
from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .circuit import Circuit
from .compile import ORDERS, compile_poly, plan_programs, resources, skeleton_key
from .dense import DEFAULT_QUBIT_CAP, MAX_SHOTS, CapacityError, NoiseModel, draw_shots_batch
from .dense import expect_z_plan, prob_one
from .estimate import Estimate, point_estimate, run_metrics, shot_scaling_fit
from .poly import Polynomial, eval_poly, sup_norms
from .rng import derive_seed, derive_seeds, generator, rekeyed
from .stream import DEFAULT_WINDOW_CAP, run_window_plan

TABLE1_PAPER_SIM = {
    # degree: (rmse, pass %) from the reference simulator column
    1: (0.016, 95.6),
    2: (0.018, 91.1),
    3: (0.016, 95.6),
    4: (0.013, 97.8),
    5: (0.014, 97.8),
    6: (0.015, 95.6),
}


@dataclass(frozen=True)
class ExperimentConfig:
    degrees: tuple[int, ...] = (1, 2, 3, 4, 5, 6)
    points_per_trial: int = 15
    x_domain: tuple[float, float] = (-0.9, 0.9)
    trials: int = 10
    shots: int = 4096
    master_seed: int = 20250808
    coeff_bound: float = 0.5
    sup_rescale_target: float = 0.5
    simulator: str = "dense"  # or "stream"
    order: str = "backward"
    noise_p1: float = 0.0
    noise_p2: float = 0.0
    window_cap: int = DEFAULT_WINDOW_CAP

    def __post_init__(self):
        """Reject a config no run can use, naming the field, before any point runs."""
        lo, hi = self.x_domain
        if not (-1.0 <= lo < hi <= 1.0):
            raise ValueError(f"x_domain must satisfy -1 <= lo < hi <= 1, got {self.x_domain}")
        if not self.degrees or min(self.degrees) < 0 or len(set(self.degrees)) < len(self.degrees):
            raise ValueError(
                f"degrees must be a non-empty list of distinct ints >= 0, got {self.degrees}"
            )
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.trials * self.points_per_trial < 2:
            raise ValueError(
                "trials * points_per_trial must be >= 2: the metrics need two points per degree"
            )
        if not 0 <= self.shots <= MAX_SHOTS:
            raise ValueError(
                f"shots must lie in [0, {MAX_SHOTS}] (0 = exact-expectation surrogate), "
                f"got {self.shots}"
            )
        for key in ("coeff_bound", "sup_rescale_target"):
            v = getattr(self, key)
            if not (np.isfinite(v) and v > 0.0):
                raise ValueError(f"{key} must be finite and > 0, got {v}")
        if self.window_cap < 1:
            raise ValueError(f"window_cap must be >= 1, got {self.window_cap}")
        for key in ("noise_p1", "noise_p2"):
            p = getattr(self, key)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{key} must lie in [0, 1], got {p}")
        if self.simulator not in ("dense", "stream"):
            raise ValueError(f"unknown simulator {self.simulator!r}")
        if self.order not in ORDERS:
            raise ValueError(f"order must be one of {ORDERS}, got {self.order!r}")

    @property
    def noise(self) -> NoiseModel | None:
        if self.noise_p1 == 0.0 and self.noise_p2 == 0.0:
            return None
        return NoiseModel(self.noise_p1, self.noise_p2)


def stress_config(**overrides) -> ExperimentConfig:
    base = ExperimentConfig(
        degrees=(1, 5, 10, 15, 25, 30, 35),
        points_per_trial=5,
        trials=10,
        shots=1024,
        simulator="stream",
        order="forward",
        sup_rescale_target=1.0,
        coeff_bound=0.5,
    )
    return replace(base, **overrides)


def noise_config(**overrides) -> ExperimentConfig:
    base = ExperimentConfig(
        degrees=tuple(range(1, 21)),
        points_per_trial=10,
        trials=6,
        shots=2048,
        simulator="stream",
        order="forward",
        sup_rescale_target=0.5,
        noise_p1=0.001,
        noise_p2=0.005,
    )
    return replace(base, **overrides)


@dataclass(frozen=True)
class Record:
    degree: int
    trial: int
    point_index: int
    x: float
    truth: float
    estimate: float
    stderr: float


@dataclass
class RunReport:
    config: ExperimentConfig
    per_degree: list[dict]
    records: list[Record]
    timings_ms: dict[str, float] = field(default_factory=dict)


def gen_random_polys(
    degree: int, seeds: list[int], coeff_bound: float = 0.5, sup_rescale_target: float = 0.5
) -> list[Polynomial]:
    """Uniform coefficient draws, one per seed, each rescaled so max |P| over
    [-1, 1] hits the target.  The draws come from one Philox re-keyed per seed
    (rng.rekeyed) and their sup norms from one poly.sup_norms call, so each
    polynomial is gen_random_poly's for its seed, bit for bit."""
    if degree < 0:
        raise ValueError("degree must be >= 0")
    for key, v in (("coeff_bound", coeff_bound), ("sup_rescale_target", sup_rescale_target)):
        if not (np.isfinite(v) and v > 0.0):
            raise ValueError(f"{key} must be finite and > 0, got {v}")
    draws = np.array([gen.uniform(-coeff_bound, coeff_bound, degree + 1) for gen in rekeyed(seeds)])
    for a, attempt in zip(draws, seeds):
        while not np.any(a != 0.0):  # probability-zero redraw path
            attempt += 1
            a[:] = generator(attempt).uniform(-coeff_bound, coeff_bound, degree + 1)
    scales = sup_rescale_target / np.array(sup_norms(draws))
    return [Polynomial(tuple(a)) for a in draws * scales[:, None]]


def gen_random_poly(
    degree: int, seed: int, coeff_bound: float = 0.5, sup_rescale_target: float = 0.5
) -> Polynomial:
    """Uniform coefficient draw rescaled so max |P| over [-1, 1] hits the
    target: gen_random_polys of one seed."""
    return gen_random_polys(degree, [seed], coeff_bound, sup_rescale_target)[0]


def exact_z(batch: Circuit, config: ExperimentConfig) -> list[float]:
    """Exact <Z> at each point of a circuit, in order, on the configured
    simulator, noise included, from a sweep of the batch in chunks: windowed,
    or a statevector.  A statevector cannot hold the mixed state the noise
    channel produces, so a noisy circuit always takes the windowed sweep.
    This is the one evaluation path: `polyshot evaluate`, every recovery run
    and the shot-scaling run take their <Z> from it."""
    noise = config.noise
    if config.simulator == "stream" or noise is not None:
        return run_window_plan(batch, config.window_cap, noise)
    return expect_z_plan(batch)


def recovery_run(config: ExperimentConfig) -> RunReport:
    """Draw, compile and sample `trials` random polynomials of each degree at
    `points_per_trial` points, and score the estimates against the truths.

    Each degree's trials run as one batch per skeleton_key (random draws make
    one): one circuit of trials x points, one sweep, and one re-keyed Philox.
    A noise model of two zero rates is no noise model, so it gives the
    noiseless run bit for bit.  A noiseless dense run with a degree wider than
    the dense qubit cap raises CapacityError before any point runs."""
    if config.simulator == "dense" and config.noise is None:
        for degree in config.degrees:
            if degree + 1 > DEFAULT_QUBIT_CAP:
                raise CapacityError(
                    f"degree {degree} needs {degree + 1} qubits, over the dense cap of "
                    f"{DEFAULT_QUBIT_CAP}; run it on the windowed stream simulator"
                )
    t0 = time.perf_counter()
    lo, hi = config.x_domain
    grid = np.linspace(lo, hi, config.points_per_trial)
    xs = grid.tolist()
    # the reference column belongs to the Table-1 protocol, at any degrees and seed
    table1 = ExperimentConfig(degrees=config.degrees, master_seed=config.master_seed)
    paper_sim = TABLE1_PAPER_SIM if config == table1 else {}
    records: list[Record] = []
    per_degree: list[dict] = []
    timings: dict[str, float] = {}
    for degree in config.degrees:
        t_deg = time.perf_counter()
        seeds = derive_seeds(config.master_seed, degree, range(config.trials))
        bound, target = config.coeff_bound, config.sup_rescale_target
        polys = gen_random_polys(degree, seeds, bound, target)
        t_compile = time.perf_counter()
        programs = [compile_poly(poly, config.order) for poly in polys]
        t_build = time.perf_counter()
        laps = {"generate": t_compile - t_deg, "compile": t_build - t_compile}
        laps["build_circuit"] = laps["simulate"] = 0.0
        groups: dict[tuple, list[int]] = {}  # the trials of one skeleton share a circuit
        for trial, program in enumerate(programs):
            groups.setdefault(skeleton_key(program), []).append(trial)
        zs: dict[int, list[float]] = {}  # each trial's, one per x
        for trials in groups.values():  # trial 0's first
            t_build = time.perf_counter()
            try:
                batch = plan_programs([programs[t] for t in trials], xs)
                if trials[0] == 0:  # whose point 0, trial 0 at xs[0], the row counts
                    deg_resources = resources(batch)
                t_sim = time.perf_counter()
                batch_zs = exact_z(batch, config)
            except Exception as exc:
                raise RuntimeError(f"degree={degree} trials={trials}: {exc}") from exc
            zs.update((t, batch_zs[j * len(xs) : (j + 1) * len(xs)]) for j, t in enumerate(trials))
            laps["build_circuit"] += t_sim - t_build
            laps["simulate"] += time.perf_counter() - t_sim
        t_sample = time.perf_counter()
        points = [(trial, point) for trial in range(config.trials) for point in range(len(xs))]
        z_all = [zs[trial][point] for trial, point in points]
        truths = [v for poly in polys for v in eval_poly(poly, grid).tolist()]
        cs = [programs[trial].rescale for trial, _ in points]
        if config.shots == 0:  # infinite-shot surrogate
            estimates = [Estimate(c * z, 0.0) for c, z in zip(cs, z_all)]
        else:  # one row of per-point seeds per trial
            prefix = (config.master_seed, degree)
            seeds = [derive_seeds(*prefix, trial, range(len(xs))) for trial in range(config.trials)]
            outcomes = draw_shots_batch(z_all, config.shots, [s for row in seeds for s in row])
            estimates = [point_estimate(outcome, c) for outcome, c in zip(outcomes, cs)]
        values = [est.value for est in estimates]
        records += [
            Record(degree, trial, point, xs[point], truth, est.value, est.stderr)
            for (trial, point), truth, est in zip(points, truths, estimates)
        ]
        t_metrics = time.perf_counter()
        laps["sample"] = t_metrics - t_sample
        metrics = run_metrics(list(zip(truths, values)))
        c = np.array(cs)
        norm_resid = np.array(values) / c - np.array(truths) / c
        row = {
            "degree": degree,
            "rmse": metrics.rmse,
            "pearson": metrics.pearson,
            "pass_rate": metrics.pass_rate,
            "rmse_normalized": float(np.sqrt(np.mean(norm_resid**2))),
            "qubits": deg_resources.qubits,
            "two_qubit_gates": deg_resources.two_qubit_gates,
            "depth": deg_resources.depth,
        }
        if config.shots and config.noise is None:  # the shot-noise prediction
            p1 = prob_one(z_all)
            row["rmse_pred"] = float(np.mean(2.0 * c * np.sqrt(p1 * (1.0 - p1) / config.shots)))
        if degree in paper_sim:
            row["paper_sim_rmse"], row["paper_sim_pass_pct"] = paper_sim[degree]
        per_degree.append(row)
        laps["metrics"] = time.perf_counter() - t_metrics
        for layer in ("generate", "compile", "build_circuit", "simulate", "sample", "metrics"):
            timings[f"degree_{degree}.{layer}"] = 1000.0 * laps[layer]
        timings[f"degree_{degree}"] = 1000.0 * (time.perf_counter() - t_deg)
    timings["total"] = 1000.0 * (time.perf_counter() - t0)
    return RunReport(config, per_degree, records, timings)


# the shot-scaling run: a backward program of this degree, sampled at this
# many points over [-0.9, 0.9], this many times at each shot count
SHOTS_DEGREE = 4
SHOTS_POINTS = 15
SHOTS_REPETITIONS = 50
SHOTS_LIST = (2**8, 2**10, 2**12, 2**14, 2**16)


def shot_scaling_experiment(master_seed: int = ExperimentConfig.master_seed) -> dict:
    """Empirical RMSE against shot count for one fixed random program."""
    degree, points, repetitions = SHOTS_DEGREE, SHOTS_POINTS, SHOTS_REPETITIONS
    poly = gen_random_poly(degree, derive_seed(master_seed, degree, 0))
    program = compile_poly(poly, "backward")
    grid = np.linspace(-0.9, 0.9, points)
    xs = grid.tolist()
    truths = eval_poly(poly, grid).tolist()
    zs = exact_z(plan_programs([program], xs), ExperimentConfig())
    rows = []
    for n_idx, shots in enumerate(SHOTS_LIST):
        prefix = (master_seed, degree, n_idx)
        seeds = [derive_seeds(*prefix, rep, range(points)) for rep in range(repetitions)]
        outcomes = draw_shots_batch(zs * repetitions, shots, [s for row in seeds for s in row])
        sq_errs = [
            (point_estimate(outcome, program.rescale).value - truth) ** 2
            for outcome, truth in zip(outcomes, truths * repetitions)
        ]
        rows.append({"shots": shots, "rmse": float(np.sqrt(np.mean(sq_errs)))})
    slope = shot_scaling_fit([(r["shots"], r["rmse"]) for r in rows])
    return {
        "master_seed": master_seed,
        "degree": degree,
        "repetitions": repetitions,
        "points": points,
        "per_shots": rows,
        "slope": slope,
    }


# --- serialization ---------------------------------------------------------


def report_json(report: RunReport, include_timings: bool = True) -> str:
    payload = {
        "config": vars(report.config),
        "per_degree": report.per_degree,
        "records": [vars(r) for r in report.records],
    }
    if include_timings:
        payload["timings_ms"] = report.timings_ms
    return json.dumps(payload) + "\n"


def records_csv(report: RunReport) -> str:
    lines = ["degree,trial,point_index,x,truth,estimate,stderr"]
    for r in report.records:
        lines.append(
            f"{r.degree},{r.trial},{r.point_index},"
            f"{format(r.x, '.17g')},{format(r.truth, '.17g')},"
            f"{format(r.estimate, '.17g')},{format(r.stderr, '.17g')}"
        )
    return "\n".join(lines) + "\n"


def write_report(report: RunReport, out_dir: str | Path, stem: str) -> tuple[Path, Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    json_path = out / f"{stem}.json"
    csv_path = out / f"{stem}_records.csv"
    json_path.write_text(report_json(report))
    csv_path.write_text(records_csv(report))
    return json_path, csv_path


def summary_table(report: RunReport) -> str:
    header = f"{'deg':>4} {'rmse':>9} {'pearson':>9} {'pass%':>7} {'qubits':>7} {'2q':>5} {'depth':>6}"
    lines = [header]
    for row in report.per_degree:
        pearson = "n/a" if row["pearson"] is None else f"{row['pearson']:.4f}"
        lines.append(
            f"{row['degree']:>4} {row['rmse']:>9.5f} {pearson:>9} "
            f"{100.0 * row['pass_rate']:>6.1f}% {row['qubits']:>7} "
            f"{row['two_qubit_gates']:>5} {row['depth']:>6}"
        )
    return "\n".join(lines)
