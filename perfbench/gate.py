"""Correctness gate: checks every record a timed `polyshot bench` call wrote.

Checks, per record:
  * the records cover every (degree, trial, point) of the config, in order;
  * x is the config's grid point and `truth` equals eval_poly(P, x) exactly;
  * the estimate and stderr are a valid shot outcome: C (n0 - n1) / N and
    2C sqrt(p (1 - p) / N) for an integer n1 in [0, N];
  * n1 lies within a Bernstein bound (failure probability 1e-12 per point) of
    N p, where p = (1 - P(x)/C) / 2 is the exact noiseless probability.  Under
    noise the bound widens by N q, where q is the union bound on the
    probability that any Pauli error fires; any unbiased noise model that
    leaves error-free shots ideal passes, trajectories or an exact channel.
And, on a rotating subset of one point per checked degree, recomputed through
the public exact path (build_circuit, then run_statevector + expect_z and/or
run_window):
  * |C <Z> - P(x)| < 1e-9 on each simulator the circuit fits;
  * dense and stream agree to 1e-10 where both run.
"""
from __future__ import annotations

import json
import math

import numpy as np

EXACT_TOL = 1e-9
AGREE_TOL = 1e-10
# the cross-check runs dense on stream workloads only up to this many qubits,
# so the gate stays cheap next to the timed call
CROSS_CHECK_MAX_QUBITS = 12
# ln(2 / delta) for a per-point false-failure probability delta = 1e-12
_LOG_TERM = math.log(2.0 / 1e-12)


def bernstein_radius(variance: float) -> float:
    """t with P(|X - EX| >= t) <= 1e-12 for a sum of independent [0, 1] draws."""
    a = _LOG_TERM / 3.0
    return a + math.sqrt(a * a + 2.0 * variance * _LOG_TERM)


class Gate:
    """Regenerates each call's programs from its config and checks its records."""

    def __init__(self, polyshot, workload):
        self.ps = polyshot
        self.workload = workload

    def check_call(self, config, report_text: str, call_index: int) -> tuple[int, list[str]]:
        """Return (points failed, messages) for one call's report."""
        expected = len(config.degrees) * config.trials * config.points_per_trial
        try:
            return self._check(config, json.loads(report_text), call_index, expected)
        except (ValueError, KeyError, TypeError) as exc:
            return expected, [f"check raised {type(exc).__name__}: {exc}"]

    def _check(self, config, report: dict, call_index: int, expected: int):
        problems = self._check_config_echo(config, report.get("config", {}))
        if problems:
            return expected, problems
        records = report.get("records", [])
        keys = [(r["degree"], r["trial"], r["point_index"]) for r in records]
        want = [
            (d, t, p)
            for d in config.degrees
            for t in range(config.trials)
            for p in range(config.points_per_trial)
        ]
        if keys != want:
            return expected, [f"records cover {len(keys)} points, not the {expected} of the config"]
        failed: set[int] = set()
        messages: list[str] = []
        per_trial = config.points_per_trial
        xs = [float(x) for x in np.linspace(*config.x_domain, per_trial)]
        for block in range(len(want) // per_trial):
            degree, trial, _ = want[block * per_trial]
            poly, program, q_noise = self._program(config, degree, trial)
            for point, x in enumerate(xs):
                idx = block * per_trial + point
                why = self._check_record(config, poly, program, q_noise, x, records[idx])
                if why:
                    failed.add(idx)
                    messages.append(f"degree={degree} trial={trial} point={point}: {why}")
        n = len(config.degrees)
        for j in range(min(self.workload.check_degrees_per_call, n)):
            k = (call_index + j) % n
            degree = config.degrees[k]
            point = call_index % per_trial
            why = self._check_exact(config, degree, xs[point])
            if why:
                failed.add(k * config.trials * per_trial + point)
                messages.append(f"degree={degree} trial=0 point={point}: {why}")
        return len(failed), messages

    def _check_config_echo(self, config, echo: dict) -> list[str]:
        want = {
            "degrees": list(config.degrees),
            "points_per_trial": config.points_per_trial,
            "trials": config.trials,
            "shots": config.shots,
            "master_seed": config.master_seed,
            "simulator": config.simulator,
            "order": config.order,
            "noise_p1": config.noise_p1,
            "noise_p2": config.noise_p2,
        }
        return [
            f"config echo {key}={echo.get(key)!r}, expected {value!r}"
            for key, value in want.items()
            if echo.get(key) != value
        ]

    def _program(self, config, degree: int, trial: int):
        bench = self.ps.bench
        seed = self.ps.derive_seed(config.master_seed, degree, trial)
        poly = bench.gen_random_poly(degree, seed, config.coeff_bound, config.sup_rescale_target)
        program = self.ps.compile_poly(poly, config.order)
        q_noise = 0.0
        if config.noise is not None:
            circuit = self.ps.build_circuit(program, 0.0)
            q_noise = (
                config.noise_p1 * circuit.one_qubit_count
                + 2.0 * config.noise_p2 * circuit.two_qubit_count
            )
        return poly, program, min(q_noise, 1.0)

    def _check_record(self, config, poly, program, q_noise: float, x: float, rec: dict):
        if rec["x"] != x:
            return f"x={rec['x']!r}, grid point is {x!r}"
        truth = self.ps.eval_poly(poly, x)
        if rec["truth"] != truth:
            return f"truth={rec['truth']!r}, eval_poly gives {truth!r}"
        c, shots, est = program.rescale, config.shots, rec["estimate"]
        n1 = round((1.0 - est / c) * shots / 2.0)
        if not 0 <= n1 <= shots:
            return f"estimate {est!r} outside [-C, C]"
        if abs(est - c * (shots - 2 * n1) / shots) > 1e-12 * c:
            return f"estimate {est!r} is not C (n0 - n1) / N for any integer n1"
        p_hat = n1 / shots
        stderr = 2.0 * c * math.sqrt(p_hat * (1.0 - p_hat) / shots)
        if abs(rec["stderr"] - stderr) > 1e-12 * c:
            return f"stderr {rec['stderr']!r}, expected {stderr!r} for n1={n1}"
        p = min(max(0.5 * (1.0 - truth / c), 0.0), 1.0)
        if q_noise > 0.0:
            radius = shots * q_noise + bernstein_radius(shots / 4.0)
        else:
            radius = bernstein_radius(shots * p * (1.0 - p))
        if abs(n1 - shots * p) > radius:
            return f"n1={n1} is {abs(n1 - shots * p):.1f} from N p, beyond the bound {radius:.1f}"
        return None

    def _check_exact(self, config, degree: int, x: float):
        ps = self.ps
        poly, program, _ = self._program(config, degree, 0)
        circuit = ps.build_circuit(program, x)
        truth = ps.eval_poly(poly, x)
        zs = {}
        if config.simulator == "dense" or circuit.n_qubits <= CROSS_CHECK_MAX_QUBITS:
            zs["dense"] = ps.expect_z(ps.run_statevector(circuit), circuit.measured_qubit)
        if ps.liveness(circuit).peak_window <= config.window_cap:
            zs["stream"] = ps.run_window(circuit, config.window_cap)
        for sim, z in zs.items():
            err = abs(program.rescale * z - truth)
            if not err < EXACT_TOL:
                return f"{sim}: |C<Z> - P(x)| = {err:.3g}"
        if len(zs) == 2 and not abs(zs["dense"] - zs["stream"]) < AGREE_TOL:
            return f"dense and stream differ by {abs(zs['dense'] - zs['stream']):.3g}"
        return None
