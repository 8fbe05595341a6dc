"""The benchmark's workloads: which `polyshot bench` experiment each one runs,
and with which config overrides.  Why each one exists is recorded in
BENCHMARK.json and README.md.

A timed run repeats one workload's invocation in a closed loop with a fresh
master seed per call, so the program sees new polynomials on every call and
nothing can be served from a cache.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

# The set-up call: the workload's experiment, simulator, order, shots and
# noise, at the smallest size `polyshot bench` accepts (run_metrics needs two
# points per degree).  It runs every code path the workload runs, so first-call
# costs land in set-up and not in the first timed call.
WARMUP_OVERRIDES = {"degrees": [1], "trials": 1, "points_per_trial": 2}


@dataclass(frozen=True)
class Workload:
    name: str
    experiment: str  # `polyshot bench` subcommand
    overrides: dict = field(default_factory=dict)  # written to the --config file
    # degrees whose exact expectation the gate recomputes after each call,
    # rotating through the config's degrees from call to call
    check_degrees_per_call: int = 1

    def config(self, bench, master_seed: int):
        """The ExperimentConfig the program builds from this workload's --config file."""
        base = {
            "table1": bench.ExperimentConfig,
            "stress": bench.stress_config,
            "noise": bench.noise_config,
        }[self.experiment]()
        values = dict(self.overrides)
        if "degrees" in values:
            values["degrees"] = tuple(values["degrees"])
        return replace(base, master_seed=master_seed, **values)


WORKLOADS = {
    w.name: w
    for w in (
        # the paper's Table-1 protocol: degrees 1-6, backward, dense, 900 points
        Workload("table1", "table1", {}, check_degrees_per_call=6),
        # degrees 1-35, forward, stream, 70 points
        Workload("stress", "stress", {"trials": 2}, check_degrees_per_call=7),
        # noisy stream forward, p1=0.001 p2=0.005, 2048 shots, 20 points
        Workload(
            "noise",
            "noise",
            {"degrees": [1, 5, 10, 15, 20], "trials": 1, "points_per_trial": 4},
            check_degrees_per_call=5,
        ),
        # dense backward on 15-17 qubits, 6 points; the gate's dense recompute
        # costs as much as a point, so it checks one degree per call
        Workload(
            "dense_wide",
            "table1",
            {"degrees": [14, 15, 16], "trials": 1, "points_per_trial": 2},
            check_degrees_per_call=1,
        ),
    )
}
