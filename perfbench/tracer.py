"""In-memory span tracer that wraps polyshot functions from outside the package.

Each wrapped function is replaced, while the tracer is installed, by a wrapper
on the module attribute through which `bench`, `poly` and `cli` look it up at
call time.  A span is (name, start, end, parent span, run id); spans live in
memory and are written out once, at the end of the run.  A span's self time
is its duration minus the durations of its child spans (calls are nested and
single-threaded, so the children never overlap).
"""
from __future__ import annotations

import csv
import importlib
import math
import statistics
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

# (module the attribute is looked up in, attribute, span name).  The span
# name is "<layer>.<function>"; the layer is the module that defines the
# function, except gen_random_poly, which is random-polynomial generation and
# is counted as poly work although it lives in bench.
TARGETS = (
    ("cli", "main", "cli.main"),
    ("cli", "cmd_bench", "cli.cmd_bench"),
    ("bench", "table1_experiment", "bench.table1_experiment"),
    ("bench", "stress_experiment", "bench.stress_experiment"),
    ("bench", "noise_sweep", "bench.noise_sweep"),
    ("bench", "_recovery_run", "bench._recovery_run"),
    ("bench", "_exact_z", "bench._exact_z"),
    ("bench", "_sample", "bench._sample"),
    ("bench", "write_report", "bench.write_report"),
    ("bench", "report_json", "bench.report_json"),
    ("bench", "records_csv", "bench.records_csv"),
    ("bench", "summary_table", "bench.summary_table"),
    ("bench", "gen_random_poly", "poly.gen_random_poly"),
    ("bench", "sup_norm", "poly.sup_norm"),
    ("bench", "eval_poly", "poly.eval_poly"),
    ("poly", "normalize", "poly.normalize"),
    ("poly", "sup_norm", "poly.sup_norm"),
    ("bench", "compile_poly", "compile.compile_poly"),
    ("bench", "build_circuit", "compile.build_circuit"),
    ("bench", "resources", "compile.resources"),
    ("compile", "circuit_depth", "circuit.depth"),
    ("bench", "run_statevector", "dense.run_statevector"),
    ("bench", "expect_z", "dense.expect_z"),
    ("bench", "sample_output", "dense.sample_output"),
    ("bench", "run_window", "stream.run_window"),
    ("bench", "sample_output_stream", "stream.sample_output_stream"),
    ("bench", "derive_seed", "rng.derive_seed"),
    ("bench", "generator", "rng.generator"),
    ("bench", "point_estimate", "estimate.point_estimate"),
    ("bench", "run_metrics", "estimate.run_metrics"),
)

LAYERS = ("poly", "compile", "circuit", "dense", "stream", "rng", "estimate", "bench", "cli")

# spans whose first argument is the simulated circuit; the tracer records its
# qubit and gate counts (and the shot count for the sampler) as the span's work
SIMULATORS = {"dense.run_statevector", "stream.run_window", "stream.sample_output_stream"}
# spans whose circuits are kept, for the first traced call only, for exact
# gate-kind and window counts after the run
KEEP_CIRCUITS = {"compile.build_circuit"} | SIMULATORS

NAME, START, END, PARENT, RUN, WORK = range(6)


def _circuit_work(name: str, args: tuple, kwargs: dict):
    """(qubits, gates, shots) of a simulator call, or None if it took no Circuit.

    Later versions of the program may change a simulator's signature; the span
    then carries no work instead of breaking the traced call.
    """
    circuit = args[0] if args else kwargs.get("circuit")
    if not hasattr(circuit, "gates"):
        return None
    shots = 1
    if name == "stream.sample_output_stream":
        shots = args[1] if len(args) > 1 else kwargs.get("shots", 0)
    return circuit.n_qubits, len(circuit.gates), shots


class Tracer:
    def __init__(self):
        self._modules = {m: importlib.import_module(f"polyshot.{m}") for m, _, _ in TARGETS}
        # a target the program no longer has is simply never called
        self._originals = {
            (m, a): getattr(self._modules[m], a)
            for m, a, _ in TARGETS
            if hasattr(self._modules[m], a)
        }
        self.spans: list[list] = []
        self.circuits: dict[str, list] = {name: [] for name in KEEP_CIRCUITS}
        self._stack: list[int] = []
        self._run = -1
        self._keep_run = None

    def _wrap(self, fn, name: str):
        spans, stack = self.spans, self._stack
        simulator = name in SIMULATORS
        keep = name in KEEP_CIRCUITS
        builds = name == "compile.build_circuit"

        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self._run, None]
            spans.append(span)
            stack.append(idx)
            span[START] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if simulator:
                span[WORK] = _circuit_work(name, args, kwargs)
            if keep and self._run == self._keep_run:
                kept = out if builds else (args[0] if args else None)
                if hasattr(kept, "gates"):
                    self.circuits[name].append(kept)
            return out

        return wrapper

    def install(self, run_id: int) -> None:
        self._run = run_id
        if self._keep_run is None:
            self._keep_run = run_id
        for m, a, name in TARGETS:
            if (m, a) in self._originals:
                setattr(self._modules[m], a, self._wrap(self._originals[(m, a)], name))

    def uninstall(self) -> None:
        for (m, a), fn in self._originals.items():
            setattr(self._modules[m], a, fn)

    def never_called(self) -> list[str]:
        called = {s[NAME] for s in self.spans}
        return sorted({name for _, _, name in TARGETS} - called)

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        return [s[END] - s[START] - c for s, c in zip(self.spans, child)]

    def write(self, path: Path) -> None:
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["span", "run", "parent", "name", "start_s", "end_s"])
            for i, s in enumerate(self.spans):
                out.writerow([i, s[RUN], s[PARENT], s[NAME], repr(s[START]), repr(s[END])])


def _ms(values: list[float], q: float) -> float:
    """Nearest-rank percentile of durations in seconds, in milliseconds (0 if none)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return 1000.0 * ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def dense_peak_alloc_mib(polyshot, circuit) -> float:
    """Peak bytes tracemalloc sees allocated during one run_statevector, in MiB."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        polyshot.run_statevector(circuit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - before) / 2.0**20


def layer_metrics(tracer: Tracer, polyshot, pairs: list[tuple[dict, dict]],
                  points_per_call: int) -> dict:
    """Per-layer metrics of the traced calls of (untraced, traced) twin calls."""
    durations = defaultdict(list)
    self_s = defaultdict(float)
    work = defaultdict(list)
    for span, own in zip(tracer.spans, tracer.self_times()):
        name = span[NAME]
        durations[name].append(span[END] - span[START])
        self_s[name] += own
        if span[WORK] is not None:
            work[name].append(span[WORK])
    n_calls = len(pairs)
    points = n_calls * points_per_call
    wall = sum(traced["wall"] for _, traced in pairs)

    def per_call_ms(names) -> float:
        return 1000.0 * sum(self_s[n] for n in names) / n_calls

    def count(name) -> int:
        return len(durations[name])

    def us_per(name, units) -> float:
        total = sum(units)
        return 1e6 * sum(durations[name]) / total if total else 0.0

    layer_names = defaultdict(set)
    for _, _, name in TARGETS:
        layer_names[name.split(".")[0]].add(name)

    m = {}
    for name in ("poly.gen_random_poly", "poly.normalize", "compile.compile_poly",
                 "compile.build_circuit", "dense.expect_z", "stream.sample_output_stream"):
        m[f"{name}.ms_p50"] = _ms(durations[name], 0.5)
    for name in ("dense.run_statevector", "stream.run_window"):
        m[f"{name}.ms_p50"] = _ms(durations[name], 0.5)
        m[f"{name}.ms_p90"] = _ms(durations[name], 0.9)
    m["poly.sup_norm.self_ms"] = per_call_ms(["poly.sup_norm"])
    m["poly.sup_norm.calls_per_program"] = count("poly.sup_norm") / max(
        count("compile.compile_poly"), 1)

    built = tracer.circuits["compile.build_circuit"]
    for kind in ("ry", "rz", "x", "cx"):
        m[f"compile.gates_per_circuit.{kind}"] = (
            sum(1 for c in built for g in c.gates if g.kind == kind) / max(len(built), 1))
    m["compile.gates_per_circuit"] = sum(len(c.gates) for c in built) / max(len(built), 1)

    dense = work["dense.run_statevector"]
    m["dense.us_per_gate"] = us_per("dense.run_statevector", [g for _, g, _ in dense])
    # one read and one write of the complex128 state per gate, from 2^n alone
    m["dense.bytes_per_gate_computed"] = (
        sum(2 * 16 * 2**n for n, _, _ in dense) / len(dense) if dense else 0.0)
    dense_kept = tracer.circuits["dense.run_statevector"]
    m["dense.peak_alloc_mb"] = (
        dense_peak_alloc_mib(polyshot, max(dense_kept, key=lambda c: c.n_qubits))
        if dense_kept else 0.0)

    m["stream.us_per_gate"] = us_per("stream.run_window", [g for _, g, _ in work["stream.run_window"]])
    stream_kept = tracer.circuits["stream.run_window"] + tracer.circuits["stream.sample_output_stream"]
    m["stream.peak_window"] = max((polyshot.liveness(c).peak_window for c in stream_kept), default=0)
    m["stream.us_per_shot_gate"] = us_per(
        "stream.sample_output_stream", [g * s for _, g, s in work["stream.sample_output_stream"]])

    m["rng.generator.calls"] = count("rng.generator") / points
    m["rng.generator.self_ms"] = per_call_ms(["rng.generator"])
    m["rng.derive_seed.calls"] = count("rng.derive_seed") / points
    m["estimate.point_estimate.self_ms"] = per_call_ms(["estimate.point_estimate"])
    m["estimate.run_metrics.self_ms"] = per_call_ms(["estimate.run_metrics"])
    m["bench.self_ms"] = per_call_ms(layer_names["bench"])
    m["bench.report_json.ms"] = _ms(durations["bench.report_json"], 0.5)
    m["bench.records_csv.ms"] = _ms(durations["bench.records_csv"], 0.5)
    m["cli.self_ms"] = per_call_ms(layer_names["cli"])
    for layer in LAYERS:
        m[f"{layer}.share"] = sum(self_s[n] for n in layer_names[layer]) / wall
    ratios = [traced["wall"] / plain["wall"] for plain, traced in pairs]
    m["trace.overhead_frac"] = statistics.median(ratios) - 1.0
    m["trace.never_called"] = len(tracer.never_called())
    return m
