"""Command-line surface: fit, compile, evaluate, bench, export-qasm.

Exit codes: 0 success, 1 numeric/runtime failure, 2 usage error.
Flags override values from an optional JSON config file (--config for bench).
`bench table1|stress|noise` is bench.recovery_run under that experiment's
default config with the file's overrides; `bench shots` reads the seed alone.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

from . import bench
from .circuit import to_qasm
from .compile import (
    CompileError,
    build_circuit,
    compile_poly,
    read_program,
    resources,
    write_program,
)
from .dense import MAX_SHOTS
from .poly import (
    PolyError,
    Polynomial,
    eval_poly,
    fit,
    load_json_object,
    read_coeffs,
    read_samples,
    sample_function,
    write_coeffs,
)

BUILTIN_TARGETS = {
    "sin": lambda x: math.sin(math.pi * x),
    "exp": lambda x: math.exp(x),
    "tanh": lambda x: math.tanh(3.0 * x),
    "runge": lambda x: 1.0 / (1.0 + 25.0 * x * x),
    "abs": abs,
}


class UsageError(Exception):
    pass


# each recovery experiment's default config, before the overrides
RECOVERY_CONFIGS = {
    "table1": bench.ExperimentConfig,
    "stress": bench.stress_config,
    "noise": bench.noise_config,
}


def _target_fn(name: str):
    if name.startswith("poly:"):
        try:
            poly = Polynomial(tuple(float(v) for v in name[len("poly:"):].split(",")))
        except ValueError:  # a float() failure or PolyError: not finite numbers
            raise UsageError(
                f"target {name!r}: poly:<c0,c1,...> takes a list of finite numbers"
            ) from None
        return lambda x: eval_poly(poly, x)
    if name in BUILTIN_TARGETS:
        return BUILTIN_TARGETS[name]
    raise UsageError(
        f"unknown target {name!r}; use poly:<c0,c1,...> or one of {sorted(BUILTIN_TARGETS)}"
    )


def cmd_fit(args) -> int:
    if (args.samples is None) == (args.target is None):
        raise UsageError("fit needs exactly one of --samples or --target")
    if args.degree < 0:
        raise UsageError(f"--degree {args.degree} must be >= 0")
    if args.sample_count < 1:
        raise UsageError(f"--sample-count {args.sample_count} must be >= 1")
    if args.samples:
        samples = read_samples(args.samples)
    else:
        samples = sample_function(_target_fn(args.target), args.sample_count)
    result = fit(samples, args.degree)
    write_coeffs(result.poly, args.out)
    print(f"wrote {args.out}; final MSE = {result.mse:.6e}")
    return 0


def cmd_compile(args) -> int:
    poly = read_coeffs(args.coeffs)
    try:
        program = compile_poly(poly, args.order)
    except PolyError as exc:  # coefficients that do not normalize
        raise PolyError(f"{args.coeffs}: {exc}") from exc
    write_program(program, args.out)
    circuit = build_circuit(program, 0.0)
    res = resources(circuit)
    print(f"wrote {args.out}")
    print(f"C = {format(program.rescale, '.17g')}")
    print(
        f"forecast: {res.qubits} qubits, {res.two_qubit_gates} two-qubit gates, depth {res.depth}, "
        f"two-qubit depth {res.two_qubit_depth}"
    )
    return 0


def cmd_evaluate(args) -> int:
    if not 1 <= args.shots <= MAX_SHOTS:
        raise UsageError(f"--shots {args.shots} must lie in [1, {MAX_SHOTS}]")
    for flag, p in (("--noise-p1", args.noise_p1), ("--noise-p2", args.noise_p2)):
        if not 0.0 <= p <= 1.0:
            raise UsageError(f"{flag} {p} must lie in [0, 1]")
    program = read_program(args.program)
    if not abs(args.x) <= 1.0:  # NaN too
        raise UsageError(f"--x {args.x} outside the encoding domain [-1, 1]")
    config = bench.ExperimentConfig(
        simulator=args.sim, noise_p1=args.noise_p1, noise_p2=args.noise_p2
    )
    zs = bench.exact_z(build_circuit(program, args.x), config)
    value, stderr = bench.score(zs, program.rescale, args.shots, [args.seed])
    truth = eval_poly(program.source, args.x)
    payload = {
        "x": args.x,
        "estimate": value.item(),
        "stderr": stderr.item(),
        "truth_if_known": truth,
    }
    print(json.dumps(payload))
    return 0


def cmd_bench(args) -> int:
    overrides = {}
    if args.config:
        try:
            overrides = load_json_object(args.config)
        except PolyError as exc:
            raise UsageError(f"--config {args.config}: {exc}") from None
    if args.seed is not None:
        overrides["master_seed"] = args.seed
    out_dir = Path(args.out_dir)
    if args.experiment in RECOVERY_CONFIGS:
        config = _apply_overrides(RECOVERY_CONFIGS[args.experiment](), overrides)
        report = bench.recovery_run(config)
        bench.write_report(report, out_dir, args.experiment)
        print(bench.summary_table(report))
    else:  # shots reads the master seed alone
        for key in overrides:
            if key != "master_seed":
                raise UsageError(f"config key {key!r} is not read by bench shots")
        seed = _apply_overrides(bench.ExperimentConfig(), overrides).master_seed
        result = bench.shot_scaling_experiment(seed)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "shots.json").write_text(json.dumps(result) + "\n")
        lines = ["shots,rmse"] + [
            f"{r['shots']},{format(r['rmse'], '.17g')}" for r in result["per_shots"]
        ]
        (out_dir / "shots.csv").write_text("\n".join(lines) + "\n")
        for r in result["per_shots"]:
            print(f"N = {r['shots']:>6}: rmse = {r['rmse']:.5f}")
        print(f"log-log slope = {result['slope']:.4f}")
    print(f"reports written to {out_dir}")
    return 0


def _apply_overrides(config: bench.ExperimentConfig, overrides: dict) -> bench.ExperimentConfig:
    from dataclasses import fields, replace

    names = {f.name for f in fields(config)}
    known = {}
    for key, value in overrides.items():
        if key not in names:
            raise UsageError(f"unknown config key {key!r}")
        known[key] = _config_value(key, value, getattr(config, key))
    try:
        return replace(config, **known)
    except ValueError as exc:  # ExperimentConfig's own checks name the key
        raise UsageError(f"config: {exc}") from exc


def _is_a(value, kind: type) -> bool:
    """JSON type check: an int counts as a float, a bool as neither."""
    if isinstance(value, bool):
        return False
    return isinstance(value, (int, float) if kind is float else kind)


def _config_value(key: str, value, default):
    """A config file value checked against the type of the field's default;
    tuple fields come as JSON lists, x_domain as a list of two."""
    if isinstance(default, tuple):
        kind = type(default[0])
        if (
            not isinstance(value, list)
            or (key == "x_domain" and len(value) != 2)
            or not all(_is_a(v, kind) for v in value)
        ):
            what = "two floats" if key == "x_domain" else kind.__name__
            raise UsageError(f"config key {key!r} must be a list of {what}, got {value!r}")
        return tuple(kind(v) for v in value)
    if not _is_a(value, type(default)):
        raise UsageError(f"config key {key!r} must be {type(default).__name__}, got {value!r}")
    return value


def cmd_export_qasm(args) -> int:
    program = read_program(args.program)
    if not abs(args.x) <= 1.0:  # NaN too
        raise UsageError(f"--x {args.x} outside the encoding domain [-1, 1]")
    circuit = build_circuit(program, args.x)
    Path(args.out).write_text(to_qasm(circuit))
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyshot",
        description="Fit polynomials, compile them to expectation-value arithmetic "
        "circuits, and evaluate them on shot-sampled simulators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = argparse.ArgumentDefaultsHelpFormatter

    p_fit = sub.add_parser(
        "fit", help="least-squares fit of a polynomial to samples or a builtin target",
        formatter_class=fmt,
    )
    p_fit.add_argument("--samples", help="CSV file with header x,y")
    p_fit.add_argument(
        "--target", help="builtin target name (sin, exp, tanh, runge, abs) or poly:<c0,c1,...>"
    )
    p_fit.add_argument("--degree", type=int, required=True)
    p_fit.add_argument("--sample-count", type=int, default=101, help="grid size for --target")
    p_fit.add_argument("--out", required=True, help="output coefficient JSON")
    p_fit.set_defaults(fn=cmd_fit)

    p_compile = sub.add_parser(
        "compile", help="compile coefficients to a program file", formatter_class=fmt
    )
    p_compile.add_argument("--coeffs", required=True, help="coefficient JSON file")
    p_compile.add_argument("--order", choices=["backward", "forward"], default="backward")
    p_compile.add_argument("--out", required=True, help="output program JSON")
    p_compile.set_defaults(fn=cmd_compile)

    p_eval = sub.add_parser(
        "evaluate", help="sample a compiled program at one point", formatter_class=fmt
    )
    p_eval.add_argument("--program", required=True)
    p_eval.add_argument("--x", type=float, required=True)
    p_eval.add_argument("--shots", type=int, default=4096)
    p_eval.add_argument("--seed", type=int, default=bench.ExperimentConfig.master_seed)
    p_eval.add_argument("--sim", choices=["dense", "stream"], default="dense")
    p_eval.add_argument("--noise-p1", type=float, default=0.0)
    p_eval.add_argument("--noise-p2", type=float, default=0.0)
    p_eval.set_defaults(fn=cmd_evaluate)

    p_bench = sub.add_parser(
        "bench", help="run a benchmark experiment", formatter_class=fmt
    )
    p_bench.add_argument("experiment", choices=[*RECOVERY_CONFIGS, "shots"])
    p_bench.add_argument("--config", help="JSON file of config overrides")
    p_bench.add_argument("--seed", type=int, default=None, help="master seed override")
    p_bench.add_argument("--out-dir", required=True)
    p_bench.set_defaults(fn=cmd_bench)

    p_qasm = sub.add_parser(
        "export-qasm", help="emit OpenQASM 3.0 for a program at a point", formatter_class=fmt
    )
    p_qasm.add_argument("--program", required=True)
    p_qasm.add_argument("--x", type=float, required=True)
    p_qasm.add_argument("--out", required=True)
    p_qasm.set_defaults(fn=cmd_export_qasm)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built at the first call and reused: parse_args fills a new
    namespace from the defaults on every call."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PolyError, CompileError, ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
