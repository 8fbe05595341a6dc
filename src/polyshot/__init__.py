"""polyshot: compile real polynomials into expectation-value arithmetic
circuits and reproduce their exact and shot-sampled evaluation statistics
on dense and windowed simulators."""

from .circuit import Circuit, Gate, depths, to_qasm, validate_qasm
from .compile import (
    CompiledProgram,
    ResourceCounts,
    WeightSchedule,
    angle_of_weight,
    build_circuit,
    compile_poly,
    compile_polys,
    read_program,
    resources,
    write_program,
)
from .dense import NoiseModel, draw_ones, expect_z, run_statevector
from .estimate import Metrics, point_estimates, run_metrics, shot_scaling_fit
from .poly import (
    FitResult,
    Polynomial,
    eval_poly,
    fit,
    normalize_rows,
    read_coeffs,
    read_samples,
    sup_norms,
    write_coeffs,
    write_samples,
)
from .rng import derive_seed, generator
from .stream import RetirementSchedule, liveness, run_window

__version__ = "0.1.0"

__all__ = [
    "Circuit",
    "CompiledProgram",
    "FitResult",
    "Gate",
    "Metrics",
    "NoiseModel",
    "Polynomial",
    "ResourceCounts",
    "RetirementSchedule",
    "WeightSchedule",
    "angle_of_weight",
    "build_circuit",
    "compile_poly",
    "compile_polys",
    "depths",
    "derive_seed",
    "draw_ones",
    "eval_poly",
    "expect_z",
    "fit",
    "generator",
    "liveness",
    "normalize_rows",
    "point_estimates",
    "read_coeffs",
    "read_program",
    "read_samples",
    "resources",
    "run_metrics",
    "run_statevector",
    "run_window",
    "shot_scaling_fit",
    "sup_norms",
    "to_qasm",
    "validate_qasm",
    "write_coeffs",
    "write_program",
    "write_samples",
]
