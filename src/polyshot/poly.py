"""Real polynomials on [-1, 1]: evaluation, least-squares fitting, and the
normalization that feeds the compiler.

Normalization divides by the l1 norm of the coefficients so that downstream
convex-weight aggregation telescopes exactly to the normalized polynomial.
sup_norms gives the usual max-|P| over [-1, 1] for comparison, exactly, from
the roots of P'; it never exceeds the l1 constant.

Coefficient files are written by json.dumps, so every coefficient is in its
shortest round-trip form and reads back as the same double.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np


class PolyError(ValueError):
    pass


class FitError(PolyError):
    pass


class NormalizationError(PolyError):
    pass


@dataclass(frozen=True)
class Polynomial:
    """Coefficients a_0..a_d, constant term first."""

    coeffs: tuple[float, ...]

    def __post_init__(self):
        c = tuple(float(v) for v in self.coeffs)
        if len(c) == 0:
            raise PolyError("a polynomial needs at least one coefficient")
        if not all(np.isfinite(c)):
            raise PolyError("coefficients must be finite")
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


@dataclass(frozen=True)
class FitResult:
    poly: Polynomial
    mse: float


def eval_poly(poly: Polynomial, x: float | np.ndarray) -> float | np.ndarray:
    """Evaluate by Horner's rule at one x, or elementwise at an array of them."""
    acc = 0.0
    for a in reversed(poly.coeffs):
        acc = acc * x + a
    return acc


def fit(samples: list[tuple[float, float]], degree: int) -> FitResult:
    """Fit a degree-`degree` polynomial to (x, y) samples by least squares:
    the Vandermonde system solved by an orthogonal factorization, which gives
    the exact minimizer of the MSE."""
    if degree < 0:
        raise FitError(f"degree must be >= 0, got {degree}")
    if len(samples) == 0:
        raise FitError("no samples")
    if len(samples) < degree + 1:
        raise FitError(f"need at least {degree + 1} samples for degree {degree}, got {len(samples)}")
    xs = np.asarray([s[0] for s in samples], dtype=float)
    ys = np.asarray([s[1] for s in samples], dtype=float)
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
        raise FitError("samples must be finite")
    V = np.vander(xs, degree + 1, increasing=True)
    coeffs, _, rank, _ = np.linalg.lstsq(V, ys, rcond=None)
    if rank < degree + 1:
        raise FitError(
            f"rank-deficient system: rank {rank} < {degree + 1}; need d+1 distinct x values"
        )
    mse = float(np.mean((V @ coeffs - ys) ** 2))
    return FitResult(Polynomial(tuple(coeffs)), mse)


def sup_norms(coeffs) -> list[float]:
    """max |P(x)| over [-1, 1] of each row of a [rows, d + 1] array of
    coefficients, constant term first: the largest |P| at x = +-1 and at the
    real part of every root of P', clipped into [-1, 1].  Every interior
    extremum is a root of P' and every candidate lies in [-1, 1], so this is
    the maximum itself.  The roots are the eigenvalues of the companion matrix
    of P', one eigvals call for all the rows whose P' has one degree, and |P|
    is Horner's rule, rounding as eval_poly's does, so a row's value is the
    same in any batch."""
    rows = np.asarray(coeffs, dtype=float)
    slopes = rows[:, 1:] * np.arange(1.0, rows.shape[1])  # P', constant term first
    # the degree of P' is that of its last term that every earlier one divides
    # by to a finite number: a zero or subnormal lead has its roots far outside
    # [-1, 1]
    mag = np.abs(slopes)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        leads = np.isfinite(np.maximum.accumulate(mag, axis=1) / mag)
    degrees = (leads * np.arange(slopes.shape[1])).max(axis=1, initial=0)
    out = np.empty(len(rows))
    for m in set(degrees.tolist()):
        sel = degrees == m
        xs = np.broadcast_to([-1.0, 1.0], (np.count_nonzero(sel), 2))
        if m:
            s = slopes[sel, : m + 1]
            companion = np.zeros((len(s), m, m))
            companion[:, 0] = -s[:, -2::-1] / s[:, -1:]
            companion[:, 1:, :-1] = np.eye(m - 1)
            xs = np.hstack((xs, np.clip(np.linalg.eigvals(companion).real, -1.0, 1.0)))
        vals = np.zeros(xs.shape)
        for a in rows[sel].T[::-1]:
            vals = vals * xs + a[:, None]
        out[sel] = np.abs(vals).max(axis=1)
    return out.tolist()


def normalize_rows(coeffs) -> tuple[np.ndarray, np.ndarray]:
    """The normalized rows (tilde) and l1 norms (scales) of a [rows, d + 1]
    array of coefficients, in one numpy pass; a row's values are the same in
    any batch.

    Raises for the first row that is all zero, which callers must
    short-circuit to a constant-zero estimate, or whose l1 norm overflows.
    """
    a = np.asarray(coeffs, dtype=float)
    with np.errstate(over="ignore"):
        l1 = np.abs(a).sum(axis=1)
    bad = ~np.isfinite(l1) | (l1 == 0.0)
    if bad.any():
        if l1[bad.argmax()]:
            raise NormalizationError("the l1 norm of the coefficients is not finite")
        raise NormalizationError("all-zero polynomial cannot be normalized")
    return a / l1[:, None], l1


def sample_function(fn, count: int = 101) -> list[tuple[float, float]]:
    """Evaluate a target on a uniform grid of `count` points over [-1, 1]."""
    if count < 1:
        raise FitError(f"sample count must be >= 1, got {count}")
    xs = np.linspace(-1.0, 1.0, count)
    return [(float(x), float(fn(x))) for x in xs]


# --- file formats ---------------------------------------------------------


def is_finite_number(v) -> bool:
    """A JSON number that is a finite float: not a bool, a NaN, an infinity
    or an int too large for a float."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


def write_coeffs(poly: Polynomial, path: str | Path) -> None:
    Path(path).write_text(json.dumps({"coeffs": poly.coeffs}) + "\n")


def load_json_object(path: str | Path) -> dict:
    """The JSON object a file holds, raising PolyError for text that is not
    JSON (bad UTF-8 and nesting too deep included) or not an object."""
    try:
        data = json.loads(Path(path).read_text())
    except (ValueError, RecursionError) as exc:
        raise PolyError(f"not a JSON file ({exc})") from exc
    if not isinstance(data, dict):
        raise PolyError(f"expected a JSON object, got {type(data).__name__}")
    return data


def coeffs_of(data: dict) -> Polynomial:
    """The polynomial of an object's "coeffs", raising PolyError unless it is a
    non-empty list of finite numbers."""
    if "coeffs" not in data:
        raise PolyError("missing key 'coeffs'")
    coeffs = data["coeffs"]
    if not isinstance(coeffs, list) or not coeffs:
        raise PolyError(f"'coeffs' must be a non-empty list, got {coeffs!r}")
    if not all(is_finite_number(c) for c in coeffs):
        raise PolyError(f"every coefficient must be a finite number, got {coeffs}")
    return Polynomial(tuple(float(c) for c in coeffs))


def read_coeffs(path: str | Path) -> Polynomial:
    """Load a coefficient file, raising PolyError naming the file for text
    that is not a JSON object whose "coeffs" is a non-empty list of finite
    numbers."""
    try:
        return coeffs_of(load_json_object(path))
    except PolyError as exc:
        raise PolyError(f"{path}: {exc}") from exc


def read_samples(path: str | Path) -> list[tuple[float, float]]:
    """UTF-8 CSV with header x,y; one pair per row. A row that is not two
    finite numbers, a field past csv's size limit or text that is not UTF-8
    raises PolyError naming the file (and the line, where csv knows it)."""
    out: list[tuple[float, float]] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None or [h.strip() for h in header] != ["x", "y"]:
                raise PolyError(f"{path}: expected header 'x,y'")
            for row in reader:
                if not row:
                    continue
                try:
                    x, y = (float(v) for v in row)
                except ValueError:
                    raise PolyError(
                        f"{path}: line {reader.line_num}: expected two numbers x,y, got {row}"
                    ) from None
                if not (math.isfinite(x) and math.isfinite(y)):
                    raise PolyError(
                        f"{path}: line {reader.line_num}: x,y must be finite, got {row}"
                    )
                out.append((x, y))
        except csv.Error as exc:
            raise PolyError(f"{path}: line {reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise PolyError(f"{path}: {exc}") from None
    return out


def write_samples(samples: list[tuple[float, float]], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y"])
        for x, y in samples:
            writer.writerow([format(x, ".17g"), format(y, ".17g")])
