"""Runge-Kutta tableau and dense-weight data model with order-condition residuals.

Coefficient conventions: A is s x s, b has length s, and the abscissas are
always recomputed as row sums of A.  Dense weights store one polynomial per
stage as a row of monomial coefficients, constant term first, so row j holds
the coefficients of the weight function attached to stage j.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import poly
from .errors import (
    AbscissaMismatchError,
    DimensionMismatchError,
    InvalidArgumentError,
    ZeroRowViolationError,
)

#: Absolute threshold below which a residual counts as exactly satisfied.
#: Suited to rational tableaux held in double precision.
EXACT_TOL = 1e-13


def as_float(value) -> float:
    """Parse a coefficient: numbers pass through, strings like '1/3' are read
    as exact fractions and rounded to binary floating point once.  A zero
    denominator or a value beyond the float range is a ValueError."""
    try:
        if isinstance(value, str):
            return float(Fraction(value))
        if isinstance(value, (int, float, np.integer, np.floating)):
            return float(value)
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator in {value!r}") from exc
    except OverflowError as exc:
        raise ValueError(f"{value!r} is out of the float range") from exc
    raise TypeError(f"cannot interpret {value!r} as a coefficient")


def parse_matrix(rows) -> np.ndarray:
    return np.array([[as_float(x) for x in row] for row in rows], dtype=float)


def parse_vector(values) -> np.ndarray:
    return np.array([as_float(x) for x in values], dtype=float)


@dataclass(frozen=True)
class ButcherTableau:
    """Coefficients (A, b) of a Runge-Kutta method; c is recomputed from A."""

    A: np.ndarray
    b: np.ndarray
    name: str = ""
    c: np.ndarray = field(init=False)
    s: int = field(init=False)
    explicit: bool = field(init=False)

    def __post_init__(self):
        A = np.array(self.A, dtype=float)
        b = np.array(self.b, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise DimensionMismatchError(f"A must be square, got shape {A.shape}")
        if b.shape != (A.shape[0],):
            raise DimensionMismatchError(
                f"b has shape {b.shape}, expected ({A.shape[0]},)"
            )
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
            raise InvalidArgumentError("A and b must be finite")
        c = A.sum(axis=1)
        explicit = not np.any(np.triu(A) != 0.0)
        for arr in (A, b, c):
            arr.setflags(write=False)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "s", A.shape[0])
        object.__setattr__(self, "explicit", explicit)

    def zero_rows(self) -> list[int]:
        """Indices (0-based) of rows of A that are identically zero."""
        return [i for i in range(self.s) if not np.any(self.A[i] != 0.0)]

    def __repr__(self):
        label = self.name or "tableau"
        return f"ButcherTableau({label}, s={self.s}, explicit={self.explicit})"


def validate_tableau(A, b, name: str = "", c=None) -> ButcherTableau:
    """Build a tableau from raw coefficient data and enforce structural rules.

    Rejects a zero row of A anywhere but row 1 and more than one zero row
    (such methods are reducible).  If abscissas are supplied they are checked
    against the row sums of A; a mismatch is an error, never a silent repair.
    """
    A = parse_matrix(A)
    b = parse_vector(b)
    tab = ButcherTableau(A=A, b=b, name=name)
    zero = tab.zero_rows()
    offending = [i + 1 for i in zero if i != 0]
    if len(zero) > 1 or offending:
        rows = [i + 1 for i in zero]
        raise ZeroRowViolationError(
            f"zero rows of A at positions {rows}; only a single zero row in "
            "position 1 is allowed"
        )
    if c is not None:
        c_given = parse_vector(c)
        if c_given.shape != tab.c.shape:
            raise DimensionMismatchError("c length does not match stage count")
        bad = np.abs(c_given - tab.c) > EXACT_TOL
        if np.any(bad):
            idx = [i + 1 for i in np.nonzero(bad)[0]]
            raise AbscissaMismatchError(
                f"abscissas at positions {idx} disagree with row sums of A"
            )
    return tab


@dataclass(frozen=True)
class DenseWeights:
    """Per-stage dense weight polynomials as an s x (degree+1) coefficient matrix."""

    coeffs: np.ndarray
    s: int = field(init=False)
    degree: int = field(init=False)

    def __post_init__(self):
        coeffs = np.atleast_2d(np.array(self.coeffs, dtype=float))
        if not np.all(np.isfinite(coeffs)):
            raise InvalidArgumentError("dense weight coefficients must be finite")
        coeffs.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "s", coeffs.shape[0])
        object.__setattr__(self, "degree", coeffs.shape[1] - 1)

    @classmethod
    def from_rows(cls, rows) -> "DenseWeights":
        parsed = [[as_float(x) for x in row] for row in rows]
        width = max(len(row) for row in parsed)
        coeffs = np.zeros((len(parsed), width))
        for j, row in enumerate(parsed):
            coeffs[j, : len(row)] = row
        return cls(coeffs=coeffs)

    def evaluate(self, theta: float) -> np.ndarray:
        """Vector of all stage weights at theta."""
        powers = np.power(float(theta), np.arange(self.degree + 1))
        return self.coeffs @ powers

    def row(self, j: int) -> np.ndarray:
        return np.array(self.coeffs[j])

    def left_values(self) -> np.ndarray:
        """Weight values at theta = 0 (the constant coefficients)."""
        return np.array(self.coeffs[:, 0])

    def __repr__(self):
        return f"DenseWeights(s={self.s}, degree={self.degree})"


def check_stage_count(tab: ButcherTableau, weights: DenseWeights) -> None:
    """Raise DimensionMismatchError unless the weights have one row per stage."""
    if weights.s != tab.s:
        raise DimensionMismatchError(
            f"weights have {weights.s} rows, tableau has {tab.s} stages"
        )


@dataclass(frozen=True)
class ResidualReport:
    """Residuals of order conditions, one polynomial per condition.

    Scalar residuals (method conditions) are stored as constant polynomials.
    ``order`` is the largest p for which every condition through p is
    satisfied to within ``tol``.
    """

    labels: tuple[str, ...]
    levels: tuple[int, ...]
    residuals: tuple[np.ndarray, ...]
    max_norms: tuple[float, ...]
    order: int
    tol: float

    def residual(self, label: str) -> np.ndarray:
        return self.residuals[self.labels.index(label)]

    def max_norm(self, label: str) -> float:
        return self.max_norms[self.labels.index(label)]

    def __repr__(self):
        items = ", ".join(
            f"{lab}={norm:.3e}" for lab, norm in zip(self.labels, self.max_norms)
        )
        return f"ResidualReport(order={self.order}, {items})"


def _build_report(entries, tol) -> ResidualReport:
    labels, levels, residuals, norms = [], [], [], []
    for label, level, res in entries:
        res = poly.as_poly(res)
        labels.append(label)
        levels.append(level)
        residuals.append(res)
        norms.append(poly.max_abs_on_unit(res)[0] if len(res) > 1 else abs(res[0]))
    order = 0
    for p in (1, 2, 3):
        if all(n <= tol for lvl, n in zip(levels, norms) if lvl <= p):
            order = p
        else:
            break
    return ResidualReport(
        labels=tuple(labels),
        levels=tuple(levels),
        residuals=tuple(residuals),
        max_norms=tuple(norms),
        order=order,
        tol=tol,
    )


def method_order_residuals(tab: ButcherTableau, tol: float = EXACT_TOL) -> ResidualReport:
    """Residuals of the classical order conditions through order three."""
    b, c, A = tab.b, tab.c, tab.A
    entries = [
        ("sum_b", 1, [b.sum() - 1.0]),
        ("sum_bc", 2, [b @ c - 0.5]),
        ("sum_bc2", 3, [b @ (c * c) - 1.0 / 3.0]),
        ("sum_b_c2half_minus_Ac", 3, [b @ (c * c / 2.0 - A @ c)]),
    ]
    return _build_report(entries, tol)


def dense_order_conditions(tab: ButcherTableau) -> tuple:
    """The dense order conditions through order three as (label, level,
    stage factors f, target t): sum_j f_j w_j(theta) = t(theta), with t given
    by its monomial coefficients, constant term first."""
    c, A = tab.c, tab.A
    return (
        ("dense_sum", 1, np.ones(tab.s), [0.0, 1.0]),
        ("dense_sum_c", 2, c, [0.0, 0.0, 0.5]),
        ("dense_sum_c2", 3, c * c, [0.0, 0.0, 0.0, 1.0 / 3.0]),
        ("dense_sum_Ac", 3, A @ c, [0.0, 0.0, 0.0, 1.0 / 6.0]),
    )


def dense_order_residuals(
    tab: ButcherTableau, weights: DenseWeights, tol: float = EXACT_TOL
) -> ResidualReport:
    """Residual polynomials of the dense order conditions through order three.

    Each residual is computed exactly in the monomial basis; the reported
    max-norm on [0,1] is the exact max of the residual polynomial.
    """
    check_stage_count(tab, weights)
    width = max(weights.degree + 1, 4)
    entries = []
    for label, level, factors, target in dense_order_conditions(tab):
        residual = poly.pad(factors @ weights.coeffs, width) - poly.pad(target, width)
        entries.append((label, level, residual))
    return _build_report(entries, tol)


@dataclass(frozen=True)
class EndpointFlags:
    left_zero: bool
    right_matches_b: bool
    max_left: float
    max_right_deviation: float


def endpoint_check(
    tab: ButcherTableau, weights: DenseWeights, tol: float = EXACT_TOL
) -> EndpointFlags:
    """Continuity flags: all weights vanish at theta=0; weights at theta=1 equal b."""
    check_stage_count(tab, weights)
    left = np.abs(weights.left_values())
    right = np.abs(weights.evaluate(1.0) - tab.b)
    return EndpointFlags(
        left_zero=bool(np.all(left <= tol)),
        right_matches_b=bool(np.all(right <= tol)),
        max_left=float(left.max()),
        max_right_deviation=float(right.max()),
    )
