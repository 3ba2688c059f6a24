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
        # explicit: no nonzero entry outside the strictly lower triangle
        explicit = not np.any((A != 0.0) & ~np.tri(len(A), k=-1, dtype=bool))
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
    satisfied to within EXACT_TOL.
    """

    labels: tuple[str, ...]
    levels: tuple[int, ...]
    residuals: tuple[np.ndarray, ...]
    max_norms: tuple[float, ...]
    order: int

    def residual(self, label: str) -> np.ndarray:
        return self.residuals[self.labels.index(label)]

    def max_norm(self, label: str) -> float:
        return self.max_norms[self.labels.index(label)]

    def __repr__(self):
        items = ", ".join(
            f"{lab}={norm:.3e}" for lab, norm in zip(self.labels, self.max_norms)
        )
        return f"ResidualReport(order={self.order}, {items})"


def _build_report(entries) -> ResidualReport:
    labels, levels, residuals, norms = [], [], [], []
    for label, level, res in entries:
        res = poly.as_poly(res)
        labels.append(label)
        levels.append(level)
        residuals.append(res)
        # the root finder rejects inf and NaN, whose max-norm is not finite
        polynomial = len(res) > 1 and np.isfinite(res).all()
        norms.append(poly.max_abs_on_unit(res)[0] if polynomial else np.abs(res).max())
    order = 0
    for p in sorted(set(levels)):
        if all(n <= EXACT_TOL for lvl, n in zip(levels, norms) if lvl <= p):
            order = p
        else:
            break
    return ResidualReport(
        labels=tuple(labels),
        levels=tuple(levels),
        residuals=tuple(residuals),
        max_norms=tuple(norms),
        order=order,
    )


@np.errstate(over="ignore", invalid="ignore")
def dense_order_conditions(tab: ButcherTableau) -> tuple:
    """The only table of order conditions, through order three: (label, level,
    stage factors f, target t) for sum_j f_j w_j(theta) = t(theta), t in
    monomial coefficients, constant term first; w = b at theta = 1 gives the
    method's.  A factor that overflows is not finite, without a numpy warning."""
    c, A = tab.c, tab.A
    return (
        ("dense_sum", 1, np.ones(tab.s), [0.0, 1.0]),
        ("dense_sum_c", 2, c, [0.0, 0.0, 0.5]),
        ("dense_sum_c2", 3, c * c, [0.0, 0.0, 0.0, 1.0 / 3.0]),
        ("dense_sum_Ac", 3, A @ c, [0.0, 0.0, 0.0, 1.0 / 6.0]),
    )


@np.errstate(over="ignore", invalid="ignore")
def method_order_residuals(tab: ButcherTableau) -> ResidualReport:
    """Residuals of the method's order conditions: the table at theta = 1 with
    every weight constant at b_j, without a numpy warning on overflow."""
    return _build_report(
        (label, level, [factors @ tab.b - sum(target)])
        for label, level, factors, target in dense_order_conditions(tab)
    )


@np.errstate(over="ignore", invalid="ignore")
def dense_order_residuals(tab: ButcherTableau, weights: DenseWeights) -> ResidualReport:
    """Residual polynomials of the dense order conditions through order three.

    Each residual is computed exactly in the monomial basis; the reported
    max-norm on [0,1] is the exact max of the residual polynomial.  A
    residual that overflows is not finite, without a numpy warning.
    """
    check_stage_count(tab, weights)
    conditions = dense_order_conditions(tab)
    width = max(weights.degree + 1, *(len(target) for *_, target in conditions))
    entries = []
    for label, level, factors, target in conditions:
        residual = poly.pad(factors @ weights.coeffs, width) - poly.pad(target, width)
        entries.append((label, level, residual))
    return _build_report(entries)


@dataclass(frozen=True)
class EndpointFlags:
    left_zero: bool
    right_matches_b: bool
    max_right_deviation: float


def endpoint_check(tab: ButcherTableau, weights: DenseWeights) -> EndpointFlags:
    """Continuity flags: all weights vanish at theta=0; weights at theta=1 equal
    b; both to within EXACT_TOL."""
    check_stage_count(tab, weights)
    left = np.abs(weights.left_values())
    right = np.abs(weights.evaluate(1.0) - tab.b)
    return EndpointFlags(
        left_zero=bool(np.all(left <= EXACT_TOL)),
        right_matches_b=bool(np.all(right <= EXACT_TOL)),
        max_right_deviation=float(right.max()),
    )
