"""Conversion of dense output to Shu-Osher form.

The implementation form writes the dense value as an affine combination

    u(theta) = mu(theta) u_n + sum_j beta_j(theta) (y_j + (h/C) f(y_j)),

i.e. a blend of the previous solution with forward-Euler substeps of size
h/C.  Matching this against the weight form u_n + h sum_j w_j(theta) f(y_j)
using the stage relations gives beta' = C w'(I + C A)^{-1} and
mu = 1 - sum_j beta_j, which also enforces that the combination is affine:
the condition rows of the dense SSP probe at r = C, the weight rows scaled by
C.  When the dense SSP coefficient is at least C, all beta_j and mu are
nonnegative on [0,1] and the combination is convex.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .certify import condition_map, resolvent
from .errors import InvalidArgumentError, NonpositiveCError
from .integrate import Problem, Trajectory, dense_eval_grid, step
from .tableau import ButcherTableau, DenseWeights, check_stage_count


@dataclass(frozen=True)
class ShuOsherDense:
    """Dense output in Shu-Osher form, plus the stage recursion coefficients.

    beta_bar rows hold one polynomial per stage (monomial coefficients,
    constant first), mu is a single polynomial, and the stage form carries
    alpha (s x s) and v (length s) with y_i = v_i u_n + sum_j alpha_ij
    (y_j + (h/C) f(y_j)).
    """

    C: float
    beta_bar: np.ndarray
    mu: np.ndarray
    stage_alpha: np.ndarray
    stage_v: np.ndarray

    def __post_init__(self):
        for name in ("beta_bar", "mu", "stage_alpha", "stage_v"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def s(self) -> int:
        return self.beta_bar.shape[0]

    def affine_defect(self) -> float:
        """Max |coefficient| of mu + sum_j beta_j - 1; zero up to roundoff."""
        total = self.mu + self.beta_bar.sum(axis=0)
        total = total.copy()
        total[0] -= 1.0
        return float(np.max(np.abs(total)))

    def dense_value(self, u_n, stage_values, stage_derivs, h: float, theta: float):
        powers = np.power(float(theta), np.arange(self.beta_bar.shape[1]))
        beta = self.beta_bar @ powers
        mu = float(self.mu @ powers)
        euler = stage_values + (h / self.C) * stage_derivs
        return mu * u_n + beta @ euler

    def as_record(self) -> dict:
        return {
            "C": self.C,
            "beta_bar": self.beta_bar.tolist(),
            "mu": self.mu.tolist(),
            "stage_alpha": self.stage_alpha.tolist(),
            "stage_v": self.stage_v.tolist(),
        }


def to_shu_osher(
    tab: ButcherTableau, weights: DenseWeights, C: float
) -> ShuOsherDense:
    """Convert dense weights to Shu-Osher form at coefficient C > 0.

    The beta polynomials are C times the transformed weights (I + C A)^{-T} w
    and mu is the step budget 1 - sum_j beta_j, which matches the published
    forms of the standard methods and makes the combination affine.
    Round trip: w' = beta'(I + C A) / C up to roundoff.  A coefficient that
    overflows raises InvalidArgumentError.
    """
    if C <= 0:
        raise NonpositiveCError("Shu-Osher conversion needs C > 0")
    check_stage_count(tab, weights)
    M = resolvent(tab, C)
    # an overflow leaves a non-finite coefficient, rejected below
    with np.errstate(over="ignore", invalid="ignore"):
        beta_bar = C * (condition_map(M, C)[:-1] @ weights.coeffs)
        mu = -beta_bar.sum(axis=0)
        mu[0] += 1.0
        alpha = C * (tab.A @ M)
        v = M @ np.ones(tab.s)
    if not all(np.isfinite(x).all() for x in (beta_bar, mu, alpha, v)):
        raise InvalidArgumentError(f"the Shu-Osher coefficients at C={C} are not finite")
    return ShuOsherDense(C=C, beta_bar=beta_bar, mu=mu, stage_alpha=alpha, stage_v=v)


def from_shu_osher(tab: ButcherTableau, form: ShuOsherDense) -> DenseWeights:
    """Reconstruct the weight polynomials from a Shu-Osher form."""
    B = np.eye(tab.s) + form.C * tab.A
    coeffs = (B.T @ form.beta_bar) / form.C
    return DenseWeights(coeffs)


def shu_osher_step_equivalence(
    tab: ButcherTableau,
    weights: DenseWeights,
    C: float,
    problem: Problem,
    u_n,
    h: float,
    thetas,
) -> float:
    """Max deviation between the weight-form and Shu-Osher-form dense values
    over one step from t = 0, evaluated on a theta grid.  The two are
    algebraically identical, so the deviation is pure roundoff."""
    form = to_shu_osher(tab, weights, C)
    u_n = np.atleast_1d(np.asarray(u_n, dtype=float))
    thetas = np.asarray(thetas, dtype=float)
    u_next, stage_values, stage_derivs = step(tab, problem, 0.0, u_n, h)
    traj = Trajectory(h=h, states=[u_n, u_next], stage_derivs=[stage_derivs])
    worst = 0.0
    for theta, direct in zip(thetas, dense_eval_grid(traj, weights, 0, thetas)):
        converted = form.dense_value(u_n, stage_values, stage_derivs, h, theta)
        worst = max(worst, float(np.max(np.abs(direct - converted))))
    return worst
