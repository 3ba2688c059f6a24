"""Explicit Runge-Kutta stepping with stored stages and dense evaluation.

Integration starts at t = 0 and takes uniform steps: the whole point of
dense output is to avoid adjusting the step to land on output times.  Stage
derivatives are stored alongside the step solutions so dense output at any
intermediate time needs no further function evaluations; the memory cost of
s vectors per step is accepted for desk-scale use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidArgumentError,
    InvalidStepSizeError,
    NonfiniteStateError,
    StructureError,
)
from .tableau import ButcherTableau, DenseWeights


@dataclass(frozen=True)
class Problem:
    """An initial-value problem u'(t) = rhs(t, u).

    The state's length is that of u0.  ``exact``, when given, maps (t, u0) to
    the true solution; the convergence study of ``experiments`` measures
    errors against the one of ``sinode``.
    """

    rhs: Callable[[float, np.ndarray], np.ndarray]
    exact: Callable[[float, np.ndarray], np.ndarray] | None = None


@dataclass(frozen=True)
class Trajectory:
    """Fixed-step solution from t = 0 with stored stage derivatives.

    states has shape (n_steps+1, dim); stage_derivs has shape
    (n_steps, s, dim).
    """

    h: float
    states: np.ndarray
    stage_derivs: np.ndarray
    n_steps: int = field(init=False)

    def __post_init__(self):
        for name in ("states", "stage_derivs"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "n_steps", self.states.shape[0] - 1)

    def times(self) -> np.ndarray:
        return self.h * np.arange(self.n_steps + 1)


@np.errstate(over="ignore", invalid="ignore")
def step(
    tab: ButcherTableau, problem: Problem, t_n: float, u_n, h: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One explicit step from (t_n, u_n); returns (u_next, stage_values, stage_derivs).
    A state that overflows is a NonfiniteStateError, without a numpy warning."""
    if not tab.explicit:
        raise StructureError("only explicit tableaux can be stepped")
    u_n = np.atleast_1d(np.asarray(u_n, dtype=float))
    s, dim = tab.s, u_n.shape[0]
    ys = np.empty((s, dim))
    fs = np.empty((s, dim))
    for i in range(s):
        y = u_n + h * (tab.A[i, :i] @ fs[:i]) if i else u_n.copy()
        ys[i] = y
        fs[i] = np.asarray(problem.rhs(t_n + tab.c[i] * h, y), dtype=float)
    u_next = u_n + h * (tab.b @ fs)
    if not (np.all(np.isfinite(u_next)) and np.all(np.isfinite(fs))):
        raise NonfiniteStateError("nonfinite state produced during step")
    return u_next, ys, fs


def integrate_fixed(
    tab: ButcherTableau,
    problem: Problem,
    u0,
    h: float,
    n_steps: int,
) -> Trajectory:
    """March n_steps uniform steps from u0 at t = 0, storing the stage
    derivatives."""
    if not h > 0:
        raise InvalidStepSizeError(f"step size must be positive, got {h}")
    if n_steps < 0:
        raise InvalidArgumentError(f"step count must be nonnegative, got {n_steps}")
    u0 = np.atleast_1d(np.asarray(u0, dtype=float))
    dim = u0.shape[0]
    try:
        states = np.empty((n_steps + 1, dim))
        stage_derivs = np.empty((n_steps, tab.s, dim))
    except ValueError as exc:  # a shape numpy cannot even describe
        raise InvalidArgumentError(f"step count {n_steps} is too large: {exc}") from exc
    states[0] = u0
    t = 0.0
    for n in range(n_steps):
        try:
            states[n + 1], _, stage_derivs[n] = step(tab, problem, t, states[n], h)
        except NonfiniteStateError as exc:
            raise NonfiniteStateError(
                f"nonfinite state at step {n}", step_index=n
            ) from exc
        t += h
    return Trajectory(h=h, states=states, stage_derivs=stage_derivs)


def dense_eval_grid(
    traj: Trajectory, weights: DenseWeights, n: int, thetas
) -> np.ndarray:
    """Dense solution u_n + h sum_j w_j(theta) f(y_j) within step n over a
    theta grid; shape (len(thetas), dim).

    The solution is defined piecewise over the steps, so theta always lives
    in [0,1].  This is the one evaluator of the dense formula.
    """
    thetas = np.asarray(thetas, dtype=float)
    if not 0 <= n < traj.n_steps:
        raise IndexError(f"step index {n} outside [0, {traj.n_steps})")
    outside = ~((thetas >= 0.0) & (thetas <= 1.0))  # NaN is outside too
    if outside.any():
        raise InvalidArgumentError(f"theta {thetas[outside][0]} outside [0, 1]")
    if weights.s != traj.stage_derivs.shape[1]:
        raise DimensionMismatchError("weights do not match the stored stage count")
    powers = thetas[:, None] ** np.arange(weights.degree + 1)[None, :]
    wv = powers @ weights.coeffs.T  # (n_theta, s)
    return traj.states[n][None, :] + traj.h * (wv @ traj.stage_derivs[n])
