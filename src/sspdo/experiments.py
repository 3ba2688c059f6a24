"""Experiment drivers: interval-invariance sweep of the two dense formulas,
certification table over the second-order family, and the convergence study."""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from . import registry
from .certify import compute_certificate
from .construct import MAX_STAGES, family_tableau, first_order_weights, second_order_weights
from .errors import InvalidArgumentError
from .integrate import dense_eval_grid, integrate_fixed
from .problems import sinode
from .tableau import ButcherTableau, DenseWeights, validate_tableau

CSV_HEADER = "u0,t,theta,u,formula"
FIGURE1_N_U0 = 101     # initial values, evenly spaced in [0,1]
FIGURE1_N_THETA = 101  # thetas per step, evenly spaced in [0,1]
FIGURE1_N_STEPS = 7


@dataclass(frozen=True)
class Figure1Summary:
    h: float
    n_steps: int
    ssp_min: float
    ssp_max: float
    nonssp_min: float
    nonssp_max: float
    nonssp_argmin: tuple[float, float]  # (u0, t) of the most negative value
    ssp_contained: bool

    def as_record(self) -> dict:
        return {
            "h": self.h,
            "n_steps": self.n_steps,
            "ssp": {"min": self.ssp_min, "max": self.ssp_max},
            "nonssp": {
                "min": self.nonssp_min,
                "max": self.nonssp_max,
                "argmin": {"u0": self.nonssp_argmin[0], "t": self.nonssp_argmin[1]},
            },
            "ssp_contained": self.ssp_contained,
        }


def run_figure1(h: float = 1.6, out_dir: str | None = None) -> Figure1Summary:
    """Integrate the three-stage method over FIGURE1_N_U0 initial values in
    [0,1] for FIGURE1_N_STEPS steps and evaluate both dense formulas at
    FIGURE1_N_THETA thetas per step.

    The SSP formula must keep every dense value inside [0,1] up to 1e-12 for
    h up to twice the forward-Euler bound; the second formula is second-order
    accurate but not SSP and is expected to escape.  Writes ssp.csv and
    nonssp.csv (columns u0,t,theta,u,formula) when out_dir is given; output
    is deterministic, so reruns are byte-identical.  Each step's rows are
    formatted by one %-operation on a row template, whose %r prints every
    value as repr does, and written at once, so the bytes equal those of
    per-value repr.
    """
    entry = registry.get("numexample-322")
    weight_sets = {
        "ssp": entry.dense_weights,
        "nonssp": registry.nonssp_weights_322(),
    }
    u0s = np.linspace(0.0, 1.0, FIGURE1_N_U0)
    thetas = np.linspace(0.0, 1.0, FIGURE1_N_THETA)
    traj = integrate_fixed(entry.tableau, sinode(), u0s, h, FIGURE1_N_STEPS)
    # dense values indexed (step, theta, u0)
    grids = {
        formula: np.stack([dense_eval_grid(traj, weights, n, thetas) for n in range(traj.n_steps)])
        for formula, weights in weight_sets.items()
    }

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        for formula, values in grids.items():
            # one theta's rows, the ",t,theta," text left as a marker
            rows = "".join(f"{u0!r}\0%r,{formula}\n" for u0 in u0s.tolist())
            path = os.path.join(out_dir, f"{formula}.csv")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(CSV_HEADER + "\n")
                for n, step_values in enumerate(values):
                    # one write per step: a whole-file string costs memory
                    template = "".join(
                        rows.replace("\0", f",{float((n + theta) * h)!r},{theta!r},")
                        for theta in thetas.tolist()
                    )
                    handle.write(template % tuple(step_values.ravel().tolist()))

    ssp, nonssp = grids["ssp"], grids["nonssp"]
    ssp_min, ssp_max = float(ssp.min()), float(ssp.max())
    n, it, iu = np.unravel_index(np.argmin(nonssp), nonssp.shape)
    return Figure1Summary(
        h=h,
        n_steps=FIGURE1_N_STEPS,
        ssp_min=ssp_min,
        ssp_max=ssp_max,
        nonssp_min=float(nonssp.min()),
        nonssp_max=float(nonssp.max()),
        nonssp_argmin=(float(u0s[iu]), float((n + thetas[it]) * h)),
        ssp_contained=ssp_min >= -1e-12 and ssp_max <= 1.0 + 1e-12,
    )


@dataclass(frozen=True)
class SweepRow:
    s: int
    c_method: float
    gamma: float
    xineq_holds: bool
    c_dense: float

    def as_record(self) -> dict:
        return {
            "s": self.s,
            "c_method": self.c_method,
            "gamma": self.gamma,
            "xineq_holds": self.xineq_holds,
            "c_dense": self.c_dense,
        }


def run_certification_sweep(s_max: int) -> list[SweepRow]:
    """Certify the s-stage family members for s = 2..s_max: method coefficient,
    budget-inequality verdict, and the dense coefficient of the quadratic
    recipe.  The budget inequality holds through s = 4 and fails from s = 5 on,
    which is exactly where the quadratic recipe stops keeping the full
    coefficient."""
    if not 2 <= s_max <= MAX_STAGES:
        raise InvalidArgumentError(f"s_max must be in [2, {MAX_STAGES}], got {s_max}")
    rows = []
    for s in range(2, s_max + 1):
        tab = family_tableau(s)
        cert = compute_certificate(tab, second_order_weights(tab))
        rows.append(
            SweepRow(
                s=s,
                c_method=cert.r_method,
                gamma=cert.gamma,
                xineq_holds=cert.xineq_holds,
                c_dense=cert.r_dense,
            )
        )
    return rows


STUDY_HS = (0.2, 0.1, 0.05, 0.025)
STUDY_U0 = 0.5
STUDY_T_END = 2.0


@dataclass(frozen=True)
class ConvergenceStudy:
    hs: tuple[float, ...]
    step_errors: tuple[float, ...]
    dense_errors: tuple[float, ...] | None
    step_slope: float
    dense_slope: float | None

    def as_record(self) -> dict:
        return {
            "step_slope": self.step_slope,
            "dense_slope": self.dense_slope,
            "hs": list(self.hs),
            "step_errors": list(self.step_errors),
            "dense_errors": None if self.dense_errors is None else list(self.dense_errors),
        }


def convergence_study(tab: ButcherTableau, weights: DenseWeights | None) -> ConvergenceStudy:
    """Observed convergence orders on the oscillating logistic problem from
    u0 = STUDY_U0 to STUDY_T_END at the steps STUDY_HS, against its exact
    solution.

    For each step size the max error over step points from t = 0 and,
    separately, over the off-step probe times t_n + theta*h, theta = 1/4,
    1/2, 3/4, is recorded; the reported slopes are least-squares fits of log
    error against log h.
    """
    problem = sinode()
    u0 = np.array([STUDY_U0])
    thetas = (0.25, 0.5, 0.75)
    step_errors = []
    dense_errors = [] if weights is not None else None
    for h in STUDY_HS:
        n_steps = int(round(STUDY_T_END / h))
        traj = integrate_fixed(tab, problem, u0, h, n_steps)
        times = traj.times()
        worst = 0.0
        for n, t in enumerate(times):
            err = np.max(np.abs(traj.states[n] - problem.exact(t, u0)))
            worst = max(worst, float(err))
        step_errors.append(worst)
        if weights is not None:
            worst = 0.0
            for n in range(n_steps):
                values = dense_eval_grid(traj, weights, n, thetas)
                for theta, value in zip(thetas, values):
                    truth = problem.exact(times[n] + theta * h, u0)
                    worst = max(worst, float(np.max(np.abs(value - truth))))
            dense_errors.append(worst)
    log_h = np.log(STUDY_HS)
    step_slope = float(np.polyfit(log_h, np.log(step_errors), 1)[0])
    dense_slope = (
        float(np.polyfit(log_h, np.log(dense_errors), 1)[0])
        if dense_errors is not None
        else None
    )
    return ConvergenceStudy(
        hs=STUDY_HS,
        step_errors=tuple(step_errors),
        dense_errors=None if dense_errors is None else tuple(dense_errors),
        step_slope=step_slope,
        dense_slope=dense_slope,
    )


def run_convergence_tables() -> list[tuple[str, ConvergenceStudy]]:
    """(label, study) for the three standard studies:

    - three-stage second-order method with its quadratic dense weights
      (dense slope ~2),
    - forward Euler with linear dense weights (dense slope ~1),
    - SSP(3,3,2) step points (slope ~3).
    """
    fe = validate_tableau([[0]], [1], name="euler")
    entry322 = registry.get("ssp322")
    entry332 = registry.get("ssp332")
    cases = [
        ("ssp322+quadratic", entry322.tableau, entry322.dense_weights),
        ("euler+linear", fe, first_order_weights(fe)),
        ("ssp332-steps", entry332.tableau, None),
    ]
    return [(label, convergence_study(tab, weights)) for label, tab, weights in cases]
