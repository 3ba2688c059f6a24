"""Phase-1 feasibility for small linear programs, decided by HiGHS.

Finds a free x with A_eq x = b_eq and A_ub x <= b_ub, or proves there is none,
with HiGHS's dual simplex (Huangfu & Hall 2018).  A margin t, maximized, keeps
the marked rows off their bounds, where a plain vertex touches them.  Problems
here have hundreds of rows and columns; MAX_ITERATIONS bounds every solve.

HiGHS is reached through scipy's binding, the extension
scipy.optimize._highspy._core, loaded on its own (certify.scipy_extension):
the scipy.optimize package would bring scipy.linalg and scipy.sparse, ~0.5 s
and ~40 MB, to every search.  _highs passes it the model and the options that
scipy.optimize.linprog(method="highs") builds, and reads the result as
linprog does, so x and the iteration count are linprog's bits.  A scipy
release that ships no such extension solves with linprog itself (_linprog),
which the tests also take as the reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .certify import scipy_extension
from .errors import NumericalCycleError

#: linprog status codes that decide: 0 solved, 2 infeasible.  Any other
#: (1 iteration bound, 3 unbounded, 4 numerical breakdown) decides nothing.
SOLVED, INFEASIBLE = 0, 2

#: Iteration bound of one solve.  Over lp_search on family members with up
#: to twelve stages (degree <= 6), no LP took more than 801 iterations.
MAX_ITERATIONS = 100_000

#: linprog's check of a solved point: bounds, slacks and equality residuals
#: may miss by sqrt(tol) * 10 at its default tol = 1e-9, ~3.2e-4.
CHECK_TOL = math.sqrt(1e-9) * 10


@dataclass(frozen=True)
class SimplexResult:
    feasible: bool
    x: np.ndarray | None
    iterations: int
    margin: float = 0.0  # the maximal t; 0 without a margin mask


def phase1_feasible(A_eq, b_eq, A_ub, b_ub, margin=None) -> SimplexResult:
    """A point of {x : A_eq x = b_eq, A_ub x <= b_ub}, x free.

    margin, a boolean mask over the rows of A_ub, turns the marked rows into
    A_ub x + t <= b_ub and maximizes t in [0, 1].  Any other stop than
    SOLVED or INFEASIBLE raises NumericalCycleError.
    """
    A_eq, b_eq = np.asarray(A_eq, dtype=float), np.asarray(b_eq, dtype=float)
    A_ub, b_ub = np.asarray(A_ub, dtype=float), np.asarray(b_ub, dtype=float)
    n = A_ub.shape[1]
    status, x, iterations, message = _solve(A_eq, b_eq, A_ub, b_ub, margin, MAX_ITERATIONS)
    if status == SOLVED:
        t = 0.0 if margin is None else float(x[n])
        return SimplexResult(True, x[:n], iterations, t)
    if status == INFEASIBLE:
        return SimplexResult(False, None, iterations)
    stop = f"status {status} after {iterations} iterations"
    raise NumericalCycleError(f"HiGHS stopped with {stop}: {message}")


def _solve(A_eq, b_eq, A_ub, b_ub, margin, max_iterations):
    """(linprog status, x or None, iterations, message) of the LP with the
    margin column appended when a margin mask is given."""
    core = scipy_extension("scipy.optimize._highspy._core")
    if core is None:
        return _linprog(A_eq, b_eq, A_ub, b_ub, margin, max_iterations)
    return _highs(core, A_eq, b_eq, A_ub, b_ub, margin, max_iterations)


def _linprog(A_eq, b_eq, A_ub, b_ub, margin, max_iterations):
    n = A_ub.shape[1]
    c, bounds = np.zeros(n), [(None, None)] * n
    if margin is not None:
        A_eq = np.column_stack([A_eq, np.zeros(len(A_eq))])
        A_ub = np.column_stack([A_ub, margin])
        c, bounds = np.append(c, -1.0), bounds + [(0.0, 1.0)]
    # imported here: the package costs ~0.5 s and ~40 MB, which no CLI start pays
    from scipy.optimize import linprog

    res = linprog(
        c, A_ub, b_ub, A_eq, b_eq, bounds, method="highs", options={"maxiter": max_iterations}
    )
    return res.status, res.x, res.nit, res.message


def _linprog_status(core, model_status) -> int:
    """linprog's status code for a HiGHS model status, as scipy's
    _highs_to_scipy_status_message maps it: a model HiGHS rejects counts as
    infeasible, and every status without a verdict or a limit as 4."""
    codes = core.HighsModelStatus
    return {
        codes.kOptimal: SOLVED,
        codes.kInfeasible: INFEASIBLE,
        codes.kModelError: INFEASIBLE,
        codes.kTimeLimit: 1,
        codes.kIterationLimit: 1,
        codes.kUnbounded: 3,
    }.get(model_status, 4)


def _highs(core, A_eq, b_eq, A_ub, b_ub, margin, max_iterations):
    """_solve through HiGHS's binding core, as linprog(method="highs") would
    solve, read and check the same LP."""
    m_ub, n = A_ub.shape
    columns = n + (margin is not None)
    cost, lower, upper = np.zeros(columns), np.full(columns, -np.inf), np.full(columns, np.inf)
    if margin is not None:
        cost[n], lower[n], upper[n] = -1.0, 0.0, 1.0
    row_lower = np.concatenate([np.full(m_ub, -np.inf), b_eq])
    row_upper = np.concatenate([b_ub, b_eq])
    start, index, value = _columns(A_ub, A_eq, margin)
    highs = core._Highs()
    for option, setting in (
        ("presolve", "on"),
        ("output_flag", False),
        ("log_to_console", False),
        ("simplex_strategy", 1),  # dual
        ("simplex_iteration_limit", max_iterations),
        ("ipm_iteration_limit", max_iterations),
    ):
        highs.setOptionValue(option, setting)
    error = core.HighsStatus.kError
    if highs.passModel(
        columns, len(row_upper), len(value), int(core.MatrixFormat.kColwise),
        int(core.ObjSense.kMinimize), 0.0, cost, lower, upper, row_lower, row_upper,
        start, index, value, np.zeros(columns, dtype=np.int32),  # all continuous
    ) == error:
        model_status = core.HighsModelStatus.kModelError
        return _linprog_status(core, model_status), None, 0, _message(highs, model_status)
    failed = highs.run() == error
    model_status = highs.getModelStatus()
    status, message = _linprog_status(core, model_status), _message(highs, model_status)
    if failed:
        # a run that failed offers neither a point nor a count
        return (4 if status == SOLVED else status), None, 0, message
    info = highs.getInfo()
    iterations = info.simplex_iteration_count or info.ipm_iteration_count
    if status != SOLVED:
        return status, None, iterations, message
    solution = highs.getSolution()
    x = np.array(solution.col_value)
    slack = row_upper - np.array(solution.row_value)
    slack, residual = slack[:m_ub], slack[m_ub:]
    fits = (
        not any(np.isnan(v).any() for v in (x, slack, residual, info.objective_function_value))
        and np.all(x >= lower - CHECK_TOL)
        and np.all(x <= upper + CHECK_TOL)
        and np.all(slack >= -CHECK_TOL)
        and np.all(np.abs(residual) <= CHECK_TOL)
    )
    if not fits:
        miss = f"the solution misses its constraints by more than {CHECK_TOL:.2E}"
        return 4, None, iterations, miss
    return SOLVED, x, iterations, message


def _message(highs, model_status) -> str:
    return f"{highs.modelStatusToString(model_status)} (HiGHS model status {int(model_status)})"


def _columns(A_ub, A_eq, margin):
    """The nonzeros of [A_ub, margin; A_eq, 0] in HiGHS's column-wise format
    (start, index, value): column by column, rows ascending, as
    scipy.sparse.csc_array of the stacked matrix holds them.  A stacked copy
    of A_ub, which has ~10^4 rows at s = 300, is never made: one bool mask
    finds the nonzeros, and a row index below len(A_ub) says which block an
    entry comes from."""
    m_ub, n = A_ub.shape
    nonzero = np.zeros((n + (margin is not None), m_ub + len(A_eq)), dtype=bool)
    np.not_equal(A_ub.T, 0.0, out=nonzero[:n, :m_ub])
    np.not_equal(A_eq.T, 0.0, out=nonzero[:n, m_ub:])
    if margin is not None:
        margin = np.asarray(margin, dtype=float)
        np.not_equal(margin, 0.0, out=nonzero[n, :m_ub])
    start = np.zeros(len(nonzero) + 1, dtype=np.int32)
    np.cumsum(nonzero.sum(axis=1), out=start[1:])
    index = np.flatnonzero(nonzero)
    index %= nonzero.shape[1]
    index = index.astype(np.int32)
    value = np.empty(len(index))
    head = start[n]  # the entries of the first n columns; the margin's follow
    from_ub = index[:head] < m_ub
    value[:head][from_ub] = A_ub.T[nonzero[:n, :m_ub]]
    value[:head][~from_ub] = A_eq.T[nonzero[:n, m_ub:]]
    if margin is not None:
        value[head:] = margin[nonzero[n, :m_ub]]
    return start, index, value
