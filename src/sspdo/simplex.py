"""Phase-1 feasibility for small linear programs, decided by HiGHS.

Finds x >= 0 with A_eq x = b_eq and A_ub x <= b_ub, or proves there is none,
by handing a zero objective to scipy's HiGHS solver
(``scipy.optimize.linprog(method="highs")``).  Problem sizes here stay in the
hundreds of rows and columns; every solve is bounded by MAX_ITERATIONS.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IterationLimitError, NumericalCycleError

#: linprog status codes: 0 solved, 1 iteration bound reached, 2 infeasible;
#: any other is a breakdown.
SOLVED, ITERATION_LIMIT, INFEASIBLE = 0, 1, 2

#: Iteration bound of one solve.  Over lp_search on family members with up
#: to ten stages (degree <= 6), no LP that reached a verdict took more than
#: 35,443 iterations; one that did not took over a million.
MAX_ITERATIONS = 100_000


@dataclass(frozen=True)
class SimplexResult:
    feasible: bool
    x: np.ndarray | None
    iterations: int


def _block(A, b):
    """A constraint block as (2-D matrix, vector), or (None, None) if empty."""
    if A is None or b is None or np.size(b) == 0:
        return None, None
    return np.atleast_2d(np.asarray(A, float)), np.atleast_1d(np.asarray(b, float))


def phase1_feasible(A_eq=None, b_eq=None, A_ub=None, b_ub=None) -> SimplexResult:
    """Feasibility of {x >= 0 : A_eq x = b_eq, A_ub x <= b_ub}."""
    A_eq, b_eq = _block(A_eq, b_eq)
    A_ub, b_ub = _block(A_ub, b_ub)
    if A_eq is None and A_ub is None:
        return SimplexResult(True, np.zeros(0), 0)
    n = (A_eq if A_eq is not None else A_ub).shape[1]
    # Imported here: scipy.optimize adds ~0.3 s and ~19 MB to every CLI start.
    from scipy.optimize import linprog

    res = linprog(
        np.zeros(n),
        A_ub=A_ub,
        b_ub=b_ub,
        A_eq=A_eq,
        b_eq=b_eq,
        bounds=(0, None),
        method="highs",
        options={"maxiter": MAX_ITERATIONS},
    )
    if res.status == SOLVED:
        return SimplexResult(True, res.x, res.nit)
    if res.status == INFEASIBLE:
        return SimplexResult(False, None, res.nit)
    if res.status == ITERATION_LIMIT:
        raise IterationLimitError(f"HiGHS stopped after {res.nit} iterations: {res.message}")
    raise NumericalCycleError(f"HiGHS stopped with status {res.status}: {res.message}")
