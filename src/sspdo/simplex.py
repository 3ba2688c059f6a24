"""Phase-1 feasibility for small linear programs, decided by HiGHS.

Finds a free x with A_eq x = b_eq and A_ub x <= b_ub, or proves there is none,
with ``scipy.optimize.linprog(method="highs")``.  A margin t, maximized, keeps
the marked rows off their bounds, where a plain vertex touches them.  Problems
here have hundreds of rows and columns; MAX_ITERATIONS bounds every solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalCycleError

#: linprog status codes that decide: 0 solved, 2 infeasible.  Any other
#: (1 iteration bound, 3 unbounded, 4 numerical breakdown) decides nothing.
SOLVED, INFEASIBLE = 0, 2

#: Iteration bound of one solve.  Over lp_search on family members with up
#: to twelve stages (degree <= 6), no LP took more than 801 iterations.
MAX_ITERATIONS = 100_000


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
    n = np.shape(A_ub)[1]
    c, bounds = np.zeros(n), [(None, None)] * n
    if margin is not None:
        A_eq = np.column_stack([A_eq, np.zeros(len(A_eq))])
        A_ub = np.column_stack([A_ub, margin])
        c, bounds = np.append(c, -1.0), bounds + [(0.0, 1.0)]
    # Imported here: scipy.optimize adds ~0.3 s and ~19 MB to every CLI start.
    from scipy.optimize import linprog

    res = linprog(
        c, A_ub, b_ub, A_eq, b_eq, bounds, method="highs", options={"maxiter": MAX_ITERATIONS}
    )
    if res.status == SOLVED:
        t = 0.0 if margin is None else float(res.x[n])
        return SimplexResult(True, res.x[:n], res.nit, t)
    if res.status == INFEASIBLE:
        return SimplexResult(False, None, res.nit)
    stop = f"status {res.status} after {res.nit} iterations"
    raise NumericalCycleError(f"HiGHS stopped with {stop}: {res.message}")
