import json
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.optimize._linprog_highs import _highs_to_scipy_status_message

from sspdo import certify, simplex
from sspdo.errors import NumericalCycleError
from sspdo.simplex import MAX_ITERATIONS, phase1_feasible

NO_EQ, NO_EQ_RHS = np.zeros((0, 2)), np.zeros(0)


def test_simple_equality_feasible():
    result = phase1_feasible([[1.0, 1.0]], [1.0], [[-1.0, 0.0]], [0.0])
    assert result.feasible
    assert result.x.sum() == pytest.approx(1.0, abs=1e-9)
    assert result.x[0] >= -1e-12


def test_variables_are_free():
    # x1 + x2 = -1 has no solution with x >= 0
    result = phase1_feasible([[1.0, 1.0]], [-1.0], [[1.0, 0.0]], [-2.0])
    assert result.feasible
    assert result.x[0] <= -2.0 + 1e-9
    assert result.x.sum() == pytest.approx(-1.0, abs=1e-9)


def test_inequality_only():
    result = phase1_feasible(NO_EQ, NO_EQ_RHS, [[1.0, 0.0]], [1.0])
    assert result.feasible
    assert result.margin == 0.0


def test_mixed_infeasible():
    # HiGHS status 2, with or without a margin column
    for margin in (None, [True]):
        result = phase1_feasible([[1.0, 0.0]], [2.0], [[1.0, 0.0]], [1.0], margin)
        assert not result.feasible and result.x is None


def test_surplus_rows():
    # x1 >= 2 encoded as -x1 <= -2, together with x1 = 3
    result = phase1_feasible([[1.0]], [3.0], [[-1.0]], [-2.0])
    assert result.feasible
    assert result.x[0] == pytest.approx(3.0, abs=1e-9)


def test_margin_is_reached_on_the_marked_rows():
    # |x1| <= 0.25 keeps at most 0.25 on both rows; x2 <= 5 is not marked
    A_ub = [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]]
    result = phase1_feasible(NO_EQ, NO_EQ_RHS, A_ub, [0.25, 0.25, 5.0], [True, True, False])
    assert result.feasible
    assert result.margin == pytest.approx(0.25, abs=1e-12)
    assert result.x[0] == pytest.approx(0.0, abs=1e-12)


def test_margin_is_capped_at_one():
    result = phase1_feasible([[0.0, 1.0]], [1.0], [[1.0, 0.0]], [5.0], [True])
    assert result.margin == pytest.approx(1.0, abs=1e-12)
    assert result.x[0] <= 4.0 + 1e-9 and result.x[1] == pytest.approx(1.0)


def test_margin_is_zero_where_a_row_must_touch():
    # x1 <= 0 and x1 >= 0 leave no room
    result = phase1_feasible(NO_EQ, NO_EQ_RHS, [[1.0, 0.0], [-1.0, 0.0]], [0.0, 0.0], [True, True])
    assert result.feasible
    assert abs(result.margin) <= 1e-12


@pytest.mark.parametrize(
    "status, error", [(1, NumericalCycleError), (3, NumericalCycleError), (4, NumericalCycleError)]
)
def test_status_other_than_solved_or_infeasible_raises(monkeypatch, status, error):
    # one error for every stop without a verdict, with status, iterations, message
    def stub(*args, **kwargs):
        return status, None, 7, "stub"

    monkeypatch.setattr(simplex, "_solve", stub)
    with pytest.raises(error, match=f"^HiGHS stopped with status {status} after 7 iterations: stub$"):
        phase1_feasible([[1.0, 1.0]], [1.0], [[1.0, 0.0]], [1.0])


def _random_lp(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    m_eq = int(rng.integers(0, 4))
    m_ub = int(rng.integers(1, 7))
    A_eq, b_eq = rng.normal(size=(m_eq, n)), rng.normal(size=m_eq)
    A_ub, b_ub = rng.normal(size=(m_ub, n)), rng.normal(size=m_ub)
    return A_eq, b_eq, A_ub, b_ub, rng.random(m_ub) < 0.7


def _linprog_with_margin(A_eq, b_eq, A_ub, b_ub, margin, **options):
    # the LP that phase1_feasible solves, written out for scipy's linprog
    n = A_ub.shape[1]
    if margin is None:
        c, bounds = np.zeros(n), (None, None)
    else:
        A_eq = np.column_stack([A_eq, np.zeros(len(A_eq))])
        A_ub = np.column_stack([A_ub, margin])
        c, bounds = np.append(np.zeros(n), -1.0), [(None, None)] * n + [(0.0, 1.0)]
    return linprog(
        c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, bounds=bounds, method="highs",
        options=options,
    )


@pytest.mark.parametrize("seed", range(30))
def test_against_scipy_linprog(seed):
    # free variables; the margin never changes whether a point exists.  HiGHS
    # gets linprog's model and options, so its status, point and iteration
    # count are linprog's to the bit
    A_eq, b_eq, A_ub, b_ub, mask = _random_lp(seed)
    reference = _linprog_with_margin(A_eq, b_eq, A_ub, b_ub, None)
    for margin in (None, mask):
        mine = phase1_feasible(A_eq, b_eq, A_ub, b_ub, margin)
        assert mine.feasible == reference.success
        if mine.feasible:
            assert 0.0 <= mine.margin <= 1.0
            shift = 0.0 if margin is None else mine.margin * mask
            assert np.max(np.abs(A_eq @ mine.x - b_eq), initial=0.0) < 1e-8
            assert np.max(A_ub @ mine.x + shift - b_ub) < 1e-8
        exact = _linprog_with_margin(A_eq, b_eq, A_ub, b_ub, margin)
        status, x, iterations, _ = simplex._solve(A_eq, b_eq, A_ub, b_ub, margin, MAX_ITERATIONS)
        assert (status, iterations) == (exact.status, exact.nit)
        assert mine.iterations == exact.nit
        if exact.x is None:
            assert x is None
        else:
            assert x.tobytes() == exact.x.tobytes()
            assert mine.x.tobytes() == exact.x[: A_ub.shape[1]].tobytes()


HIGHS = certify.scipy_extension("scipy.optimize._highspy._core")
needs_highs = pytest.mark.skipif(HIGHS is None, reason="this scipy ships no HiGHS extension")


@needs_highs
@pytest.mark.parametrize("model_status", list(HIGHS.HighsModelStatus.__members__.values()) if HIGHS else [])
def test_status_codes_are_linprogs(model_status):
    # a rejected model counts as infeasible (2), a time or iteration limit
    # gives 1, unbounded 3, and every other stop 4
    expected = _highs_to_scipy_status_message(model_status, "")[0]
    assert simplex._linprog_status(HIGHS, model_status) == expected


def _larger_lp():
    rng = np.random.default_rng(3)
    A_ub, b_ub = rng.normal(size=(60, 30)), rng.random(60)
    A_eq, b_eq = rng.normal(size=(5, 30)), rng.normal(size=5)
    return A_eq, b_eq, A_ub, b_ub


@pytest.mark.parametrize(
    "lp, max_iterations, status",
    [
        ("solved", MAX_ITERATIONS, 0),
        ("infeasible", MAX_ITERATIONS, 2),
        ("rejected", MAX_ITERATIONS, 2),  # an entry of 1e16: HiGHS's model error
        ("solved", 3, 1),
    ],
)
def test_statuses_of_real_solves_are_linprogs(lp, max_iterations, status):
    A_eq, b_eq, A_ub, b_ub = _larger_lp()
    if lp == "infeasible":
        A_eq, b_eq = np.vstack([A_eq, A_eq[:1]]), np.append(b_eq, b_eq[0] + 1.0)
    if lp == "rejected":
        A_ub = A_ub.copy()
        A_ub[0, 0] = 1e16
    margin = np.ones(len(A_ub), dtype=bool)
    mine = simplex._solve(A_eq, b_eq, A_ub, b_ub, margin, max_iterations)
    exact = _linprog_with_margin(A_eq, b_eq, A_ub, b_ub, margin, maxiter=max_iterations)
    assert mine[0] == exact.status == status
    assert mine[2] == exact.nit
    assert (mine[1] is None) == (exact.x is None)


@needs_highs
@pytest.mark.parametrize("miss, status", [(1e-4, 0), (1e-3, 4)])
def test_a_point_off_its_rows_is_no_solution(monkeypatch, miss, status):
    # linprog's check of an optimal point: rows may miss by sqrt(1e-9) * 10,
    # ~3.2e-4; a point that misses by more is a breakdown (4), not SOLVED
    class Shifted(HIGHS._Highs):
        def getSolution(self):
            solution = super().getSolution()
            solution.row_value = [v + miss for v in solution.row_value]
            return solution

    monkeypatch.setattr(HIGHS, "_Highs", Shifted)
    A_eq, b_eq, A_ub, b_ub = _larger_lp()
    result = simplex._solve(A_eq, b_eq, A_ub, b_ub, None, MAX_ITERATIONS)
    assert result[0] == status
    assert (result[1] is None) == (status != 0)
    if status != 0:
        assert result[3] == "the solution misses its constraints by more than 3.16E-04"
        with pytest.raises(NumericalCycleError, match="^HiGHS stopped with status 4 after"):
            phase1_feasible(A_eq, b_eq, A_ub, b_ub)


def test_without_the_extension_linprog_solves(monkeypatch):
    # a scipy that ships no HiGHS extension solves with linprog itself, and
    # gets the same bits
    cases = [(lp[:4], margin) for lp in map(_random_lp, range(10)) for margin in (None, lp[4])]
    expected = [phase1_feasible(*lp, margin) for lp, margin in cases]
    assert certify.scipy_extension("scipy.optimize._highspy._no_such_extension") is None
    monkeypatch.setattr(simplex, "scipy_extension", lambda name: None)
    for (lp, margin), before in zip(cases, expected):
        after = phase1_feasible(*lp, margin)
        assert (after.feasible, after.iterations, after.margin) == (
            before.feasible, before.iterations, before.margin
        )
        assert (after.x is None) == (before.x is None)
        if after.x is not None:
            assert after.x.tobytes() == before.x.tobytes()


_HIGHS_ORDER_PROBE = """
import json, sys
import numpy as np
from sspdo import simplex
from sspdo.construct import family_tableau, lp_search

if sys.argv[1] == "optimize-first":
    import scipy.optimize
optimize_loaded = "scipy.optimize" in sys.modules
status = lp_search(family_tableau(5), 2, 3, 4.0).status
core = simplex.scipy_extension("scipy.optimize._highspy._core")

import scipy.optimize
from scipy.optimize import linprog
from scipy.optimize._highspy import _highs_wrapper

A_ub, b_ub = np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([0.25, 0.25])
mine = simplex._solve(np.zeros((1, 2)), np.zeros(1), A_ub, b_ub, np.ones(2, bool), 100)
reference = linprog([0.0, 0.0, -1.0], A_ub=np.column_stack([A_ub, np.ones(2)]), b_ub=b_ub,
                    A_eq=np.zeros((1, 3)), b_eq=[0.0],
                    bounds=[(None, None)] * 2 + [(0.0, 1.0)], method="highs")
print(json.dumps({
    "optimize_loaded": optimize_loaded,
    "status": status,
    "registered": sys.modules["scipy.optimize._highspy._core"] is core,
    "reused": _highs_wrapper._h is core,
    "bits": mine[1].tobytes() == reference.x.tobytes() and mine[2] == reference.nit,
}))
"""


@needs_highs
@pytest.mark.parametrize("order", ["search-first", "optimize-first"])
def test_one_highs_module_in_either_import_order(order):
    # The search loads HiGHS's extension alone; whichever of the search and
    # scipy.optimize a process loads first, both use one module
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(simplex.__file__)))
    out = subprocess.run(
        [sys.executable, "-c", _HIGHS_ORDER_PROBE, order], env=env,
        capture_output=True, text=True, check=True, timeout=120,
    )
    result = json.loads(out.stdout)
    assert result == {
        "optimize_loaded": order == "optimize-first",
        "status": "feasible",
        "registered": True,
        "reused": True,
        "bits": True,
    }
