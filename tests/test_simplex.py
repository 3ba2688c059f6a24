import numpy as np
import pytest
import scipy.optimize
from scipy.optimize import linprog

from sspdo.errors import NumericalCycleError
from sspdo.simplex import phase1_feasible

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
        return scipy.optimize.OptimizeResult(status=status, message="stub", nit=7)

    monkeypatch.setattr(scipy.optimize, "linprog", stub)
    with pytest.raises(error, match=f"^HiGHS stopped with status {status} after 7 iterations: stub$"):
        phase1_feasible([[1.0, 1.0]], [1.0], [[1.0, 0.0]], [1.0])


@pytest.mark.parametrize("seed", range(30))
def test_against_scipy_linprog(seed):
    # free variables; the margin never changes whether a point exists
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    m_eq = int(rng.integers(0, 4))
    m_ub = int(rng.integers(1, 7))
    A_eq, b_eq = rng.normal(size=(m_eq, n)), rng.normal(size=m_eq)
    A_ub, b_ub = rng.normal(size=(m_ub, n)), rng.normal(size=m_ub)
    mask = rng.random(m_ub) < 0.7
    reference = linprog(
        np.zeros(n), A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
        bounds=(None, None), method="highs",
    )
    for margin in (None, mask):
        mine = phase1_feasible(A_eq, b_eq, A_ub, b_ub, margin)
        assert mine.feasible == reference.success
        if mine.feasible:
            assert 0.0 <= mine.margin <= 1.0
            shift = 0.0 if margin is None else mine.margin * mask
            assert np.max(np.abs(A_eq @ mine.x - b_eq), initial=0.0) < 1e-8
            assert np.max(A_ub @ mine.x + shift - b_ub) < 1e-8
