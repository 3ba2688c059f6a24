import numpy as np
import pytest

from sspdo import registry
from sspdo.construct import first_order_weights
from sspdo.errors import (
    DimensionMismatchError,
    ExactSolutionMissingError,
    InvalidArgumentError,
    NonfiniteStateError,
    StructureError,
)
from sspdo.integrate import (
    Problem,
    convergence_study,
    dense_eval,
    dense_eval_grid,
    integrate_fixed,
    step,
)
from sspdo.problems import linear, quadrature, sinode
from sspdo.tableau import ButcherTableau, DenseWeights, validate_tableau


def test_step_zero_rhs_identity():
    tab = registry.get("ssp322").tableau
    problem = Problem(rhs=lambda t, u: np.zeros_like(u))
    u1, ys, fs = step(tab, problem, 0.0, [0.4], 1.0)
    assert np.array_equal(u1, [0.4])
    assert np.all(ys == 0.4) and np.all(fs == 0.0)


def test_euler_step_stays_in_unit_interval():
    tab = validate_tableau([[0]], [1])
    problem = sinode()
    u0 = np.linspace(0, 1, 51)
    for t in (0.0, 0.3, 1.1):
        u1, _, _ = step(tab, problem, t, u0, 1.0)
        assert np.all(u1 >= 0.0) and np.all(u1 <= 1.0)


def test_three_stage_step_at_double_step_size():
    entry = registry.get("numexample-322")
    problem = sinode()
    u0 = np.linspace(0, 1, 51)
    u1, _, _ = step(entry.tableau, problem, 0.0, u0, 2.0)
    assert np.all(u1 >= -1e-15) and np.all(u1 <= 1.0 + 1e-15)


def test_step_rejects_implicit():
    implicit = ButcherTableau(A=np.array([[0.5]]), b=np.array([1.0]))
    with pytest.raises(StructureError):
        step(implicit, sinode(), 0.0, [0.5], 0.1)


def test_nonfinite_state_carries_step_index():
    blowup = Problem(rhs=lambda t, u: u**3)
    with np.errstate(over="ignore"), pytest.raises(NonfiniteStateError) as info:
        integrate_fixed(registry.get("ssp222").tableau, blowup, [1e200], 0.0, 10.0, 5)
    assert info.value.step_index is not None


def test_linear_problem_matches_stability_function():
    # for the two-stage second-order method, one step multiplies the state by
    # R(z) = 1 + z + z^2/2
    tab = registry.get("ssp222").tableau
    h, n = 0.1, 10
    traj = integrate_fixed(tab, linear(), [1.0], 0.0, h, n)  # u' = -u
    z = -h
    expected = (1.0 + z + z * z / 2.0) ** n
    assert traj.states[-1][0] == pytest.approx(expected, abs=1e-12)


def test_zero_steps_trajectory():
    traj = integrate_fixed(registry.get("ssp222").tableau, sinode(), [0.3], 0.0, 0.5, 0)
    assert traj.n_steps == 0
    assert np.array_equal(traj.states, [[0.3]])


def test_dense_eval_at_zero_is_exact():
    entry = registry.get("ssp322")
    traj = integrate_fixed(entry.tableau, sinode(), [0.3], 0.0, 0.7, 3)
    for n in range(3):
        assert np.array_equal(dense_eval(traj, entry.dense_weights, n, 0.0), traj.states[n])


def test_dense_eval_at_one_matches_next_step():
    entry = registry.get("ssp322")
    traj = integrate_fixed(entry.tableau, sinode(), [0.3], 0.0, 0.7, 3)
    for n in range(3):
        value = dense_eval(traj, entry.dense_weights, n, 1.0)
        assert np.max(np.abs(value - traj.states[n + 1])) <= 1e-12


def test_dense_eval_range_checks():
    entry = registry.get("ssp322")
    traj = integrate_fixed(entry.tableau, sinode(), [0.3], 0.0, 0.7, 3)
    with pytest.raises(IndexError):
        dense_eval(traj, entry.dense_weights, 3, 0.5)
    with pytest.raises(ValueError):
        dense_eval(traj, entry.dense_weights, 0, 1.5)


def test_dense_eval_grid_argument_checks():
    entry = registry.get("ssp322")
    traj = integrate_fixed(entry.tableau, sinode(), [0.3], 0.0, 0.7, 2)
    for thetas in ([0.5, float("nan")], [0.5, 1.5]):
        with pytest.raises(InvalidArgumentError):
            dense_eval_grid(traj, entry.dense_weights, 1, thetas)
    with pytest.raises(InvalidArgumentError):
        dense_eval(traj, entry.dense_weights, 1, float("nan"))
    two_stage = registry.get("ssp222").dense_weights
    with pytest.raises(DimensionMismatchError):
        dense_eval_grid(traj, two_stage, 1, [0.5])
    with pytest.raises(DimensionMismatchError):
        dense_eval(traj, two_stage, 1, 0.5)


def test_dense_eval_grid_matches_scalar():
    entry = registry.get("ssp322")
    traj = integrate_fixed(entry.tableau, sinode(), [0.3], 0.0, 0.7, 2)
    thetas = np.linspace(0, 1, 7)
    grid = dense_eval_grid(traj, entry.dense_weights, 1, thetas)
    for i, theta in enumerate(thetas):
        assert np.array_equal(grid[i], dense_eval(traj, entry.dense_weights, 1, theta))


def test_quadrature_reduction():
    # state-independent rhs: the dense value must equal
    # u0 + h * sum w_j(theta) g(t_n + c_j h) exactly
    entry = registry.get("ssp322")
    tab, weights = entry.tableau, entry.dense_weights
    problem = quadrature()  # u' = cos(t)
    h = 0.3
    traj = integrate_fixed(tab, problem, [0.2], 0.0, h, 4)
    rng = np.random.default_rng(3)
    for n in range(4):
        t_n = n * h
        for theta in rng.uniform(0, 1, 5):
            direct = traj.states[n][0] + h * sum(
                weights.evaluate(theta)[j] * np.cos(t_n + tab.c[j] * h)
                for j in range(tab.s)
            )
            value = dense_eval(traj, weights, n, theta)[0]
            assert abs(value - direct) <= 1e-14


def test_affine_covariance_autonomous():
    # scaling an autonomous rhs by a while dividing h by a leaves states alone
    tab = registry.get("ssp322").tableau
    base = Problem(rhs=lambda t, u: -u)
    scaled = Problem(rhs=lambda t, u: -2.0 * u)
    t1 = integrate_fixed(tab, base, [1.0], 0.0, 0.2, 8)
    t2 = integrate_fixed(tab, scaled, [1.0], 0.0, 0.1, 8)
    assert np.max(np.abs(t1.states - t2.states)) <= 1e-13


@pytest.mark.parametrize("h", [0.5, 1.0, 1.6, 2.0])
def test_containment_invariance(h):
    # the headline behavior: quadratic SSP weights keep every dense value in
    # [0,1] for h up to twice the Euler bound
    entry = registry.get("numexample-322")
    n_u0 = 25
    problem = sinode()
    u0 = np.linspace(0, 1, n_u0)
    traj = integrate_fixed(entry.tableau, problem, u0, 0.0, h, 7)
    thetas = np.linspace(0, 1, 25)
    for n in range(traj.n_steps):
        values = dense_eval_grid(traj, entry.dense_weights, n, thetas)
        assert values.min() >= -1e-12
        assert values.max() <= 1.0 + 1e-12


def test_nonssp_weights_escape():
    entry = registry.get("numexample-322")
    n_u0 = 25
    problem = sinode()
    u0 = np.linspace(0, 1, n_u0)
    traj = integrate_fixed(entry.tableau, problem, u0, 0.0, 1.6, 7)
    thetas = np.linspace(0, 1, 25)
    worst = min(
        dense_eval_grid(traj, registry.nonssp_weights_322(), n, thetas).min()
        for n in range(traj.n_steps)
    )
    assert worst < 0.0


def test_convergence_study_needs_exact():
    problem = Problem(rhs=lambda t, u: -u)
    with pytest.raises(ExactSolutionMissingError):
        convergence_study(
            registry.get("ssp222").tableau, None, problem, 1.0, 1.0, [0.1, 0.05]
        )


def test_convergence_orders():
    entry = registry.get("ssp322")
    hs = (0.2, 0.1, 0.05, 0.025)
    study = convergence_study(
        entry.tableau, entry.dense_weights, sinode(), 0.5, 2.0, hs
    )
    assert study.dense_slope == pytest.approx(2.0, abs=0.2)
    euler = validate_tableau([[0]], [1])
    study = convergence_study(
        euler, first_order_weights(euler), sinode(), 0.5, 2.0, hs
    )
    assert study.dense_slope == pytest.approx(1.0, abs=0.2)
    study = convergence_study(
        registry.get("ssp332").tableau, None, sinode(), 0.5, 2.0, hs
    )
    assert study.step_slope == pytest.approx(3.0, abs=0.2)
