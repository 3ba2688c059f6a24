"""Cross-cutting property checks that do not belong to a single module."""

import numpy as np
import pytest

from sspdo.certify import (
    dense_ssp_coefficient,
    ssp_coefficient,
    ssp_coefficient_detailed,
)
from sspdo.construct import family_tableau, lp_search, second_order_weights
from sspdo.experiments import run_figure1
from sspdo.problems import sinode
from sspdo.tableau import ButcherTableau


def test_implicit_method_unbounded_above():
    # implicit Euler satisfies the monotonicity conditions for every r, so
    # the search stops at the cap and flags it
    tab = ButcherTableau(A=np.array([[1.0]]), b=np.array([1.0]), name="implicit-euler")
    result = ssp_coefficient_detailed(tab)
    assert result.unbounded
    assert result.value == 1e6


def test_lp_uniqueness_includes_two_stages():
    result = lp_search(family_tableau(2), order=2, degree=2, r=1.0)
    assert result.feasible and result.certified
    assert np.max(np.abs(result.weights.coeffs[1:, 2] - 0.5)) <= 1e-8


@pytest.mark.parametrize("s", [9, 10])
def test_lp_nonexistence_extends_to_ten_stages(s):
    result = lp_search(family_tableau(s), order=2, degree=2, r=float(s - 1))
    assert not result.feasible
    v = result.violated_necessary
    assert v is not None and v.lhs - 1.0 / (s - 1.0) > 0.0


def test_degree_three_search_runs_for_five_stages():
    # the quadratic is impossible from s = 5 on, but cubic and quartic
    # second-order weights keep the full coefficient 4
    tab = family_tableau(5)
    for degree in (3, 4):
        result = lp_search(tab, order=2, degree=degree, r=4.0)
        assert result.status == "feasible" and result.certified
        assert dense_ssp_coefficient(tab, result.weights) >= 4.0 - 1e-8


@pytest.mark.parametrize("h", [0.5, 1.0, 1.6, 2.0])
def test_full_grid_containment(h):
    # 101 initial values x 101 thetas x 7 steps, for step sizes up to twice
    # the Euler bound
    summary = run_figure1(h=h)
    assert summary.ssp_min >= -1e-12
    assert summary.ssp_max <= 1.0 + 1e-12


def test_sinode_exact_solution_invariants():
    problem = sinode()
    u0 = np.linspace(0.0, 1.0, 21)
    assert np.allclose(problem.exact(0.0, u0), u0, atol=1e-15)
    for t in np.linspace(0.0, 12.0, 60):
        values = problem.exact(t, u0)
        assert np.all(values >= 0.0) and np.all(values <= 1.0)
    assert problem.h_fe == 1.0


def _dense_coefficient_by_sampling(tab, weights, tol=1e-8):
    # independent oracle: decide the for-all-theta conditions on a fine grid
    # instead of by certification, then bisect the same way
    from sspdo.certify import resolvent

    grid = np.linspace(0.0, 1.0, 20001)
    powers = grid[:, None] ** np.arange(weights.degree + 1)[None, :]
    values = powers @ weights.coeffs.T

    def feasible(r):
        M = resolvent(tab, r)
        AM = tab.A @ M
        if AM.min() < -1e-12 or (r * AM.sum(axis=1)).max() > 1.0 + 1e-12:
            return False
        components = values @ M
        if components.min() < -1e-9:
            return False
        return (r * components.sum(axis=1)).max() <= 1.0 + 1e-9

    if not feasible(1e-10):
        return 0.0
    lo, hi = 1e-10, 1.0
    while feasible(hi):
        lo, hi = hi, 2.0 * hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo


@pytest.mark.parametrize("case", ["ssp322", "family5", "nonssp"])
def test_dense_coefficient_against_sampling_oracle(case):
    from sspdo import registry

    if case == "ssp322":
        entry = registry.get("ssp322")
        tab, weights = entry.tableau, entry.dense_weights
    elif case == "family5":
        tab = family_tableau(5)
        weights = second_order_weights(tab)
    else:
        tab = registry.get("numexample-322").tableau
        weights = registry.nonssp_weights_322()
    certified = dense_ssp_coefficient(tab, weights)
    sampled = _dense_coefficient_by_sampling(tab, weights)
    assert abs(certified - sampled) < 1e-6


def test_quadratic_recipe_keeps_coefficient_when_budget_holds():
    # the documented cutoff: full coefficient through s=4, strictly smaller after
    for s in (2, 3, 4):
        tab = family_tableau(s)
        assert dense_ssp_coefficient(tab, second_order_weights(tab)) == pytest.approx(
            float(s - 1), abs=1e-8
        )
    tab = family_tableau(5)
    assert dense_ssp_coefficient(tab, second_order_weights(tab)) < 4.0 - 1e-6
    assert ssp_coefficient(tab) == pytest.approx(4.0, abs=1e-8)
