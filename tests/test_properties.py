"""Cross-cutting property checks that do not belong to a single module."""

import collections
import itertools

import numpy as np
import pytest
from test_certify import _full_probe_bisection

from sspdo import certify
from sspdo.certify import (
    compute_certificate,
    dense_ssp_coefficient,
    ssp_coefficient,
    ssp_coefficient_detailed,
)
from sspdo.construct import family_tableau, lp_search, second_order_weights
from sspdo.experiments import run_certification_sweep, run_figure1
from sspdo.problems import sinode
from sspdo.tableau import EXACT_TOL, ButcherTableau, DenseWeights, method_order_residuals


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


def _classical_order(tab):
    # independent oracle: the classical conditions written out by hand
    b, c, A = tab.b, tab.c, tab.A
    levels = (
        [b.sum() - 1.0],
        [b @ c - 0.5],
        [b @ (c * c) - 1.0 / 3.0, b @ (A @ c) - 1.0 / 6.0],
    )
    order = 0
    for residuals in levels:
        if max(abs(x) for x in residuals) > EXACT_TOL:
            break
        order += 1
    return order


def _random_explicit_tableaux(n, seed=20161):
    # b solves the first 0, 1, 2 or 4 conditions in turn, so every order shows
    rng = np.random.default_rng(seed)
    for k in range(n):
        s = int(rng.integers(1, 7))
        A = np.tril(rng.integers(-4, 5, (s, s)) / rng.integers(1, 5, (s, s)), -1)
        c = A.sum(axis=1)
        rows = (np.ones(s), c, c * c, A @ c)[: (0, 1, 2, 4)[k % 4]]
        targets = (1.0, 0.5, 1.0 / 3.0, 1.0 / 6.0)[: len(rows)]
        b = rng.uniform(-1.0, 1.0, s)
        if rows:
            b = np.linalg.lstsq(np.array(rows), np.array(targets), rcond=None)[0]
        yield ButcherTableau(A=A, b=b)


def test_method_order_is_the_dense_table_at_theta_one():
    family = (family_tableau(s) for s in range(2, 1001))
    orders = []
    for tab in itertools.chain(family, _random_explicit_tableaux(1400)):
        orders.append(method_order_residuals(tab).order)
        assert orders[-1] == _classical_order(tab), tab
    assert set(orders) == {0, 1, 2, 3}


def _random_dense_methods(n, seed=20163):
    # random explicit tableaux, some with negative entries, and quadratic
    # weights shaped like the recipe's: theta on stage 1 plus random theta^2
    # terms, some of them negative
    rng = np.random.default_rng(seed)
    for _ in range(n):
        s = int(rng.integers(1, 7))
        A = np.tril(rng.uniform(-0.05, 1.0, (s, s)), -1)
        b = rng.uniform(0.1, 1.0, s)
        b /= b.sum()
        W = np.zeros((s, 3))
        W[0, 1] = 1.0
        W[:, 2] = rng.uniform(-0.05, 1.5, s) * b
        W[0, 2] -= 1.0
        yield ButcherTableau(A=A, b=b), DenseWeights(W)


def test_guided_certificates_of_random_methods_equal_the_full_probe_bisection(monkeypatch):
    # repr() spells each float exactly: the guided walk certifies the same
    # bits as probing every midpoint
    positive = 0
    for tab, weights in _random_dense_methods(40):
        guided = compute_certificate(tab, weights)
        with monkeypatch.context() as patch:
            patch.setattr(certify, "_sup_by_bisection", _full_probe_bisection)
            full = compute_certificate(tab, weights)
        assert repr(guided) == repr(full), (tab.A, weights.coeffs)
        positive += guided.r_dense > 0.0
    assert positive >= 20


def test_sweep_makes_few_probes_per_bisection(monkeypatch):
    # plain bisection to tol = 1e-10 made 42.5 probes per bisection here
    calls = collections.Counter()
    for name in (
        "ssp_coefficient_detailed",
        "dense_ssp_coefficient_detailed",
        "monotonicity_feasible_method",
        "monotonicity_feasible_dense",
    ):

        def counting(*args, _name=name, _original=getattr(certify, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(certify, name, counting)
    run_certification_sweep(40)
    bisections = calls["ssp_coefficient_detailed"] + calls["dense_ssp_coefficient_detailed"]
    probes = calls["monotonicity_feasible_method"] + calls["monotonicity_feasible_dense"]
    assert bisections == 78
    assert probes <= 12 * bisections
