import time
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from sspdo import construct, registry, tableau
from sspdo.certify import (
    bernstein_matrix,
    condition_map,
    dense_ssp_coefficient,
    monomial_to_bernstein,
    resolvent,
    ssp_coefficient,
)
from sspdo.construct import (
    ELEVATION,
    build_lp,
    chebyshev_lobatto,
    family_tableau,
    first_order_weights,
    lp_search,
    second_order_weights,
)
from sspdo.errors import (
    DegreeTooHighError,
    StructureError,
)
from sspdo.tableau import (
    ButcherTableau,
    dense_order_residuals,
    endpoint_check,
    validate_tableau,
)

# ------------------------------------------------------------------- family

def test_family_s2_is_ssp222():
    tab = family_tableau(2)
    ref = registry.get("ssp222").tableau
    assert np.array_equal(tab.A, ref.A) and np.array_equal(tab.b, ref.b)


def test_family_s3_entries():
    tab = family_tableau(3)
    assert tab.A[1, 0] == tab.A[2, 0] == tab.A[2, 1] == 0.5
    assert np.allclose(tab.b, 1.0 / 3.0)


def test_family_s5_coefficient():
    assert ssp_coefficient(family_tableau(5)) == pytest.approx(4.0, abs=1e-8)


def test_family_single_zero_row_is_row_one():
    # the structural rule validate_tableau enforces holds by construction
    for s in range(2, 41):
        assert family_tableau(s).zero_rows() == [0]


def test_family_tableau_parses_no_coefficient(monkeypatch):
    calls = []
    original = tableau.as_float

    def counting(value):
        calls.append(value)
        return original(value)

    monkeypatch.setattr(tableau, "as_float", counting)
    family_tableau(40)
    assert calls == []


def test_family_rejects_one_stage():
    with pytest.raises(ValueError):
        family_tableau(1)


# ------------------------------------------------------------------ recipes

def test_first_order_euler():
    weights = first_order_weights(validate_tableau([[0]], [1]))
    assert np.array_equal(weights.coeffs, [[0.0, 1.0]])


def test_first_order_scales_b():
    tab = registry.get("ssp332").tableau  # b = (1/6, 1/6, 2/3)
    weights = first_order_weights(tab)
    assert np.allclose(weights.coeffs[:, 1], tab.b)
    assert np.all(weights.coeffs[:, 0] == 0.0)


def test_first_order_keeps_coefficient():
    tab = registry.get("ssp322").tableau
    weights = first_order_weights(tab)
    assert dense_ssp_coefficient(tab, weights) == pytest.approx(2.0, abs=1e-8)


def test_second_order_ssp322():
    weights = second_order_weights(registry.get("ssp322").tableau)
    assert np.allclose(weights.coeffs[0], [0.0, 1.0, -2.0 / 3.0], atol=1e-15)
    assert np.allclose(weights.coeffs[1], [0.0, 0.0, 1.0 / 3.0], atol=1e-15)
    assert np.allclose(weights.coeffs[2], [0.0, 0.0, 1.0 / 3.0], atol=1e-15)


def test_second_order_ssp222():
    weights = second_order_weights(registry.get("ssp222").tableau)
    assert np.allclose(weights.coeffs, [[0.0, 1.0, -0.5], [0.0, 0.0, 0.5]])


@pytest.mark.parametrize("s", [2, 3, 4, 6])
def test_second_order_family_formulas(s):
    weights = second_order_weights(family_tableau(s))
    assert weights.coeffs[0, 1] == 1.0
    assert weights.coeffs[0, 2] == pytest.approx(-(s - 1.0) / s, abs=1e-15)
    assert np.allclose(weights.coeffs[1:, 2], 1.0 / s, atol=1e-15)
    flags = endpoint_check(family_tableau(s), weights)
    assert flags.left_zero and flags.right_matches_b


def test_second_order_requires_zero_first_row():
    implicit_midpoint = ButcherTableau(A=np.array([[0.5]]), b=np.array([1.0]))
    with pytest.raises(StructureError):
        second_order_weights(implicit_midpoint)


def test_second_order_requires_order_two():
    with pytest.raises(StructureError):
        second_order_weights(validate_tableau([[0]], [1]))


# ------------------------------------------------------------ theta=0 pins

def _pin_problem(entry_key):
    # the LP of an order-2 search at the method's C; with order >= 2 and
    # r > 0 its last s equality rows are the theta=0 derivative pins
    entry = registry.get(entry_key)
    return entry, build_lp(entry.tableau, 2, 2, entry.c_method)


def _lp_residual(problem, weights):
    coeffs = np.zeros((weights.s, problem.degree + 1))
    coeffs[:, : weights.degree + 1] = weights.coeffs
    return problem.A_eq @ coeffs[:, 1:].ravel() - problem.b_eq


def test_derivative_pins_quadratic_recipe():
    for key in ("ssp222", "ssp322", "ssp332", "numexample-322"):
        entry, problem = _pin_problem(key)
        assert np.abs(_lp_residual(problem, entry.dense_weights)).max() <= 1e-13, key


def test_derivative_pins_linear_recipe_fails():
    entry, problem = _pin_problem("ssp322")  # b_1 = 1/3 != 1
    residual = _lp_residual(problem, first_order_weights(entry.tableau))
    assert np.abs(residual[-entry.tableau.s :]).max() > 0.5


def test_derivative_pins_nonssp_weights_fail():
    # the weights are second order, so only the pins reject them
    entry, problem = _pin_problem("numexample-322")
    residual = _lp_residual(problem, registry.nonssp_weights_322())
    s = entry.tableau.s
    assert np.abs(residual[:-s]).max() <= 1e-13
    assert np.abs(residual[-s:]).max() > 0.5


# ---------------------------------------------------------------- lp search

def test_collocation_grid_includes_endpoints():
    grid = chebyshev_lobatto(8)
    assert grid[0] == 0.0 and grid[-1] == 1.0
    assert np.all(np.diff(grid) > 0)


@pytest.mark.parametrize("s", [3, 4])
def test_lp_search_uniqueness(s):
    result = lp_search(family_tableau(s), order=2, degree=2, r=float(s - 1))
    assert result.feasible and result.certified
    quad = result.weights.coeffs[:, 2]
    assert np.max(np.abs(quad[1:] - 1.0 / s)) < 1e-8
    assert result.weights.coeffs[0, 1] == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("s", [5, 6, 7, 8])
def test_lp_search_family_nonexistence(s):
    result = lp_search(family_tableau(s), order=2, degree=2, r=float(s - 1))
    assert not result.feasible
    v = result.violated_necessary
    assert v is not None and v.condition == "family-quadratic-peak"
    assert v.theta == pytest.approx(s / (2.0 * (s - 1.0)), abs=1e-12)
    assert v.lhs - v.rhs > 0  # weight value exceeds the budget at theta*


@pytest.mark.parametrize(
    "method, degree, r",
    [pytest.param("ssp332", degree, 0.1, id=str(degree)) for degree in range(2, 7)]
    # the order-3-barrier prescreen decides this one too; the LP it no
    # longer reaches is tested on its own below
    + [pytest.param("family-s7", 4, 5.5, id="family-s7-4")],
)
def test_lp_search_order3_infeasible(method, degree, r):
    tab = registry.get(method).tableau
    result = lp_search(tab, order=3, degree=degree, r=r)
    assert not result.feasible


def test_lp_search_restriction_certifies():
    # the collocation vertex dips between its points; the Bernstein
    # restriction LP finds weights that certify
    tab = family_tableau(6)
    result = lp_search(tab, order=2, degree=4, r=4.5)
    assert result.status == "feasible" and result.certified
    assert dense_ssp_coefficient(tab, result.weights) >= 4.5 - 1e-8


def test_lp_search_fine_relaxation_proves_infeasible():
    # a 10-point relaxation of this search is feasible; the relaxation at
    # degree + ELEVATION + 1 points proves that no weights exist
    tab = family_tableau(8)
    result = lp_search(tab, order=2, degree=4, r=7.0)
    assert result.status == "infeasible" and result.weights is None


@pytest.mark.parametrize(
    "s, order, r", [(9, 3, 7.75), (10, 2, 8.5)], ids=["family-s9", "family-s10"]
)
def test_lp_search_decides_where_the_coarse_relaxation_broke_down(s, order, r):
    # a relaxation at 2D+2 points stopped HiGHS with status 4 on these
    # searches; at order 2 the relaxation at D + ELEVATION + 1 points is
    # infeasible, and at order 3 the order-3-barrier prescreen answers
    result = lp_search(family_tableau(s), order=order, degree=3, r=r)
    assert result.status == "infeasible" and result.weights is None


@pytest.mark.parametrize(
    "s, order, degree, r",
    [(9, 1, 1, 7.75), (10, 2, 6, 8.75)]
    # degree monotonicity: a certified degree stays certified at D+1 and D+2
    + [(10, 2, degree, 8.75) for degree in (7, 8)]
    + [(9, 2, degree, 7.75) for degree in (5, 6, 7)],
)
def test_lp_search_margin_point_certifies(s, order, degree, r):
    # a vertex of the restriction touches zero and misses the certifier's
    # 1e-12 slack here; the max-margin point keeps clear of it
    result = lp_search(family_tableau(s), order=order, degree=degree, r=r)
    assert result.status == "feasible" and result.certified


def _record_margins(monkeypatch) -> list:
    # the margin of every LP solve in order, None for a solve without one
    margins = []
    original = construct.phase1_feasible

    def recording(A_eq, b_eq, A_ub, b_ub, margin=None):
        result = original(A_eq, b_eq, A_ub, b_ub, margin)
        margins.append(None if margin is None else result.margin)
        return result

    monkeypatch.setattr(construct, "phase1_feasible", recording)
    return margins


@pytest.mark.parametrize("s, degree", [(5, 5), (6, 6), (7, 6), (8, 6)])
def test_lp_search_without_margin_falls_back_to_a_vertex(monkeypatch, s, degree):
    # at r = C the restriction keeps no margin and its margin point fails
    # certification; the vertex of the same LP without a margin column certifies
    margins = _record_margins(monkeypatch)
    result = lp_search(family_tableau(s), order=2, degree=degree, r=float(s - 1))
    assert result.status == "feasible" and result.certified
    assert len(margins) == 2 and margins[0] <= 0 and margins[1] is None


@pytest.mark.parametrize("method", ["family-s3", "ssp322"])
@pytest.mark.parametrize("degree", [2, 3, 4])
def test_lp_search_just_below_c_falls_back_to_a_vertex(monkeypatch, method, degree):
    # at r = C - 1e-9 on these C = 2 methods only the vertex certifies too
    margins = _record_margins(monkeypatch)
    result = lp_search(registry.get(method).tableau, order=2, degree=degree, r=2.0 - 1e-9)
    assert result.status == "feasible" and result.certified
    assert len(margins) == 2 and margins[0] <= 0 and margins[1] is None


def test_lp_search_tries_the_vertex_wherever_the_margin_point_fails(monkeypatch):
    # the restriction keeps a margin of 8.3e-11, yet its margin point fails
    # certification: the vertex is tried too, and when it fails as well the
    # relaxation's point leaves the search inconclusive
    margins = _record_margins(monkeypatch)
    result = lp_search(family_tableau(4), order=2, degree=4, r=3.0 - 1e-9)
    assert result.status == "inconclusive" and result.weights is None
    assert len(margins) == 3 and margins[0] > 0 and margins[1] is None
    assert margins[2] is not None


def test_margin_skips_the_rows_the_pins_fix():
    # the theta=0 pins fix the first Bernstein coefficient of each of the
    # s + 1 conditions; every other restriction row can keep a margin
    problem = build_lp(family_tableau(5), order=2, degree=3, r=4.0)
    restriction = replace(problem, basis=construct._bernstein_basis(3))
    mask = construct._margin_rows(restriction).reshape(3 + ELEVATION, 6)
    assert not mask[0].any() and mask[1:].all()
    assert construct._margin_rows(problem).all()


@pytest.mark.parametrize(
    "s, degree, r, fixed",
    [(5, 3, 4.0, (0, 6)), (20, 10, 0.999 * 19, (0, 21)), (2, 2, 1.0, (102, 102))],
    ids=["benchmark-search", "rank-deficient", "all-rows-fixed"],
)
def test_margin_rows_match_a_null_space_reference(s, degree, r, fixed):
    # a row lies outside the row space of the equalities iff it has a
    # component along their null space; A_eq of family-s20, degree 10 has
    # cond 2.3e17, and at family-s2, r = C the equalities fix every row
    scipy_linalg = pytest.importorskip("scipy.linalg")
    relaxation = build_lp(family_tableau(s), order=2, degree=degree, r=r)
    restriction = replace(relaxation, basis=construct._bernstein_basis(degree))
    null = scipy_linalg.null_space(relaxation.A_eq)
    for problem, n_fixed in zip((relaxation, restriction), fixed):
        A = problem.A_ub
        reference = np.linalg.norm(A @ null, axis=1) > 1e-9 * np.linalg.norm(A, axis=1)
        mask = construct._margin_rows(problem)
        assert np.array_equal(mask, reference)
        assert np.count_nonzero(~mask) == n_fixed


def test_lp_restriction_rows_are_bernstein_coefficients():
    # the slack of each restriction row is one elevated Bernstein coefficient
    # of a transformed weight or of the step budget
    tab, r, n = family_tableau(3), 2.0, 2 + ELEVATION
    problem = build_lp(tab, order=2, degree=2, r=r)
    restriction = replace(problem, basis=bernstein_matrix(n)[1:, 1:3])
    weights = second_order_weights(tab)
    slack = restriction.b_ub - restriction.A_ub @ weights.coeffs[:, 1:].ravel()
    M = resolvent(tab, r)
    budget = -r * (M @ np.ones(tab.s)) @ weights.coeffs
    budget[0] += 1.0
    polys = np.vstack([M.T @ weights.coeffs, budget])
    bern = np.array([monomial_to_bernstein(np.pad(p, (0, n - 2))) for p in polys])
    # the first coefficient is the value at theta = 0, which carries no row
    assert np.allclose(slack.reshape(n, tab.s + 1), bern[:, 1:].T, atol=1e-14)


def test_lp_search_order1_feasible_certified():
    tab = registry.get("ssp322").tableau
    result = lp_search(tab, order=1, degree=1, r=2.0)
    assert result.feasible and result.certified
    report = dense_order_residuals(tab, result.weights)
    assert report.order >= 1
    assert max(
        n for lvl, n in zip(report.levels, report.max_norms) if lvl <= 1
    ) < 1e-10
    assert dense_ssp_coefficient(tab, result.weights) >= 2.0 - 1e-8


@pytest.mark.parametrize(
    "s, r, degree",
    [(12, 11.0, 13), (16, 7.5, 13)]
    + [(16, 15.0, degree) for degree in (11, 13, 14)]
    + [(20, 9.5, degree) for degree in (10, 12, 13, 14)]
    + [(20, 19.0, degree) for degree in (12, 14)],
)
def test_order3_barrier_decides_where_the_lps_were_inconclusive(s, r, degree):
    # the two LPs ended inconclusive here after 0.28-2.7 s each; the
    # prescreen answers in about 0.3 ms (the first call may load LAPACK's
    # extension, so the second is timed)
    lp_search(family_tableau(s), order=3, degree=degree, r=r)
    start = time.perf_counter()
    result = lp_search(family_tableau(s), order=3, degree=degree, r=r)
    elapsed = time.perf_counter() - start
    assert result.status == "infeasible" and result.weights is None
    assert result.violated_necessary.condition == "order-3-barrier"
    assert elapsed < 0.1


@pytest.mark.parametrize("s, degree, r", [(7, 4, 5.5), (9, 3, 7.75)])
def test_order3_equalities_leave_the_relaxation_infeasible(s, degree, r):
    # the prescreen answers these searches before any LP; the relaxation over
    # the order-3 equality rows refutes them on its own
    assert construct._solve_lp(build_lp(family_tableau(s), 3, degree, r)) is None


def test_order3_barrier_needs_a_nonnegative_tableau():
    # a negative entry of A leaves the barrier's hypothesis unmet: the
    # prescreen hands such a tableau to the LPs, and a search on this one
    # stops at the stage conditions first
    tab = validate_tableau([[0, 0, 0], [1, 0, 0], ["-1/4", 1, 0]], ["1/6", "1/6", "2/3"])
    passing = SimpleNamespace(violations=())
    assert construct._prescreen(tab, 3, 3, 0.5, passing) is None
    assert construct._prescreen(family_tableau(3), 3, 3, 0.5, passing).condition == (
        "order-3-barrier"
    )
    with pytest.warns(UserWarning, match="exceeds the method's SSP coefficient"):
        result = lp_search(tab, order=3, degree=3, r=0.5)
    assert result.violated_necessary.condition == "stage-conditions-at-r"


def test_lp_search_zero_first_row_prescreen():
    implicit_midpoint = ButcherTableau(A=np.array([[0.5]]), b=np.array([1.0]))
    result = lp_search(implicit_midpoint, order=2, degree=2, r=0.5)
    assert not result.feasible
    assert result.violated_necessary.condition == "zero-first-row"


def test_lp_search_warns_and_screens_above_coefficient():
    tab = registry.get("ssp322").tableau
    with pytest.warns(UserWarning):
        result = lp_search(tab, order=1, degree=1, r=5.0)
    assert not result.feasible
    assert result.violated_necessary.condition == "stage-conditions-at-r"


def test_lp_search_probes_the_method_once(monkeypatch):
    calls = []
    original = construct.monotonicity_feasible_method

    def counting(tab, r):
        calls.append(r)
        return original(tab, r)

    monkeypatch.setattr(construct, "monotonicity_feasible_method", counting)
    result = lp_search(registry.get("ssp322").tableau, order=1, degree=1, r=2.0)
    assert result.certified
    assert calls == [2.0]


@pytest.mark.parametrize("s", [3, 4])
def test_quadratic_weights_meet_both_readers_of_the_order_conditions(s):
    # build_lp's equality rows and dense_order_residuals read one table of
    # dense order conditions; the quadratic recipe satisfies both
    tab = family_tableau(s)
    weights = second_order_weights(tab)
    problem = build_lp(tab, order=2, degree=2, r=s - 1.0)
    x = weights.coeffs[:, 1:].ravel()
    assert np.allclose(problem.A_eq @ x, problem.b_eq, rtol=0.0, atol=1e-14)
    assert dense_order_residuals(tab, weights).order == 2


def test_lp_equalities_shape_order2():
    # order 2 with degree D contributes D + D rows before pins (none are
    # structurally zero here), and the pins add s more
    tab = family_tableau(3)
    problem = build_lp(tab, order=2, degree=2, r=2.0)
    assert problem.A_eq.shape[0] == 2 + 2 + 3
    assert problem.n_variables == 6


def test_lp_search_rejects_degree_above_limit_before_any_lp(monkeypatch):
    # the certifier converts at most MAX_DEGREE; a search past it must fail
    # before building or solving an LP
    def no_lp(**kwargs):
        raise AssertionError("an LP was solved")

    monkeypatch.setattr(construct, "phase1_feasible", no_lp)
    with pytest.raises(DegreeTooHighError, match="^degree 1000 exceeds 64$"):
        lp_search(family_tableau(3), order=1, degree=1000, r=1.0)
    with pytest.raises(DegreeTooHighError, match="^degree 65 exceeds 64$"):
        lp_search(family_tableau(3), order=1, degree=65, r=1.0)


def test_lp_conditions_are_the_negated_condition_map():
    tab = family_tableau(4)
    problem = build_lp(tab, order=2, degree=3, r=2.5)
    M = resolvent(tab, 2.5)
    assert np.array_equal(problem.conditions, -condition_map(M, 2.5))
    assert np.array_equal(problem.conditions[:-1], -M.T)
    assert np.array_equal(problem.conditions[-1], 2.5 * (M @ np.ones(4)))
