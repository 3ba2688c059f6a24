"""Acceptance suite: one test per acceptance criterion, each printing a
pass/fail line (run with -s to see them alongside the pytest dots)."""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from sspdo import registry
from sspdo.certify import (
    CertStatus,
    check_xineq,
    dense_ssp_coefficient,
    gamma_at,
    monotonicity_feasible_method,
    poly_nonneg_on_unit,
    resolvent,
    ssp_coefficient,
)
from sspdo.construct import (
    family_tableau,
    first_order_weights,
    lp_search,
    second_order_weights,
)
from sspdo.experiments import convergence_study, run_figure1
from sspdo.problems import sinode
from sspdo.shu_osher import shu_osher_step_equivalence, to_shu_osher
from sspdo.tableau import ButcherTableau, endpoint_check, validate_tableau

REGISTRY_KEYS = ["ssp222", "ssp322", "ssp332", "numexample-322"]


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[criterion {number:02d}] {description}: FAIL")
        raise
    print(f"[criterion {number:02d}] {description}: PASS")


def test_c01_builtin_certification():
    with criterion(1, "built-in methods certify to 1, 2, 1"):
        # warm-up: the first resolvent loads LAPACK's extension and starts
        # OpenBLAS, which the gate does not time
        resolvent(registry.get("ssp222").tableau, 1.0)
        start = time.perf_counter()
        expected = {"ssp222": 1.0, "ssp322": 2.0, "ssp332": 1.0}
        for key, value in expected.items():
            got = ssp_coefficient(registry.get(key).tableau)
            assert abs(got - value) <= 1e-8, (key, got)
        assert time.perf_counter() - start < 1.0


def test_c02_family_law():
    with criterion(2, "family coefficient equals s-1 for s=2..10"):
        start = time.perf_counter()
        for s in range(2, 11):
            got = ssp_coefficient(family_tableau(s))
            assert abs(got - (s - 1)) <= 1e-8, (s, got)
        assert time.perf_counter() - start < 5.0


def test_c03_dense_coefficients():
    with criterion(3, "quadratic dense coefficient: s-1 for s<=4, below for s=5,6"):
        start = time.perf_counter()
        for s in (2, 3, 4):
            tab = family_tableau(s)
            got = dense_ssp_coefficient(tab, second_order_weights(tab))
            assert abs(got - (s - 1)) <= 1e-8, (s, got)
        for s in (5, 6):
            tab = family_tableau(s)
            got = dense_ssp_coefficient(tab, second_order_weights(tab))
            assert got < (s - 1) - 1e-8, (s, got)
        assert time.perf_counter() - start < 10.0


def test_c04_xineq_table():
    with criterion(4, "budget inequality holds s=2..4 (equality at 4), fails s>=5"):
        for s in (2, 3, 4):
            report = check_xineq(family_tableau(s))
            assert report.holds, s
        report = check_xineq(family_tableau(4))
        assert abs(report.lhs - 0.25) <= 1e-9
        assert abs(report.rhs - 0.25) <= 1e-9
        for s in range(5, 11):
            assert not check_xineq(family_tableau(s)).holds, s


def test_c05_uniqueness():
    with criterion(5, "LP search recovers the unique quadratic weights (s=3,4)"):
        for s in (3, 4):
            result = lp_search(family_tableau(s), order=2, degree=2, r=float(s - 1))
            assert result.feasible, s
            quad = result.weights.coeffs[:, 2]
            assert np.max(np.abs(quad[1:] - 1.0 / s)) <= 1e-8, (s, quad)


def test_c06_nonexistence():
    with criterion(6, "LP search infeasible for s=5..8 with the peak witness"):
        for s in (5, 6, 7, 8):
            result = lp_search(family_tableau(s), order=2, degree=2, r=float(s - 1))
            assert not result.feasible, s
            v = result.violated_necessary
            assert v is not None, s
            theta_star = s / (2.0 * (s - 1.0))
            assert abs(v.theta - theta_star) <= 1e-12
            assert v.lhs - 1.0 / (s - 1.0) > 0.0


def test_c07_order3_barrier():
    with criterion(7, "order-3 dense output is impossible"):
        entry = registry.get("ssp332")
        for degree in range(2, 7):
            result = lp_search(entry.tableau, order=3, degree=degree, r=0.1)
            assert not result.feasible, degree
        # the prescreen states the barrier for every tableau with A >= 0
        for tab, r in ((entry.tableau, 0.1), (family_tableau(8), 3.5)):
            for degree in range(2, 15):
                result = lp_search(tab, order=3, degree=degree, r=r)
                assert result.violated_necessary.condition == "order-3-barrier", degree


def test_c08_figure1_reproduction():
    with criterion(8, "SSP dense values stay in [0,1]; non-SSP formula escapes"):
        start = time.perf_counter()
        summary = run_figure1(h=1.6)
        assert summary.ssp_min >= -1e-12 and summary.ssp_max <= 1.0 + 1e-12
        assert summary.nonssp_min < 0.0
        summary2 = run_figure1(h=2.0)
        assert summary2.ssp_min >= -1e-12 and summary2.ssp_max <= 1.0 + 1e-12
        assert time.perf_counter() - start < 10.0


def test_c09_empirical_orders():
    with criterion(9, "observed orders: dense 2 and 1, step 3"):
        entry = registry.get("ssp322")
        study = convergence_study(entry.tableau, entry.dense_weights)
        assert abs(study.dense_slope - 2.0) <= 0.2, study.dense_slope
        euler = validate_tableau([[0]], [1], name="euler")
        study = convergence_study(euler, first_order_weights(euler))
        assert abs(study.dense_slope - 1.0) <= 0.2, study.dense_slope
        study = convergence_study(registry.get("ssp332").tableau, None)
        assert abs(study.step_slope - 3.0) <= 0.2, study.step_slope


def test_c10_shu_osher_fidelity():
    with criterion(10, "Shu-Osher conversion reproduces the published form"):
        entry = registry.get("ssp322")
        form = to_shu_osher(entry.tableau, entry.dense_weights, 2.0)
        expected_beta = np.array(
            [[0.0, 2.0, -2.0], [0.0, 0.0, 0.0], [0.0, 0.0, 2.0 / 3.0]]
        )
        assert np.max(np.abs(form.beta_bar - expected_beta)) <= 1e-13
        assert np.max(np.abs(form.mu - [1.0, -2.0, 4.0 / 3.0])) <= 1e-13
        dev = shu_osher_step_equivalence(
            entry.tableau,
            entry.dense_weights,
            2.0,
            sinode(),
            0.3,
            0.5,
            np.linspace(0.0, 1.0, 11),
        )
        assert dev <= 1e-12
        for key in REGISTRY_KEYS:
            e = registry.get(key)
            f = to_shu_osher(e.tableau, e.dense_weights, e.c_combined)
            assert f.affine_defect() <= 1e-13, key


def test_c11_invariant_suites():
    with criterion(11, "invariant suites hold on the full registry"):
        rng = np.random.default_rng(11)
        theta_grid = np.linspace(0.0, 1.0, 10_000)
        for key in REGISTRY_KEYS:
            entry = registry.get(key)
            tab, weights = entry.tableau, entry.dense_weights
            r_method = ssp_coefficient(tab)

            # monotone feasibility along a probe grid
            grid = np.linspace(1e-10, r_method + 2.0, 21)
            flags = [monotonicity_feasible_method(tab, r).feasible for r in grid]
            assert flags == sorted(flags, reverse=True), key

            # permutation invariance of the coefficient
            perm = rng.permutation(tab.s)
            permuted = ButcherTableau(A=tab.A[np.ix_(perm, perm)], b=tab.b[perm])
            assert abs(ssp_coefficient(permuted) - r_method) <= 1e-8, key

            # right-endpoint continuity implies dense <= method coefficient
            assert endpoint_check(tab, weights).right_matches_b, key
            r_dense = dense_ssp_coefficient(tab, weights)
            assert r_dense <= r_method + 1e-9, key

            # positive combined coefficient forces nonnegative coefficients
            # and weight values on a dense theta grid
            assert min(r_method, r_dense) > 0, key
            assert np.min(tab.A) >= -1e-12 and np.min(tab.b) >= -1e-12, key
            powers = theta_grid[:, None] ** np.arange(weights.degree + 1)[None, :]
            values = powers @ weights.coeffs.T
            assert values.min() >= -1e-12, key

            # Bernstein certifier agrees with dense sampling on the weight rows
            for j in range(weights.s):
                report = poly_nonneg_on_unit(weights.coeffs[j])
                sampled = values[:, j].min()
                if report.certified is CertStatus.NONNEG:
                    assert sampled >= -1e-12, (key, j)
                elif report.certified is CertStatus.NEGATIVE:
                    assert report.witness_value < 0, (key, j)

            # gamma budget at the certified coefficient
            assert 0.0 <= r_method * gamma_at(tab, r_method) <= 1.0 + 1e-9, key

        # the certifier also flags genuinely negative inputs against sampling
        nonssp = registry.nonssp_weights_322()
        report = poly_nonneg_on_unit(nonssp.coeffs[1])
        assert report.certified is CertStatus.NEGATIVE
        sampled = np.polynomial.polynomial.polyval(theta_grid, nonssp.coeffs[1]).min()
        assert sampled < 0
