import numpy as np
import pytest

from sspdo import registry
from sspdo.errors import (
    AbscissaMismatchError,
    DimensionMismatchError,
    InvalidArgumentError,
    SspdoError,
    ZeroRowViolationError,
)
from sspdo.tableau import (
    ButcherTableau,
    DenseWeights,
    as_float,
    dense_order_residuals,
    endpoint_check,
    method_order_residuals,
    validate_tableau,
)


def test_reprs_name_the_shape():
    entry = registry.get("ssp322")
    assert repr(entry.tableau) == "ButcherTableau(SSP(3,2,2), s=3, explicit=True)"
    assert repr(ButcherTableau(A=np.eye(1), b=np.ones(1))) == (
        "ButcherTableau(tableau, s=1, explicit=False)"
    )
    assert repr(entry.dense_weights) == "DenseWeights(s=3, degree=2)"
    assert repr(method_order_residuals(entry.tableau)) == (
        "ResidualReport(order=2, dense_sum=0.000e+00, dense_sum_c=0.000e+00, "
        "dense_sum_c2=8.333e-02, dense_sum_Ac=8.333e-02)"
    )


def test_validate_ssp222():
    tab = validate_tableau([[0, 0], [1, 0]], ["1/2", "1/2"])
    assert np.array_equal(tab.c, [0.0, 1.0])
    assert tab.explicit
    assert tab.s == 2


def test_validate_forward_euler():
    tab = validate_tableau([[0]], [1])
    assert np.array_equal(tab.c, [0.0])


def test_two_zero_rows_rejected():
    with pytest.raises(ZeroRowViolationError):
        validate_tableau([[0, 0], [0, 0]], ["1/2", "1/2"])


def test_zero_row_below_first_rejected():
    with pytest.raises(ZeroRowViolationError, match="2"):
        validate_tableau([[1, 0], [0, 0]], ["1/2", "1/2"])


def test_dimension_checks():
    with pytest.raises(DimensionMismatchError):
        validate_tableau([[0, 0]], [1, 0])
    with pytest.raises(DimensionMismatchError):
        validate_tableau([[0, 0], [1, 0]], [1])


def test_zero_stage_tableau_rejected(capfd):
    # certifying it would reach LAPACK with an empty matrix, which prints to stderr
    with pytest.raises(DimensionMismatchError, match="A has no stage"):
        ButcherTableau(A=np.zeros((0, 0)), b=np.zeros(0))
    assert capfd.readouterr() == ("", "")


def test_abscissas_recomputed_and_checked():
    tab = validate_tableau([[0, 0], [1, 0]], [0.5, 0.5], c=[0, 1])
    assert np.array_equal(tab.c, [0.0, 1.0])
    with pytest.raises(AbscissaMismatchError):
        validate_tableau([[0, 0], [1, 0]], [0.5, 0.5], c=[0, 0.5])


def test_rational_strings_parse_exactly():
    tab = validate_tableau(
        [[0, 0, 0], ["1/2", 0, 0], ["1/2", "1/2", 0]], ["1/3", "1/3", "1/3"]
    )
    assert tab.b[0] == 1.0 / 3.0
    assert abs(tab.b.sum() - 1.0) < 1e-15


def test_zero_denominator_is_value_error():
    with pytest.raises(ValueError, match="zero denominator"):
        as_float("1/0")


@pytest.mark.parametrize("coeffs", [[], np.zeros((3, 0)), np.zeros((0, 2))])
def test_dense_weights_without_coefficients_rejected(coeffs):
    with pytest.raises(InvalidArgumentError, match="no coefficients"):
        DenseWeights(coeffs)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_nonfinite_coefficients_rejected(bad):
    for build in (
        lambda: ButcherTableau(A=np.array([[0.0, 0.0], [bad, 0.0]]), b=np.array([0.5, 0.5])),
        lambda: ButcherTableau(A=np.array([[0.0, 0.0], [1.0, 0.0]]), b=np.array([bad, 0.5])),
        lambda: DenseWeights(np.array([[0.0, 1.0], [0.0, bad]])),
    ):
        with pytest.raises(InvalidArgumentError) as info:
            build()
        assert isinstance(info.value, SspdoError) and isinstance(info.value, ValueError)


def test_explicit_flag():
    implicit = ButcherTableau(A=np.array([[0.5]]), b=np.array([1.0]))
    assert not implicit.explicit


def test_method_order_euler():
    report = method_order_residuals(validate_tableau([[0]], [1]))
    assert report.order == 1
    assert report.max_norm("dense_sum_c") == pytest.approx(0.5)


def test_method_order_ssp322():
    # hand oracle: sum b_j c_j^2 = (1/3)(0 + 1/4 + 1) = 5/12, so the third
    # condition misses 1/3 by exactly 1/12
    report = method_order_residuals(registry.get("ssp322").tableau)
    assert report.order == 2
    assert report.max_norm("dense_sum_c2") == pytest.approx(1.0 / 12.0, abs=1e-15)


def test_method_order_ssp332_is_three():
    report = method_order_residuals(registry.get("ssp332").tableau)
    assert report.order == 3
    assert max(report.max_norms) < 1e-13


def test_dense_order_nonssp_weights_order_two():
    entry = registry.get("numexample-322")
    report = dense_order_residuals(entry.tableau, registry.nonssp_weights_322())
    assert report.order == 2


def test_dense_order_linear_scaling_matches_first_condition():
    tab = registry.get("ssp322").tableau
    coeffs = np.zeros((3, 2))
    coeffs[:, 1] = tab.b
    report = dense_order_residuals(tab, DenseWeights(coeffs))
    assert np.all(np.abs(report.residual("dense_sum")) <= 1e-13)
    assert report.order >= 1


def test_dense_order_quadratic_on_ssp332():
    # hand expansion: sum w_j c_j^2 = theta^2/3, so the cubic condition
    # residual is theta^2/3 - theta^3/3
    entry = registry.get("ssp332")
    report = dense_order_residuals(entry.tableau, entry.dense_weights)
    assert report.order == 2
    res = report.residual("dense_sum_c2")
    assert np.allclose(res, [0.0, 0.0, 1.0 / 3.0, -1.0 / 3.0], atol=1e-15)


def test_dense_order_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        dense_order_residuals(
            registry.get("ssp222").tableau, registry.nonssp_weights_322()
        )


def test_endpoint_flags_quadratic_recipe():
    entry = registry.get("ssp322")
    flags = endpoint_check(entry.tableau, entry.dense_weights)
    assert flags.left_zero and flags.right_matches_b


def test_endpoint_flags_nonssp_weights():
    entry = registry.get("numexample-322")
    flags = endpoint_check(entry.tableau, registry.nonssp_weights_322())
    assert flags.left_zero
    assert not flags.right_matches_b
    # values at 1 are (1, -1, 1) against b = 1/3 everywhere
    assert flags.max_right_deviation == pytest.approx(4.0 / 3.0, abs=1e-15)


def test_endpoint_flags_nonzero_constant():
    entry = registry.get("ssp222")
    coeffs = np.array(entry.dense_weights.coeffs)
    coeffs[0, 0] = 0.1
    flags = endpoint_check(entry.tableau, DenseWeights(coeffs))
    assert not flags.left_zero


def _permuted(tab, weights, perm):
    perm = np.asarray(perm)
    A = tab.A[np.ix_(perm, perm)]
    permuted = ButcherTableau(A=A, b=tab.b[perm], name="permuted")
    return permuted, DenseWeights(weights.coeffs[perm])


@pytest.mark.parametrize("key", ["ssp222", "ssp322", "ssp332"])
def test_permutation_invariance_of_residuals(key):
    entry = registry.get(key)
    rng = np.random.default_rng(7)
    perm = rng.permutation(entry.tableau.s)
    ptab, pweights = _permuted(entry.tableau, entry.dense_weights, perm)
    base = method_order_residuals(entry.tableau)
    permuted = method_order_residuals(ptab)
    assert base.order == permuted.order
    assert np.allclose(base.max_norms, permuted.max_norms, atol=1e-14)
    base_d = dense_order_residuals(entry.tableau, entry.dense_weights)
    permuted_d = dense_order_residuals(ptab, pweights)
    assert base_d.order == permuted_d.order
    for lhs, rhs in zip(base_d.residuals, permuted_d.residuals):
        assert np.allclose(lhs, rhs, atol=1e-14)


@pytest.mark.parametrize("key", ["ssp322", "ssp332", "numexample-322"])
def test_residual_max_norm_matches_dense_sampling(key):
    entry = registry.get(key)
    report = dense_order_residuals(entry.tableau, registry.nonssp_weights_322())
    thetas = np.linspace(0.0, 1.0, 1000)
    for res, norm in zip(report.residuals, report.max_norms):
        sampled = np.max(np.abs(np.polynomial.polynomial.polyval(thetas, res)))
        assert norm >= sampled - 1e-12
        assert norm <= sampled + 1e-3  # max may fall between samples


def test_linear_scaling_order_links_method_order():
    # weights b_j * theta reach dense order >= 1 exactly when the method has
    # order >= 1
    good = registry.get("ssp222").tableau
    coeffs = np.zeros((2, 2))
    coeffs[:, 1] = good.b
    assert dense_order_residuals(good, DenseWeights(coeffs)).order >= 1
    bad = validate_tableau([[0, 0], [1, 0]], [0.7, 0.7])
    coeffs[:, 1] = bad.b
    assert method_order_residuals(bad).order == 0
    assert dense_order_residuals(bad, DenseWeights(coeffs)).order == 0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_residuals_are_not_finite():
    # c*c and A@c overflow: the residuals they enter are inf or NaN, without
    # a numpy warning or a root finder's LinAlgError, and the order stops at 1
    tab = validate_tableau([[0, 0, 0], [1e160, 0, 0], [0, 1e160, 0]], ["1/3"] * 3)
    weights = DenseWeights([[0, 1, -2 / 3], [0, 0, 1 / 3], [0, 0, 1 / 3]])
    for report in (method_order_residuals(tab), dense_order_residuals(tab, weights)):
        assert report.order == 1
        assert not np.isfinite(report.max_norm("dense_sum_c2"))
