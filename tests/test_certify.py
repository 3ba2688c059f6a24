import collections
import inspect
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from sspdo import certify, poly, registry
from sspdo.certify import (
    CertStatus,
    FeasibilityCheck,
    Violation,
    _sup_by_bisection,
    bernstein_matrix,
    check_xineq,
    compute_certificate,
    dense_ssp_coefficient,
    dense_ssp_coefficient_detailed,
    gamma_at,
    half_cell_matrices,
    monomial_to_bernstein,
    monotonicity_feasible_dense,
    monotonicity_feasible_method,
    poly_nonneg_on_unit,
    resolvent,
    ssp_coefficient,
    ssp_coefficient_detailed,
)
from sspdo.construct import (
    chebyshev_lobatto,
    family_tableau,
    first_order_weights,
    second_order_weights,
)
from sspdo.errors import (
    DegreeTooHighError,
    DimensionMismatchError,
    InvalidArgumentError,
    SingularMatrixError,
    SspdoError,
)
from sspdo.tableau import ButcherTableau, DenseWeights, endpoint_check, validate_tableau

ALL_KEYS = ["ssp222", "ssp322", "ssp332", "numexample-322"]


# ---------------------------------------------------------------- feasibility

_SSP222 = registry.get("ssp222")


@pytest.mark.parametrize(
    "call",
    [
        lambda: monotonicity_feasible_method(_SSP222.tableau, -1.0),
        lambda: monotonicity_feasible_dense(_SSP222.tableau, _SSP222.dense_weights, -1.0),
        lambda: check_xineq(_SSP222.tableau, r=0.0),
        lambda: chebyshev_lobatto(1),
        lambda: poly.as_poly([[1.0, 2.0]]),
        lambda: poly_nonneg_on_unit([]),
        lambda: poly.min_on_unit([]),
        lambda: poly.evaluate([], 0.5),
        lambda: poly.max_abs_on_unit([]),
        lambda: monomial_to_bernstein([]),
        lambda: monomial_to_bernstein(np.zeros((3, 0))),
    ],
    ids=[
        "method-r", "dense-r", "xineq-r", "chebyshev-n", "as-poly-2d",
        "empty-nonneg", "empty-min", "empty-evaluate", "empty-max-abs",
        "empty-bernstein", "empty-bernstein-rows",
    ],
)
def test_bad_argument_is_a_package_error(call):
    # still a ValueError, for callers that catch that
    with pytest.raises(SspdoError) as info:
        call()
    assert isinstance(info.value, InvalidArgumentError)
    assert isinstance(info.value, ValueError)


def test_feasible_ssp222_at_one():
    assert monotonicity_feasible_method(registry.get("ssp222").tableau, 1.0).feasible


def test_feasible_euler_at_zero():
    assert monotonicity_feasible_method(validate_tableau([[0]], [1]), 0.0).feasible


def test_negative_entry_witness():
    # hand check: for A = [[0,0],[-1,0]] the product A(I+rA)^{-1} keeps the
    # entry -1 in position (2,1) at any r, so the first condition fails there
    tab = ButcherTableau(A=np.array([[0.0, 0.0], [-1.0, 0.0]]), b=np.array([0.5, 0.5]))
    check = monotonicity_feasible_method(tab, 0.5)
    assert not check.feasible
    witness = [v for v in check.violations if v.condition == "stage_nonneg"]
    assert witness and witness[0].index == (2, 1)
    assert witness[0].value == pytest.approx(-1.0)


def test_method_witness_uses_dense_convention():
    # ssp222 at r = 2: b'(I + 2A)^{-1} = (-1/2, 1/2); the witness is the
    # slack-folded constant row at theta = 0, as for dense weights
    check = monotonicity_feasible_method(registry.get("ssp222").tableau, 2.0)
    weight = [v for v in check.violations if v.condition.startswith("weight")]
    assert len(weight) == 1
    assert weight[0].condition == "weight_nonneg"
    assert weight[0].index == (1,)
    assert weight[0].theta == 0.0
    assert weight[0].value == pytest.approx(-0.5 + 1e-12, abs=1e-15)


def test_singular_reported_distinctly():
    tab = ButcherTableau(A=np.array([[-1.0]]), b=np.array([1.0]))
    check = monotonicity_feasible_method(tab, 1.0)
    assert not check.feasible and check.singular


# ------------------------------------------------------------ ssp coefficient

@pytest.mark.parametrize(
    "key,expected", [("ssp222", 1.0), ("ssp322", 2.0), ("ssp332", 1.0)]
)
def test_ssp_coefficient_builtin_methods(key, expected):
    assert ssp_coefficient(registry.get(key).tableau) == pytest.approx(
        expected, abs=1e-8
    )


@pytest.mark.parametrize("s", range(2, 11))
def test_family_coefficient_law(s):
    assert ssp_coefficient(family_tableau(s)) == pytest.approx(s - 1, abs=1e-8)


def test_negative_coefficient_gives_zero():
    tab = ButcherTableau(A=np.array([[0.0, 0.0], [-0.5, 0.0]]), b=np.array([0.5, 0.5]))
    assert ssp_coefficient(tab) == 0.0
    tab = ButcherTableau(A=np.array([[0.0, 0.0], [1.0, 0.0]]), b=np.array([1.5, -0.5]))
    assert ssp_coefficient(tab) == 0.0


def test_bisection_below_float_spacing_terminates():
    # near 6e5 doubles are 2**-33 (1.16e-10) apart, more than BISECT_TOL:
    # bisection stops once the bracket cannot be split, on the adjacent
    # doubles around the sup, which is itself a double
    sup = 6e5 + 0.123456789
    assert math.ulp(sup) > certify.BISECT_TOL
    radii, result = _probed_radii(sup)
    assert result.value == sup
    assert len(radii) == len(set(radii)) < 100
    assert math.nextafter(sup, math.inf) in radii


_WITNESS = ("stage_bound", (1,), 2.0, None)  # the fields of a Violation


def test_violation_fields_repr_and_immutability():
    assert list(inspect.signature(Violation).parameters) == [
        "condition", "index", "value", "theta",
    ]
    violation = Violation(*_WITNESS[:3])
    assert repr(violation) == (
        "Violation(condition='stage_bound', index=(1,), value=2.0, theta=None)"
    )
    for name in ("condition", "index", "value", "theta"):
        with pytest.raises(AttributeError):
            setattr(violation, name, None)


def _check(feasible):
    return FeasibilityCheck(() if feasible else (_WITNESS,))


def test_failed_post_verification_marks_the_sup_conservative():
    # the value stays the highest radius the walk probed feasible, a lower
    # bound that may not be tight
    for feasible, value, upper in (
        # feasible at 1e-8 but not at 1e-10: not an interval
        (lambda r: r > 1e-9, 0.0, 1e-8),
        # a feasible sliver just above the sup r = 1 that bisection never probes
        (lambda r: r <= 1.0 or 1.0 + 1.6e-8 < r < 1.0 + 2.5e-8, 1.0, 1.0 + 2e-8),
    ):
        radii = []

        def probe(r):
            radii.append(r)
            return _check(feasible(r))

        result = _sup_by_bisection(probe)
        assert radii[-1] == pytest.approx(upper, abs=1e-15)
        assert (result.value, result.unbounded, result.conservative) == (value, False, True)


def test_inconclusive_post_verification_leaves_the_flag_unset():
    # the post-verification radius 1 + 2e-8 is inconclusive; it decides no
    # radius at or below the value, whose bracket above is witnessed
    def probe(r):
        if r <= 1.0:
            return FeasibilityCheck(())
        return FeasibilityCheck((None,) if 1.0 + 1.5e-8 < r < 1.0 + 2.5e-8 else (_WITNESS,))

    result = _sup_by_bisection(probe)
    assert (result.value, result.conservative) == (1.0, False)


@pytest.mark.parametrize("s", [9, 24, 40])
def test_perturbed_family_formulas_get_a_certificate(s):
    # b*theta with 1e-13..1e-10 of its linear coefficient moved between two
    # stages: float noise at the binding row can make the radii probed just
    # above the sup feasible; every formula still gets a certificate
    tab = family_tableau(s)
    for delta in (1e-13, 1e-12, 1e-11, 1e-10):
        for i, j in ((0, 1), (0, 2), (1, 2), (0, s - 1), (1, s - 1), (s - 2, s - 1)):
            coeffs = np.zeros((s, 2))
            coeffs[:, 1] = tab.b
            coeffs[i, 1] -= delta
            coeffs[j, 1] += delta
            cert = compute_certificate(tab, DenseWeights(coeffs))
            assert 0.0 < cert.r_dense <= cert.r_method == s - 1


@pytest.mark.parametrize("sup", [0.0, 1.7, 2.0, certify.R_CAP])
def test_bisection_probes_each_radius_once(sup):
    radii = []

    def probe(r):
        radii.append(r)
        return _check(0.0 < r <= sup)

    result = _sup_by_bisection(probe)
    assert len(radii) == len(set(radii))
    assert result.value == pytest.approx(sup, abs=1e-9)


def _probed_radii(sup):
    radii = []

    def probe(r):
        radii.append(r)
        return _check(0.0 < r <= sup)

    return radii, _sup_by_bisection(probe)


def test_bisection_radii_at_zero_sup():
    # the bracket (0, 1e-10) is already within BISECT_TOL: only the
    # post-verification radius 1e-8 follows
    radii, result = _probed_radii(0.0)
    assert radii == [1e-10, 1e-8]
    assert (result.value, result.unbounded) == (0.0, False)


def test_bisection_radii_at_interior_sup():
    radii, result = _probed_radii(1.7)
    assert radii[:4] == [1e-10, 1.0, 2.0, 1.5]
    assert len(radii) == 38
    assert all(1.0 < r < 2.0 for r in radii[3:-1])
    assert result.value == 1.6999999999534339
    assert radii[-1] == result.value * (1.0 + 1e-8) + 1e-8


def test_bisection_radii_at_cap():
    # doubling from 1 reaches 2^19, then the cap itself; no post-verification
    radii, result = _probed_radii(certify.R_CAP)
    assert radii == [1e-10] + [2.0**k for k in range(20)] + [certify.R_CAP]
    assert (result.value, result.unbounded, result.first_infeasible) == (
        certify.R_CAP, True, None,
    )


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_nonfinite_stage_entry_is_inconclusive():
    # I + rA inverts to entries near 1e300 whose products with A overflow:
    # the infinite stage entry is neither certified nor a witness
    tab = ButcherTableau(
        A=np.array([[0.0, 0.0, 0.0], [1e160, 0.0, 0.0], [0.0, 1e160, 0.0]]),
        b=np.full(3, 1.0 / 3.0),
    )
    check = monotonicity_feasible_method(tab, 1e-10)
    assert check.inconclusive and not check.feasible
    assert all(np.isfinite(v.value) for v in check.violations)
    assert "stage_nonneg" not in {v.condition for v in check.violations}


def test_singular_witness_has_no_value():
    tab = ButcherTableau(A=np.array([[-1.0]]), b=np.array([1.0]))
    (witness,) = monotonicity_feasible_method(tab, 1.0).violations
    assert (witness.condition, witness.value) == ("singular", None)


def test_permutation_invariance_of_coefficient():
    entry = registry.get("ssp332")
    perm = np.array([2, 0, 1])
    permuted = ButcherTableau(
        A=entry.tableau.A[np.ix_(perm, perm)], b=entry.tableau.b[perm]
    )
    assert ssp_coefficient(permuted) == pytest.approx(1.0, abs=1e-8)


def test_monotone_feasibility_on_probe_grid():
    for key in ALL_KEYS:
        tab = registry.get(key).tableau
        c = ssp_coefficient(tab)
        grid = np.linspace(1e-10, c + 2.0, 25)
        flags = [monotonicity_feasible_method(tab, r).feasible for r in grid]
        # once infeasible, never feasible again at larger r
        assert flags == sorted(flags, reverse=True)


# ---------------------------------------------------------- dense coefficient

def test_dense_coefficient_ssp322():
    entry = registry.get("ssp322")
    assert dense_ssp_coefficient(entry.tableau, entry.dense_weights) == pytest.approx(
        2.0, abs=1e-8
    )


def test_dense_coefficient_nonssp_weights_zero():
    entry = registry.get("numexample-322")
    assert dense_ssp_coefficient(entry.tableau, registry.nonssp_weights_322()) == 0.0


def test_dense_coefficient_family5_quadratic_below_four():
    tab = family_tableau(5)
    weights = second_order_weights(tab)
    # the first weight peaks at 5/16 > 1/4 at theta = 5/8, so the budget
    # condition cannot hold at r = 4
    assert weights.evaluate(5.0 / 8.0)[0] == pytest.approx(5.0 / 16.0, abs=1e-15)
    value = dense_ssp_coefficient(tab, weights)
    assert 0.0 < value < 4.0 - 1e-6


def test_certificates_are_exact_in_the_benchmark_range():
    # == and not approx: each C here lies on the bisection's grid, no more
    # than the slack below the probe's sup, so a change that moves a
    # certificate off C shows; the keys are the benchmark's certify commands
    for key in (*ALL_KEYS, *(f"family-s{s}" for s in range(2, 41))):
        entry = registry.get(key)
        cert = compute_certificate(entry.tableau, entry.dense_weights)
        assert cert.r_method == entry.c_method, key
        if entry.dense_weights is not None:
            assert cert.r_dense == entry.c_method, key


def test_dense_feasibility_reports_witnesses():
    entry = registry.get("numexample-322")
    check = monotonicity_feasible_dense(
        entry.tableau, registry.nonssp_weights_322(), 0.5
    )
    assert not check.feasible
    kinds = {v.condition for v in check.violations}
    assert "dense_nonneg" in kinds


def _count_subdivisions(monkeypatch):
    calls = []
    original = certify.poly_nonneg_on_unit

    def counting(coeffs, **kwargs):
        calls.append(coeffs)
        return original(coeffs, **kwargs)

    monkeypatch.setattr(certify, "poly_nonneg_on_unit", counting)
    return calls


@pytest.mark.parametrize(
    "probe",
    [
        lambda: monotonicity_feasible_method(_SSP222.tableau, 2.0),
        lambda: monotonicity_feasible_dense(
            registry.get("ssp322").tableau, registry.get("ssp322").dense_weights, 2.5
        ),
    ],
    ids=["method-ssp222", "dense-ssp322"],
)
def test_infeasible_probe_reaches_every_traced_layer(monkeypatch, probe):
    # the benchmark's tracer wraps these names in certify's globals: a probe
    # that bypasses one of them leaves that layer empty
    calls = collections.Counter()
    for name in ("resolvent", "monomial_to_bernstein", "poly_nonneg_on_unit"):

        def counting(*args, _name=name, _original=getattr(certify, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(certify, name, counting)
    assert not probe().feasible
    assert set(calls) == {"resolvent", "monomial_to_bernstein", "poly_nonneg_on_unit"}


def test_feasible_probe_never_subdivides(monkeypatch):
    calls = _count_subdivisions(monkeypatch)
    entry = registry.get("ssp322")
    assert monotonicity_feasible_dense(entry.tableau, entry.dense_weights, 1.5).feasible
    assert monotonicity_feasible_method(entry.tableau, 1.5).feasible
    assert calls == []


def test_infeasible_probe_subdivides_only_failing_rows(monkeypatch):
    calls = _count_subdivisions(monkeypatch)
    check = monotonicity_feasible_method(registry.get("ssp222").tableau, 2.0)
    assert not check.feasible
    assert [v.condition for v in check.violations] == ["stage_bound", "weight_nonneg"]
    assert len(calls) == 1


@pytest.mark.parametrize("seed", range(6))
def test_batched_probe_matches_per_row_certifier(seed):
    # reference: every slack-folded condition row through the subdivision
    # certifier on its own; weights b_j theta plus a random cubic part
    rng = np.random.default_rng(seed)
    tab = family_tableau(4)
    coeffs = np.zeros((4, 4))
    coeffs[:, 1] = tab.b
    coeffs[:, 2:] = rng.uniform(-0.1, 0.1, size=(4, 2))
    weights = DenseWeights(coeffs)
    for r in (0.5, 1.5, 2.5, 3.0):
        rows = certify._condition_rows(resolvent(tab, r), weights.coeffs, r)
        rows[:, 0] += certify.SIGN_TOL
        expected = all(
            poly_nonneg_on_unit(row).certified is CertStatus.NONNEG for row in rows
        )
        check = monotonicity_feasible_dense(tab, weights, r)
        assert check.feasible == expected
        assert [v.condition for v in check.violations if v.condition.startswith("dense")] == [
            "dense_bound" if j == 4 else "dense_nonneg"
            for j, row in enumerate(rows)
            if poly_nonneg_on_unit(row).certified is CertStatus.NEGATIVE
        ]


def test_nan_condition_rows_never_feasible():
    tab = registry.get("ssp222").tableau
    for W in (np.array([[np.nan], [0.5]]), np.array([[0.0, np.nan], [0.0, 0.5]])):
        check = certify._probe(tab, W, 0.5, "dense")
        assert not check.feasible
    assert poly_nonneg_on_unit([np.nan, 1.0]).certified is CertStatus.INCONCLUSIVE


def test_dense_probe_degree_limit():
    # b_j * theta padded to degree 65: every row passes the sign check
    tab = registry.get("ssp222").tableau
    coeffs = np.zeros((2, 66))
    coeffs[:, 1] = tab.b
    with pytest.raises(DegreeTooHighError):
        monotonicity_feasible_dense(tab, DenseWeights(coeffs), 0.5)


def test_dense_probe_rejects_mismatched_weights():
    with pytest.raises(DimensionMismatchError):
        monotonicity_feasible_dense(
            registry.get("ssp222").tableau, registry.nonssp_weights_322(), 0.5
        )


def test_certificate_computes_gamma_once(monkeypatch):
    calls = []
    original = certify.gamma_at

    def counting(tab, r):
        calls.append(r)
        return original(tab, r)

    monkeypatch.setattr(certify, "gamma_at", counting)
    cert = compute_certificate(registry.get("ssp322").tableau)
    assert len(calls) == 1
    assert cert.gamma == cert.xineq_lhs


def _full_probe_bisection(probe):
    """The bisection as it was before verdicts were read lazily: every probe
    is explained in full, and any inconclusive probe of the walk, or a
    feasible post-verification probe, makes the sup conservative."""
    conservative = False

    def run(r):
        nonlocal conservative
        check = probe(r)
        conservative = conservative or check.inconclusive
        return check

    lo, hi = 0.0, 1e-10
    while (first_bad := run(hi)).feasible:
        if hi >= certify.R_CAP:
            return certify.SupResult(certify.R_CAP, None, True, conservative)
        lo, hi = hi, min(max(1.0, 2.0 * hi), certify.R_CAP)
    while hi - lo > certify.BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if run(mid).feasible:
            lo = mid
        else:
            hi = mid
    if probe(lo * (1.0 + 1e-8) + 1e-8).feasible:
        conservative = True
    return certify.SupResult(lo, first_bad, False, conservative)


def _methods_with_weights():
    for key in ALL_KEYS:
        entry = registry.get(key)
        yield pytest.param(entry.tableau, entry.dense_weights, id=key)
    for s in range(2, 41):
        tab = family_tableau(s)
        yield pytest.param(tab, second_order_weights(tab), id=f"family-s{s}")


@pytest.mark.parametrize("tab,weights", _methods_with_weights())
def test_certificate_equals_the_full_probe_bisection(monkeypatch, tab, weights):
    # repr() spells each float exactly, so equal reprs mean bitwise-equal
    # coefficients, gamma, xineq sides and witnesses
    for dense in (None, weights):
        lazy = compute_certificate(tab, dense)
        with monkeypatch.context() as patch:
            patch.setattr(certify, "_sup_by_bisection", _full_probe_bisection)
            full = compute_certificate(tab, dense)
        assert repr(lazy) == repr(full)
        assert lazy.witnesses


@pytest.mark.parametrize("dense", [False, True])
def test_certificate_builds_only_the_witnesses_it_reports(monkeypatch, dense):
    built = []
    original = certify.Violation

    def counting(*fields):
        built.append(original(*fields))
        return built[-1]

    monkeypatch.setattr(certify, "Violation", counting)
    tab = family_tableau(40)
    cert = compute_certificate(tab, second_order_weights(tab) if dense else None)
    assert cert.witnesses and len(built) == len(cert.witnesses)


@pytest.mark.parametrize(
    "failures,conservative",
    [((None,), True), ((None, _WITNESS), False), ((_WITNESS, None), False)],
)
def test_conservative_means_infeasible_without_a_witness(failures, conservative):
    # above r = 1 every radius has these failures; a witness refutes the
    # radius even where an entry is also inconclusive
    result = _sup_by_bisection(lambda r: FeasibilityCheck(() if r <= 1.0 else failures))
    assert result.value == pytest.approx(1.0, abs=1e-9)
    assert result.conservative is conservative
    assert result.first_infeasible.inconclusive
    assert len(result.first_infeasible.violations) == len(failures) - 1


# ------------------------------------------------------------- guided walk


@pytest.mark.parametrize("s", range(5, 13))
def test_first_root_estimate_is_the_sup(s):
    # Newton from the bracket's infeasible end (8 or 16 for the method, 4 for
    # the dense formula) lands on the certified sup: the walk's first jump
    # probes the two leaves around it
    tab = family_tableau(s)
    for result in (
        ssp_coefficient_detailed(tab),
        dense_ssp_coefficient_detailed(tab, second_order_weights(tab)),
    ):
        assert abs(result.first_infeasible.root_estimate - result.value) <= 1e-9


def _estimated_radii(sup, estimate):
    # feasible on (0, sup]; every infeasible check's root estimate is
    # estimate(r), with r its radius, or there is none
    radii = []

    def probe(r):
        radii.append(r)
        root = None if estimate is None else lambda witness: estimate(r)
        return FeasibilityCheck(() if 0.0 < r <= sup else (_WITNESS,), root)

    return radii, _sup_by_bisection(probe)


@pytest.mark.parametrize(
    "estimate",
    [
        lambda r: 1.9,
        lambda r: 1.2,
        lambda r: math.nan,
        lambda r: 5.0,
        lambda r: -1.0,
        lambda r: 0.5 * (1.7 + r),
        lambda r: 1.7,
    ],
    ids=["too-high", "too-low", "nan", "above-bracket", "negative", "creeping", "exact"],
)
def test_wrong_root_estimates_change_nothing(estimate):
    # the bracket is (1, 2); a creeping estimate, halfway from each infeasible
    # radius to the sup, keeps jumping until the cap
    plain_radii, plain = _estimated_radii(1.7, None)
    radii, result = _estimated_radii(1.7, estimate)
    assert repr(result) == repr(plain)
    assert len(radii) == len(set(radii))
    assert len(radii) <= len(plain_radii) + 2 * certify.GUIDED_JUMPS


def test_exact_root_estimate_ends_the_walk_at_its_leaves():
    radii, result = _estimated_radii(1.7, lambda r: 1.7)
    # the bracket's probes, the two leaves around 1.7, the post-verification
    assert radii[:3] == [1e-10, 1.0, 2.0] and len(radii) == 6
    assert radii[3] == result.value < 1.7 < radii[4] and radii[4] - radii[3] <= 1e-10
    # just above a sup of 1, the lower leaf is the bracket's end, already
    # probed (the slack makes estimates land there: family-s2 gives 1 + 1e-12)
    radii, result = _estimated_radii(1.0, lambda r: 1.0 + 1e-12)
    assert radii[:3] == [1e-10, 1.0, 2.0] and len(radii) == 5
    assert result.value == 1.0 < radii[3] <= 1.0 + 1e-10


def test_root_estimate_needs_a_witness():
    assert FeasibilityCheck((), lambda witness: 1.0).root_estimate is None
    assert FeasibilityCheck((None,), lambda witness: 1.0).root_estimate is None
    assert FeasibilityCheck((None, _WITNESS), lambda witness: 1.0).root_estimate == 1.0
    assert FeasibilityCheck((_WITNESS,)).root_estimate is None


_OVERFLOWING = ((0.0, 0.0, 0.0), (1e160, 0.0, 0.0), (0.0, 1e160, 0.0))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("A", [_OVERFLOWING, ((-1.0,),)], ids=["overflow", "singular"])
def test_walk_on_overflowing_and_singular_tableaux(monkeypatch, A):
    # no estimate exists: overflowed entries, a negative Newton iterate, or a
    # singular I + rA; the certificates are plain bisection's, with or
    # without a finer tol that bisects (0, 1e-10)
    tab = ButcherTableau(A=np.array(A), b=np.full(len(A), 1.0 / len(A)))
    for r in (1e-10, 0.5, 1.0, 2.0):
        assert monotonicity_feasible_method(tab, r).root_estimate is None
    for tol in (1e-10, 1e-13):
        monkeypatch.setattr(certify, "BISECT_TOL", tol)
        guided = compute_certificate(tab, first_order_weights(tab))
        with monkeypatch.context() as patch:
            patch.setattr(certify, "GUIDED_JUMPS", 0)
            plain = compute_certificate(tab, first_order_weights(tab))
        assert repr(guided) == repr(plain)
        assert (guided.r_method, guided.r_dense, guided.conservative) == (0.0, 0.0, False)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_walk_survives_critical_points_that_overflow(monkeypatch):
    # the budget's theta-derivative has a leading coefficient near 1e-320,
    # so its companion matrix overflows and numpy cannot find its roots
    tab = ButcherTableau(A=np.zeros((1, 1)), b=np.ones(1))
    weights = DenseWeights(np.array([[0.0, 1.0, 0.0, 1e-320]]))
    assert monotonicity_feasible_dense(tab, weights, 2.0).root_estimate is None
    guided = compute_certificate(tab, weights)
    monkeypatch.setattr(certify, "GUIDED_JUMPS", 0)
    assert repr(compute_certificate(tab, weights)) == repr(guided)
    assert guided.r_dense == 1.0


def test_implication_dense_not_above_method():
    for key in ALL_KEYS:
        entry = registry.get(key)
        flags = endpoint_check(entry.tableau, entry.dense_weights)
        assert flags.right_matches_b
        r_dense = dense_ssp_coefficient(entry.tableau, entry.dense_weights)
        r_method = ssp_coefficient(entry.tableau)
        assert r_dense <= r_method + 1e-9


# -------------------------------------------------------- bernstein certifier

def test_bernstein_conversion_hand_case():
    # theta - (2/3) theta^2 has degree-2 Bernstein coefficients [0, 1/2, 1/3]
    bern = monomial_to_bernstein(np.array([0.0, 1.0, -2.0 / 3.0]))
    assert np.allclose(bern, [0.0, 0.5, 1.0 / 3.0], atol=1e-15)


def test_bernstein_matrix_is_cached_and_read_only():
    matrix = bernstein_matrix(4)
    assert bernstein_matrix(4) is matrix
    assert not matrix.flags.writeable
    # every Bernstein coefficient of the constant 1 is 1
    assert np.allclose(matrix @ np.eye(5)[0], 1.0, atol=0.0)


def test_certifies_nonneg():
    report = poly_nonneg_on_unit([0.0, 1.0, -2.0 / 3.0])
    assert report.certified is CertStatus.NONNEG


def test_negative_witness():
    report = poly_nonneg_on_unit([0.0, -2.0, 1.0])
    assert report.certified is CertStatus.NEGATIVE
    assert report.witness_value < 0
    # the dip reaches -3/4 at theta = 1/2
    value = np.polynomial.polynomial.polyval(report.witness_theta, [0.0, -2.0, 1.0])
    assert value < 0


def test_zero_polynomial_certified():
    assert poly_nonneg_on_unit([0.0, 0.0, 0.0]).certified is CertStatus.NONNEG


def test_dyadic_double_root_certified():
    # (theta - 1/2)^2 splits exactly at its root after one subdivision
    assert poly_nonneg_on_unit([0.25, -1.0, 1.0]).certified is CertStatus.NONNEG


def test_nondyadic_double_root_inconclusive():
    # (theta - 1/3)^2 is nonnegative but every cell straddling 1/3 keeps a
    # negative middle coefficient, so the certifier stays conservative
    report = poly_nonneg_on_unit([1.0 / 9.0, -2.0 / 3.0, 1.0])
    assert report.certified is CertStatus.INCONCLUSIVE
    assert report.depth == 40


def test_degree_limit():
    with pytest.raises(DegreeTooHighError):
        poly_nonneg_on_unit(np.ones(66))


@pytest.mark.parametrize("seed", range(8))
def test_certifier_against_dense_sampling(seed):
    rng = np.random.default_rng(seed)
    coeffs = rng.normal(size=rng.integers(2, 7))
    coeffs[0] = abs(coeffs[0])  # keep the origin out of the gray zone
    report = poly_nonneg_on_unit(coeffs)
    sampled_min = np.min(
        np.polynomial.polynomial.polyval(np.linspace(0, 1, 10_000), coeffs)
    )
    if report.certified is CertStatus.NONNEG:
        assert sampled_min >= -1e-12
    elif report.certified is CertStatus.NEGATIVE:
        assert report.witness_value < 0


def _de_casteljau_halves(bern):
    # reference: the left and right halves by repeated averaging at 1/2
    work = np.array(bern, dtype=float)
    left, right = [work[0]], [work[-1]]
    while len(work) > 1:
        work = 0.5 * (work[:-1] + work[1:])
        left.append(work[0])
        right.append(work[-1])
    return np.array(left), np.array(right[::-1])


def test_half_cell_matrices_match_de_casteljau():
    rng = np.random.default_rng(0)
    for n in range(1, 65):
        left, right = half_cell_matrices(n)
        assert left.shape == right.shape == (n + 1, n + 1)
        for _ in range(3):
            bern = rng.normal(size=n + 1)
            ref_left, ref_right = _de_casteljau_halves(bern)
            scale = np.max(np.abs(bern))
            assert np.max(np.abs(left @ bern - ref_left)) <= 1e-14 * scale
            assert np.max(np.abs(right @ bern - ref_right)) <= 1e-14 * scale


def test_half_cell_matrices_are_cached_and_read_only():
    matrices = half_cell_matrices(7)
    assert half_cell_matrices(7) is matrices
    assert not matrices.flags.writeable


def test_certifier_never_evaluates_the_polynomial(monkeypatch):
    # witnesses come from Bernstein coefficients, never from re-evaluation
    def refuse(*args, **kwargs):
        raise AssertionError("polynomial evaluated")

    monkeypatch.setattr(poly, "evaluate", refuse)
    monkeypatch.setattr(np.polynomial.polynomial, "polyval", refuse)
    assert poly_nonneg_on_unit([0.0, -2.0, 1.0]).certified is CertStatus.NEGATIVE
    inconclusive = poly_nonneg_on_unit([1.0 / 9.0, -2.0 / 3.0, 1.0])
    assert inconclusive.certified is CertStatus.INCONCLUSIVE
    assert poly_nonneg_on_unit([0.25, -1.0, 1.0]).certified is CertStatus.NONNEG
    entry = registry.get("numexample-322")
    check = monotonicity_feasible_dense(entry.tableau, registry.nonssp_weights_322(), 0.5)
    assert not check.feasible
    assert any(v.condition == "dense_nonneg" for v in check.violations)


def test_node_bound_ends_subdivision(monkeypatch):
    # (theta - 1/10)^2 in float coefficients dips to -9.02e-19, and its first
    # witness lies 28 halvings deep; with the depth bound lifted, only
    # MAX_NODES can end its subdivision before that
    monkeypatch.setattr(certify, "MAX_NODES", 20)
    monkeypatch.setattr(certify, "MAX_DEPTH", 10**6)
    report = poly_nonneg_on_unit([0.01, -0.2, 1.0])
    assert report.certified is CertStatus.INCONCLUSIVE
    assert report.depth < certify.MAX_DEPTH
    assert report.depth <= certify.MAX_NODES


def test_negative_witness_is_the_shared_midpoint_coefficient():
    # Bernstein coefficients [0, -1, -1]: p(0) = 0 is no witness, and the
    # halves share p(1/2) = -3/4
    report = poly_nonneg_on_unit([0.0, -2.0, 1.0])
    assert report.certified is CertStatus.NEGATIVE
    assert report.witness_theta == 0.5
    assert report.witness_value == -0.75


def test_witness_has_no_floor():
    # the float coefficients of (theta - 1/10)^2 dip to -9.02e-19 at
    # theta = 0.1; any negative value read from a cell is a witness
    report = poly_nonneg_on_unit([0.01, -0.2, 1.0])
    assert report.certified is CertStatus.NEGATIVE
    assert report.witness_value < 0.0
    assert report.witness_theta == pytest.approx(0.1, abs=1e-8)


def test_row_touching_zero_inside_the_interval_is_decided(monkeypatch):
    # the bisection's last probes meet condition rows whose interior
    # minimum lies just below zero, such as 1e-12 - 8.90e-5 theta^2 +
    # 0.323 theta^3 here; they are refuted at once rather than subdivided
    # to the node bound
    monkeypatch.setattr(certify, "MAX_NODES", 2_000)
    A = np.zeros((5, 5))
    A[2, :2] = [0.623, 0.098]
    A[3, :3] = [0.889, 0.807, 0.178]
    A[4, :3] = [0.869, 0.878, 0.622]
    W = np.array(
        [
            [0.0, 1.0, -0.57, -0.213],
            [0.0, 0.0, 0.02, 0.328],
            [0.0, 0.0, 0.166, 0.11],
            [0.0, 0.0, 0.139, -0.066],
            [0.0, 0.0, 0.003, 0.085],
        ]
    )
    tab = ButcherTableau(A=A, b=np.full(5, 0.2))
    result = dense_ssp_coefficient_detailed(tab, DenseWeights(W))
    assert result.value == 0.15373354367061254
    assert not result.conservative


def _reference_cell_loop(coeffs):
    # the cell loop as it read before its per-cell work was cut to one
    # reduction: the same verdicts, witnesses and depths, bit for bit
    with np.errstate(invalid="ignore", over="ignore"):
        bern = monomial_to_bernstein(poly.as_poly(coeffs))
    halves = half_cell_matrices(len(bern) - 1)
    stack = [(bern, 0.0, 1.0, 0)]
    deepest = 0
    nodes = 0
    inconclusive = False
    while stack:
        bern, a, b, depth = stack.pop()
        nodes += 1
        deepest = max(deepest, depth)
        if np.all(bern >= 0.0):
            continue
        if not np.isfinite(bern).all():
            if np.isfinite(bern[0]) and bern[0] < 0.0:
                return certify.PolyNonnegReport(CertStatus.NEGATIVE, a, float(bern[0]), deepest)
            inconclusive = True
            continue
        left, right = halves @ bern
        mid = 0.5 * (a + b)
        for theta, value in ((a, bern[0]), (mid, left[-1]), (b, bern[-1])):
            if value < 0.0:
                return certify.PolyNonnegReport(
                    CertStatus.NEGATIVE, theta, float(value), deepest
                )
        if depth >= certify.MAX_DEPTH or nodes > certify.MAX_NODES:
            inconclusive = True
            continue
        stack.append((left, a, mid, depth + 1))
        stack.append((right, mid, b, depth + 1))
    status = CertStatus.INCONCLUSIVE if inconclusive else CertStatus.NONNEG
    return certify.PolyNonnegReport(status, None, None, deepest)


def _cell_loop_rows(seed=23):
    rng = np.random.default_rng(seed)
    rows = []
    for degree in range(9):  # random rows, some scaled far from 1
        for _ in range(40):
            rows.append(rng.normal(size=degree + 1) * 10.0 ** rng.integers(-6, 7))
    P = np.polynomial.polynomial
    for _ in range(40):  # (theta - a)^2 +- eps, alone and times a cubic factor
        a = rng.uniform(0.0, 1.0)
        tangent = P.polyfromroots([a, a])
        for eps in (0.0, 1e-17, 1e-15, 1e-12, 1e-9):
            for sign in (1.0, -1.0):
                row = tangent.copy()
                row[0] += sign * eps
                rows.append(row)
                rows.append(P.polymul(row, P.polyfromroots(rng.uniform(1.0, 2.0, 3))))
    for degree in range(1, 9):  # conversions that overflow to +-inf
        rows.append(np.r_[-1.0, np.full(degree, 1.5e308)])
        rows.append(rng.uniform(-1.0, 1.0, degree + 1) * 1.7e308)
    for row in rows[:: 7]:  # a NaN or an infinity in some coefficient
        for bad in (math.nan, math.inf, -math.inf):
            row = row.copy()
            row[rng.integers(len(row))] = bad
            rows.append(row)
    return rows


def _same_report(row):
    got, want = poly_nonneg_on_unit(row), _reference_cell_loop(row)
    assert (got.certified, got.witness_theta, repr(got.witness_value), got.depth) == (
        want.certified,
        want.witness_theta,
        repr(want.witness_value),
        want.depth,
    ), row
    return got.certified


@pytest.mark.parametrize(
    "max_nodes,max_depth",
    [(None, None), (20, 10**6), (200_000, 3), (7, 40), (60, 9)],
    ids=["defaults", "nodes-20", "depth-3", "nodes-7", "nodes-60-depth-9"],
)
def test_cell_loop_matches_the_reference(monkeypatch, max_nodes, max_depth):
    if max_nodes is not None:
        monkeypatch.setattr(certify, "MAX_NODES", max_nodes)
        monkeypatch.setattr(certify, "MAX_DEPTH", max_depth)
    verdicts = {_same_report(row) for row in _cell_loop_rows()}
    # the rows reach every verdict
    assert verdicts == set(CertStatus)


@pytest.mark.parametrize(
    "c0", [0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, -1e308, math.inf, -math.inf, math.nan]
)
def test_constant_row_matches_the_reference(c0):
    # a constant row is decided by its sign, as its one cell is at depth 0
    _same_report([c0])


def test_nonfinite_row_is_inconclusive_without_a_warning():
    # an infinite coefficient of degree >= 1 makes inf*0 = NaN in the
    # conversion; a constant +inf is nonnegative everywhere
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for row in ([1.0, math.inf], [0.0, -math.inf, 1.0], [math.nan, 1.0], [-math.inf]):
            assert poly_nonneg_on_unit(row).certified is CertStatus.INCONCLUSIVE
        assert poly_nonneg_on_unit([math.inf]).certified is CertStatus.NONNEG


def test_overflowing_conversion_keeps_a_finite_witness_at_zero():
    # the conversion overflows p(1) to -inf, yet p(0) = c0 = -1e308 is a
    # finite negative value; NaN and -inf at theta = 0 stay inconclusive
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = poly_nonneg_on_unit([-1e308, -1e308])
        assert (report.certified, report.witness_theta, report.witness_value) == (
            CertStatus.NEGATIVE, 0.0, -1e308,
        )
        for row in ([-math.inf, -1e308], [math.nan, -1e308], [1.0, -1e308, -1e308]):
            assert poly_nonneg_on_unit(row).certified is CertStatus.INCONCLUSIVE


def _numpy_min_on_unit(c):
    # the minimum read through numpy.polynomial: polyder, polyroots, polyval
    P = np.polynomial.polynomial
    candidates = [0.0, 1.0]
    d = P.polyder(c)
    if len(d) > 1:
        for root in P.polyroots(d):
            if abs(root.imag) < 1e-12 and 0.0 < root.real < 1.0:
                candidates.append(float(root.real))
    values = [float(P.polyval(x, c)) for x in candidates]
    k = int(np.argmin(values))
    return values[k], candidates[k]


def _newton_rows(seed=5):
    rng = np.random.default_rng(seed)
    rows = [rng.normal(size=degree + 1) for degree in range(1, 6) for _ in range(60)]
    rows += [
        np.array([0.5, -1.0, 0.0]),  # zero leading derivative: linear
        np.array([0.5, 0.3, -1.2, 0.0]),  # cubic slot zero: linear derivative
        np.array([0.5, 0.3, -1.2, -0.0, 0.0]),  # signed zeros trimmed too
        np.array([1.0, 0.0, 0.0]),  # constant derivative zero
        np.array([0.2, 0.0, 1.0]),  # derivative root at 0
        np.array([0.2, 0.0, 0.0, -1.0]),  # double root at 0
        np.array([0.3, -2.0, 1.0]),  # derivative root at 1
        np.array([-1.0, 3.0, -3.0, 1.0]),  # (theta - 1)^3: double root at 1
        np.array([0.0, 0.25, -1.5, 3.0, -2.0, 0.25]),
    ]
    return rows


def test_min_on_unit_matches_numpy_polynomial():
    for c in _newton_rows():
        assert repr(poly.min_on_unit(c)) == repr(_numpy_min_on_unit(c)), c


def test_horner_evaluation_matches_polyval():
    rng = np.random.default_rng(6)
    xs = [0.0, 1.0, 0.5, *rng.uniform(0.0, 1.0, 20).tolist()]
    rows = _newton_rows() + [np.array([-0.0]), np.array([2.5]), np.array([1.0, -0.0])]
    for c in rows:
        for x in xs + [_numpy_min_on_unit(c)[1]]:
            want = np.polynomial.polynomial.polyval(x, c)
            assert repr(poly.evaluate(c, x)) == repr(float(want)), (c, x)


# ------------------------------------------------------------------ xineq

def test_xineq_family4_equality():
    report = check_xineq(family_tableau(4))
    assert report.holds
    assert report.lhs == pytest.approx(0.25, abs=1e-9)
    assert report.rhs == pytest.approx(0.25, abs=1e-9)


def test_xineq_family5_fails():
    report = check_xineq(family_tableau(5))
    assert not report.holds
    assert report.lhs == pytest.approx(0.2, abs=1e-9)
    assert report.rhs == pytest.approx(0.0, abs=1e-9)


def test_xineq_ssp222():
    report = check_xineq(registry.get("ssp222").tableau)
    assert report.holds
    assert report.lhs == pytest.approx(0.5, abs=1e-9)
    assert report.rhs == pytest.approx(0.75, abs=1e-9)


def test_xineq_rejects_an_unbounded_method():
    # implicit Euler is feasible at every radius, so bisection stops at the
    # cap R_CAP; gamma <= 1 - C/4 there would read 1e-6 <= -249999 and judge
    # the cap, not the method
    tab = ButcherTableau(A=np.array([[1.0]]), b=np.array([1.0]))
    with pytest.raises(InvalidArgumentError, match="bounded SSP coefficient"):
        check_xineq(tab)


# ------------------------------------------------------------- certificate

def test_certificate_fields():
    entry = registry.get("ssp322")
    cert = compute_certificate(entry.tableau, entry.dense_weights)
    assert cert.r_method == pytest.approx(2.0, abs=1e-8)
    assert cert.r_dense == pytest.approx(2.0, abs=1e-8)
    assert cert.r_combined == min(cert.r_method, cert.r_dense)
    assert cert.xineq_holds
    assert cert.witnesses  # the first infeasible probe carries details
    assert 0.0 <= cert.r_method * cert.gamma <= 1.0 + 1e-9
    record = cert.as_record()
    assert record["r_combined"] == cert.r_combined


def test_certificate_without_weights():
    cert = compute_certificate(registry.get("ssp222").tableau)
    assert cert.r_dense is None and cert.r_combined is None


def test_gamma_bound_all_registry():
    for key in ALL_KEYS:
        tab = registry.get(key).tableau
        r = ssp_coefficient(tab)
        assert 0.0 <= r * gamma_at(tab, r) <= 1.0 + 1e-9


# --------------------------------------------------------------- resolvent

def test_family_resolvent_is_bidiagonal():
    for s in range(2, 8):
        M = resolvent(family_tableau(s), float(s - 1))
        expected = np.eye(s) - np.diag(np.ones(s - 1), -1)
        assert np.max(np.abs(M - expected)) < 1e-13


@pytest.mark.parametrize(
    "A",
    [
        [[0.25, 0.0], [0.5, 0.25]],
        [[0.0, 0.5], [0.25, 0.0]],
        [[0.2, 0.1, 0.0], [0.3, 0.2, 0.4], [0.1, 0.5, 0.3]],
    ],
    ids=["diagonally-implicit", "2x2-full", "3x3-full"],
)
@pytest.mark.parametrize("r", [0.5, 1.0, 3.0])
def test_implicit_resolvent_is_the_inverse(A, r):
    A = np.array(A)
    tab = ButcherTableau(A=A, b=np.full(len(A), 1.0 / len(A)))
    assert not tab.explicit
    expected = np.linalg.inv(np.eye(len(A)) + r * A)
    assert np.max(np.abs(resolvent(tab, r) - expected)) <= 1e-14


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "A, r",
    [([[0.0, 1.0], [1.0, 0.0]], 1.0), ([[1e308, 0.0], [0.0, 1e308]], 10.0)],
    ids=["zero-pivot", "overflow"],
)
def test_exactly_singular_resolvent_raises(A, r):
    # I + A = [[1, 1], [1, 1]] has a zero pivot after one elimination step;
    # I + 10*A overflows to infinity on its diagonal
    tab = ButcherTableau(A=np.array(A), b=np.array([0.5, 0.5]))
    with pytest.raises(SingularMatrixError) as info:
        resolvent(tab, r)
    assert str(info.value) == f"I + {r}*A is singular"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_gamma_raises():
    # b'e = 1e308 + 1e308 overflows at r = 0: a typed error, not an inf
    # gamma in the certificate and a numpy warning
    tab = ButcherTableau(A=np.array([[0.0, 0.0], [1.0, 0.0]]), b=np.array([1e308, 1e308]))
    with pytest.raises(InvalidArgumentError, match=r"gamma at r=0\.0 is not finite"):
        gamma_at(tab, 0.0)
    with pytest.raises(InvalidArgumentError, match="not finite"):
        compute_certificate(tab)


def test_near_singular_resolvent_raises_on_pivot():
    # I + A = [[1, 1], [1, 1 + 1e-14]]: the second pivot is about 1e-14
    A = np.array([[0.0, 1.0], [1.0, 1e-14]])
    tab = ButcherTableau(A=A, b=np.array([0.5, 0.5]))
    with pytest.raises(SingularMatrixError) as info:
        resolvent(tab, 1.0)
    assert str(info.value) == "pivot below 1e-12 while factorizing I + 1.0*A"


_LAPACK_ORDER_PROBE = """
import json, resource, sys
import numpy as np
from sspdo import certify
from sspdo.construct import family_tableau
from sspdo.tableau import ButcherTableau

if sys.argv[1] == "linalg-first":
    import scipy.linalg
explicit = family_tableau(40)
implicit = ButcherTableau(
    A=np.array([[0.2, 0.1, 0.0], [0.3, 0.2, 0.4], [0.1, 0.5, 0.3]]), b=np.full(3, 1 / 3)
)
rss0 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
M = certify.resolvent(explicit, 39.0)
N = certify.resolvent(implicit, 3.0)
growth_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - rss0
linalg_loaded = "scipy.linalg" in sys.modules

import scipy.linalg
from scipy.linalg import lapack

ext = certify.scipy_extension("scipy.linalg._flapack")
lu, piv, _ = lapack.dgetrf(np.eye(3) + 3.0 * implicit.A)
print(json.dumps({
    "growth_kb": growth_kb,
    "linalg_loaded": linalg_loaded,
    "registered": sys.modules["scipy.linalg._flapack"] is ext,
    "same": [getattr(ext, f) is getattr(lapack, f) for f in ("dtrtri", "dgetrf", "dgetri")],
    "explicit_bits": M.tobytes() == lapack.dtrtri(
        np.eye(40) + 39.0 * explicit.A, lower=1, unitdiag=1)[0].tobytes(),
    "implicit_bits": N.tobytes() == lapack.dgetri(lu, piv)[0].tobytes(),
    "qr": scipy.linalg.qr(np.eye(3))[0].shape == (3, 3),
}))
"""


@pytest.mark.parametrize("order", ["resolvent-first", "linalg-first"])
def test_one_lapack_module_in_either_import_order(order):
    # The resolvent loads LAPACK's extension alone (~4 MB; the scipy.linalg
    # package adds ~27 MB).  Whichever of the two a process loads first, both
    # must end up with the same routines, and the resolvent with their bits.
    pytest.importorskip("resource")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(certify.__file__)))
    out = subprocess.run(
        [sys.executable, "-c", _LAPACK_ORDER_PROBE, order], env=env,
        capture_output=True, text=True, check=True, timeout=120,
    )
    result = json.loads(out.stdout)
    assert result["registered"]
    assert result["same"] == [True, True, True]
    assert result["explicit_bits"] and result["implicit_bits"] and result["qr"]
    assert result["linalg_loaded"] == (order == "linalg-first")
    if order == "resolvent-first" and sys.platform.startswith("linux"):
        # ru_maxrss is in KiB on Linux; measured +3.7 MB
        assert result["growth_kb"] <= 12 * 1024, result


# s = 5..40 gives the main thread about 0.1 s of work: enough that the few ms
# which OpenBLAS's idle workers spend in any process stay far below the bound.
# OpenBLAS's worker spins for ~0.12 s after the library loads, at the warm-up's
# first resolvent, and then sleeps; the pause keeps that spin out of the window.
_THREAD_CPU_PROBE = """
import resource
import time
from sspdo.certify import compute_certificate
from sspdo.construct import family_tableau, second_order_weights

def cpu(who):
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime

tabs = [(family_tableau(s), second_order_weights(family_tableau(s))) for s in range(5, 41)]
compute_certificate(*tabs[0])  # warm-up: lazy imports and caches
time.sleep(0.5)
self0, main0 = cpu(resource.RUSAGE_SELF), cpu(resource.RUSAGE_THREAD)
for tab, weights in tabs:
    compute_certificate(tab, weights)
main = cpu(resource.RUSAGE_THREAD) - main0
print(main, cpu(resource.RUSAGE_SELF) - self0 - main)
"""


def test_certificate_runs_on_one_thread():
    # OpenBLAS hands a solve with s right-hand sides to its threaded trsm,
    # whose worker then spins between probes; the resolvent must not.  A
    # single-threaded process meets this bound however slow the host is.
    resource = pytest.importorskip("resource")
    if not hasattr(resource, "RUSAGE_THREAD") or len(os.sched_getaffinity(0)) < 2:
        pytest.skip("needs per-thread CPU accounting and at least 2 CPUs")
    env = {
        key: value for key, value in os.environ.items()
        if key not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
    }
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(certify.__file__))
    out = subprocess.run(
        [sys.executable, "-c", _THREAD_CPU_PROBE], env=env, capture_output=True,
        text=True, check=True, timeout=120,
    )
    main, others = map(float, out.stdout.split())
    assert others <= 0.25 * main, (main, others)
