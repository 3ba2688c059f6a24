import numpy as np
import pytest

from sspdo import certify, registry
from sspdo.certify import CertStatus, dense_ssp_coefficient, poly_nonneg_on_unit
from sspdo.errors import NonpositiveCError, SingularMatrixError
from sspdo.problems import linear, sinode
from sspdo.shu_osher import from_shu_osher, shu_osher_step_equivalence, to_shu_osher
from sspdo.tableau import ButcherTableau, DenseWeights

ALL_KEYS = ["ssp222", "ssp322", "ssp332", "numexample-322"]


def test_ssp322_published_form():
    entry = registry.get("ssp322")
    form = to_shu_osher(entry.tableau, entry.dense_weights, 2.0)
    assert np.allclose(form.beta_bar[0], [0.0, 2.0, -2.0], atol=1e-13)
    assert np.allclose(form.beta_bar[1], [0.0, 0.0, 0.0], atol=1e-13)
    assert np.allclose(form.beta_bar[2], [0.0, 0.0, 2.0 / 3.0], atol=1e-13)
    assert np.allclose(form.mu, [1.0, -2.0, 4.0 / 3.0], atol=1e-13)


def test_ssp222_published_form():
    entry = registry.get("ssp222")
    form = to_shu_osher(entry.tableau, entry.dense_weights, 1.0)
    assert np.allclose(form.beta_bar, [[0.0, 1.0, -1.0], [0.0, 0.0, 0.5]], atol=1e-13)
    assert np.allclose(form.mu, [1.0, -1.0, 0.5], atol=1e-13)


def test_ssp332_published_form():
    entry = registry.get("ssp332")
    form = to_shu_osher(entry.tableau, entry.dense_weights, 1.0)
    assert np.allclose(form.beta_bar[0], [0.0, 1.0, -1.0], atol=1e-13)
    assert np.allclose(form.beta_bar[1], [0.0, 0.0, 0.0], atol=1e-13)
    assert np.allclose(form.beta_bar[2], [0.0, 0.0, 2.0 / 3.0], atol=1e-13)
    assert np.allclose(form.mu, [1.0, -1.0, 1.0 / 3.0], atol=1e-13)


def test_zero_weights_give_identity_blend():
    entry = registry.get("ssp222")
    form = to_shu_osher(entry.tableau, DenseWeights(np.zeros((2, 3))), 1.0)
    assert np.all(form.beta_bar == 0.0)
    assert form.mu[0] == 1.0 and np.all(form.mu[1:] == 0.0)


def test_nonpositive_c_rejected():
    entry = registry.get("ssp222")
    with pytest.raises(NonpositiveCError):
        to_shu_osher(entry.tableau, entry.dense_weights, 0.0)


def test_singular_conversion_rejected():
    tab = ButcherTableau(A=np.array([[-1.0]]), b=np.array([1.0]))
    with pytest.raises(SingularMatrixError):
        to_shu_osher(tab, DenseWeights([[0.0, 1.0]]), 1.0)


@pytest.mark.parametrize("key", ALL_KEYS)
def test_affine_identity(key):
    entry = registry.get(key)
    form = to_shu_osher(entry.tableau, entry.dense_weights, entry.c_combined)
    assert form.affine_defect() <= 1e-13


@pytest.mark.parametrize("key", ALL_KEYS)
def test_round_trip(key):
    entry = registry.get(key)
    form = to_shu_osher(entry.tableau, entry.dense_weights, entry.c_combined)
    back = from_shu_osher(entry.tableau, form)
    assert np.max(np.abs(back.coeffs - entry.dense_weights.coeffs)) <= 1e-13


@pytest.mark.parametrize("key", ALL_KEYS)
def test_convexity_readout(key):
    # with the conversion done at C <= the dense coefficient, every beta and
    # mu must be certifiably nonnegative on [0,1]
    entry = registry.get(key)
    C = entry.c_combined
    assert dense_ssp_coefficient(entry.tableau, entry.dense_weights) >= C - 1e-8
    form = to_shu_osher(entry.tableau, entry.dense_weights, C)
    for row in form.beta_bar:
        assert poly_nonneg_on_unit(row).certified is CertStatus.NONNEG
    assert poly_nonneg_on_unit(form.mu).certified is CertStatus.NONNEG


def test_step_equivalence_zero_rhs():
    entry = registry.get("ssp322")
    problem = sinode()
    zero = lambda t, u: np.zeros_like(u)
    from sspdo.integrate import Problem

    dev = shu_osher_step_equivalence(
        entry.tableau,
        entry.dense_weights,
        2.0,
        Problem(rhs=zero, dimension=1),
        0.4,
        1.0,
        np.linspace(0, 1, 5),
    )
    # both forms reduce to u_n; the only slack is the rounding in mu + sum(beta)
    assert dev <= 1e-15


def test_step_equivalence_sinode():
    entry = registry.get("ssp322")
    dev = shu_osher_step_equivalence(
        entry.tableau,
        entry.dense_weights,
        2.0,
        sinode(),
        0.3,
        0.5,
        np.linspace(0, 1, 11),
    )
    assert dev <= 1e-13


def test_step_equivalence_linear():
    entry = registry.get("ssp222")
    dev = shu_osher_step_equivalence(
        entry.tableau,
        entry.dense_weights,
        1.0,
        linear(-1.0),
        1.0,
        0.3,
        np.linspace(0, 1, 11),
    )
    assert dev <= 1e-13


@pytest.mark.parametrize("key", ALL_KEYS)
def test_form_reads_the_dense_probe_condition_rows(key):
    # beta_bar is C times the transformed-weight rows of the dense probe at
    # r = C, and mu its step-budget row
    entry = registry.get(key)
    C = entry.c_combined
    rows = certify._condition_rows(
        certify.resolvent(entry.tableau, C), entry.dense_weights.coeffs, C
    )
    form = to_shu_osher(entry.tableau, entry.dense_weights, C)
    assert np.array_equal(form.beta_bar, C * rows[:-1])
    assert np.allclose(form.mu, rows[-1], rtol=0.0, atol=1e-14)
