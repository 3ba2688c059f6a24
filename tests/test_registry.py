import numpy as np
import pytest

from sspdo import registry
from sspdo.certify import dense_ssp_coefficient, ssp_coefficient
from sspdo.construct import family_tableau
from sspdo.errors import SspdoError
from sspdo.tableau import (
    dense_order_residuals,
    method_order_residuals,
    validate_tableau,
)


@pytest.mark.parametrize("key", registry.keys())
def test_entries_validate_and_match_documentation(key):
    entry = registry.get(key)
    revalidated = validate_tableau(entry.tableau.A, entry.tableau.b)
    assert np.array_equal(revalidated.c, entry.tableau.c)
    assert method_order_residuals(entry.tableau).order == entry.order
    assert ssp_coefficient(entry.tableau) == pytest.approx(entry.c_method, abs=1e-8)
    if entry.dense_weights is not None:
        report = dense_order_residuals(entry.tableau, entry.dense_weights)
        assert report.order == entry.dense_order
        r_dense = dense_ssp_coefficient(entry.tableau, entry.dense_weights)
        assert min(entry.c_method, r_dense) == pytest.approx(
            entry.c_combined, abs=1e-8
        )


def test_numexample_coincides_with_family3():
    entry = registry.get("numexample-322")
    fam = family_tableau(3)
    assert np.array_equal(entry.tableau.A, fam.A)
    assert np.array_equal(entry.tableau.b, fam.b)


def test_family_lookup():
    entry = registry.get("family-s5")
    assert entry.c_method == 4.0
    assert entry.dense_weights is None
    entry = registry.get("family-s4")
    assert entry.dense_weights is not None
    assert entry.c_combined == 3.0


def test_unknown_key():
    with pytest.raises(KeyError) as info:
        registry.get("rk4")
    # one typed error, printed unquoted
    assert isinstance(info.value, SspdoError)
    assert str(info.value).startswith("unknown method 'rk4'; available:")


def test_nonssp_weights_shape():
    weights = registry.nonssp_weights_322()
    assert weights.s == 3 and weights.degree == 2
    assert np.all(weights.left_values() == 0.0)
