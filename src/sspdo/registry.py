"""Built-in method registry.

Keys follow the SSP(s, p, pbar) naming: stages, method order, dense-output
order.  Documented coefficients are the published values; the test suite
recomputes them from scratch.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .construct import family_tableau, second_order_weights
from .tableau import ButcherTableau, DenseWeights, validate_tableau


@dataclass(frozen=True)
class MethodRegistryEntry:
    key: str
    tableau: ButcherTableau
    dense_weights: DenseWeights | None
    c_method: float
    c_combined: float | None
    order: int
    dense_order: int | None


def _ssp222():
    tab = validate_tableau([[0, 0], [1, 0]], ["1/2", "1/2"], name="SSP(2,2,2)")
    return MethodRegistryEntry("ssp222", tab, second_order_weights(tab), 1.0, 1.0, 2, 2)


def _ssp322():
    tab = validate_tableau(
        [[0, 0, 0], ["1/2", 0, 0], ["1/2", "1/2", 0]],
        ["1/3", "1/3", "1/3"],
        name="SSP(3,2,2)",
    )
    return MethodRegistryEntry("ssp322", tab, second_order_weights(tab), 2.0, 2.0, 2, 2)


def _ssp332():
    tab = validate_tableau(
        [[0, 0, 0], [1, 0, 0], ["1/4", "1/4", 0]],
        ["1/6", "1/6", "2/3"],
        name="SSP(3,3,2)",
    )
    return MethodRegistryEntry("ssp332", tab, second_order_weights(tab), 1.0, 1.0, 3, 2)


def _numexample322():
    # The three-stage chain of half-size Euler substeps used by the dense
    # output experiment; coincides with family-s3 in Butcher form (checked in
    # tests rather than assumed).
    tab = validate_tableau(
        [[0, 0, 0], ["1/2", 0, 0], ["1/2", "1/2", 0]],
        ["1/3", "1/3", "1/3"],
        name="numexample-322",
    )
    return MethodRegistryEntry(
        "numexample-322", tab, second_order_weights(tab), 2.0, 2.0, 2, 2
    )


_BUILTIN = {
    entry.key: entry for entry in (_ssp222(), _ssp322(), _ssp332(), _numexample322())
}

_FAMILY_KEY = re.compile(r"^family-s(\d+)$")


def get(key: str) -> MethodRegistryEntry:
    """Look up a built-in method; 'family-s<k>' builds the k-stage family member."""
    if key in _BUILTIN:
        return _BUILTIN[key]
    match = _FAMILY_KEY.match(key)
    if match:
        s = int(match.group(1))
        tab = family_tableau(s)
        if s <= 4:
            return MethodRegistryEntry(
                key, tab, second_order_weights(tab), float(s - 1), float(s - 1), 2, 2
            )
        # No quadratic dense output keeps the full coefficient for s >= 5,
        # and no larger-degree formula is documented; ship the method alone.
        return MethodRegistryEntry(key, tab, None, float(s - 1), None, 2, None)
    raise KeyError(f"unknown method {key!r}; available: {keys()} or family-s<k>")


def keys() -> list[str]:
    return sorted(_BUILTIN)


def nonssp_weights_322() -> DenseWeights:
    """The second-order but non-SSP dense weights for the three-stage method:
    (2 theta - theta^2, -2 theta + theta^2, theta).  The middle weight is
    negative on (0,1), so the formula can leave an invariant interval."""
    return DenseWeights([[0.0, 2.0, -1.0], [0.0, -2.0, 1.0], [0.0, 1.0, 0.0]])
