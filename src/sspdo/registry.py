"""Built-in method registry.

Keys follow the SSP(s, p, pbar) naming: stages, method order, dense-output
order.  Documented coefficients are the published values; the test suite
recomputes them from scratch.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .certify import MAX_STAGES
from .construct import family_tableau, second_order_weights
from .errors import InvalidArgumentError, UnknownNameError
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


def _builtin(key, name, A, b, C, order) -> MethodRegistryEntry:
    """A documented method with its quadratic dense weights, which keep C."""
    tab = validate_tableau(A, b, name=name)
    return MethodRegistryEntry(key, tab, second_order_weights(tab), C, C, order, 2)


_SSP322 = ([[0, 0, 0], ["1/2", 0, 0], ["1/2", "1/2", 0]], ["1/3", "1/3", "1/3"])

_BUILTIN = {
    row[0]: _builtin(*row)
    for row in (
        ("ssp222", "SSP(2,2,2)", [[0, 0], [1, 0]], ["1/2", "1/2"], 1.0, 2),
        ("ssp322", "SSP(3,2,2)", *_SSP322, 2.0, 2),
        ("ssp332", "SSP(3,3,2)", [[0, 0, 0], [1, 0, 0], ["1/4", "1/4", 0]],
         ["1/6", "1/6", "2/3"], 1.0, 3),
        # The three-stage chain of half-size Euler substeps used by the dense
        # output experiment; coincides with family-s3 in Butcher form (checked
        # in tests rather than assumed).
        ("numexample-322", "numexample-322", *_SSP322, 2.0, 2),
    )
}

_FAMILY_KEY = re.compile(r"^family-s(\d+)$")


def get(key: str) -> MethodRegistryEntry:
    """Look up a built-in method; 'family-s<k>' builds the k-stage family member."""
    if key in _BUILTIN:
        return _BUILTIN[key]
    match = _FAMILY_KEY.match(key)
    if match:
        digits = match.group(1).lstrip("0") or "0"
        try:
            s = int(digits)
        except ValueError:  # more digits than int() converts
            raise InvalidArgumentError(
                f"the family is built up to s = {MAX_STAGES}, got an s of {len(digits)} digits"
            ) from None
        tab = family_tableau(s)
        if s <= 4:
            return MethodRegistryEntry(
                key, tab, second_order_weights(tab), float(s - 1), float(s - 1), 2, 2
            )
        # No quadratic dense output keeps the full coefficient for s >= 5,
        # and no larger-degree formula is documented; ship the method alone.
        return MethodRegistryEntry(key, tab, None, float(s - 1), None, 2, None)
    raise UnknownNameError(f"unknown method {key!r}; available: {keys()} or family-s<k>")


def keys() -> list[str]:
    return sorted(_BUILTIN)


def nonssp_weights_322() -> DenseWeights:
    """The second-order but non-SSP dense weights for the three-stage method:
    (2 theta - theta^2, -2 theta + theta^2, theta).  The middle weight is
    negative on (0,1), so the formula can leave an invariant interval."""
    return DenseWeights([[0.0, 2.0, -1.0], [0.0, -2.0, 1.0], [0.0, 1.0, 0.0]])
