"""Helpers for polynomials in the monomial basis, coefficient arrays constant-first."""

from __future__ import annotations

import numpy as np
from numpy.polynomial import polynomial as P


def as_poly(coeffs) -> np.ndarray:
    c = np.atleast_1d(np.asarray(coeffs, dtype=float))
    if c.ndim != 1:
        raise ValueError("polynomial coefficients must be one-dimensional")
    return c


def pad(c: np.ndarray, length: int) -> np.ndarray:
    c = as_poly(c)
    if len(c) >= length:
        return c
    out = np.zeros(length)
    out[: len(c)] = c
    return out


def evaluate(c, x):
    return P.polyval(x, as_poly(c))


def derivative(c) -> np.ndarray:
    return P.polyder(as_poly(c))


def _extremum_candidates(c: np.ndarray) -> list[float]:
    """0, 1 and the real critical points of p in (0,1): where p takes its
    extrema on [0,1]."""
    candidates = [0.0, 1.0]
    d = derivative(c)
    if len(d) > 1:
        for root in P.polyroots(d):
            if abs(root.imag) < 1e-12 and 0.0 < root.real < 1.0:
                candidates.append(float(root.real))
    return candidates


def max_abs_on_unit(c) -> tuple[float, float]:
    """Exact max of |p| on [0,1]: endpoints plus real critical points of p.

    Returns (max value, argmax).
    """
    c = as_poly(c)
    candidates = _extremum_candidates(c)
    values = [abs(float(evaluate(c, x))) for x in candidates]
    k = int(np.argmax(values))
    return values[k], candidates[k]


def min_on_unit(c) -> tuple[float, float]:
    """Exact min of p on [0,1], from the same candidates as max_abs_on_unit.
    The coefficients must be finite.

    Returns (min value, argmin).
    """
    c = as_poly(c)
    candidates = _extremum_candidates(c)
    values = [float(evaluate(c, x)) for x in candidates]
    k = int(np.argmin(values))
    return values[k], candidates[k]


def to_string(c, var: str = "t") -> str:
    """Human-readable form, e.g. '1 - 2*t + 1.3333*t^2'."""
    c = as_poly(c)
    parts = []
    for k, a in enumerate(c):
        if a == 0.0 and not (k == 0 and len(c) == 1):
            continue
        mag = abs(a)
        coeff = f"{mag:.10g}"
        if k == 0:
            term = coeff
        else:
            power = var if k == 1 else f"{var}^{k}"
            term = power if mag == 1.0 else f"{coeff}*{power}"
        if not parts:
            parts.append(term if a >= 0 else f"-{term}")
        else:
            parts.append(f"+ {term}" if a >= 0 else f"- {term}")
    return " ".join(parts) if parts else "0"
